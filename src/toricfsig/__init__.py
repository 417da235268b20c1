"""Exact invariants of normal affine semigroup rings in prime characteristic:
divisor class groups, Frobenius splitting decompositions, F-signatures, and
a verifier for the torsion bound |tors Cl(R)| <= 1/s(R)."""

from .caps import CapExceededError
from .divisors import (
    ClassElement,
    ClassGroupData,
    WeilDivisor,
    class_group,
    class_of,
    torsion_elements,
)
from .frobenius import (
    FrobeniusContext,
    FrobeniusDecomposition,
    box_count_oracle,
    coset_rows,
    decompose,
    free_rank,
    multiplicity_of,
    simultaneous_torsion_count,
)
from .fsignature import (
    WitnessRow,
    exact_signature_volume,
    signature_sequence,
)
from .linalg import (
    IntMat,
    SmithDecomposition,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
)
from .rings import (
    FacetFunctional,
    Lattice,
    RingFormatError,
    RingSpec,
    load_ring_file,
    parse_builtin,
    validate,
)
from .verify import (
    TheoremVerdict,
    default_corpus,
    run_corpus,
    verify_ring,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ClassElement",
    "ClassGroupData",
    "FacetFunctional",
    "FrobeniusContext",
    "FrobeniusDecomposition",
    "IntMat",
    "Lattice",
    "RingFormatError",
    "RingSpec",
    "SmithDecomposition",
    "TheoremVerdict",
    "WeilDivisor",
    "WitnessRow",
    "box_count_oracle",
    "class_group",
    "class_of",
    "coset_rows",
    "decompose",
    "default_corpus",
    "exact_signature_volume",
    "free_rank",
    "hermite_normal_form",
    "kernel_basis",
    "load_ring_file",
    "multiplicity_of",
    "parse_builtin",
    "run_corpus",
    "signature_sequence",
    "simultaneous_torsion_count",
    "smith_normal_form",
    "torsion_elements",
    "validate",
    "verify_ring",
]
