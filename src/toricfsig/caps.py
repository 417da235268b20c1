"""The enumeration cap: its default, its environment override and the error
a run past it raises.  Every layer that can do unbounded work checks its
work units against one resolved cap before or while it does them."""

from __future__ import annotations

import os

ENUMERATION_CAP = 2**24
CAP_ENV_VAR = "TORICFSIG_CAP"


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured cap; raise it with the
    --cap flag or the TORICFSIG_CAP environment variable."""


def resolve_cap(cap: int | None) -> int:
    """Explicit cap, else the environment override, else the default; a
    negative cap, or an override that is not an integer, is bad input."""
    source = "--cap"
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return ENUMERATION_CAP
        source = CAP_ENV_VAR
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"{source} must be at least 0, got {cap}")
    return cap


def check_cap(count: int, cap: int, what: str, unit: str = "points") -> None:
    if count > cap:
        raise CapExceededError(
            f"{what} needs {count} {unit}, over the cap of {cap}; "
            f"raise it with --cap or {CAP_ENV_VAR}"
        )
