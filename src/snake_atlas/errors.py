"""Shared exception types and the size gate (n >= 1, then the ceiling)."""
from __future__ import annotations

import os


class LimitError(ValueError):
    """Requested size exceeds the configured exhaustive-search ceiling."""

    def __init__(self, what: str, n: int, ceiling: int):
        self.n = n
        self.ceiling = ceiling
        super().__init__(f"{what}: n={n} exceeds ceiling {ceiling}")


class SettingError(ValueError):
    """An environment setting holds a value that cannot be used."""


class MembershipError(ValueError):
    """Input lies outside the domain of a map or family.

    ``step`` identifies the first offending restriction level or
    construction step when one is known.
    """

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        super().__init__(message if step is None else f"{message} (step {step})")


def enforce_ceiling(what: str, n: int, max_n, default: int) -> None:
    """Raise ValueError when n < 1, before any setting is read, then
    LimitError when n exceeds the ceiling: ``max_n`` when given, else
    SNAKE_ATLAS_MAX_N when set, else ``default``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_n is not None:
        ceiling = int(max_n)
    else:
        env = os.environ.get("SNAKE_ATLAS_MAX_N")
        try:
            ceiling = int(env) if env else default
        except ValueError:
            raise SettingError(f"SNAKE_ATLAS_MAX_N must be an integer, got {env!r}") from None
    if n > ceiling:
        raise LimitError(what, n, ceiling)
