"""Numeric policy threaded through every tolerance-sensitive decision."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceVault:
    """Single source of truth for rank cuts, residual gates and RNG seeding.

    Every floating-point decision is one of two relative rules, so a verdict
    does not change when the stress or the realization is rescaled:
    ``rank_rel_tol`` cuts singular values and eigenvalues (the same cut makes
    each eigenvalue zero, positive or negative), and ``residual_tol`` gates a
    quantity that should vanish against the size of its own terms.  The one
    exception takes no tolerance: a generic test is positive when a trial
    proves it, with a bound on the rounding that scales as the trial does.
    ``generic_trials`` is the most trials a generic test runs, in seed order
    from ``rng_seed``: it stops at the first proved trial, and a test with
    none is negative.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-9
    rng_seed: int = 2024
    generic_trials: int = 3

    def __post_init__(self) -> None:
        for name in ("rank_rel_tol", "residual_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive")
            if math.isinf(value):
                raise ValueError(f"{name} must be finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.generic_trials < 1:
            raise ValueError("generic_trials must be at least 1")


DEFAULT_TOL = ToleranceVault()
