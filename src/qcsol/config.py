"""Numerical tolerances shared across the library.

All comparisons against "exact" statements (zero gradients, equal
normalized gradients, active constraints, set membership) go through one
Config record so the CLI can override every threshold in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError


def _is_finite_real(value) -> bool:
    """An int or float (not a boolean) that is finite as a float."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


@dataclass(frozen=True)
class Config:
    eps_grad: float = 1e-8    # a gradient with norm <= eps_grad counts as zero
    eps_dir: float = 1e-8     # cosine-distance tolerance for equal unit gradients
    eps_act: float = 1e-9     # |residual| <= eps_act marks a constraint active
    eps_feas: float = 1e-9    # slack tolerance for set membership / inequalities
    eps_lp: float = 1e-9      # pivot / certificate tolerance of the LP kernel
    eps_opt: float = 1e-9     # f-value band defining the discrete solution set
    delta_open: float = 1e-9  # interior margin approximating open domains
    seed: int = 42            # default seed for all sampled checks

    def __post_init__(self):
        """Refuse a negative or non-integer seed and a negative or non-finite tolerance."""
        for name, value in vars(self).items():
            ok = hasattr(value, "__index__") if name == "seed" else _is_finite_real(value)
            if isinstance(value, bool) or not ok or value < 0:
                kind = "a nonnegative integer" if name == "seed" else "a nonnegative finite real"
                raise InputError(f"config {name} must be {kind}, got {value!r}")


DEFAULT_CONFIG = Config()
