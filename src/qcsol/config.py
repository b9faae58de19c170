"""Numerical tolerances shared across the library.

All comparisons against "exact" statements (zero gradients, equal
normalized gradients, active constraints, set membership) go through one
Config record so the CLI can override every threshold in one place.
Each field's comment gives its unit: [f] is the objective's, [x] a
coordinate's and [g] a constraint's.  A tolerance in units of f makes a
verdict change when f is scaled: eps_grad, eps_opt, eps_feas on the dot
conditions and the samplers' values, and eps_lp on KKT's multipliers.
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
    eps_grad: float = 1e-8    # [f]/[x]: a gradient with norm <= eps_grad counts as zero
    eps_dir: float = 1e-8     # no unit: cosine distance of equal unit gradients; collinearity gap / |b|
    eps_act: float = 1e-9     # [g], or [x] for an atom: |residual| <= eps_act marks a constraint active
    eps_feas: float = 1e-9    # slack: [x] on set atoms, [g] on constraints, [f] on f and grad f . (x - xbar)
    eps_lp: float = 1e-9      # LP kernel tolerance; [f]/[x] and [f]/[g] on KKT's grad f and lambda
    eps_opt: float = 1e-9     # [f]: f-value band defining the discrete solution set
    delta_open: float = 1e-9  # [x]: interior margin approximating open domains
    seed: int = 42            # default seed for all sampled checks

    def __post_init__(self):
        """Refuse a negative or non-integer seed and a negative or non-finite tolerance."""
        for name, value in vars(self).items():
            ok = hasattr(value, "__index__") if name == "seed" else _is_finite_real(value)
            if isinstance(value, bool) or not ok or value < 0:
                kind = "a nonnegative integer" if name == "seed" else "a nonnegative finite real"
                raise InputError(f"config {name} must be {kind}, got {value!r}")
        object.__setattr__(self, "_hash", hash(tuple(vars(self).values())))  # hashed once

    __hash__ = lambda self: self._hash  # store keys hash a config on every lookup


DEFAULT_CONFIG = Config()
