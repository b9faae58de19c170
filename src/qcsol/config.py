"""Numerical tolerances shared across the library.

All comparisons against "exact" statements (zero gradients, equal
normalized gradients, active constraints, set membership) go through one
Config record so the CLI can override every threshold in one place.
"""

from __future__ import annotations

from dataclasses import dataclass


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


DEFAULT_CONFIG = Config()
