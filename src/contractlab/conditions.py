"""Checkers for the nonexpansive / contractive drift conditions.

All checks run against model-supplied predictable means, never against means
estimated from a realization, so every verdict is an exact pathwise statement
(up to a configurable floating-point slack).  Limit statements are rendered as
tail-window criteria with explicit tolerances.  On a :class:`VectorProcessPath`
the same checkers apply the conditions to norms: ||m_n|| / ||x_{n-1}|| for the
ratios and ||x_{n-1}||, ||m_n|| for the zero class and the restart means.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .process import (
    ProcessPath,
    VectorProcessPath,
    allowance_array,
    finite_array,
    ratio_band,
    zero_state_band,
)
from .verdict import Band, ConditionVerdict, failing, passing

__all__ = [
    "ConditionVerdict",
    "NonexpansiveProfile",
    "ContractiveProfile",
    "check_nonexpansive",
    "check_contractive",
    "check_zero_state_decay",
]

DEFAULT_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class NonexpansiveProfile:
    """Per-step allowances alpha_n with a finite-sum budget."""

    alphas: np.ndarray
    alpha_sum_cap: float = 1e6

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha_sum_cap):
            raise ValueError("alpha_sum_cap must be finite")
        object.__setattr__(self, "alphas", allowance_array(self.alphas, self.alpha_sum_cap))

    @classmethod
    def constant(cls, value: float, horizon: int, alpha_sum_cap: float = 1e6):
        return cls(np.full(horizon, float(value)), alpha_sum_cap)

    @classmethod
    def zero(cls, horizon: int):
        return cls(np.zeros(horizon))


@dataclass(frozen=True, eq=False)
class ContractiveProfile:
    """Per-step contraction bounds k_n in [0, 1] with a divergence target.

    The divergence of sum(1 - k_n) cannot be observed at a finite horizon, so
    the profile instead demands that the partial sum reach ``divergence_target``
    by the end of the checked path.
    """

    ks: np.ndarray
    divergence_target: float = 5.0

    def __post_init__(self) -> None:
        ks = finite_array(self.ks, "contraction bound")
        if np.any((ks < 0) | (ks > 1)):
            raise ValueError("contraction bounds must lie in [0, 1]")
        object.__setattr__(self, "ks", ks)

    @classmethod
    def constant(cls, value: float, horizon: int, divergence_target: float = 5.0):
        return cls(np.full(horizon, float(value)), divergence_target)


def _ratio_verdict(band: Band) -> ConditionVerdict:
    return band.verdict(
        "ratio {value:.6g} outside bounds at step {step}",
        "{checked} nonzero-class steps checked",
        "vacuous: no steps leave the zero class",
    )


def check_nonexpansive(
    path: ProcessPath | VectorProcessPath,
    profile: NonexpansiveProfile,
    atol: float = DEFAULT_ATOL,
) -> ConditionVerdict:
    """Mean/value ratio lies in [0, 1 + alpha_n] at every nonzero-class step."""
    if len(profile.alphas) < path.horizon:
        raise ValueError("profile does not cover the path horizon")
    return _ratio_verdict(ratio_band(path, 1.0 + profile.alphas[: path.horizon], 0.0, atol=atol))


def check_contractive(
    path: ProcessPath | VectorProcessPath,
    profile: ContractiveProfile,
    atol: float = DEFAULT_ATOL,
) -> ConditionVerdict:
    """Mean/value ratio lies in [0, k_n] and sum(1 - k_n) reaches the target."""
    if len(profile.ks) < path.horizon:
        raise ValueError("profile does not cover the path horizon")
    ks = profile.ks[: path.horizon]
    ratio_verdict = _ratio_verdict(ratio_band(path, ks, 0.0, atol=atol))
    if not ratio_verdict.holds:
        return ratio_verdict
    total = float(np.sum(1.0 - ks))
    if total < profile.divergence_target:
        return failing(
            path.horizon,
            total - profile.divergence_target,
            f"contraction budget {total:.6g} short of target "
            f"{profile.divergence_target:.6g} at the horizon",
        )
    detail = ratio_verdict.detail + f"; contraction budget {total:.6g}"
    return passing(ratio_verdict.worst_margin, detail)


def check_zero_state_decay(
    path: ProcessPath | VectorProcessPath,
    tail_window: Optional[int] = None,
    tol: float = 1e-6,
) -> ConditionVerdict:
    """Restart means must be small late: max |mean| over tail zero-state steps <= tol.

    Only steps whose predecessor is zero-class contribute.  Vacuously true
    when the tail contains no such steps.
    """
    return zero_state_band(path, tail_window, tol).verdict(
        f"restart mean {{worst_value:.6g}} exceeds tol {tol:g}",
        "{checked} zero-state steps in tail window",
        "vacuous: no zero-class predecessors in the tail window",
    )
