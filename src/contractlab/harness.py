"""Seeded Monte Carlo ensembles with per-path convergence classification.

Almost-sure limit statements become "at least a threshold fraction of seeds"
statements over finite horizons; the classification of each path looks only
at a tail window.  Ensembles are reproducible: child generators are split
from the root seed by spawn key, so results do not depend on whether seeds
run one at a time or in a block.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ConvergenceClass",
    "ConvergenceVerdict",
    "EnsembleConfig",
    "EnsembleStats",
    "convergence_verdict",
    "tail_length",
    "tail_verdict",
    "child_seed",
    "run_ensemble",
    "limit_dispersion",
]

QUANTILE_KEYS: Tuple[Tuple[str, float], ...] = (
    ("q05", 0.05),
    ("q25", 0.25),
    ("q50", 0.50),
    ("q75", 0.75),
    ("q95", 0.95),
)


class ConvergenceClass(str, Enum):
    CONVERGED_TO_ZERO = "converged_to_zero"
    FINITE_LIMIT = "finite_limit"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Tail-window classification of one path.

    Precedence: zero before finite limit before divergence.  A path counts as
    converged to zero when the tail sup of |value| is within ``tol_zero``; as
    a finite limit when the tail oscillation is within ``tol_cauchy``; as
    diverged when the tail sup exceeds the divergence cap.
    """

    kind: ConvergenceClass
    tail_sup: float
    tail_oscillation: float
    final_value: float
    note: str = ""


def convergence_verdict(
    tail: Sequence[float],
    tol_zero: float,
    tol_cauchy: float,
    divergence_cap: float = 1e6,
) -> ConvergenceVerdict:
    """Classify a path from its tail window of values."""
    tail = np.asarray(tail, dtype=float)
    if tail.size == 0:
        raise ValueError("tail must be nonempty")
    tail_sup = float(np.abs(tail).max())
    oscillation = float(tail.max() - tail.min())
    final = float(tail[-1])
    if tail_sup <= tol_zero:
        kind = ConvergenceClass.CONVERGED_TO_ZERO
    elif oscillation <= tol_cauchy:
        kind = ConvergenceClass.FINITE_LIMIT
    elif tail_sup > divergence_cap:
        kind = ConvergenceClass.DIVERGED
    else:
        kind = ConvergenceClass.INCONCLUSIVE
    return ConvergenceVerdict(kind, tail_sup, oscillation, final)


@dataclass(frozen=True)
class EnsembleConfig:
    """How many seeds, how long, and what counts as converged.

    ``parallelism`` is accepted so that older configs still load, and ignored:
    seeds run in one thread.
    """

    seeds: int
    root_seed: int
    horizon: int
    tail_fraction: float = 0.2
    tol_zero: float = 1e-3
    tol_cauchy: float = 1e-3
    parallelism: int = 1
    divergence_cap: float = 1e6

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 < self.tail_fraction < 1:
            raise ValueError("tail_fraction must lie in (0, 1)")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def child_seed(root_seed: int, index: int) -> np.random.SeedSequence:
    """The documented splitting rule: spawn key (index,) under the root entropy."""
    return np.random.SeedSequence(entropy=root_seed, spawn_key=(index,))


@dataclass(eq=False)
class EnsembleStats:
    """Aggregated per-seed verdicts plus distributional summaries.

    ``payloads`` carries whatever extras the solver returned per seed; it is
    experiment-internal and excluded from serialization.
    """

    per_seed: Tuple[ConvergenceVerdict, ...]
    fraction_by_class: Dict[str, float]
    final_abs_quantiles: Dict[str, float]
    dispersion: float
    curves: Optional[Dict[str, list]] = None
    payloads: Tuple[object, ...] = field(default=(), repr=False)

    def fraction(self, kind: ConvergenceClass) -> float:
        return self.fraction_by_class[kind.value]

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seeds": len(self.per_seed),
            "fraction_by_class": dict(self.fraction_by_class),
            "final_abs_quantiles": dict(self.final_abs_quantiles),
            "dispersion": self.dispersion,
            "per_seed": [asdict(v) for v in self.per_seed],
        }
        if self.curves is not None:
            out["curves"] = self.curves
        return out


def tail_length(n: int, fraction: float) -> int:
    """The length of the tail window of ``n`` values: ``fraction`` of them, rounded, at least 1."""
    return max(1, int(round(n * fraction)))


def tail_verdict(values: np.ndarray, config: EnsembleConfig) -> ConvergenceVerdict:
    """Classify a path from its :func:`tail_length` last values."""
    tail = values[-tail_length(len(values), config.tail_fraction) :]
    return convergence_verdict(tail, config.tol_zero, config.tol_cauchy, config.divergence_cap)


def _reduce_one(values: np.ndarray, config: EnsembleConfig, grid: Optional[np.ndarray]):
    values = np.asarray(values, dtype=float)
    samples = np.abs(values[grid]) if grid is not None else None
    return tail_verdict(values, config), samples


def run_ensemble(
    solve: Callable,
    config: EnsembleConfig,
    curve_grid: Optional[Sequence[int]] = None,
    block_size: Optional[int] = None,
) -> EnsembleStats:
    """Run ``solve`` over the seeds and aggregate tail-window verdicts.

    ``solve`` receives a list of ``block_size`` (default: every) seeds'
    SeedSequences and returns an iterable of one (values, payload) pair per
    seed, in seed order; each pair is reduced as soon as it arrives.  When a
    chunk raises (or ends early), its remaining seeds rerun alone through
    ``solve([seed])``, solved once each, so a failure is recorded as
    inconclusive for the seed that raised, with the message in ``note``, and
    never aborts the rest.
    """
    grid = None if curve_grid is None else np.asarray(curve_grid, dtype=int)
    seeds = [child_seed(config.root_seed, i) for i in range(config.seeds)]

    def outputs(chunk):
        done = 0
        try:
            for out in solve(chunk):
                yield out, None
                done += 1
                if done == len(chunk):
                    return
            error = f"the solver gave {done} of {len(chunk)} outputs"
        except Exception as exc:  # recorded, not raised: the ensemble must finish
            error = f"{type(exc).__name__}: {exc}"
        if len(chunk) == 1:
            yield None, error
        else:
            for seed in chunk[done:]:
                yield from outputs([seed])

    size = block_size or len(seeds)
    chunks = (seeds[start : start + size] for start in range(0, len(seeds), size))

    verdicts = []
    finals = []
    payloads = []
    curve_rows = []
    for out, error in (pair for chunk in chunks for pair in outputs(chunk)):
        if error is not None:
            nan = math.nan
            verdicts.append(ConvergenceVerdict(ConvergenceClass.INCONCLUSIVE, nan, nan, nan, error))
            payloads.append(None)
            continue
        values, payload = out
        verdict, samples = _reduce_one(np.asarray(values, dtype=float), config, grid)
        verdicts.append(verdict)
        finals.append(verdict.final_value)
        payloads.append(payload)
        if samples is not None:
            curve_rows.append(samples)

    counts = {kind.value: 0 for kind in ConvergenceClass}
    for v in verdicts:
        counts[v.kind.value] += 1
    fractions = {k: c / len(verdicts) for k, c in counts.items()}

    finals_arr = np.asarray(finals, dtype=float)
    if finals_arr.size:
        abs_finals = np.abs(finals_arr)
        quantiles = {k: float(np.quantile(abs_finals, q)) for k, q in QUANTILE_KEYS}
        dispersion = limit_dispersion(finals_arr) if finals_arr.size > 1 else 0.0
    else:
        quantiles = {k: math.nan for k, _ in QUANTILE_KEYS}
        dispersion = math.nan

    curves = None
    if grid is not None and curve_rows:
        curves = {"n": [int(i) for i in grid]}
        table = _quantile_curves(np.vstack(curve_rows))
        for row, (key, _) in enumerate(QUANTILE_KEYS):
            curves[key] = table[row].tolist()

    return EnsembleStats(
        per_seed=tuple(verdicts),
        fraction_by_class=fractions,
        final_abs_quantiles=quantiles,
        dispersion=dispersion,
        curves=curves,
        payloads=tuple(payloads),
    )


def _quantile_curves(mat: np.ndarray) -> np.ndarray:
    """The ``QUANTILE_KEYS`` quantiles of each column's finite entries (NaN if none).

    Rows are quantiles, columns those of ``mat``.  All-finite columns go
    through one vectorised call; only a column holding a NaN or inf is
    filtered on its own.  So is a column holding -0.0, one quantile at a
    time: 0.0 and -0.0 compare equal, so which of them ``np.quantile`` returns
    depends on the columns and quantiles of the call.
    """
    qs = [q for _, q in QUANTILE_KEYS]
    finite = np.isfinite(mat)
    clean = (finite & ~((mat == 0) & np.signbit(mat))).all(axis=0)
    table = np.full((len(qs), mat.shape[1]), math.nan)
    if clean.any():
        table[:, clean] = np.quantile(mat[:, clean], qs, axis=0)
    for j in np.flatnonzero(~clean):
        col = mat[finite[:, j], j]
        if col.size:
            table[:, j] = [np.quantile(col, q) for q in qs]
    return table


def limit_dispersion(finals: Sequence[float]) -> float:
    """Sample standard deviation of per-seed final values (needs >= 2 seeds)."""
    finals = np.asarray(finals, dtype=float)
    if finals.size < 2:
        raise ValueError("need at least two final values")
    return float(np.std(finals, ddof=1))
