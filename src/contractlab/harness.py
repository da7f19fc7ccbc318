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
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ConvergenceClass",
    "ConvergenceVerdict",
    "EnsembleConfig",
    "EnsembleStats",
    "convergence_verdict",
    "tail_length",
    "tail_verdict",
    "Tail",
    "TailFold",
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
    folded = TailFold(1, len(tail), 0, None).add(tail[:, None]).tails()[0]
    return folded.verdict(tol_zero, tol_cauchy, divergence_cap)


class Tail(NamedTuple):
    """What one seed's verdict and curves read of its values: the max, min and
    last value of its tail window, and its curve samples |value| (or None)."""

    hi: float
    lo: float
    last: float
    samples: Optional[np.ndarray]

    def verdict(
        self, tol_zero: float, tol_cauchy: float, divergence_cap: float
    ) -> ConvergenceVerdict:
        """The classification (see :class:`ConvergenceVerdict`); the tail sup is
        max(|max|, |min|), the max of |value| to the bit."""
        tail_sup = max(abs(self.hi), abs(self.lo))
        oscillation = self.hi - self.lo
        if tail_sup <= tol_zero:
            kind = ConvergenceClass.CONVERGED_TO_ZERO
        elif oscillation <= tol_cauchy:
            kind = ConvergenceClass.FINITE_LIMIT
        elif tail_sup > divergence_cap:
            kind = ConvergenceClass.DIVERGED
        else:
            kind = ConvergenceClass.INCONCLUSIVE
        return ConvergenceVerdict(kind, tail_sup, oscillation, self.last)


class TailFold:
    """The :class:`Tail` of each of S seeds, folded over their values window by window.

    The seeds have ``length`` values each, the tail window starting at value
    ``start``; :meth:`add` takes the next (w, S) values.  Max, min and the
    curve samples are exact, so any split into windows gives the same tails.
    """

    def __init__(self, seeds: int, length: int, start: int, grid: Optional[np.ndarray]):
        self.length, self.start, self.grid, self.n = length, start, grid, 0
        self.hi, self.lo = np.full(seeds, -math.inf), np.full(seeds, math.inf)
        self.last = np.full(seeds, math.nan)
        self.samples = None if grid is None else np.empty((grid.size, seeds))

    @classmethod
    def of(cls, seeds: int, length: int, config: "EnsembleConfig", grid) -> "TailFold":
        """The fold of ``length`` values a seed whose tail window is ``config``'s."""
        return cls(seeds, length, length - tail_length(length, config.tail_fraction), grid)

    def add(self, values: np.ndarray) -> "TailFold":
        n, w = self.n, len(values)
        tail = values[max(self.start - n, 0) :]
        if len(tail):
            np.maximum(self.hi, tail.max(axis=0), out=self.hi)
            np.minimum(self.lo, tail.min(axis=0), out=self.lo)
        self.last = values[-1].copy()
        if self.grid is not None:
            lo, hi = np.searchsorted(self.grid, (n, n + w))
            np.abs(values[self.grid[lo:hi] - n], out=self.samples[lo:hi])
        self.n = n + w
        return self

    def tails(self) -> list:
        """Each seed's :class:`Tail`, once every value is folded."""
        if self.n != self.length:
            raise ValueError(f"folded {self.n} of {self.length} values")
        hi, lo, last = self.hi.tolist(), self.lo.tolist(), self.last.tolist()
        samples = [None] * len(hi) if self.samples is None else list(self.samples.T)
        return [Tail(*fields) for fields in zip(hi, lo, last, samples)]


@dataclass(frozen=True)
class EnsembleConfig:
    """How many seeds, how long, and what counts as converged.

    ``parallelism`` is accepted so that older configs still load, and ignored:
    seeds run in one thread.  ``seeds``, ``root_seed`` and ``horizon`` are
    None only for a check of given paths, which runs no ensemble.
    """

    seeds: Optional[int]
    root_seed: Optional[int]
    horizon: Optional[int]
    tail_fraction: float = 0.2
    tol_zero: float = 1e-3
    tol_cauchy: float = 1e-3
    parallelism: int = 1
    divergence_cap: float = 1e6

    def __post_init__(self) -> None:
        if self.seeds is not None and self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.horizon is not None and self.horizon < 1:
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

    :meth:`to_dict` serializes the verdicts, fractions, quantiles and
    dispersion.  ``curves`` is written to ``quantiles.csv`` instead, and
    ``payloads``, whatever extras the solver returned per seed, is
    experiment-internal.
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
        return {
            "per_seed": [asdict(v) for v in self.per_seed],
            "fraction_by_class": dict(self.fraction_by_class),
            "final_abs_quantiles": dict(self.final_abs_quantiles),
            "dispersion": self.dispersion,
        }


def tail_length(n: int, fraction: float) -> int:
    """The length of the tail window of ``n`` values: ``fraction`` of them, rounded, at least 1."""
    return max(1, int(round(n * fraction)))


def tail_verdict(values: np.ndarray, config: EnsembleConfig) -> ConvergenceVerdict:
    """Classify a path from its :func:`tail_length` last values."""
    tail = _fold_one(values, config, None)
    return tail.verdict(config.tol_zero, config.tol_cauchy, config.divergence_cap)


def _fold_one(values, config: EnsembleConfig, grid: Optional[np.ndarray]) -> Tail:
    """The :class:`Tail` of one seed's values, folded as one window."""
    values = np.asarray(values, dtype=float)
    return TailFold.of(1, len(values), config, grid).add(values[:, None]).tails()[0]


def _reduce_one(values, config: EnsembleConfig, grid: Optional[np.ndarray]):
    """One seed's verdict and curve samples, from its :class:`Tail` or from its values."""
    tail = values if isinstance(values, Tail) else _fold_one(values, config, grid)
    return tail.verdict(config.tol_zero, config.tol_cauchy, config.divergence_cap), tail.samples


def run_ensemble(
    solve: Callable,
    config: EnsembleConfig,
    curve_grid: Optional[Sequence[int]] = None,
) -> EnsembleStats:
    """Run ``solve`` over the seeds and aggregate tail-window verdicts.

    ``solve`` receives a list of every seed's SeedSequence and returns an
    iterable of one (values, payload) pair per seed, in seed order; each pair
    is reduced as soon as it arrives.  The values are the seed's whole value
    array, or its :class:`Tail` when the solver folded them window by window
    (a :class:`TailFold` over ``horizon + 1`` values and ``curve_grid``), so
    that no path is held.  When the call raises (or ends early),
    its remaining seeds rerun alone through ``solve([seed])``, solved once
    each, so a failure is recorded as inconclusive for the seed that raised,
    with the message in ``note``, and never aborts the rest.
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

    verdicts = []
    finals = []
    payloads = []
    curve_rows = []
    for out, error in outputs(seeds):
        if error is not None:
            nan = math.nan
            verdicts.append(ConvergenceVerdict(ConvergenceClass.INCONCLUSIVE, nan, nan, nan, error))
            payloads.append(None)
            continue
        values, payload = out
        verdict, samples = _reduce_one(values, config, grid)
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
    if grid is not None:
        curves = {"n": [int(i) for i in grid]}
        table = _quantile_curves(np.array(curve_rows, dtype=float).reshape(-1, grid.size))
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

    Rows are quantiles, columns those of ``mat``, whose entries are
    magnitudes (no -0.0).  All-finite columns go through one vectorised call;
    only a column holding a NaN or inf is filtered on its own.
    """
    qs = [q for _, q in QUANTILE_KEYS]
    finite = np.isfinite(mat)
    clean = finite.all(axis=0)
    table = np.full((len(qs), mat.shape[1]), math.nan)
    if len(mat) and clean.any():
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
