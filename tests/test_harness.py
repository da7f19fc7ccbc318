import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import (
    ConvergenceClass,
    EnsembleConfig,
    convergence_verdict,
    limit_dispersion,
    run_ensemble,
)
from contractlab.harness import QUANTILE_KEYS, _quantile_curves, child_seed


class TestConvergenceVerdict:
    def test_zero_tail(self):
        v = convergence_verdict(np.zeros(10), tol_zero=1e-9, tol_cauchy=1e-9)
        assert v.kind is ConvergenceClass.CONVERGED_TO_ZERO

    def test_constant_tail_is_finite_limit(self):
        v = convergence_verdict(np.full(10, 7.3), tol_zero=1e-3, tol_cauchy=1e-6)
        assert v.kind is ConvergenceClass.FINITE_LIMIT
        assert v.final_value == pytest.approx(7.3)

    def test_small_constant_prefers_zero(self):
        # precedence: zero before finite limit
        v = convergence_verdict(np.full(10, 1e-6), tol_zero=1e-3, tol_cauchy=1e-6)
        assert v.kind is ConvergenceClass.CONVERGED_TO_ZERO

    def test_ramp_diverges_past_cap(self):
        tail = np.linspace(1e7, 2e7, 50)
        v = convergence_verdict(tail, tol_zero=0.1, tol_cauchy=1.0, divergence_cap=1e6)
        assert v.kind is ConvergenceClass.DIVERGED

    def test_wandering_path_inconclusive(self):
        tail = np.array([0.0, 5.0, -3.0, 4.0])
        v = convergence_verdict(tail, tol_zero=0.1, tol_cauchy=0.5, divergence_cap=1e6)
        assert v.kind is ConvergenceClass.INCONCLUSIVE

    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            convergence_verdict([], 0.1, 0.1)


class TestLimitDispersion:
    def test_identical_finals(self):
        assert limit_dispersion([2.0, 2.0, 2.0]) == 0.0

    def test_two_point_sample_sd(self):
        assert limit_dispersion([-1.0, 1.0]) == pytest.approx(math.sqrt(2.0))

    def test_needs_two(self):
        with pytest.raises(ValueError):
            limit_dispersion([1.0])


def halving_values(seed_sequence):
    values = [1.0]
    for _ in range(100):
        values.append(0.5 * values[-1])
    return np.asarray(values)


def walk_values(seed_sequence):
    rng = np.random.default_rng(seed_sequence)
    return np.cumsum(rng.normal(size=2000))


def seed_by_seed(values_of):
    """A solver pairing ``values_of(seed)`` with no payload, one seed after another."""
    return lambda seed_sequences: ((values_of(ss), None) for ss in seed_sequences)


class TestRunEnsemble:
    def config(self, **kw):
        base = dict(
            seeds=20,
            root_seed=7,
            horizon=100,
            tail_fraction=0.2,
            tol_zero=1e-3,
            tol_cauchy=1e-3,
            parallelism=1,
        )
        base.update(kw)
        return EnsembleConfig(**base)

    def test_noiseless_halving_all_converge(self):
        stats = run_ensemble(seed_by_seed(halving_values), self.config())
        assert stats.fraction(ConvergenceClass.CONVERGED_TO_ZERO) == 1.0

    def test_random_walk_never_converges_to_zero(self):
        stats = run_ensemble(seed_by_seed(walk_values), self.config(horizon=2000, tol_zero=0.05))
        assert stats.fraction(ConvergenceClass.CONVERGED_TO_ZERO) == 0.0

    def test_fractions_sum_to_one(self):
        stats = run_ensemble(seed_by_seed(walk_values), self.config(horizon=2000))
        assert sum(stats.fraction_by_class.values()) == pytest.approx(1.0)

    def test_factory_failure_recorded_not_raised(self):
        def flaky(seed_sequence):
            rng = np.random.default_rng(seed_sequence)
            if rng.random() < 0.3:
                raise RuntimeError("boom")
            return np.zeros(50)

        stats = run_ensemble(seed_by_seed(flaky), self.config())
        kinds = {v.kind for v in stats.per_seed}
        assert ConvergenceClass.INCONCLUSIVE in kinds
        assert ConvergenceClass.CONVERGED_TO_ZERO in kinds
        notes = [v.note for v in stats.per_seed if v.kind is ConvergenceClass.INCONCLUSIVE]
        assert all("boom" in n for n in notes)

    def test_serialized_stats_reproducible(self):
        a = run_ensemble(seed_by_seed(walk_values), self.config(horizon=500))
        b = run_ensemble(seed_by_seed(walk_values), self.config(horizon=500))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    @given(
        seeds=st.integers(1, 12),
        failing=st.sets(st.integers(0, 11), max_size=3),
        short=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_equals_per_seed(self, seeds, failing, short):
        def one(seed_sequence):
            index = seed_sequence.spawn_key[0]
            if index in failing:
                raise RuntimeError(f"boom at seed {index}")
            return walk_values(seed_sequence)[:300], {"index": index}

        calls = []

        def solve(seed_sequences):
            calls.append([ss.spawn_key[0] for ss in seed_sequences])
            outs = map(one, seed_sequences)  # raises at the first failing seed
            if short and len(seed_sequences) > 1:  # ends one seed early, raising nothing
                return list(outs)[:-1]
            return outs

        config = self.config(seeds=seeds, horizon=300)
        grid = [0, 150, 299]
        per_seed = run_ensemble(solve, config, grid, 1)
        assert calls == [[i] for i in range(seeds)]  # each seed solved exactly once
        for size in (2, 3, None):
            block = run_ensemble(solve, config, grid, size)
            assert json.dumps(block.to_dict()) == json.dumps(per_seed.to_dict())
            assert block.payloads == per_seed.payloads
            notes = [v.note for v in block.per_seed]
            assert notes == [
                f"RuntimeError: boom at seed {i}" if i in failing else "" for i in range(seeds)
            ]

    def test_solver_without_output_errors_its_seed(self):
        stats = run_ensemble(lambda seed_sequences: [], self.config(seeds=3))
        assert [v.note for v in stats.per_seed] == ["the solver gave 0 of 1 outputs"] * 3
        assert stats.payloads == (None, None, None)

    def test_payloads_and_curves(self):
        def pair(seed_sequence):
            rng = np.random.default_rng(seed_sequence)
            values = np.abs(rng.normal(size=100)) / np.arange(1, 101)
            return values, {"seed_note": float(values[-1])}

        grid = [0, 49, 99]
        stats = run_ensemble(lambda sss: map(pair, sss), self.config(), curve_grid=grid)
        assert len(stats.payloads) == 20
        assert stats.curves is not None
        assert stats.curves["n"] == grid
        assert len(stats.curves["q50"]) == 3
        assert "curves" in stats.to_dict()
        assert "payloads" not in stats.to_dict()

    def test_quantiles_of_final_values(self):
        def final_normal(seed_sequence):
            rng = np.random.default_rng(seed_sequence)
            return np.full(10, rng.normal())

        stats = run_ensemble(seed_by_seed(final_normal), self.config(seeds=200))
        assert stats.final_abs_quantiles["q05"] <= stats.final_abs_quantiles["q95"]
        assert stats.dispersion == pytest.approx(1.0, rel=0.25)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(seeds=0, root_seed=1, horizon=10)
        with pytest.raises(ValueError):
            EnsembleConfig(seeds=1, root_seed=1, horizon=10, tail_fraction=1.5)


def _per_column_quantiles(mat):
    """The quantiles of each column's finite entries, one column at a time."""
    rows = []
    for _, q in QUANTILE_KEYS:
        row = []
        for j in range(mat.shape[1]):
            col = mat[:, j]
            col = col[np.isfinite(col)]
            row.append(float(np.quantile(col, q)) if col.size else math.nan)
        rows.append(row)
    return rows


@given(
    data=st.data(),
    rows=st.integers(1, 30),
    cols=st.integers(1, 12),
    holes=st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=20),
)
@settings(max_examples=80, deadline=None)
def test_quantile_curves_match_per_column(data, rows, cols, holes):
    values = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, 1.0, 2.5])
    mat = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))
    mat = mat.reshape(rows, cols)
    for hole in holes:
        mat[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))] = hole
    got = [row.tolist() for row in _quantile_curves(mat)]
    assert json.dumps(got) == json.dumps(_per_column_quantiles(mat))


def test_quantile_curves_keep_the_per_column_zero_sign():
    # 0.0 and -0.0 compare equal; which one np.quantile returns depends on the
    # columns and quantiles of the call (the last column also holds a NaN)
    mat = np.array(
        [
            [0.0, 1.0, 0.0, -0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, 0.0, -0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, -0.0, -0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [-0.0, -0.0, 0.0, 2.5, -1.0, -1.0, math.nan, -1.0, 0.0, -1.0, 2.5],
        ]
    ).T
    got = [row.tolist() for row in _quantile_curves(mat)]
    assert json.dumps(got) == json.dumps(_per_column_quantiles(mat))


class TestSeedSplitting:
    def test_children_are_stable_and_distinct(self):
        a1 = np.random.default_rng(child_seed(42, 0)).normal(size=4)
        a2 = np.random.default_rng(child_seed(42, 0)).normal(size=4)
        b = np.random.default_rng(child_seed(42, 1)).normal(size=4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
