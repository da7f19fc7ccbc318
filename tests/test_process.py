import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import (
    ProcessPath,
    Schedule,
    check_ratio_sandwich,
    check_segment_peak_bound,
    crossing_report,
    derive_truncated,
    doob_decompose,
    kronecker_path,
    max_growth_factor,
)
from contractlab.process import (
    drift_pairs,
    ratio_band,
    row_norms,
    zero_state_band,
    zero_state_mask,
)
from contractlab.verdict import DEFAULT_ATOL, Scratch
from helpers import ar_path, brute_crossings, halving_noise_path


class TestDoobDecompose:
    def test_noiseless_halving(self):
        path = doob_decompose([1, 0.5, 0.25], [0.5, 0.25])
        assert np.array_equal(path.eps, [0.0, 0.0])

    def test_direct_subtraction(self):
        path = doob_decompose([0, 1], [0.2])
        assert path.eps[0] == pytest.approx(0.8)

    def test_ar_round_trip(self):
        xs, ms = ar_path(500, seed=7)
        path = doob_decompose(xs, ms)
        rebuilt = np.concatenate(([path.x0], path.ms + path.eps))
        scale = np.maximum(np.abs(xs), 1.0)
        assert np.max(np.abs(rebuilt - xs) / scale) <= 1e-12

    def test_decomposition_identity(self):
        # x_n = x_0 + sum(m_i - x_{i-1}) + sum(eps_i)
        xs, ms = ar_path(100, seed=3)
        path = doob_decompose(xs, ms)
        drift = np.cumsum(path.ms - path.xs[:-1])
        mart = np.cumsum(path.eps)
        assert np.allclose(path.x0 + drift + mart, xs[1:], rtol=0, atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            doob_decompose([1, 2, 3], [0.5])

    def test_nonfinite_reports_index(self):
        with pytest.raises(ValueError, match="index 2"):
            doob_decompose([1.0, 2.0, math.nan, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="ms at index 1"):
            doob_decompose([1.0, 2.0, 3.0], [1.0, math.inf])

    def test_vector_round_trip(self):
        xs = np.array([[1.0, -2.0], [0.5, -1.0], [0.3, -0.4]])
        ms = np.array([[0.5, -1.0], [0.25, -0.5]])
        path = doob_decompose(xs, ms)
        assert path.xs.shape == (3, 2) and path.p == 2
        assert np.array_equal(path.ms + path.eps, xs[1:])
        assert np.array_equal(path.component(1).xs, xs[:, 1])

    def test_vector_nonfinite_reports_the_step(self):
        xs = np.zeros((4, 3))
        with pytest.raises(ValueError, match="xs at index 2"):
            doob_decompose(np.where(np.arange(12).reshape(4, 3) == 7, math.nan, xs), xs[1:])
        with pytest.raises(ValueError, match="ms at index 1"):
            doob_decompose(xs, [[0.0, 0.0, 0.0], [0.0, 0.0, math.inf], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "xs, ms",
        [
            (np.zeros((3, 2)), np.zeros((2, 3))),  # components differ
            (np.zeros((3, 2)), np.zeros((3, 2))),  # one mean too many
            (np.zeros((3, 2)), np.zeros(2)),  # vector values, scalar means
            (np.zeros((3, 2, 1)), np.zeros((2, 2, 1))),
        ],
    )
    def test_vector_shape_mismatch(self, xs, ms):
        with pytest.raises(ValueError):
            doob_decompose(xs, ms)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, xs, seed):
        rng = np.random.default_rng(seed)
        ms = rng.normal(size=len(xs) - 1)
        path = doob_decompose(xs, ms)
        rebuilt = np.concatenate(([path.x0], path.ms + path.eps))
        scale = np.maximum(np.abs(xs), 1.0)
        assert np.max(np.abs(rebuilt - np.asarray(xs, float)) / scale) <= 1e-12


def restart_means(path):
    """(step, mean) at the steps whose predecessor is zero-class."""
    mask = zero_state_mask(path)
    return list(zip((np.flatnonzero(mask) + 1).tolist(), path.ms[mask].tolist()))


class TestZeroStateMeans:
    def test_zero_start_triggers(self):
        path = doob_decompose([0, 0.3, 0.5], [0.1, 0.4])
        assert restart_means(path)[0] == (1, 0.1)

    def test_no_zero_states(self):
        path = doob_decompose([1, 2, 3], [2, 3])
        assert restart_means(path) == []

    def test_kronecker_zero_states_give_zero(self):
        ys = [(-1.0) ** i for i in range(1, 201)]
        path = kronecker_path(ys, np.arange(1.0, 201.0))
        entries = restart_means(path)
        assert entries, "alternating sums revisit zero"
        assert all(u == 0.0 for _, u in entries)

    def test_zero_tol_classification(self):
        path = ProcessPath(np.array([0.05, 1.0]), np.array([0.5]), zero_tol=0.1)
        assert restart_means(path) == [(1, 0.5)]

    @pytest.mark.parametrize("zero_tol", [0.0, 0.5])
    def test_vector_predecessor_is_classed_by_its_row_norm(self, zero_tol):
        # |1e-170| > 0, but the row norm squares it to zero
        xs = np.array([[1e-170, 0.0], [0.6, 0.8], [0.0, 0.0], [0.1, -0.2], [1.0, 1.0]])
        path = ProcessPath(xs, 0.5 * xs[:-1], zero_tol)
        want = np.linalg.norm(xs[:-1], axis=1) <= zero_tol
        assert np.array_equal(zero_state_mask(path), want)
        assert want[0] and not want[1]


# finite values at least 1e-3 from zero, or zero, so no mean/predecessor ratio overflows
MILLIS = st.floats(-1e3, 1e3).map(lambda v: round(v, 3))


@st.composite
def finite_paths(draw):
    """A finite scalar (p = 0) or vector path, with a drawn ``zero_tol``."""
    p, horizon = draw(st.integers(0, 3)), draw(st.integers(1, 20))
    shape = (horizon + 1,) + ((p,) if p else ())
    size = 2 * int(np.prod(shape))
    xs, ms = np.array(draw(st.lists(MILLIS, min_size=size, max_size=size))).reshape((2, *shape))
    zero_tol = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2e3))
    return ProcessPath(xs, ms[1:], zero_tol)


@given(finite_paths())
@settings(max_examples=100, deadline=None)
def test_every_step_is_in_exactly_one_zero_class(path):
    """The ratio checks and the zero-state check split the steps between them."""
    off_zero = ratio_band(path, 1e300).checked
    zero_class = zero_state_band(path, path.horizon, 1e300).checked
    assert off_zero + zero_class == path.horizon
    assert zero_class == int(zero_state_mask(path).sum())


class TestCrossingReport:
    def test_forced_sequence(self):
        path = doob_decompose([1, 2, -1, 0, 3], [2, -1, 0, 3])
        rep = crossing_report(path)
        assert rep.crossing_times == (2, 3, 4)
        assert rep.n_t == 3
        assert rep.sign_classes.tolist() == [1, 1, -1, 0, 1]
        assert rep.last_segment_open

    def test_constant_path(self):
        rep = crossing_report(doob_decompose([1, 1, 1], [1, 1]))
        assert rep.crossing_times == ()
        assert rep.n_t == 0
        assert not rep.last_segment_open

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_rescan(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.normal(size=11))
        xs[rng.integers(0, 11)] = 0.0
        path = doob_decompose(xs, np.zeros(10))
        rep = crossing_report(path)
        classes, times, peaks = brute_crossings(xs)
        assert rep.sign_classes.tolist() == classes
        assert list(rep.crossing_times) == times
        assert list(rep.w) == peaks  # a maximum is exact in any order

    def test_segment_class_constant_and_peak_dominates(self):
        rng = np.random.default_rng(42)
        xs = np.cumsum(rng.normal(size=200))
        path = doob_decompose(xs, np.zeros(199))
        rep = crossing_report(path)
        times = list(rep.crossing_times) + [len(xs)]
        for j in range(rep.n_t):
            seg = slice(times[j], times[j + 1])
            cls = rep.sign_classes[seg]
            assert np.all(cls == cls[0])
            assert rep.w[j] >= np.max(np.abs(xs[seg]))
        # concatenated segments plus the pre-crossing prefix cover the horizon
        assert times[0] >= 1 and times[-1] == len(xs)


class TestGrowthKernel:
    def test_direct_product(self):
        assert max_growth_factor([0.1, 0.2]) == pytest.approx(1.32)

    def test_empty_window_is_one(self):
        assert max_growth_factor([]) == 1.0

    def test_max_matches_exhaustive_enumeration(self):
        alphas = 1.0 / np.arange(1, 101) ** 2
        best = max(
            float(np.prod(1.0 + alphas[t - k : t]))
            for t in range(1, 101)
            for k in range(0, t + 1)
        )
        assert max_growth_factor(alphas) == pytest.approx(best, rel=1e-12)

    def test_overflowing_product_is_inf(self):
        assert max_growth_factor(np.ones(1100)) == math.inf  # and numpy does not warn

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_kernel_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite alpha at index 1"):
            max_growth_factor(np.array([0.1, bad]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_growth_factor_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite alpha at index 0"):
            max_growth_factor([bad, 0.1])


@st.composite
def nonexpansive_paths(draw):
    """A path whose mean ratios lie in [0, 1 + alpha] off the zero class, so the
    segment bound applies; a positive zero_tol lets a segment break it."""
    n = draw(st.integers(1, 30))
    alpha = draw(st.sampled_from([0.0, 0.1]))
    zero_tol = draw(st.sampled_from([0.0, 0.05, 0.5]))
    unit = st.floats(-1.0, 1.0)
    xs, ms = [draw(st.floats(-2.0, 2.0))], []
    for _ in range(n):
        if abs(xs[-1]) > zero_tol:
            m = draw(st.floats(0.0, 1.0 + alpha)) * xs[-1]
            # a subnormal product is rounded to a few bits, off the ratio band
            ms.append(m if abs(m) >= np.finfo(float).tiny else 0.0)
        else:
            ms.append(draw(unit))
        xs.append(ms[-1] + draw(st.just(0.0) | unit))
    return ProcessPath(np.array(xs), np.array(ms), zero_tol), np.full(n, alpha)


def brute_segment_bound(path, alphas):
    """Segment by segment, in order: the first crossing step whose peak exceeds
    the bound, and the smallest slack."""
    lam = float(np.prod(1.0 + alphas))
    _, times, peaks = brute_crossings(path.xs, path.zero_tol)
    first, worst = None, math.inf
    for t, end, peak in zip(times, times[1:] + [len(path.xs)], peaks):
        restart = abs(float(path.ms[t - 1])) if abs(path.xs[t - 1]) <= path.zero_tol else 0.0
        slack = lam * (float(np.abs(path.eps[t - 1 : end - 1]).sum()) + restart) - peak
        worst = min(worst, slack)
        if first is None and slack < -DEFAULT_ATOL:
            first = t
    return first, worst


class TestSegmentPeakBound:
    def test_noiseless_contraction_vacuous(self):
        xs = [1.0]
        for _ in range(20):
            xs.append(0.5 * xs[-1])
        path = doob_decompose(xs, [0.5 * v for v in xs[:-1]])
        verdict = check_segment_peak_bound(path, np.zeros(20))
        assert verdict.holds
        assert verdict.worst_margin >= 0

    def test_zero_state_restart_uses_mean_term(self):
        # x0 = 0, jump to 2 via the restart mean, then halve: peak equals the mean term
        path = ProcessPath(np.array([0.0, 2.0, 1.0]), np.array([2.0, 0.5 * 2.0]))
        verdict = check_segment_peak_bound(path, np.zeros(2))
        assert verdict.holds
        assert verdict.worst_margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_pathwise_on_simulated_paths(self, seed):
        path = halving_noise_path(50, seed)
        verdict = check_segment_peak_bound(path, np.zeros(50))
        assert verdict.holds, f"violation at {verdict.first_violation}"

    def test_overflowing_growth_factor_is_vacuous(self):
        path = halving_noise_path(1100, 0)
        assert crossing_report(path).n_t > 0
        verdict = check_segment_peak_bound(path, np.ones(1100))  # 2**1100 overflows
        assert (verdict.holds, verdict.worst_margin) == (True, math.inf)
        assert verdict.detail == "growth factor overflows; bound is vacuous"

    def test_overflowing_segment_bound_holds(self):
        # 2**997 is finite, but times a residual sum of ~1e9 it overflows on some segments
        base = halving_noise_path(997, 0)
        path = ProcessPath(1e9 * base.xs, 1e9 * base.ms)
        verdict = check_segment_peak_bound(path, np.ones(997))
        assert (verdict.holds, verdict.worst_margin) == (True, 2.4537549285698905e304)
        assert verdict.detail == "331 segments checked"

    def test_first_violating_segment_not_the_worst(self):
        # zero_tol > 0: dropping into the zero class from x = 1 breaks the bound at
        # steps 1 and 3 (peaks 0.04 and 0.045 against a bound of 0)
        xs = np.array([1.0, 0.04, 1.0, 0.045])
        path = ProcessPath(xs, np.array([0.04, 1.0, 0.045]), zero_tol=0.05)
        verdict = check_segment_peak_bound(path, np.zeros(3))
        assert (verdict.first_violation, verdict.worst_margin) == (1, -0.045)
        assert verdict.detail == "segment peak exceeds the residual bound"

    @given(nonexpansive_paths())
    @settings(max_examples=300, deadline=None)
    def test_matches_in_order_scan(self, case):
        path, alphas = case
        verdict = check_segment_peak_bound(path, alphas)
        assert "not applicable" not in verdict.detail
        first, worst = brute_segment_bound(path, alphas)
        assert (verdict.holds, verdict.first_violation) == (first is None, first)
        assert verdict.worst_margin == worst

    def test_ratio_violation_marks_not_applicable(self):
        path = ProcessPath(np.array([1.0, -1.0]), np.array([-1.0]))
        verdict = check_segment_peak_bound(path, np.zeros(1))
        assert not verdict.holds
        assert verdict.first_violation == 1
        assert "not applicable" in verdict.detail


class TestKroneckerPath:
    def test_alternating_increments_decay(self):
        ys = [(-1.0) ** i for i in range(1, 1001)]
        path = kronecker_path(ys, np.arange(1.0, 1001.0))
        n = np.arange(1, 1001)
        assert np.all(np.abs(path.xs[1:]) <= 2.0 / n)
        assert abs(path.xs[-1]) <= 1.0 / 1000

    def test_ratio_equals_weight_ratio(self):
        rng = np.random.default_rng(11)
        ys = rng.normal(size=300)
        ws = np.arange(1.0, 301.0)
        path = kronecker_path(ys, ws)
        prev = path.xs[:-1]
        mask = prev != 0
        ratios = path.ms[mask] / prev[mask]
        idx = np.nonzero(mask)[0]
        expected = np.where(idx > 0, ws[idx - 1], np.nan) / ws[idx]
        assert np.allclose(ratios, expected, rtol=1e-12)
        assert np.all(ratios <= 1.0 + 1e-15)

    def test_slln_ensemble(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ys = rng.integers(0, 2, size=10_000) * 2.0 - 1.0
            path = kronecker_path(ys, np.arange(1.0, 10_001.0))
            hits += abs(path.xs[-1]) < 0.05
        assert hits >= 19

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="positive"):
            kronecker_path([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="nondecreasing"):
            kronecker_path([1.0, 1.0], [2.0, 1.0])

    def test_slow_growth_warns(self):
        with pytest.warns(UserWarning, match="grow slowly"):
            kronecker_path([1.0, -1.0], [1.0, 2.0])


class TestPathAccessors:
    def test_zero_tol_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ProcessPath(np.array([1.0, 2.0]), np.array([1.0]), zero_tol=-1.0)


# Sign-based or per-value conditions, which have no meaning on a vector path.
SCALAR_ONLY = {
    "crossing_report": crossing_report,
    "check_segment_peak_bound": lambda path: check_segment_peak_bound(path, np.zeros(path.horizon)),
    "derive_truncated": lambda path: derive_truncated(path, delta=0.1, tau=0.01),
    "check_ratio_sandwich": lambda path: check_ratio_sandwich(path, Schedule.inverse_n(), 0.5, 1.0),
}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", list(SCALAR_ONLY))
def test_scalar_only_functions_reject_a_vector_path(name, p):
    xs = np.repeat(np.linspace(1.0, 0.0, 6)[:, None], p, axis=1)
    path = doob_decompose(xs, 0.5 * xs[:-1])
    with pytest.raises(ValueError, match=f"{name} needs a scalar path, got one with {p} components"):
        SCALAR_ONLY[name](path)


ROW_SPECIALS = [0.0, -0.0, 5e-324, -2.2e-308, 1e200, -1e200, 1e-200, math.inf, -math.inf, math.nan]
ROW_ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(ROW_SPECIALS)


@st.composite
def short_rows(draw):
    p = draw(st.integers(1, 9))
    rows = draw(st.integers(0, 12))
    entries = draw(st.lists(ROW_ENTRIES, min_size=rows * p, max_size=rows * p))
    return np.array(entries, dtype=float).reshape(rows, p)


@given(short_rows())
@settings(max_examples=400, deadline=None)
def test_row_norms_are_numpys_to_the_bit(x):
    """The one row-norm rule equals np.linalg.norm over each row, for a path and
    for the (steps, seeds, p) window of seeds stepped together."""
    with np.errstate(over="ignore"):  # a square past the largest float is inf in both
        want = np.linalg.norm(x, axis=1)
        assert row_norms(x).tobytes() == want.tobytes()
        window = np.stack([x, x[::-1]], axis=1)  # two seeds
        assert row_norms(window)[:, 0].tobytes() == want.tobytes()
        assert row_norms(window)[:, 1].tobytes() == want[::-1].tobytes()
        if len(x):
            path = ProcessPath(x, x[1:])
            assert path.norms().tobytes() == want.tobytes()
            assert path.mean_norms().tobytes() == want[1:].tobytes()


@given(short_rows())
@settings(max_examples=200, deadline=None)
def test_row_norms_in_used_buffers_are_the_fresh_bits(x):
    """Formed in an ``out`` array and a scratch square left dirty by a larger
    window before, the norms and the drift pairs of a window keep their bits."""
    window = np.stack([x, x[::-1]], axis=1)  # two seeds
    scratch = Scratch()
    for name in ("square", "levels", "norms", "magnitudes"):  # dirty and larger than needed
        scratch.take(name, (len(x) + 5, 3)).fill(math.nan)
    out = np.full(window.shape[:2], 7.0)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(window, axis=-1)
        got = row_norms(window, out, scratch)
        assert got is out and got.tobytes() == norms.tobytes()
        if len(x) > 1:
            want = (norms, norms[1:], norms[:-1] <= 1.0)
            for reused in (scratch, None):
                pairs = drift_pairs(window, window[1:], 1.0, reused)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(pairs, want))
