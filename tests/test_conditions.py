import math

import numpy as np
import pytest

from contractlab import (
    ContractiveProfile,
    NonexpansiveProfile,
    ProcessPath,
    VectorProcessPath,
    check_contractive,
    check_nonexpansive,
    check_zero_state_decay,
    doob_decompose,
    kronecker_path,
)


def scaling_path(factor, horizon, x0=1.0):
    xs = [x0]
    for _ in range(horizon):
        xs.append(factor * xs[-1])
    return doob_decompose(xs, [factor * v for v in xs[:-1]])


class TestNonexpansive:
    def test_halving_margin(self):
        path = scaling_path(0.5, 10)
        verdict = check_nonexpansive(path, NonexpansiveProfile.zero(10))
        assert verdict.holds
        assert verdict.worst_margin == pytest.approx(0.5)

    def test_sign_flip_fails_first_step(self):
        path = scaling_path(-1.0, 5)
        verdict = check_nonexpansive(path, NonexpansiveProfile.zero(5))
        assert not verdict.holds
        assert verdict.first_violation == 1

    def test_kronecker_ratios_nonexpansive(self):
        rng = np.random.default_rng(0)
        path = kronecker_path(rng.normal(size=500), np.arange(1.0, 501.0))
        verdict = check_nonexpansive(path, NonexpansiveProfile.zero(500))
        assert verdict.holds

    def test_profile_must_cover_horizon(self):
        path = scaling_path(0.5, 10)
        with pytest.raises(ValueError, match="cover"):
            check_nonexpansive(path, NonexpansiveProfile.zero(5))

    def test_vacuous_on_all_zero_path(self):
        path = ProcessPath(np.zeros(6), np.zeros(5))
        verdict = check_nonexpansive(path, NonexpansiveProfile.zero(5))
        assert verdict.holds
        assert math.isinf(verdict.worst_margin)

    def test_allowance_permits_mild_expansion(self):
        path = scaling_path(1.05, 8)
        assert not check_nonexpansive(path, NonexpansiveProfile.zero(8)).holds
        ok = check_nonexpansive(path, NonexpansiveProfile.constant(0.1, 8))
        assert ok.holds

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NonexpansiveProfile(np.array([-0.1]))
        with pytest.raises(ValueError):
            NonexpansiveProfile(np.ones(100), alpha_sum_cap=50.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_profile_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite alpha at index 2"):
            NonexpansiveProfile(np.array([0.1, 0.0, bad, 0.2]))


class TestContractive:
    def test_harmonic_budget_reaches_target(self):
        # k_n = (n-1)/n makes the budget the harmonic sum, about 9.79 at 1e4
        n = np.arange(1, 10_001)
        ks = (n - 1) / n
        budget = float(np.sum(1.0 - ks))
        assert budget == pytest.approx(np.sum(1.0 / n), rel=1e-12)
        assert budget >= 9.0
        rng = np.random.default_rng(1)
        path = kronecker_path(rng.normal(size=10_000), n.astype(float))
        verdict = check_contractive(path, ContractiveProfile(ks, divergence_target=9.0))
        assert verdict.holds

    def test_no_contraction_fails_divergence_clause(self):
        path = scaling_path(1.0, 50)
        verdict = check_contractive(
            path, ContractiveProfile.constant(1.0, 50, divergence_target=0.5)
        )
        assert not verdict.holds
        assert verdict.first_violation == 50
        assert "budget" in verdict.detail

    def test_constant_contraction(self):
        path = scaling_path(0.9, 100)
        verdict = check_contractive(
            path, ContractiveProfile.constant(0.9, 100, divergence_target=5.0)
        )
        assert verdict.holds
        # budget is 0.1 per step
        assert "10" in verdict.detail

    def test_ratio_above_k_fails(self):
        path = scaling_path(0.95, 30)
        verdict = check_contractive(
            path, ContractiveProfile.constant(0.9, 30, divergence_target=1.0)
        )
        assert not verdict.holds
        assert verdict.first_violation == 1

    def test_monotonicity_with_nonexpansive(self):
        # contractive with any valid ks implies nonexpansive with zero allowance
        rng = np.random.default_rng(5)
        path = kronecker_path(rng.normal(size=200), np.arange(1.0, 201.0))
        n = np.arange(1, 201)
        contractive = check_contractive(
            path, ContractiveProfile((n - 1) / n, divergence_target=4.0)
        )
        assert contractive.holds
        assert check_nonexpansive(path, NonexpansiveProfile.zero(200)).holds

    def test_k_range_validation(self):
        with pytest.raises(ValueError):
            ContractiveProfile(np.array([1.2]))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_k_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite contraction bound at index 1"):
            ContractiveProfile(np.array([0.5, bad]))


class TestZeroStateDecay:
    def test_kronecker_exact_zero(self):
        ys = [(-1.0) ** i for i in range(1, 101)]
        path = kronecker_path(ys, np.arange(1.0, 101.0))
        verdict = check_zero_state_decay(path, tail_window=50, tol=0.0)
        assert verdict.holds

    def test_unit_restart_fails_small_tol(self):
        xs = np.zeros(21)
        xs[1::2] = 1.0  # bounce between 0 and 1
        ms = np.where(np.abs(xs[:-1]) == 0, 1.0, 0.0)
        path = ProcessPath(xs, ms)
        assert not check_zero_state_decay(path, tail_window=10, tol=0.5).holds
        assert check_zero_state_decay(path, tail_window=10, tol=1.0).holds

    def test_vacuous_without_zero_states(self):
        path = scaling_path(0.5, 10)
        verdict = check_zero_state_decay(path, tail_window=5, tol=1e-9)
        assert verdict.holds
        assert math.isinf(verdict.worst_margin)

    def test_window_validation(self):
        path = scaling_path(0.5, 10)
        with pytest.raises(ValueError):
            check_zero_state_decay(path, tail_window=11)


def rotation_path(horizon=40):
    """Means rotate 90 degrees and shrink by 0.8: componentwise signs flip,
    but the norm ratio is exactly 0.8."""
    xs = np.empty((horizon + 1, 2))
    ms = np.empty((horizon, 2))
    x = np.array([1.0, 0.5])
    xs[0] = x
    for i in range(horizon):
        x = ms[i] = 0.8 * np.array([-x[1], x[0]])
        xs[i + 1] = x
    return VectorProcessPath(xs, ms)


def sign_flip_path(horizon=10):
    """A scalar path with sign-flipping means m_n = -x_{n-1} / 2, as p = 1 vectors."""
    xs = (-0.5) ** np.arange(horizon + 1.0)
    return VectorProcessPath(xs[:, None], -0.5 * xs[:-1, None])


def kronecker_vector_path():
    rng = np.random.default_rng(9)
    path = kronecker_path(rng.normal(size=100), np.arange(1.0, 101.0))
    return VectorProcessPath(path.xs[:, None], path.ms[:, None])


def restart_path():
    """All values zero; the last mean restarts with norm 0.5."""
    ms = np.zeros((6, 2))
    ms[-1] = [0.3, 0.4]
    return VectorProcessPath(np.zeros((7, 2)), ms)


# name -> (path, ratio profile, zero-state tail window, zero-state tol)
VECTOR_CASES = {
    "rotation": (rotation_path, lambda h: ContractiveProfile.constant(0.8, h, 5.0), None, 1e-6),
    "sign_flip": (sign_flip_path, NonexpansiveProfile.zero, None, 1e-6),
    "kronecker": (kronecker_vector_path, NonexpansiveProfile.zero, None, 1e-6),
    "all_zero": (lambda: VectorProcessPath(np.zeros((2001, 2)), np.zeros((2000, 2))),
                 NonexpansiveProfile.zero, None, 1e-6),
    "restart_tol_0.4": (restart_path, NonexpansiveProfile.zero, 3, 0.4),
    "restart_tol_0.6": (restart_path, NonexpansiveProfile.zero, 3, 0.6),
}

# name -> ((holds, first_violation, repr(worst_margin)) of the norm-ratio check,
#          the same of the zero-state check), recorded from the norm-ratio and
#          zero-state clauses of the multivariate checker these checkers replaced
LOCKED_VECTOR_MARGINS = {
    "rotation": ((True, None, "-2.220446049250313e-16"), (True, None, "inf")),
    "sign_flip": ((True, None, "0.5"), (True, None, "inf")),
    "kronecker": ((True, None, "0.010000000000000009"), (True, None, "inf")),
    "all_zero": ((True, None, "inf"), (True, None, "1e-06")),
    "restart_tol_0.4": ((True, None, "inf"), (False, 6, "-0.09999999999999998")),
    "restart_tol_0.6": ((True, None, "inf"), (True, None, "0.09999999999999998")),
}


def _locked(verdict):
    return verdict.holds, verdict.first_violation, repr(verdict.worst_margin)


@pytest.mark.parametrize("name", sorted(LOCKED_VECTOR_MARGINS))
def test_locked_vector_margins(name):
    make, profile, tail_window, tol = VECTOR_CASES[name]
    path = make()
    profile = profile(path.horizon)
    check = check_contractive if isinstance(profile, ContractiveProfile) else check_nonexpansive
    ratio = check(path, profile)
    zero_state = check_zero_state_decay(path, tail_window, tol)
    assert (_locked(ratio), _locked(zero_state)) == LOCKED_VECTOR_MARGINS[name]


class TestNormConditions:
    def test_rotation_contracts_without_sign_agreement(self):
        path = rotation_path()
        verdict = check_contractive(path, ContractiveProfile.constant(0.8, 40, divergence_target=5.0))
        assert verdict.holds
        assert verdict.worst_margin == pytest.approx(0.0, abs=1e-12)
        # the scalar sign condition would reject the same motion componentwise
        comp = path.component(0)
        verdict = check_nonexpansive(comp, NonexpansiveProfile.zero(40))
        assert not verdict.holds

    def test_scalar_embedding_generalizes(self):
        # a sign-flipping scalar mean passes the norm check but not the scalar one
        vector = sign_flip_path()
        scalar = ProcessPath(vector.xs[:, 0], vector.ms[:, 0])
        assert not check_nonexpansive(scalar, NonexpansiveProfile.zero(10)).holds
        assert check_nonexpansive(vector, NonexpansiveProfile.zero(10)).holds

    def test_scalar_embedding_agrees_when_ratios_nonnegative(self):
        vector = kronecker_vector_path()
        scalar = vector.component(0)
        profile = NonexpansiveProfile.zero(100)
        assert check_nonexpansive(scalar, profile).holds == check_nonexpansive(vector, profile).holds

    def test_zero_norm_restart_decay(self):
        path = restart_path()
        assert not check_zero_state_decay(path, tail_window=3, tol=0.4).holds
        assert check_zero_state_decay(path, tail_window=3, tol=0.6).holds

    def test_verdict_determinism(self):
        rng = np.random.default_rng(3)
        path = kronecker_path(rng.normal(size=50), np.arange(1.0, 51.0))
        profile = NonexpansiveProfile.zero(50)
        a = check_nonexpansive(path, profile)
        b = check_nonexpansive(path, profile)
        assert a == b
