import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab.verdict import ConditionVerdict, band_check

FINITE = st.floats(-1e3, 1e3, allow_nan=False)


def naive_band(values, upper, lower, mask, atol, over):
    """One step at a time: the reference the vectorised kernel must match."""
    first, worst, checked = None, math.inf, 0
    for i, v in enumerate(values):
        if not mask[i]:
            continue
        q = v / over[i] if over is not None else v
        margin = math.inf if upper is None else (upper[i] if np.ndim(upper) else upper) - q
        if lower is not None:
            margin = min(margin, q - (lower[i] if np.ndim(lower) else lower))
        checked += 1
        worst = min(worst, margin)
        if first is None and margin < -atol:
            first = i + 1
    return first, worst, checked


@st.composite
def bands(draw):
    n = draw(st.integers(0, 25))
    values = np.array(draw(st.lists(FINITE, min_size=n, max_size=n)))
    over = None
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if draw(st.booleans()):
        over = np.array(draw(st.lists(st.sampled_from([0.0, -2.0, 0.5, 3.0]), min_size=n, max_size=n)))
        mask &= over != 0
    array = st.lists(FINITE, min_size=n, max_size=n).map(np.array)
    upper = draw(st.none() | FINITE | array)
    lower = draw((FINITE | array) if upper is None else (st.none() | FINITE | array))
    return values, upper, lower, mask, draw(st.sampled_from([0.0, 1e-12, 0.5])), over


@given(bands())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_naive_loop(case):
    values, upper, lower, mask, atol, over = case
    band = band_check(values, upper, lower, mask, atol, over=over)
    first, worst, checked = naive_band(*case)
    assert band.first_violation == first
    assert band.worst_margin == worst
    assert band.checked == checked


def test_non_finite_step_is_checked_even_when_masked():
    band = band_check(np.array([0.5, math.nan, 0.5]), 1.0, 0.0, mask=np.array([True, False, True]))
    assert band.first_violation == 2
    assert band.worst_margin == -math.inf
    assert band.checked == 3


def test_finite_flags_other_step_data():
    band = band_check(np.zeros(3), 1.0, finite=np.array([True, True, False]))
    assert band.first_violation == 3


def test_non_finite_bound_is_a_violation():
    band = band_check(np.zeros(3), np.array([1.0, math.inf, 1.0]))
    assert band.first_violation == 2


def test_empty_band_is_vacuous():
    verdict = band_check(np.ones(3), 0.0, mask=np.zeros(3, dtype=bool)).verdict("", "", "none")
    assert verdict.holds
    assert verdict.worst_margin == math.inf
    assert verdict.detail == "none"


def test_verdict_details():
    band = band_check(np.array([0.5, 2.0, 3.0]), 1.0)
    verdict = band.verdict("{value:g} at {step}, worst {worst_value:g}", "", "")
    assert (verdict.first_violation, verdict.worst_margin) == (2, -2.0)
    assert verdict.detail == "2 at 2, worst 3"


def test_holding_verdict_rejects_nan_margin():
    with pytest.raises(ValueError, match="NaN"):
        ConditionVerdict(True, None, math.nan)
    assert not ConditionVerdict(False, 3, math.nan).holds
