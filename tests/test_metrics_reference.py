"""Tests of the numpy ground-truth metrics (paper Eqs. 1–4).

The Gini reference is validated against an independent O(n²)
implementation of the paper's literal mean-absolute-difference formula,
so the rank identity used in production cannot drift from Eq. 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.reference import gini, nakamoto, shannon_entropy

counts_arrays = st.lists(
    st.integers(min_value=1, max_value=10_000), min_size=1, max_size=60
)


def gini_pairwise(x) -> float:
    """Paper Eq. 1 verbatim: Σᵢⱼ|xᵢ−xⱼ| / (2·n·Σx)."""
    a = np.asarray(x, dtype=float)
    n = len(a)
    return float(np.abs(a[:, None] - a[None, :]).sum() / (2 * n * a.sum()))


# ---------------------------------------------------------------------------
# closed-form cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 100])
def test_gini_equal_distribution_is_zero(n):
    assert gini([7] * n) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 100])
def test_gini_single_dominant_approaches_one(n):
    # one producer holds everything, n-1 hold nothing: G = (n-1)/n
    x = [0] * (n - 1) + [1000]
    assert gini(x) == pytest.approx((n - 1) / n, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 8, 1024])
def test_entropy_equal_distribution_is_log2n(n):
    assert shannon_entropy([3] * n) == pytest.approx(math.log2(n), abs=1e-9)


def test_entropy_single_producer_is_zero():
    assert shannon_entropy([42]) == 0.0


def test_entropy_known_half_half():
    assert shannon_entropy([50, 50]) == pytest.approx(1.0, abs=1e-12)


def test_entropy_known_quarter_three_quarters():
    expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert shannon_entropy([25, 75]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "x,expected",
    [
        ([100], 1),
        ([51, 49], 1),          # 51 % exactly reaches the threshold
        ([50, 50], 2),          # 50 % does not
        ([34, 33, 33], 2),
        ([30, 30, 30, 10], 2),
        ([25, 25, 25, 25], 3),  # 50 < 51 → need 3
        ([1] * 100, 51),
    ],
)
def test_nakamoto_known_cases(x, expected):
    assert nakamoto(x) == expected


def test_nakamoto_custom_threshold():
    assert nakamoto([34, 33, 33], threshold=0.34) == 1
    assert nakamoto([34, 33, 33], threshold=0.99) == 3


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 51])
def test_nakamoto_threshold_outside_unit_interval_rejected(threshold):
    with pytest.raises(ValueError, match="threshold"):
        nakamoto([34, 33, 33], threshold=threshold)


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(counts_arrays)
def test_gini_matches_pairwise_formula(x):
    assert gini(x) == pytest.approx(gini_pairwise(x), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(counts_arrays)
def test_gini_bounds(x):
    g = gini(x)
    assert -1e-12 <= g < 1.0


@settings(max_examples=200, deadline=None)
@given(counts_arrays)
def test_entropy_bounds(x):
    e = shannon_entropy(x)
    assert -1e-12 <= e <= math.log2(len(x)) + 1e-9


@settings(max_examples=200, deadline=None)
@given(counts_arrays)
def test_nakamoto_bounds(x):
    k = nakamoto(x)
    assert 1 <= k <= len(x)


@settings(max_examples=100, deadline=None)
@given(counts_arrays, st.randoms())
def test_permutation_invariance(x, rnd):
    y = list(x)
    rnd.shuffle(y)
    assert gini(y) == pytest.approx(gini(x), abs=1e-9)
    assert shannon_entropy(y) == pytest.approx(shannon_entropy(x), abs=1e-9)
    assert nakamoto(y) == nakamoto(x)


@settings(max_examples=100, deadline=None)
@given(counts_arrays, st.integers(min_value=2, max_value=1000))
def test_scale_invariance(x, k):
    y = [v * k for v in x]
    assert gini(y) == pytest.approx(gini(x), abs=1e-9)
    assert shannon_entropy(y) == pytest.approx(shannon_entropy(x), abs=1e-9)
    assert nakamoto(y) == nakamoto(x)


@settings(max_examples=100, deadline=None)
@given(counts_arrays)
def test_nakamoto_is_minimal(x):
    """Eq. 4 minimality: the top k−1 producers stay below 51 %."""
    a = np.sort(np.asarray(x, float))[::-1]
    k = nakamoto(x)
    assert a[:k].sum() / a.sum() >= 0.51 - 1e-9
    if k > 1:
        assert a[: k - 1].sum() / a.sum() < 0.51


def test_adding_tail_miners_raises_gini():
    """The paper's §II.C.3 mechanism: a longer window pulls in one-block
    miners, the top stays the same, and the Gini coefficient rises."""
    base = [500, 300, 200, 100]
    extended = base + [1] * 50
    assert gini(extended) > gini(base)


def test_adding_tail_miners_barely_moves_entropy_and_nakamoto():
    base = [500, 300, 200, 100]
    extended = base + [1] * 50
    assert abs(shannon_entropy(extended) - shannon_entropy(base)) < 0.5
    assert nakamoto(extended) == nakamoto(base)


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn", [gini, shannon_entropy, nakamoto])
def test_empty_input_rejected(fn):
    with pytest.raises(ValueError):
        fn([])


@pytest.mark.parametrize("fn", [gini, shannon_entropy, nakamoto])
def test_negative_input_rejected(fn):
    with pytest.raises(ValueError):
        fn([3, -1, 2])


@pytest.mark.parametrize("fn", [gini, shannon_entropy, nakamoto])
def test_all_zero_input_rejected(fn):
    with pytest.raises(ValueError):
        fn([0, 0, 0])
