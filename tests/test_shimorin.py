import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blaschkelab as bl

from helpers import mp_operator_min_eig


def test_monomial_threshold_closed_forms():
    assert bl.monomial_threshold(1) == pytest.approx(1.0, abs=1e-15)
    assert bl.monomial_threshold(2) == pytest.approx(math.log(2) / math.log(3), abs=1e-15)
    assert bl.monomial_threshold(3) == pytest.approx(0.5, abs=1e-15)
    assert round(bl.monomial_threshold(2), 4) == 0.6309


def test_z2_bound_value():
    assert bl.Z2_ALPHA_BOUND == pytest.approx(math.log(2.0 / 3.0) / math.log(5.0 / 3.0), abs=1e-15)
    assert round(bl.Z2_ALPHA_BOUND, 4) == -0.7937


def test_constant_weights_always_hold():
    for k in (1, 2, 5):
        rep = bl.weight_criterion(bl.PowerLawWeights(0.0), k, 0, 2000)
        assert rep.holds
        assert rep.violations == []


def test_bergman_z2_violation_at_origin():
    rep = bl.weight_criterion(bl.PowerLawWeights(-1.0), 2, 0, 2000)
    assert not rep.holds
    v = rep.violations[0]
    assert v.condition == "a"
    assert v.index == 0
    assert v.lhs == pytest.approx(1.0, abs=1e-12)
    assert v.rhs == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_bergman_z2_from_stride_onward_holds():
    rep = bl.weight_criterion(bl.PowerLawWeights(-1.0), 2, 2, 100_000)
    assert rep.holds
    assert rep.violations == []
    assert rep.tail_certificate is not None


def test_equality_regime_certificate():
    # alpha = -1 makes both inequalities exact equalities; the margin is
    # constant and must still certify
    for k in (1, 3, 6):
        rep = bl.weight_criterion(bl.PowerLawWeights(-1.0), k, k, 100_000)
        assert rep.holds, (k, rep.tail_certificate)


def test_criterion_validation():
    with pytest.raises(ValueError):
        bl.weight_criterion(bl.PowerLawWeights(0.0), 0, 0, 100)
    with pytest.raises(ValueError):
        bl.weight_criterion(bl.PowerLawWeights(0.0), 1, -1, 100)


def test_concavity_affine_and_concave_hold():
    assert bl.concavity_criterion(bl.PowerLawWeights(1.0), 1, 10_000).holds
    assert bl.concavity_criterion(bl.PowerLawWeights(0.5), 1, 10_000).holds


def test_concavity_bergman_fails_at_origin():
    rep = bl.concavity_criterion(bl.PowerLawWeights(-1.0), 1, 1000)
    assert not rep.holds
    v = rep.violations[0]
    assert v.index == 0
    # 1 - 2*(1/2) + 1/3 = 1/3 on the convex side
    assert v.lhs - v.rhs == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_concavity_scan_over_admissible_band():
    # concave branch holds through the full exponent band, sampled coarsely
    for k in (1, 2, 4, 6):
        top = bl.monomial_threshold(k)
        for alpha in np.arange(0.0, top + 1e-9, max(top / 8, 0.05)):
            assert bl.concavity_criterion(bl.PowerLawWeights(float(alpha)), k, 10_000).holds


def test_head_window_values():
    lo, hi = bl.head_weight_window(0.0)
    assert lo == pytest.approx(1.0, abs=1e-14)
    assert hi == pytest.approx(2.0, abs=1e-14)
    lo, hi = bl.head_weight_window(bl.Z2_ALPHA_BOUND)
    assert abs(hi - lo) <= 1e-10
    lo, hi = bl.head_weight_window(-0.9)
    assert lo > hi


def test_head_window_degenerate_denominator():
    # 2*3^(-a) = 5^(-a) happens for a large negative exponent
    bad = math.log(2.0) / (math.log(3.0) - math.log(5.0))
    with pytest.raises(bl.DegenerateDenominator):
        bl.head_weight_window(bad)


def test_z2_adjusted_weights_structure():
    w = bl.z2_adjusted_weights(0.0)
    assert w.values(1)[0] == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(w.values(5)[1:], 1.0)
    assert bl.weight_criterion(w, 2, 0, 100_000).holds


def test_z2_adjusted_weights_midpoint():
    for alpha in (-0.7, -0.5):
        lo, hi = bl.head_weight_window(alpha)
        w = bl.z2_adjusted_weights(alpha)
        assert w.values(1)[0] == pytest.approx((lo + hi) / 2.0, rel=1e-12)
        assert w.values(4)[3] == pytest.approx(4.0 ** alpha, rel=1e-12)
        assert bl.weight_criterion(w, 2, 0, 100_000).holds


def test_z2_adjusted_weights_empty_window():
    with pytest.raises(bl.EmptyWindow):
        bl.z2_adjusted_weights(-0.85)


def test_steep_head_weights_values():
    w = bl.steep_head_weights()
    assert w.values(1)[0] == 1.0
    assert w.values(2)[1] == pytest.approx(2.0 ** -16, rel=1e-15)
    assert w.values(22)[21] == pytest.approx(22.0 ** -16, rel=1e-15)
    assert w.values(23)[22] == pytest.approx(1.0 / 23.0, rel=1e-15)


def test_steep_head_fails_criterion():
    rep = bl.weight_criterion(bl.steep_head_weights(), 6, 0, 5000)
    assert not rep.holds
    assert len(rep.violations) >= 1


def test_operator_check_shift_on_hardy():
    t = bl.multiplication_matrix(bl.BlaschkeProduct((0j,)), 32, 33)
    res = bl.operator_check(t, bl.PowerLawWeights(0.0).values(34), 32)
    assert res.holds
    assert res.min_eig >= -1e-12


def test_operator_check_shift_on_bergman():
    t = bl.multiplication_matrix(bl.BlaschkeProduct((0j,)), 32, 33)
    res = bl.operator_check(t, bl.PowerLawWeights(-1.0).values(34), 32)
    assert res.holds


def test_operator_check_z2_bergman_fails():
    t = bl.multiplication_matrix(bl.BlaschkeProduct((0j, 0j)), 32, 34)
    res = bl.operator_check(t, bl.PowerLawWeights(-1.0).values(35), 32)
    assert not res.holds
    assert res.min_eig < -1e-6


def test_operator_check_dimension_validation():
    t = bl.multiplication_matrix(bl.BlaschkeProduct((0j,)), 8, 9)
    with pytest.raises(bl.DimensionMismatch):
        bl.operator_check(t, np.ones(9), 8)  # gram too short
    with pytest.raises(bl.DimensionMismatch):
        bl.operator_check(t[:9, :], np.ones(9), 8)  # no room above the input
    with pytest.raises(ValueError):
        bl.operator_check(t, np.zeros(10), 8)


@pytest.mark.parametrize("alpha", [-1.0, 0.5])
@pytest.mark.parametrize(
    "zeros,n_in",
    [((0j,), 6), ((0j, 0j), 5), ((0.5 + 0j,), 6), ((0.5 + 0j,), 3)],
    ids=["z-N6", "z2-N5", "a0.5-N6", "a0.5-N3"],
)
def test_operator_check_min_eig_matches_mp_oracle(zeros, n_in, alpha):
    b = bl.BlaschkeProduct(zeros)
    out_degree = n_in + 64  # keeps the lost tail of B = (z - 0.5)/(1 - 0.5z) below 1e-19
    t = bl.multiplication_matrix(b, n_in, out_degree)
    res = bl.operator_check(t, bl.PowerLawWeights(alpha).values(out_degree + 1), n_in)
    assert res.min_eig == pytest.approx(mp_operator_min_eig(b, alpha, n_in, out_degree), abs=1e-12)


def test_operator_weight_agreement_spot():
    for alpha, k in ((-1.0, 2), (-0.5, 2), (0.0, 3), (-0.63, 2)):
        w = bl.PowerLawWeights(alpha)
        rep = bl.weight_criterion(w, k, 0, 10_000)
        t = bl.multiplication_matrix(bl.BlaschkeProduct((0j,) * k), 48, 48 + k)
        res = bl.operator_check(t, w.values(48 + k + 1), 48)
        assert res.holds == rep.holds, (alpha, k)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.99, max_value=0.0), st.integers(min_value=1, max_value=6))
def test_shifted_start_never_violates_property(alpha, k):
    # restriction to series of order >= k stays inside the good regime
    rep = bl.weight_criterion(bl.PowerLawWeights(alpha), k, k, 3000)
    assert rep.violations == []


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=1, max_value=4))
def test_growing_weights_violate_b_property(alpha, k):
    # strictly increasing power weights put (b) on the convex side
    rep = bl.weight_criterion(bl.PowerLawWeights(alpha), k, 0, 500)
    assert any(v.condition == "b" for v in rep.violations)
