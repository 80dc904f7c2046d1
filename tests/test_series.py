import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blaschkelab as bl
from blaschkelab.series import DEFAULT_ORDER_TOL

from helpers import evaluate, random_series, reference_format_series_literal


def test_construction_trims_nothing():
    f = bl.ComplexSeries([1.0, 0.0, 2.0 + 1j])
    assert f.truncation_degree == 2
    assert f.coefficient(0) == 1.0
    assert f.coefficient(1) == 0.0
    assert f.coefficient(2) == 2.0 + 1j
    assert f.coefficient(100) == 0.0


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        bl.ComplexSeries([1.0, np.inf])
    with pytest.raises(ValueError):
        bl.ComplexSeries([np.nan])


def test_monomial_constructor():
    f = bl.ComplexSeries.monomial(3, scale=2.0)
    assert f.truncation_degree == 3
    assert f.coefficient(3) == 2.0
    assert f.coefficient(2) == 0.0


def test_trimmed_degree_and_order():
    f = bl.ComplexSeries([0.0, 1e-15, 1.0, 0.0])
    assert f.trimmed_order() == 2
    assert f.trimmed_degree() == 2
    z = bl.ComplexSeries.zero(5)
    assert z.is_zero()
    assert z.trimmed_order() == 0
    assert z.trimmed_degree() == 0


def test_resized_pads_and_truncates():
    f = bl.ComplexSeries([1.0, 2.0])
    up = f.resized(4)
    assert up.truncation_degree == 4
    assert up.coefficient(1) == 2.0
    down = up.resized(0)
    assert down.truncation_degree == 0
    assert down.coefficient(0) == 1.0


def test_add_subtract_scale():
    f = bl.ComplexSeries([1.0, 2.0])
    g = bl.ComplexSeries([0.5, 0.0, 3.0])
    s = bl.add(f, g)
    np.testing.assert_allclose(s.coeffs, [1.5, 2.0, 3.0])
    d = bl.subtract(s, g)
    np.testing.assert_allclose(d.coeffs[:2], [1.0, 2.0])
    np.testing.assert_allclose(bl.scale(f, 2j).coeffs, [2j, 4j])


def test_mul_matches_pointwise_products():
    # degree bound chosen so the truncated product is the exact product
    rng = np.random.default_rng(7)
    f = random_series(rng, 4)
    g = random_series(rng, 5)
    h = bl.mul(f, g, 9)
    for z in (0.0, 0.3, -0.25 + 0.4j, 0.1j):
        assert abs(evaluate(h, z) - evaluate(f, z) * evaluate(g, z)) < 1e-12


def test_mul_truncates():
    f = bl.ComplexSeries([0.0, 1.0])
    h = bl.mul(f, f, 1)
    assert h.truncation_degree == 1
    assert h.is_zero()


def test_h2_norm_is_euclidean():
    f = bl.ComplexSeries([3.0, 4.0j])
    assert abs(bl.h2_norm(f) - 5.0) < 1e-15


def test_weighted_norm_against_direct_sum():
    rng = np.random.default_rng(3)
    f = random_series(rng, 12)
    for alpha in (-1.0, -0.5, 0.0, 1.0):
        w = bl.PowerLawWeights(alpha)
        direct = np.sqrt(sum(abs(c) ** 2 * (k + 1) ** alpha for k, c in enumerate(f.coeffs)))
        assert abs(bl.weighted_norm(f, w) - direct) < 1e-12 * direct


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(5)
    f = random_series(rng, 8)
    g = random_series(rng, 8)
    w = bl.PowerLawWeights(-1.0)
    assert abs(bl.inner_product(f, g, w) - np.conj(bl.inner_product(g, f, w))) < 1e-13
    n = bl.inner_product(f, f, w)
    assert abs(n.imag) < 1e-13
    assert abs(np.sqrt(n.real) - bl.weighted_norm(f, w)) < 1e-12


def test_power_law_weights_values():
    w = bl.PowerLawWeights(-1.0)
    np.testing.assert_allclose(w.values(4), [1.0, 0.5, 1.0 / 3.0, 0.25])
    assert w.values(10)[9] == pytest.approx(0.1)


def test_shifted_weights_offset():
    w = bl.ShiftedWeights(bl.PowerLawWeights(-1.0), 2)
    np.testing.assert_allclose(w.values(3), [1.0 / 3.0, 0.25, 0.2])


def test_explicit_weights_head_then_tail():
    w = bl.ExplicitWeights((5.0, 6.0), bl.PowerLawWeights(0.0))
    np.testing.assert_allclose(w.values(4), [5.0, 6.0, 1.0, 1.0])
    assert w.values(2)[1] == 6.0
    assert w.values(3)[2] == 1.0


def test_series_literal_round_trip():
    f = bl.ComplexSeries([1.0, 0.0, 0.5 + 0.25j])
    text = bl.format_series_literal(f)
    g = bl.parse_series_literal(text)
    np.testing.assert_allclose(g.coeffs, f.coeffs)


def test_series_literal_examples():
    f = bl.parse_series_literal("1,0;0,0;0.5,0")
    np.testing.assert_allclose(f.coeffs, [1.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        bl.parse_series_literal("")
    with pytest.raises(ValueError):
        bl.parse_series_literal("1;2")


def test_weights_literal_forms():
    w = bl.parse_weights_literal("power:-0.5")
    assert isinstance(w, bl.PowerLawWeights)
    assert w.values(1)[0] == 1.0
    w = bl.parse_weights_literal("shifted:2:power:-1")
    np.testing.assert_allclose(w.values(2), [1.0 / 3.0, 0.25])
    w = bl.parse_weights_literal("explicit:2,3:power:0")
    np.testing.assert_allclose(w.values(3), [2.0, 3.0, 1.0])
    with pytest.raises(ValueError):
        bl.parse_weights_literal("bogus:1")


coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=12))
def test_literal_round_trip_property(coeffs):
    # literals carry 12 significant digits, so the trip loses ~5e-12 relative
    f = bl.ComplexSeries(coeffs)
    g = bl.parse_series_literal(bl.format_series_literal(f))
    assert g.truncation_degree == f.truncation_degree
    np.testing.assert_allclose(g.coeffs, f.coeffs, rtol=1e-11, atol=1e-11)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_literal_bytes_match_per_coefficient_format(coeffs):
    f = bl.ComplexSeries(coeffs)
    assert bl.format_series_literal(f) == reference_format_series_literal(f)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(coeff, min_size=1, max_size=8),
    st.lists(coeff, min_size=1, max_size=8),
)
def test_mul_commutes_property(a, b):
    f = bl.ComplexSeries(a)
    g = bl.ComplexSeries(b)
    lhs = bl.mul(f, g, 14)
    rhs = bl.mul(g, f, 14)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=10))
def test_order_respects_tolerance(coeffs):
    f = bl.ComplexSeries(coeffs)
    order = f.trimmed_order()
    if not f.is_zero(DEFAULT_ORDER_TOL):
        assert abs(f.coefficient(order)) > 0
