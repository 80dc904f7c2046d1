import numpy as np
import pytest

import blaschkelab as bl

from helpers import evaluate


def factor_taylor(a, degree):
    """Closed-form expansion of (z - a)/(1 - conj(a) z)."""
    out = np.zeros(degree + 1, dtype=complex)
    out[0] = -a
    beta = 1.0 - abs(a) ** 2
    for n in range(1, degree + 1):
        out[n] = beta * np.conj(a) ** (n - 1)
    return out


def test_single_factor_against_closed_form():
    for a in (0.5 + 0j, 0.3j, -0.2 + 0.4j):
        b = bl.BlaschkeProduct((a,))
        got = b.taylor(20).coeffs
        np.testing.assert_allclose(got, factor_taylor(a, 20), atol=1e-14)


def test_monomial_taylor():
    b = bl.BlaschkeProduct((0j, 0j, 0j))
    t = b.taylor(5)
    np.testing.assert_allclose(t.coeffs, [0, 0, 0, 1, 0, 0], atol=0)
    assert b.degree == 3
    assert b.order_at_zero() == 3


def test_product_of_factors_matches_convolution():
    a1, a2 = 0.5 + 0j, 0.3j
    b = bl.BlaschkeProduct((a1, a2))
    direct = np.convolve(factor_taylor(a1, 24), factor_taylor(a2, 24))[:25]
    np.testing.assert_allclose(b.taylor(24).coeffs, direct, atol=1e-13)


def test_phase_rotates():
    theta = 0.7
    b = bl.BlaschkeProduct((0.5 + 0j,), phase=theta)
    plain = bl.BlaschkeProduct((0.5 + 0j,))
    np.testing.assert_allclose(
        b.taylor(10).coeffs, np.exp(1j * theta) * plain.taylor(10).coeffs, atol=1e-14
    )


def test_unimodular_on_circle():
    b = bl.BlaschkeProduct((0.5 + 0j, 0.3j, -0.2 + 0.1j))
    # |a|<=0.5 so the degree-200 tail is ~1e-60 on |z|=1
    t = b.taylor(200)
    for theta in np.linspace(0.0, 2 * np.pi, 17):
        val = evaluate(t, np.exp(1j * theta))
        assert abs(abs(val) - 1.0) < 1e-10


def test_vanishes_at_zeros():
    zeros = (0.5 + 0j, 0.3j)
    b = bl.BlaschkeProduct(zeros)
    t = b.taylor(120)
    for a in zeros:
        assert abs(evaluate(t, a)) < 1e-12


def test_rejects_zero_outside_disc():
    with pytest.raises(ValueError):
        bl.BlaschkeProduct((1.5 + 0j,))
    with pytest.raises(ValueError):
        bl.BlaschkeProduct((1.0 + 0j,))


def test_degree_zero_product_is_constant():
    b = bl.BlaschkeProduct((), phase=0.4)
    assert b.degree == 0
    np.testing.assert_allclose(b.taylor(3).coeffs, [np.exp(0.4j), 0, 0, 0], atol=1e-15)


def test_pointwise_evaluation_matches_taylor():
    b = bl.BlaschkeProduct((0.5 + 0j, 0.3j), phase=0.2)
    t = b.taylor(160)
    for z in (0.0, 0.4, -0.3 + 0.2j):
        assert abs(b(z) - evaluate(t, z)) < 1e-12
    with pytest.raises(ValueError):
        b(2.0)


def test_multiplication_matrix_columns():
    b = bl.BlaschkeProduct((0.5 + 0j,))
    out_degree = 30
    m = bl.multiplication_matrix(b, 4, out_degree)
    assert m.shape == (out_degree + 1, 5)
    bt = b.taylor(out_degree).coeffs
    for j in range(5):
        col = np.zeros(out_degree + 1, dtype=complex)
        col[j:] = bt[: out_degree + 1 - j]
        np.testing.assert_allclose(m[:, j], col, atol=1e-14)


def test_multiplication_matrix_near_isometric_on_h2():
    # multiplication by an inner function preserves the H2 norm; the tall
    # truncation only loses the geometric tail
    b = bl.BlaschkeProduct((0.5 + 0j, 0.3j))
    m = bl.multiplication_matrix(b, 8, 160)
    g = m.conj().T @ m
    np.testing.assert_allclose(g, np.eye(9), atol=1e-12)


def test_guard_degree_adds_margin():
    b = bl.BlaschkeProduct((0.5 + 0j,))
    assert bl.guard_degree(b, 64) > 64
    assert bl.guard_degree(b, 128) > bl.guard_degree(b, 64)


def test_blaschke_literal_round_trip():
    b = bl.BlaschkeProduct((0.5 + 0j, 0.3j), phase=1.25)
    text = bl.format_blaschke_literal(b)
    c = bl.parse_blaschke_literal(text)
    assert c.zeros == b.zeros
    assert abs(c.phase - b.phase) < 1e-12


def test_blaschke_literal_bytes():
    b = bl.BlaschkeProduct((0.5 + 0j, complex(-0.0, 0.3), 1 / 3 - 2e-310j), phase=1.25)
    assert bl.format_blaschke_literal(b) == (
        "zeros=0.5,0;-0,0.3;0.333333333333,-2e-310 phase=1.25"
    )
    assert bl.format_blaschke_literal(bl.BlaschkeProduct(())) == "zeros= phase=0"


def test_blaschke_literal_examples():
    b = bl.parse_blaschke_literal("zeros=0.5,0;0,0.3 phase=0")
    assert b.zeros == (0.5 + 0j, 0.3j)
    assert b.phase == 0.0
    with pytest.raises(ValueError):
        bl.parse_blaschke_literal("phase=1")
    with pytest.raises(ValueError):
        bl.parse_blaschke_literal("zeros=0.5")
