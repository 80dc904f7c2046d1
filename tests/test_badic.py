import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blaschkelab as bl

from helpers import MpLayerOracle, distinct_zeros, oracle_layer_gap, random_series, stein_gram


Z = bl.BlaschkeProduct((0j,))
Z2 = bl.BlaschkeProduct((0j, 0j))
HALF = bl.BlaschkeProduct((0.5 + 0j,))


def test_monomial_grouping():
    # B = z^2 splits the coefficients into even/odd interleaved pairs
    f = bl.ComplexSeries([1.0, 1.0, 1.0, 1.0])
    co = bl.decompose(f, Z2)
    assert len(co.layers) >= 2
    np.testing.assert_allclose(co.layers[0].coeffs[:2], [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(co.layers[1].coeffs[:2], [1.0, 1.0], atol=1e-14)
    for layer in co.layers[2:]:
        assert bl.h2_norm(layer) < 1e-12


def test_shift_layers_are_taylor_coefficients():
    rng = np.random.default_rng(1)
    f = random_series(rng, 9)
    co = bl.decompose(f, Z)
    for k in range(10):
        layer = co.layers[k]
        assert abs(layer.coefficient(0) - f.coefficient(k)) < 1e-13
        assert bl.h2_norm(bl.subtract(layer, bl.ComplexSeries([layer.coefficient(0)]))) < 1e-12


def test_layers_live_in_model_space():
    f = bl.ComplexSeries([1.0, 0.0, 0.0, 1.0])
    co = bl.decompose(f, HALF)
    basis = bl.tm_basis(HALF, co.layers[0].truncation_degree)
    for layer in co.layers:
        p = bl.project(layer, basis)
        assert bl.h2_norm(bl.subtract(p, layer)) <= 1e-8 * max(bl.h2_norm(layer), 1e-30)


def test_round_trip_seeded():
    rng = np.random.default_rng(17)
    for zeros in [(0j,), (0j, 0j), (0.5 + 0j,), (0.5 + 0j, 0.3j)]:
        b = bl.BlaschkeProduct(zeros)
        f = random_series(rng, 24)
        co = bl.decompose(f, b)
        rec = bl.reconstruct(co, 24)
        err = np.linalg.norm(rec.coeffs[:25] - f.coeffs) / np.linalg.norm(f.coeffs)
        assert err < 1e-9, zeros


def test_reconstruct_single_layer():
    h = bl.ComplexSeries([1.0, 0.5])
    co = bl.BAdicCoefficients(Z2, [h], 1, 0.0, np.array([[1.0, 0.5]]))
    rec = bl.reconstruct(co, 4)
    np.testing.assert_allclose(rec.coeffs[:2], h.coeffs, atol=1e-15)


def test_reconstruct_shifted_layer():
    h = bl.ComplexSeries([1.0, 0.5])
    zero = bl.ComplexSeries.zero(1)
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5]])
    co = bl.BAdicCoefficients(Z2, [zero, zero, h], 5, 0.0, coords)
    rec = bl.reconstruct(co, 6)
    expected = np.zeros(7, dtype=complex)
    expected[4:6] = [1.0, 0.5]
    np.testing.assert_allclose(rec.coeffs, expected, atol=1e-14)


def test_layer_norms_are_exact_near_the_circle():
    # the printed layers lose |a|^(2(width+1)) ~ 7e-8 of each element here;
    # the norms come from the TM coordinates and lose nothing
    rng = np.random.default_rng(31)
    b = bl.BlaschkeProduct((0.8 + 0j,))
    for degree in range(6):
        f = random_series(rng, degree)
        co = bl.decompose(f, b)
        assert co.coords.shape == (co.depth_used, 1)
        f_sq = float(np.vdot(f.coeffs, f.coeffs).real)
        assert abs(f_sq - float(np.sum(co.layer_h2_norms() ** 2))) <= 1e-12 * f_sq
        assert abs(bl.b_norm(f, b, 0.0) ** 2 - f_sq) <= 1e-12 * f_sq


def test_depth_exhausted_carries_partial():
    f = bl.ComplexSeries.monomial(7, 1.0)
    with pytest.raises(bl.DepthExhausted) as exc:
        bl.decompose(f, HALF, depth=2)
    partial = exc.value.partial
    assert len(partial.layers) == 2
    assert partial.coords.shape == (2, 1)
    assert partial.residual_norm > 1e-9


def test_b_norm_is_diagonal_norm_for_shift():
    rng = np.random.default_rng(23)
    f = random_series(rng, 30)
    for alpha in (-1.0, -0.5, 0.0, 1.0):
        direct = bl.weighted_norm(f, bl.PowerLawWeights(alpha))
        assert abs(bl.b_norm(f, Z, alpha) - direct) <= 1e-10 * direct


def test_b_norm_single_layer():
    basis = bl.tm_basis(HALF, 80)
    h = basis.elements[0]
    assert abs(bl.b_norm(h, HALF, -1.0) - 1.0) < 1e-9
    # a layer pushed to slot j picks up weight (j+1)^(alpha/2)
    bt = HALF.taylor(80)
    bh = bl.mul(bt, bl.mul(bt, h, 80), 80)
    expected = 3.0 ** (-0.5)
    assert abs(bl.b_norm(bh, HALF, -1.0) - expected) < 1e-8


def test_b_norm_unsupported_regime_warns():
    f = bl.ComplexSeries([1.0, 1.0])
    with pytest.warns(bl.RegimeWarning):
        bl.b_norm(f, Z, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bl.b_norm(f, Z, 1.0)


def test_layer_orthogonality():
    # disjoint layer slots pair to zero regardless of the weights
    basis = bl.tm_basis(HALF, 80)
    h = basis.elements[0]
    bh = bl.mul(HALF.taylor(80), h, 80)
    g = bl.BAdicInnerProduct(HALF, bl.PowerLawWeights(-0.5), bl.default_depth(80, HALF)).gram(80)
    assert abs(np.vdot(h.coeffs, g @ bh.coeffs)) < 1e-9


def test_oracle_equivalence_spot_checks():
    rng = np.random.default_rng(99)
    for count in (1, 2):
        zeros = distinct_zeros(rng, count)
        f = random_series(rng, 6)
        gap = oracle_layer_gap(f, bl.BlaschkeProduct(tuple(zeros)))
        assert gap < 1e-6


def test_default_depth_scales_with_source():
    assert bl.default_depth(48, Z2) >= 25
    assert bl.default_depth(48, HALF) > bl.default_depth(8, HALF)
    with pytest.raises(ValueError):
        bl.default_depth(8, bl.BlaschkeProduct(()))


def test_norm_equivalence_shift_is_identity():
    lo, hi = bl.norm_equivalence_estimate(Z, -1.0, 32, 25, seed=7)
    assert abs(lo - 1.0) < 1e-10
    assert abs(hi - 1.0) < 1e-10


def test_norm_equivalence_hardy_monomial():
    # layer norms of z^2 blocks recombine to the plain H2 norm
    lo, hi = bl.norm_equivalence_estimate(Z2, 0.0, 48, 25, seed=7)
    assert abs(lo - 1.0) < 1e-8
    assert abs(hi - 1.0) < 1e-8


def test_norm_equivalence_positive_and_ordered():
    lo, hi = bl.norm_equivalence_estimate(HALF, -1.0, 32, 25, seed=7)
    assert 0.0 < lo <= hi
    lo2, hi2 = bl.norm_equivalence_estimate(HALF, -1.0, 64, 25, seed=7)
    # doubling the truncation must not blow the bracket up
    assert hi2 < 2.0 * hi
    assert lo2 > lo / 2.0


def test_norm_equivalence_deterministic():
    a = bl.norm_equivalence_estimate(HALF, -1.0, 32, 10, seed=42)
    b = bl.norm_equivalence_estimate(HALF, -1.0, 32, 10, seed=42)
    assert a == b


# --------------------------------------------------------- high-precision oracle

MP_CASES = [
    ((0.8 + 0j,), 0.3, 12),
    ((0.5 + 0j, 0.3j), 1.1, 10),
    ((0.4 + 0.2j, 0.4 + 0.2j, -0.7 + 0j), -0.4, 8),
]


@pytest.mark.parametrize("zeros,phase,degree", MP_CASES)
def test_layers_and_b_norm_match_mp_oracle(zeros, phase, degree):
    b = bl.BlaschkeProduct(zeros, phase)
    f = random_series(np.random.default_rng(degree), degree)
    co = bl.decompose(f, b)
    k_used = co.depth_used
    oracle = MpLayerOracle(b, degree, co.layers[0].truncation_degree)
    c = oracle.coords(f, k_used)
    f_norm = float(np.linalg.norm(f.coeffs))
    for k in range(k_used):
        gap = np.linalg.norm(co.layers[k].coeffs - oracle.layer(c[k]))
        assert gap <= 1e-11 * f_norm, k
    with mpmath.workdps(MpLayerOracle.DPS):
        f_sq = sum(abs(mpmath.mpc(x.real, x.imag)) ** 2 for x in f.coeffs)
        tail = f_sq - sum(abs(x) ** 2 for row in c for x in row)
        # the mass the layers leave behind is the reported residual
        assert abs(float(mpmath.sqrt(max(tail, 0))) - co.residual_norm) <= 1e-11 * f_norm
        for alpha in (-1.0, -0.3, 0.0, 0.8):
            exact = float(
                mpmath.sqrt(sum((k + 1) ** alpha * sum(abs(x) ** 2 for x in c[k]) for k in range(k_used)))
            )
            assert abs(bl.b_norm(f, b, alpha) - exact) <= 1e-12 * exact, alpha


@pytest.mark.parametrize("zeros,phase,degree", MP_CASES)
def test_badic_gram_matches_mp_oracle(zeros, phase, degree):
    b = bl.BlaschkeProduct(zeros, phase)
    weights = bl.PowerLawWeights(-0.5)
    depth = bl.default_depth(degree, b)
    # every monomial runs until the slowest one converges
    layers = max(
        bl.decompose(bl.ComplexSeries.monomial(j, 1.0, degree), b, depth).depth_used
        for j in range(degree + 1)
    )
    expected = MpLayerOracle(b, degree, degree).gram(weights.values(layers), layers)
    g = bl.BAdicInnerProduct(b, weights, depth).gram(degree)
    assert np.max(np.abs(g - expected)) <= 1e-12


# --------------------------------------------------------- exact Gram identities

# Summation by parts gives sum_k w_k ||h_k||^2 = sum_k (w_k - w_{k-1}) ||r_k||^2
# with r_k = (T_B^*)^k f: alpha = 0 is Parseval (G = I) and alpha = 1 is the
# Stein solution, at any N and without the TM basis or mpmath.
IDENTITY_CASES = [
    ((0.5 + 0j, 0.3j), 0.0, 40),
    ((0.4 + 0.2j, -0.6 + 0j, 0.7j), 0.5, 60),
    ((0.95 + 0j,), 0.0, 64),
    ((0.9 + 0j, -0.9 + 0j, 0.5j), 0.3, 96),
    ((0.8 + 0j, 0.8 + 0j), 0.2, 128),
]


@pytest.mark.parametrize("zeros,phase,degree", IDENTITY_CASES)
def test_badic_gram_meets_exact_identities(zeros, phase, degree):
    b = bl.BlaschkeProduct(zeros, phase)
    depth = bl.default_depth(degree, b)
    hardy = bl.BAdicInnerProduct(b, bl.PowerLawWeights(0.0), depth).gram(degree)
    assert np.max(np.abs(hardy - np.eye(degree + 1))) <= 1e-12
    dirichlet = bl.BAdicInnerProduct(b, bl.PowerLawWeights(1.0), depth).gram(degree)
    x = stein_gram(b, degree)
    assert np.max(np.abs(dirichlet - x)) <= 1e-12 * np.max(np.abs(x))


# --------------------------------------------------------- random zeros

ZERO = st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 2.0 * np.pi)).map(lambda p: p[0] * np.exp(1j * p[1]))


@settings(max_examples=40, deadline=None)
@given(
    zeros=st.lists(ZERO, min_size=1, max_size=3),
    phase=st.floats(-np.pi, np.pi),
    degree=st.integers(0, 24),
    alpha=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_recursion_properties_random_zeros(zeros, phase, degree, alpha, seed):
    b = bl.BlaschkeProduct(tuple(zeros), phase)
    f = random_series(np.random.default_rng(seed), degree)
    f_sq = float(np.vdot(f.coeffs, f.coeffs).real)
    co = bl.decompose(f, b)

    rebuilt = bl.reconstruct(co, degree).coeffs
    assert np.linalg.norm(rebuilt - f.coeffs) <= 1e-7 * np.sqrt(f_sq)

    # Parseval over the exact TM coordinates of the layers
    shortfall = f_sq - float(np.sum(co.layer_h2_norms() ** 2))
    assert abs(shortfall) <= 1e-12 * f_sq

    # the batched Gram and the per-series decomposition are one recursion
    weights = bl.PowerLawWeights(alpha)
    g = bl.BAdicInnerProduct(b, weights, bl.default_depth(degree, b)).gram(degree)
    quad = float(np.real(np.vdot(f.coeffs, g @ f.coeffs)))
    assert abs(quad - bl.b_norm(f, b, alpha) ** 2) <= 1e-12 * quad
