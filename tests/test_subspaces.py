import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blaschkelab as bl

from helpers import RANK_TOL, random_series, reference_orthonormalize, seeded_generator


Z = bl.BlaschkeProduct((0j,))
Z2 = bl.BlaschkeProduct((0j, 0j))
Z3 = bl.BlaschkeProduct((0j, 0j, 0j))
BERGMAN = bl.TaylorInnerProduct(bl.PowerLawWeights(-1.0))
HARDY = bl.TaylorInnerProduct(bl.PowerLawWeights(0.0))


def ip_gram_norm(ip, degree, vec):
    g = ip.gram(degree)
    return float(np.sqrt(np.real(np.vdot(vec, g @ vec))))


# ---------------------------------------------------------------- inner products


def test_taylor_gram_is_diagonal_weights():
    g = BERGMAN.gram(5)
    np.testing.assert_allclose(g, np.diag(1.0 / (np.arange(6.0) + 1.0)), atol=1e-15)


def test_shifted_gram_diagonal():
    ip = bl.ShiftedInnerProduct(2, -1.0)
    g = ip.gram(4)
    np.testing.assert_allclose(g, np.diag(1.0 / (np.arange(5.0) + 3.0)), atol=1e-15)


def test_shifted_gram_matches_shifted_series_norm():
    # the shifted form equals the plain norm of z^k * f
    rng = np.random.default_rng(8)
    f = random_series(rng, 10)
    ip = bl.ShiftedInnerProduct(3, -1.0)
    direct = ip_gram_norm(ip, 10, f.coeffs)
    shifted = np.concatenate([np.zeros(3, dtype=complex), f.coeffs])
    expected = bl.weighted_norm(bl.ComplexSeries(shifted), bl.PowerLawWeights(-1.0))
    assert abs(direct - expected) < 1e-12


def test_badic_gram_shift_case():
    ip = bl.BAdicInnerProduct(Z, bl.PowerLawWeights(-1.0), 40)
    g = ip.gram(12)
    np.testing.assert_allclose(g, np.diag((np.arange(13.0) + 1.0) ** -1.0), atol=1e-13)


def test_badic_gram_z2_case():
    # layer index of z^n under z^2 is floor(n/2)
    ip = bl.BAdicInnerProduct(Z2, bl.PowerLawWeights(-1.0), 40)
    g = ip.gram(12)
    want = np.diag((np.floor(np.arange(13.0) / 2.0) + 1.0) ** -1.0)
    np.testing.assert_allclose(g, want, atol=1e-13)


def test_badic_gram_agrees_with_direct_pairing():
    b = bl.BlaschkeProduct((0.5 + 0j,))
    w = bl.PowerLawWeights(-1.0)
    depth = bl.default_depth(16, b)
    ip = bl.BAdicInnerProduct(b, w, depth)
    g = ip.gram(16)
    rng = np.random.default_rng(3)
    for _ in range(4):
        f = random_series(rng, 16)
        h = random_series(rng, 16)
        # polarization: <f, h> = (1/4) sum_k i^k ||f + i^k h||^2
        direct = sum(
            1j**k * bl.b_norm(bl.add(f, bl.scale(h, 1j**k)), b, -1.0, depth) ** 2 for k in range(4)
        ) / 4
        via_gram = complex(np.conj(h.coeffs) @ (g @ f.coeffs))
        assert abs(direct - via_gram) <= 1e-8 * max(abs(direct), 1.0)


def test_badic_gram_rejects_short_depth_and_constant_b():
    b = bl.BlaschkeProduct((0.5 + 0j,))
    with pytest.raises(bl.DepthExhausted) as exc:
        bl.BAdicInnerProduct(b, bl.PowerLawWeights(-1.0), 3).gram(8)
    assert exc.value.partial.depth_used == 3
    assert exc.value.residual_norm > 1e-9
    with pytest.raises(ValueError):
        bl.BAdicInnerProduct(bl.BlaschkeProduct((), 0.3), bl.PowerLawWeights(-1.0), 5).gram(4)


def test_gram_positive_definite():
    for ip in (BERGMAN, bl.ShiftedInnerProduct(2, -0.5),
               bl.BAdicInnerProduct(bl.BlaschkeProduct((0.5 + 0j,)), bl.PowerLawWeights(-1.0), 120)):
        g = ip.gram(10)
        eigs = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
        assert eigs[0] > 0.0


# ---------------------------------------------------------------- span building


def test_cyclic_vector_fills_space():
    m = bl.span_invariant([bl.ComplexSeries([1.0])], Z, HARDY, 8)
    assert m.dimension == 9


def test_z2_orbit_of_affine_generator():
    g = bl.ComplexSeries([1.0, 0.7])
    m = bl.span_invariant([g], Z2, BERGMAN, 9)
    assert m.dimension == 5


def test_monomial_orbit_dimension():
    m = bl.span_invariant([bl.ComplexSeries.monomial(3)], Z3, HARDY, 12)
    assert m.dimension == 4


def test_span_columns_orthonormal():
    g = bl.ComplexSeries([1.0, 0.7])
    m = bl.span_invariant([g], Z2, BERGMAN, 31)
    prods = m.columns.conj().T @ m.gram @ m.columns
    np.testing.assert_allclose(prods, np.eye(m.dimension), atol=1e-9)


def test_empty_span_rejected():
    with pytest.raises(bl.EmptySpan):
        bl.span_invariant([bl.ComplexSeries.zero(4)], Z, HARDY, 8)


def test_span_drops_dependent_generators():
    g = bl.ComplexSeries([1.0, 0.5])
    m1 = bl.span_invariant([g], Z2, BERGMAN, 15)
    m2 = bl.span_invariant([g, bl.scale(g, 2.0)], Z2, BERGMAN, 15)
    assert m1.dimension == m2.dimension


def test_more_candidates_than_dimensions_fill_space():
    # 130 orbit candidates in 65 dimensions: the greedy in-order rule keeps
    # the first 65 independent ones (an unpivoted QR thresholded on its
    # diagonal keeps only a handful)
    gens = [bl.ComplexSeries([1.0, -0.4]), bl.ComplexSeries([2.0, 0.3, 0.1])]
    m = bl.span_invariant(gens, Z, bl.ShiftedInnerProduct(1, -0.5), 64)
    assert m.dimension == 65


def test_outer_generator_fills_space_under_badic():
    # 1 - 0.5 z is outer and B a disc automorphism, so M is the whole
    # truncated space and regenerates from one wandering direction (a
    # whitened SVD or pivoted QR at RANK_TOL drops two directions here)
    b = bl.BlaschkeProduct((0.5 + 0j,))
    ip = bl.BAdicInnerProduct(b, bl.PowerLawWeights(-0.5), bl.default_depth(28, b))
    rep = bl.wsp_report([bl.ComplexSeries([1.0, -0.5])], b, ip, 28, 14)
    assert (rep.dim_invariant, rep.dim_wandering, rep.dim_regenerated) == (29, 1, 29)
    assert rep.defect <= 1e-9


def _whitened_residuals(candidates, g):
    """Ip-distance of each candidate from the span of the ones before it,
    over the largest candidate ip-norm, by least squares in eigen-whitened
    coordinates (no Gram-Schmidt step shared with either routine)."""
    e, v = np.linalg.eigh(g)
    x = (v * np.sqrt(e)).conj().T @ np.column_stack(candidates)
    res = [np.linalg.norm(x[:, 0])]
    for j in range(1, x.shape[1]):
        coef = np.linalg.lstsq(x[:, :j], x[:, j], rcond=None)[0]
        res.append(np.linalg.norm(x[:, j] - x[:, :j] @ coef))
    return np.array(res) / np.max(np.linalg.norm(x, axis=0))


def _oracle_gram(kind, degree, alpha, rng):
    if kind == "taylor":
        return bl.TaylorInnerProduct(bl.PowerLawWeights(alpha)).gram(degree)
    if kind == "shifted":
        return bl.ShiftedInnerProduct(int(rng.integers(0, 4)), alpha).gram(degree)
    n_zeros = int(rng.integers(1, 3))
    zeros = rng.uniform(0.0, 0.7, n_zeros) * np.exp(2j * np.pi * rng.uniform(size=n_zeros))
    b = bl.BlaschkeProduct(tuple(complex(z) for z in zeros))
    return bl.BAdicInnerProduct(b, bl.PowerLawWeights(alpha), bl.default_depth(degree, b)).gram(degree)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["taylor", "shifted", "badic"]),
    degree=st.integers(4, 20),
    alpha=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_orthonormalize_matches_reference(kind, degree, alpha, seed, data):
    rng = np.random.default_rng(seed)
    g = _oracle_gram(kind, degree, alpha, rng)
    count = data.draw(st.integers((degree + 1) // 2, 2 * degree), label="count")
    candidates = []
    for _ in range(count):
        pick = rng.uniform() if candidates else 0.0
        if pick < 0.6:
            v = random_series(rng, degree).coeffs * 10.0 ** rng.uniform(-2.0, 2.0)
        elif pick < 0.8:
            v = candidates[int(rng.integers(len(candidates)))].copy()
        else:
            idx = rng.integers(len(candidates), size=int(rng.integers(2, 4)))
            v = sum((rng.normal() + 1j * rng.normal()) * candidates[i] for i in idx)
        candidates.append(v)
    # keep rounding out of the decision: no residual near the threshold
    rel = _whitened_residuals(candidates, g)
    assume(not np.any((rel > RANK_TOL / 100.0) & (rel < 1e-6)))

    ref = reference_orthonormalize(candidates, g)
    q = bl.subspaces._orthonormalize(candidates, g)
    assert q.shape == ref.shape
    assert np.linalg.norm(q.conj().T @ g @ q - np.eye(q.shape[1]), 2) <= 1e-12
    # largest principal-angle sine between the two spans
    u = ref - q @ (q.conj().T @ (g @ ref))
    h = u.conj().T @ g @ u
    assert np.sqrt(max(np.max(np.linalg.eigvalsh((h + h.conj().T) / 2.0)), 0.0)) <= 1e-8


def test_restrict_to_degree():
    m = bl.span_invariant([bl.ComplexSeries([1.0])], Z, HARDY, 10)
    r = bl.restrict_to_degree(m, 4)
    assert r.dimension == 5
    assert np.allclose(r.columns[5:, :], 0.0)


# ---------------------------------------------------------------- wandering parts


def test_wandering_of_full_space_under_shift():
    m = bl.span_invariant([bl.ComplexSeries([1.0])], Z, BERGMAN, 16)
    w = bl.wandering_part(m, Z)
    assert w.dimension == 1
    col = w.series()[0]
    # the wandering direction of the full space is the constants
    assert np.argmax(np.abs(col.coeffs)) == 0
    assert np.linalg.norm(col.coeffs[1:]) < 1e-9


def test_wandering_of_full_space_z2_hardy():
    m = bl.span_invariant([bl.ComplexSeries([1.0]), bl.ComplexSeries([0.0, 1.0])], Z2, HARDY, 17)
    w = bl.wandering_part(m, Z2)
    assert w.dimension == 2
    sub = w.columns[2:, :]
    assert np.linalg.norm(sub) < 1e-9


def test_wandering_generator_of_affine_orbit():
    # one-dimensional wandering part proportional to the generator itself
    g = bl.ComplexSeries([1.0, 0.7])
    m = bl.span_invariant([g], Z2, BERGMAN, 33)
    w = bl.wandering_part(m, Z2)
    assert w.dimension == 1
    col = w.series()[0].coeffs
    col = col / col[0]
    assert abs(col[1] - 0.7) < 1e-9
    assert np.linalg.norm(col[2:]) < 1e-9


def test_wandering_orthogonal_to_shifted_space():
    g = seeded_generator(41)
    m = bl.span_invariant([g], Z2, BERGMAN, 40)
    w = bl.wandering_part(m, Z2)
    t = bl.multiplication_matrix(Z2, m.ambient_degree - 2, m.ambient_degree)
    shifted = t @ m.columns[: m.ambient_degree - 1, :]
    prods = w.columns.conj().T @ m.gram @ shifted
    assert np.max(np.abs(prods)) < 1e-8


# ---------------------------------------------------------------- defects


def test_affine_generator_defect_tiny():
    for a in (0.3, 0.7, 0.9j):
        d = bl.wsp_defect([bl.ComplexSeries([1.0, a])], Z2, BERGMAN, 64, 40)
        assert d <= 1e-9, a


def test_report_dims():
    rep = bl.wsp_report([bl.ComplexSeries([1.0, 0.7])], Z2, BERGMAN, 64, 40)
    assert rep.dim_invariant == 33
    assert rep.dim_wandering == 1
    assert rep.dim_regenerated == rep.dim_invariant
    assert rep.ambient_degree == 64
    assert rep.compare_degree == 40


def test_wsp_report_builds_one_gram():
    # M builds the Gram; W, the regeneration inside M and the defect reuse it
    degrees = []

    class Counting(bl.InnerProduct):
        def gram(self, degree):
            degrees.append(degree)
            return BERGMAN.gram(degree)

    rep = bl.wsp_report([bl.ComplexSeries([1.0, 0.7])], Z2, Counting(), 64, 40)
    assert (rep.dim_invariant, rep.dim_wandering, rep.dim_regenerated) == (33, 1, 33)
    assert degrees == [64]


def test_regeneration_stays_inside_invariant_span():
    # three outer generators under z^3 (benchmark subspace seed 35, block 25):
    # regenerating in the whole space kept a 1e-11 direction and gave G = 81
    literals = [
        "1.061694398379568,-0.456528534643055;-0.7497285985018788,-0.22238492831340922;"
        "0.1865576816471977,-0.2217039075586318;-0.21801003031510907,0.17018700349884203;"
        "0.06419189516097208,-0.0016089329828273314",
        "-0.9626162108170462,-1.6854183574333221;0.9605492186968545,0.5439293457935285;"
        "-0.188023247135177,-0.023626702882585303;0.13672202869705488,-0.08637784729623507;"
        "-0.027493758354440574,0.11562185300934315;-0.0073006459620027185,-0.04939655949150815;"
        "0.00698368786219032,0.022638174389421995;-0.0014980995866356735,-0.006593489495743507;"
        "0.0009458374248660957,0.0018692484974054766",
        "-0.6179974174786721,0.011897417818567423;0.24451864749329597,-0.47601739236390883;"
        "0.03285786279123959,0.02015140807936588;0.0838484493979443,-0.009662014392408318;"
        "-0.004739207644668637,0.019857649072426358",
    ]
    b = bl.BlaschkeProduct((0j, 0j, 0j), 1.5364515987239251)
    ip = bl.TaylorInnerProduct(bl.PowerLawWeights(-0.6308086001921981))
    rep = bl.wsp_report([bl.parse_series_literal(t) for t in literals], b, ip, 80, 40)
    assert (rep.dim_invariant, rep.dim_wandering, rep.dim_regenerated) == (80, 3, 80)
    assert rep.defect <= 1e-12


def test_defect_bounded_by_one():
    d = bl.wsp_defect([bl.ComplexSeries([1.0])], Z2, HARDY, 40, 16)
    assert 0.0 <= d <= 1.0


def test_guard_validation():
    g = bl.ComplexSeries([1.0])
    with pytest.raises(ValueError):
        bl.wsp_report([g], Z2, BERGMAN, 30, 28)


def test_defect_weight_scale_invariant():
    g = seeded_generator(7)
    w1 = bl.TaylorInnerProduct(bl.PowerLawWeights(-1.0))
    w2 = bl.TaylorInnerProduct(bl.ExplicitWeights((1.0,), bl.PowerLawWeights(-1.0)))
    d1 = bl.wsp_defect([g], Z2, w1, 48, 24)
    scaled = bl.TaylorInnerProduct(_ScaledWeights(bl.PowerLawWeights(-1.0), 7.5))
    d2 = bl.wsp_defect([g], Z2, scaled, 48, 24)
    assert abs(d1 - d2) < 1e-9
    assert abs(d1 - bl.wsp_defect([g], Z2, w2, 48, 24)) < 1e-12


class _ScaledWeights(bl.WeightSequence):
    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor

    def values(self, count):
        return self.factor * self.inner.values(count)


def test_shift_invariant_orbit_regenerates_under_z2():
    # orbit under z, tested against z^2: generators {g, z g}
    for seed in (1, 2, 3):
        g = seeded_generator(seed)
        zg = bl.ComplexSeries(np.concatenate([[0.0], g.coeffs]))
        d = bl.wsp_defect([g, zg], Z2, BERGMAN, 64, 40)
        assert d <= 1e-7, seed


def test_direct_sum_of_stride_components():
    g1 = seeded_generator(10, max_root=0.25)
    g2 = seeded_generator(11, max_root=0.25)
    zero = bl.ComplexSeries.zero(0)
    m1 = bl.stride_merge([g1, zero], 2)
    m2 = bl.stride_merge([zero, g2], 2)
    d = bl.wsp_defect([m1, m2], Z2, BERGMAN, 64, 40)
    assert d <= 1e-7


def test_two_step_wandering_defect_small():
    gens = [bl.ComplexSeries([1.0])]
    for k in (1, 2):
        d = bl.two_step_wandering_defect(gens, k, -1.0, 64, 32)
        assert d <= 1e-7, k


def test_two_step_validation():
    gens = [bl.ComplexSeries([1.0])]
    with pytest.raises(ValueError):
        bl.two_step_wandering_defect(gens, 1, 0.5, 64, 32)
    with pytest.raises(ValueError):
        bl.two_step_wandering_defect(gens, 3, -1.0, 64, 60)


def test_defect_of_cover_equals_zero_for_self():
    m = bl.span_invariant([bl.ComplexSeries([1.0, 0.5])], Z2, BERGMAN, 40)
    assert bl.subspace_defect(m, m, 20) < 1e-12


def test_defect_against_empty_cover_is_one():
    m = bl.span_invariant([bl.ComplexSeries([1.0])], Z, HARDY, 20)
    empty = bl.SubspaceBasis(np.zeros((21, 0), dtype=complex), 20, m.gram)
    assert bl.subspace_defect(m, empty, 10) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- stride helpers


def test_stride_split_merge_example():
    f = bl.ComplexSeries([1.0, 2.0, 3.0, 4.0, 5.0])
    parts = bl.stride_split(f, 2)
    np.testing.assert_allclose(parts[0].coeffs, [1.0, 3.0, 5.0])
    np.testing.assert_allclose(parts[1].coeffs, [2.0, 4.0])
    back = bl.stride_merge(parts, 2)
    np.testing.assert_allclose(back.coeffs[:5], f.coeffs)


coeff = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=16), st.integers(min_value=1, max_value=4))
def test_stride_round_trip_property(coeffs, k):
    f = bl.ComplexSeries(coeffs)
    back = bl.stride_merge(bl.stride_split(f, k), k)
    np.testing.assert_allclose(back.coeffs[: len(coeffs)], f.coeffs, atol=1e-15)
