"""Truncated invariant subspaces and wandering-defect experiments.

The lab works inside the space of polynomials of degree <= N, equipped with
a configurable inner product:

* ``TaylorInnerProduct(weights)`` -- diagonal coefficient pairing,
* ``ShiftedInnerProduct(k, alpha)`` -- the diagonal norm of the k-shifted
  series, i.e. weights (n + k + 1)^alpha,
* ``BAdicInnerProduct(B, weights, depth)`` -- the layer inner product of
  :mod:`blaschkelab.badic`, materialized as a dense Gram matrix on the
  monomial basis.

``span_invariant`` builds the truncated B-invariant subspace generated by a
list of series: the orbit candidates B^j g are kept while
j * degree(B) + order(g) <= N and orthonormalized in order by classical
Gram-Schmidt with reorthogonalization on whitened columns (G = L L^H), a
candidate being dropped when its residual is at most RANK_TOL times the
largest candidate ip-norm.  The basis keeps that Gram matrix as
``SubspaceBasis.gram`` for everything derived from it.  ``wandering_part``
computes M ominus B M inside the guard band of degrees <= N - degree(B).
``wsp_defect`` regenerates M from its wandering part inside M (one Gram) and
reports the largest principal-angle sine between M restricted to degrees
<= N_compare and the regenerated span: the worst ip-distance from a unit
vector of the restricted M to the regenerated subspace.

A defect near zero supports the wandering subspace property at this
truncation; a large defect only ever means "no convergence observed at this
truncation", never a disproof of the infinite-dimensional claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import badic
from .blaschke import BlaschkeProduct, multiplication_matrix
from .series import (
    DEFAULT_RESIDUAL_TOL,
    ComplexSeries,
    PowerLawWeights,
    ShiftedWeights,
    WeightSequence,
)

__all__ = [
    "BAdicInnerProduct",
    "EmptySpan",
    "InnerProduct",
    "ShiftedInnerProduct",
    "SubspaceBasis",
    "TaylorInnerProduct",
    "WspReport",
    "restrict_to_degree",
    "span_invariant",
    "stride_merge",
    "stride_split",
    "subspace_defect",
    "two_step_wandering_defect",
    "wandering_part",
    "wsp_defect",
    "wsp_report",
]

# Gram-Schmidt drops a candidate whose residual is at most RANK_TOL times the
# largest candidate ip-norm.
RANK_TOL = 1e-10

# Relative singular-value threshold for nullspace extraction.
NULLSPACE_RTOL = 1e-8


class EmptySpan(ValueError):
    """No generator contributes a nonzero candidate."""


class InnerProduct:
    """Positive-definite sesquilinear form on truncated coefficient vectors."""

    def gram(self, degree: int) -> np.ndarray:
        """Dense Hermitian Gram matrix on the monomial basis.

        Entry G[i, j] = <z^j, z^i>, so <f, g> = (g coeffs)^H G (f coeffs).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class TaylorInnerProduct(InnerProduct):
    """<f, g> = sum_n f_n conj(g_n) omega(n)."""

    weights: WeightSequence

    def gram(self, degree: int) -> np.ndarray:
        w = self.weights.values(degree + 1)
        if np.any(w <= 0.0):
            raise ValueError("inner-product weights must be positive")
        return np.diag(w.astype(complex))


@dataclass(frozen=True)
class ShiftedInnerProduct(InnerProduct):
    """Diagonal norm of the k-shifted series: weights (n + k + 1)^alpha."""

    shift: int
    alpha: float

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")

    def gram(self, degree: int) -> np.ndarray:
        w = ShiftedWeights(PowerLawWeights(self.alpha), self.shift).values(degree + 1)
        return np.diag(w.astype(complex))


@dataclass(frozen=True)
class BAdicInnerProduct(InnerProduct):
    """Layer inner product sum_k weights(k) <h_k(f), h_k(g)>_{H^2}.

    The Gram matrix on the monomial basis is built in one pass: the layer
    recursion of :mod:`blaschkelab.badic` runs on all monomials at once,
    giving the TM coordinates C_k of layer k for every monomial, and
    G = sum_k weights(k) C_k^H C_k.  All monomials run until the slowest
    reaches the default residual tolerance, keeping every cross term.  Size ``depth`` as
    in :func:`blaschkelab.badic.default_depth`: zeros away from the origin
    spread degree-n data over about (n/degree(B)) * (1+rho)/(1-rho) layers
    (DepthExhausted propagates).
    """

    blaschke: BlaschkeProduct
    weights: WeightSequence
    depth: int

    def gram(self, degree: int) -> np.ndarray:
        _, coords, _ = badic._peel(
            np.eye(degree + 1, dtype=complex), self.blaschke, self.depth, DEFAULT_RESIDUAL_TOL
        )
        w = self.weights.values(coords.shape[0])
        if np.any(w <= 0.0):
            raise ValueError("layer weights must be positive")
        a = (np.sqrt(w)[:, None, None] * coords).reshape(-1, degree + 1)
        g = a.conj().T @ a
        return (g + g.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Basis columns of a subspace of degree <= N polynomials, orthonormal in ``gram``."""

    columns: np.ndarray
    ambient_degree: int
    gram: np.ndarray

    @property
    def dimension(self) -> int:
        return self.columns.shape[1]

    def series(self) -> list:
        return [ComplexSeries(self.columns[:, j]) for j in range(self.dimension)]


def _orthonormalize(candidates: list, g: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt with one reorthogonalization pass, on whitened columns.

    With G = L L^H, the ip-inner product of coefficient vectors is the
    Euclidean one of their images under L^H.  Candidates are taken in order
    in those coordinates; one whose residual is at most RANK_TOL times the
    largest candidate ip-norm is dropped as dependent.  The kept directions
    are mapped back by one solve with the triangular factor L^H.
    """
    lh = np.linalg.cholesky(g).conj().T
    x = lh @ np.column_stack(candidates)
    cutoff = RANK_TOL * np.max(np.linalg.norm(x, axis=0))
    q = np.zeros_like(x)
    kept = 0
    for v in x.T:
        for _ in range(2):
            v = v - q[:, :kept] @ (q[:, :kept].conj().T @ v)
        nrm = np.linalg.norm(v)
        if nrm > cutoff:
            q[:, kept] = v / nrm
            kept += 1
    return np.linalg.solve(lh, q[:, :kept])


def _nullspace(a: np.ndarray, rtol: float = NULLSPACE_RTOL) -> np.ndarray:
    """Orthonormal basis of the (numerical) nullspace of a."""
    cols = a.shape[1]
    if a.shape[0] == 0 or cols == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    cutoff = rtol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def span_invariant(
    generators: list,
    b: BlaschkeProduct,
    ip: InnerProduct,
    degree: int,
) -> SubspaceBasis:
    """Truncated B-invariant span of the generators.

    Orbit candidates B^j g enter in order of increasing j while
    j * degree(B) + order(g) <= degree, where order(g) is the trimmed order
    of vanishing at 0; for B = z^k this reproduces the exact polynomial
    grading.  Raises EmptySpan when nothing survives.
    """
    candidates = _orbit(generators, b, degree)
    g = ip.gram(degree)
    cols = _orthonormalize(candidates, g)
    if cols.shape[1] == 0:
        raise EmptySpan("generators span nothing at this truncation")
    return SubspaceBasis(cols, degree, g)


def _orbit(generators: list, b: BlaschkeProduct, degree: int) -> list:
    """Orbit candidates B^j g of the nonzero generators, in span_invariant's order."""
    gens = [gen.resized(degree) for gen in generators if not gen.is_zero()]
    if not gens:
        raise EmptySpan("all generators are zero")

    deg_b = b.degree
    if deg_b == 0:
        orbit_lengths = [1 for _ in gens]
    else:
        orbit_lengths = [
            max(0, (degree - gen.trimmed_order()) // deg_b) + 1 for gen in gens
        ]
    b_t = b.taylor(degree).coeffs
    candidates = []
    powers = [gen.coeffs.copy() for gen in gens]
    for j in range(max(orbit_lengths)):
        for i, gen in enumerate(gens):
            if j < orbit_lengths[i]:
                candidates.append(powers[i])
                powers[i] = np.convolve(powers[i], b_t)[: degree + 1]
    return candidates


def restrict_to_degree(m: SubspaceBasis, max_degree: int) -> SubspaceBasis:
    """Subspace of M supported on degrees <= max_degree.

    Found as the nullspace of the top coefficient rows in M coordinates; the
    returned columns stay inside M.
    """
    n = m.ambient_degree
    if max_degree >= n:
        return m
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    c0 = _nullspace(m.columns[max_degree + 1 :, :])
    return SubspaceBasis(m.columns @ c0, n, m.gram)


def wandering_part(m: SubspaceBasis, b: BlaschkeProduct) -> SubspaceBasis:
    """M ominus B M, computed inside the band of degrees <= N - degree(B).

    The band keeps the comparison honest: products B * (top-degree elements)
    lose coefficients to the truncation, so the complement is taken within
    the part of M whose B-image is fully represented.
    """
    n = m.ambient_degree
    if b.degree > n:
        raise ValueError("ambient degree below degree(B)")
    restricted = restrict_to_degree(m, n - b.degree)
    bm = multiplication_matrix(b, n, n) @ m.columns
    cross = bm.conj().T @ (m.gram @ restricted.columns)
    d = _nullspace(cross)
    return SubspaceBasis(restricted.columns @ d, n, m.gram)


def subspace_defect(target: SubspaceBasis, cover: SubspaceBasis, compare_degree: int) -> float:
    """Largest principal-angle sine between target|degrees<=compare and cover.

    Equals the worst ip-distance from a unit vector of the restricted target
    to the cover subspace; 0 means containment, 1 means some direction of
    the restricted target is orthogonal to the cover.  Computed from the
    residual (I - P_cover) on the restricted basis, which stays accurate
    near zero where the cross-Gram cosines would lose half the digits.
    """
    restricted = restrict_to_degree(target, compare_degree)
    if restricted.dimension == 0:
        return 0.0
    u = restricted.columns
    if cover.dimension:
        u = u - cover.columns @ (cover.columns.conj().T @ (target.gram @ u))
    h = u.conj().T @ (target.gram @ u)
    top = float(np.max(np.linalg.eigvalsh((h + h.conj().T) / 2.0)))
    return float(np.sqrt(min(max(top, 0.0), 1.0)))


@dataclass(frozen=True)
class WspReport:
    """Wandering-defect experiment summary."""

    defect: float
    dim_invariant: int
    dim_wandering: int
    dim_regenerated: int
    ambient_degree: int
    compare_degree: int


def _regeneration_report(
    generators: list,
    b: BlaschkeProduct,
    b_wandering: BlaschkeProduct,
    ip: InnerProduct,
    degree: int,
    compare_degree: int,
) -> WspReport:
    """Span M under B, take W = M ominus b_wandering M, regenerate W under B inside M.

    W's orbit C enters in the coordinates Y = M^H G C of M's G-orthonormal basis, so
    one Gram serves M, W and the regenerated span, which never outgrows M.  For zeros
    off the origin the orbit can leave M at the truncation; projecting onto M only
    lowers the defect, as ||u - P_M c|| <= ||u - c|| for u in M.
    """
    m = span_invariant(generators, b, ip, degree)
    w = wandering_part(m, b_wandering)
    q = np.zeros((m.dimension, 0), dtype=complex)
    if w.dimension:
        y = m.columns.conj().T @ (m.gram @ np.column_stack(_orbit(w.series(), b, degree)))
        q = _orthonormalize(list(y.T), np.eye(m.dimension))
    regenerated = SubspaceBasis(m.columns @ q, degree, m.gram)
    return WspReport(
        defect=subspace_defect(m, regenerated, compare_degree),
        dim_invariant=m.dimension,
        dim_wandering=w.dimension,
        dim_regenerated=regenerated.dimension,
        ambient_degree=degree,
        compare_degree=compare_degree,
    )


def wsp_report(
    generators: list,
    b: BlaschkeProduct,
    ip: InnerProduct,
    degree: int,
    compare_degree: int,
    guard: int = 8,
) -> WspReport:
    """Build M, its wandering part W, regenerate [W]_B, and measure the defect.

    ``compare_degree`` must leave room for the guard band:
    compare_degree <= degree - 2*degree(B) - guard.
    """
    if compare_degree < 0:
        raise ValueError("compare_degree must be nonnegative")
    if compare_degree > degree - 2 * b.degree - guard:
        raise ValueError(
            f"compare_degree {compare_degree} too close to the truncation; "
            f"need <= {degree - 2 * b.degree - guard}"
        )
    return _regeneration_report(generators, b, b, ip, degree, compare_degree)


def wsp_defect(
    generators: list,
    b: BlaschkeProduct,
    ip: InnerProduct,
    degree: int,
    compare_degree: int,
    guard: int = 8,
) -> float:
    return wsp_report(generators, b, ip, degree, compare_degree, guard).defect


def stride_split(f: ComplexSeries, k: int) -> list:
    """Components f_j with f(z) = sum_j z^j f_j(z^k); coefficientwise
    f_j[n] = f[k n + j]."""
    if k < 1:
        raise ValueError("stride must be positive")
    parts = []
    for j in range(k):
        chunk = f.coeffs[j::k]
        parts.append(ComplexSeries(chunk if chunk.size else [0j]))
    return parts


def stride_merge(parts: list, k: int, degree: int | None = None) -> ComplexSeries:
    """Inverse of stride_split: assemble sum_j z^j f_j(z^k)."""
    if k < 1:
        raise ValueError("stride must be positive")
    if len(parts) != k:
        raise ValueError(f"expected {k} components, got {len(parts)}")
    if degree is None:
        degree = max(k * p.truncation_degree + j for j, p in enumerate(parts))
    out = np.zeros(degree + 1, dtype=complex)
    for j, p in enumerate(parts):
        strided = out[j::k]
        n = min(strided.size, len(p))
        strided[:n] = p.coeffs[:n]
    return ComplexSeries(out)


def two_step_wandering_defect(
    generators: list,
    k: int,
    alpha: float,
    degree: int,
    compare_degree: int,
    guard: int = 8,
) -> float:
    """Defect of regenerating M from M ominus z^(2k) M under z^k.

    M is the z^k-invariant span of the generators in the diagonal
    (n+1)^alpha norm, the wandering part is taken with respect to z^(2k),
    and the regeneration runs under z^k; alpha in [-1, 0].
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not -1.0 <= alpha <= 0.0:
        raise ValueError("alpha must lie in [-1, 0]")
    if compare_degree > degree - 4 * k - guard:
        raise ValueError(
            f"compare_degree {compare_degree} too close to the truncation; "
            f"need <= {degree - 4 * k - guard}"
        )
    ip = TaylorInnerProduct(PowerLawWeights(alpha))
    b_k = BlaschkeProduct((0j,) * k)
    b_2k = BlaschkeProduct((0j,) * (2 * k))
    return _regeneration_report(generators, b_k, b_2k, ip, degree, compare_degree).defect
