"""Wold-type layer decomposition f = sum_k h_k B^k with h_k in K_B.

Multiplication by a finite Blaschke product B splits the Hardy space into
the mutually orthogonal layers B^k K_B.  B is inner, so dividing
r - P_{K_B} r by B is applying the adjoint Toeplitz operator T_B^*, which
annihilates K_B.  With (e_j) the Takenaka-Malmquist basis of K_B the
layers peel off by the exact recursion

    r_0 = f,   c_k[j] = <r_k, e_j>,   h_k = sum_j c_k[j] e_j,   r_{k+1} = T_B^* r_k.

T_B^* maps degree <= N polynomials to themselves (it is the conjugate
transpose of the (N+1) x (N+1) Toeplitz matrix of B), so each layer costs
one matrix-vector product, c_k needs only coefficients 0..N of the basis,
and no division or special case for B = z^d is involved.

The layers give equivalent norms on the weighted Dirichlet-type scale:
``b_norm`` is sqrt(sum_k (k+1)^alpha ||h_k||_{H^2}^2), which for B = z is
exactly the diagonal (n+1)^alpha norm.  The TM basis is orthonormal, so
every norm is read from the exact coordinates: ||h_k||_{H^2} = ||c_k||.

Layers are reported at the guarded working degree from
:func:`blaschkelab.model_space.guard_degree`, which sizes only the printed
layers and :func:`reconstruct`, never a norm.  The loop stops after
``depth`` layers or once the residual norm falls to ``residual_tol``.  A
residual still above tolerance at depth raises :class:`DepthExhausted`,
which carries the partial result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, multiplication_matrix
from .model_space import guard_degree, tm_basis
from .series import (
    DEFAULT_RESIDUAL_TOL,
    ComplexSeries,
    PowerLawWeights,
)

__all__ = [
    "BAdicCoefficients",
    "DepthExhausted",
    "RegimeWarning",
    "b_norm",
    "decompose",
    "default_depth",
    "norm_equivalence_estimate",
    "reconstruct",
]


class RegimeWarning(UserWarning):
    """Layer-norm comparisons are only backed for alpha in [-1, 1]."""


class DepthExhausted(RuntimeError):
    """Residual above tolerance after the allowed number of layers.

    Attributes
    ----------
    partial : BAdicCoefficients
        The layers computed so far.
    residual_norm : float
        H^2 norm of the remaining residual.
    """

    def __init__(self, message: str, partial: "BAdicCoefficients", residual_norm: float) -> None:
        super().__init__(message)
        self.partial = partial
        self.residual_norm = residual_norm


@dataclass(frozen=True, eq=False)
class BAdicCoefficients:
    """Layers (h_0, ..., h_m) of a truncated series with respect to B.

    Row k of ``coords``, shape (m + 1, degree(B)), holds the exact TM
    coordinates c_k of h_k; ``layers`` holds h_k at the guarded degree.
    """

    blaschke: BlaschkeProduct
    layers: tuple
    source_degree: int
    residual_norm: float
    coords: np.ndarray

    @property
    def depth_used(self) -> int:
        return len(self.layers)

    def layer_h2_norms(self) -> np.ndarray:
        return np.linalg.norm(self.coords, axis=1)


def default_depth(
    source_degree: int,
    b: BlaschkeProduct,
    residual_tol: float | None = None,
) -> int:
    """Layer budget before DepthExhausted; the loop stops early on residual.

    For B = z^k the bound ceil((N+1)/k) + 2 is exact.  Zeros away from the
    origin spread degree-N data over about (N/degree(B)) * (1+rho)/(1-rho)
    layers (rho = max|a_i|, the slowest boundary rotation speed of B),
    followed by a geometric tail at rate rho; the budget covers both with
    headroom, which costs nothing when convergence arrives sooner.
    """
    if b.degree < 1:
        raise ValueError("B must have at least one zero")
    rt = DEFAULT_RESIDUAL_TOL if residual_tol is None else residual_tol
    depth = math.ceil((source_degree + 1) / b.degree) + 2
    rho = max((abs(z) for z in b.zeros), default=0.0)
    if rho > 0.0:
        spread = 1.6 * (source_degree + 1) / b.degree * (1.0 + rho) / (1.0 - rho)
        tail = 0.0
        if rt < 1.0:
            tail = math.log(rt) / math.log(rho)
        depth = max(depth, math.ceil(spread + tail) + 16)
    return depth


def _peel(sources: np.ndarray, b: BlaschkeProduct, depth: int, residual_tol: float) -> tuple:
    """TM coordinates of the layers of every column of ``sources``.

    Each column holds the coefficients 0..N of one source.  The recursion
    r_{k+1} = T_B^* r_k runs on all columns until every residual norm is at
    most ``residual_tol``, so a Gram of the coordinates keeps every cross term.
    Returns ``(basis, coords, residual)``: the TM basis matrix at the guarded
    degree, coords[k] = basis[:N+1]^H r_k of shape (layers, degree(B),
    columns), and the norm of each column's last residual.  Raises
    DepthExhausted, with the layers of the first column still above
    tolerance, if any column needs more than ``depth`` layers.
    """
    if b.degree < 1:
        raise ValueError("B must have at least one zero")
    n = sources.shape[0] - 1
    basis = tm_basis(b, guard_degree(b, n)).matrix()
    head = basis[: n + 1].conj().T
    adjoint = multiplication_matrix(b, n, n).conj().T
    r = sources
    residual = np.linalg.norm(r, axis=0)
    coords = []
    for _ in range(depth):
        if not np.any(residual > residual_tol):
            break
        coords.append(head @ r)
        r = adjoint @ r
        residual = np.linalg.norm(r, axis=0)
    coords = np.array(coords).reshape(len(coords), b.degree, sources.shape[1])
    stuck = np.flatnonzero(residual > residual_tol)
    if stuck.size:
        j = stuck[0]
        c = coords[:, :, j].copy()
        partial = BAdicCoefficients(b, _layers(basis, c), n, float(residual[j]), c)
        raise DepthExhausted(
            f"residual norm {residual[j]:.3e} above tolerance {residual_tol:.1e} after {depth} layers",
            partial,
            float(residual[j]),
        )
    return basis, coords, residual


def _layers(basis: np.ndarray, coords: np.ndarray) -> tuple:
    """Layers h_k = basis @ coords[k] of one source, as series."""
    return tuple(ComplexSeries(h) for h in (basis @ coords.T).T)


def decompose(
    f: ComplexSeries,
    b: BlaschkeProduct,
    depth: int | None = None,
    residual_tol: float | None = None,
) -> BAdicCoefficients:
    """Layer coefficients of f with respect to B.

    Raises DepthExhausted (carrying the partial result) if the residual is
    still above ``residual_tol`` after ``depth`` layers.
    """
    rt = DEFAULT_RESIDUAL_TOL if residual_tol is None else residual_tol
    if depth is None:
        depth = default_depth(f.truncation_degree, b, rt)
    if depth < 1:
        raise ValueError("depth must be positive")
    basis, coords, residual = _peel(f.coeffs[:, None], b, depth, rt)
    c = coords[:, :, 0]
    return BAdicCoefficients(b, _layers(basis, c), f.truncation_degree, float(residual[0]), c)


def reconstruct(coefficients: BAdicCoefficients, degree: int) -> ComplexSeries:
    """sum_k h_k B^k truncated at ``degree``."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    b_t = coefficients.blaschke.taylor(degree).coeffs
    out = np.zeros(degree + 1, dtype=complex)
    power = np.zeros(degree + 1, dtype=complex)
    power[0] = 1.0
    for h in coefficients.layers:
        out += np.convolve(h.coeffs, power)[: degree + 1]
        power = np.convolve(power, b_t)[: degree + 1]
    return ComplexSeries(out)


def _check_regime(alpha: float) -> None:
    if not -1.0 <= alpha <= 1.0:
        warnings.warn(
            f"alpha = {alpha} outside [-1, 1]: layer norms are computed but the "
            "norm equivalence is not backed in this regime",
            RegimeWarning,
            stacklevel=3,
        )


def b_norm(
    f: ComplexSeries,
    b: BlaschkeProduct,
    alpha: float,
    depth: int | None = None,
) -> float:
    """Equivalent layer norm sqrt(sum_k (k+1)^alpha ||h_k||_{H^2}^2).

    For B = z this equals the diagonal (n+1)^alpha coefficient norm exactly.
    DepthExhausted from the decomposition propagates.
    """
    _check_regime(alpha)
    return _layer_norm(decompose(f, b, depth), alpha)


def _layer_norm(coefficients: BAdicCoefficients, alpha: float) -> float:
    """sqrt(sum_k (k+1)^alpha ||c_k||^2) of computed layers."""
    norms = coefficients.layer_h2_norms()
    k = np.arange(1.0, norms.size + 1.0)
    return float(np.sqrt(np.sum(k**alpha * norms**2)))


def norm_equivalence_estimate(
    b: BlaschkeProduct,
    alpha: float,
    degree: int,
    trials: int,
    seed: int,
) -> tuple:
    """Empirical (min, max) of b_norm over random unit-alpha-norm polynomials.

    Each trial draws independent standard complex-Gaussian coefficients from
    its own child stream of ``seed`` and normalizes in the diagonal
    (n+1)^alpha norm, so the returned ratios bracket the equivalence
    constants seen on the sample.  The layer depth starts at the default and
    doubles (a few times) when a trial needs more layers to converge.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_regime(alpha)
    w = PowerLawWeights(alpha).values(degree + 1)
    streams = np.random.SeedSequence(seed).spawn(trials)
    base_depth = default_depth(degree, b)
    lo, hi = np.inf, -np.inf
    for stream in streams:
        rng = np.random.default_rng(stream)
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        c /= np.sqrt(np.sum(np.abs(c) ** 2 * w))
        f = ComplexSeries(c)
        depth = base_depth
        for attempt in range(4):
            try:
                coeffs = decompose(f, b, depth)
                break
            except DepthExhausted:
                if attempt == 3:
                    raise
                depth *= 2
        val = _layer_norm(coeffs, alpha)
        lo = min(lo, val)
        hi = max(hi, val)
    return (lo, hi)
