"""Orthonormal bases of model spaces K_B = H^2 ominus B H^2.

For a finite Blaschke product B with zeros (a_1, ..., a_d) the model space
has dimension d and carries the classical rational orthonormal basis

    e_j(z) = sqrt(1 - |a_j|^2) / (1 - conj(a_j) z)
             * prod_{i<j} (z - a_i) / (1 - conj(a_i) z),

the Takenaka-Malmquist system of the zero list.  Everything here is stored
truncated; basis tails decay like max |a_i|^n.  ``guard_degree`` adds
``4 * degree(B) + 32`` degrees to the layers that badic prints and
reconstructs, where each element loses |a|^(2(W+1)) of its mass at width W
(6.6e-8 for |a| = 0.8 at N = 0).  No norm uses it: layer norms and the
B-adic Gram read exact TM coordinates from the coefficients 0..N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import BlaschkeProduct, _factor_series
from .series import ComplexSeries, mul

__all__ = ["ModelSpaceBasis", "guard_degree", "project", "tm_basis"]


def guard_degree(b: BlaschkeProduct, degree: int) -> int:
    """Working truncation degree with the geometric-tail guard added."""
    return degree + 4 * b.degree + 32


@dataclass(frozen=True, eq=False)
class ModelSpaceBasis:
    """Truncated orthonormal basis of K_B; one element per zero of B."""

    blaschke: BlaschkeProduct
    elements: tuple
    truncation_degree: int
    _matrix: np.ndarray = field(repr=False, default=None)

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def matrix(self) -> np.ndarray:
        """Basis elements as the columns of a (degree+1, d) array."""
        return self._matrix


def tm_basis(b: BlaschkeProduct, degree: int) -> ModelSpaceBasis:
    """Takenaka-Malmquist basis of K_B truncated at ``degree``.

    For B = z^k the construction reproduces exactly {1, z, ..., z^(k-1)}.
    """
    if degree < max(b.degree, 0):
        raise ValueError("truncation degree below degree(B)")
    elements = []
    prefix = ComplexSeries.monomial(0, 1.0, degree)
    for j, a in enumerate(b.zeros):
        geo = np.conj(a) ** np.arange(degree + 1)
        tail = ComplexSeries(np.sqrt(1.0 - abs(a) ** 2) * geo)
        elements.append(mul(prefix, tail, degree))
        if j + 1 < len(b.zeros):
            prefix = mul(prefix, _factor_series(a, degree), degree)
    if elements:
        matrix = np.column_stack([e.coeffs for e in elements])
    else:
        matrix = np.zeros((degree + 1, 0), dtype=complex)
    matrix.setflags(write=False)
    return ModelSpaceBasis(b, tuple(elements), degree, matrix)


def project(f: ComplexSeries, basis: ModelSpaceBasis) -> ComplexSeries:
    """H^2-orthogonal projection of f onto span(basis).

    Computed as sum_j <f, e_j> e_j with plain l2 coefficient pairing; f is
    padded or truncated to the basis truncation degree as needed.
    """
    v = f.resized(basis.truncation_degree).coeffs
    mat = basis.matrix()
    out = mat @ (mat.conj().T @ v)
    return ComplexSeries(out)
