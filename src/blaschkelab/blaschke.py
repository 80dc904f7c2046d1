"""Finite Blaschke products: evaluation, Taylor data, multiplication matrices.

A finite Blaschke product with zero list (a_1, ..., a_N) inside the disc and
a phase theta is

    B(z) = exp(i theta) * prod_i (z - a_i) / (1 - conj(a_i) z).

Zeros are stored as a flat tuple, repeated according to multiplicity, and the
degree of B is the number of zeros.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .series import DEFAULT_ORDER_TOL, ComplexSeries, format_complex_literal, mul

__all__ = [
    "MAX_ZERO_MODULUS",
    "BlaschkeProduct",
    "PoleProximity",
    "format_blaschke_literal",
    "multiplication_matrix",
    "parse_blaschke_literal",
]

# Zeros must stay strictly inside the closed unit disc by this margin.
MAX_ZERO_MODULUS = 1.0 - 1e-12

# Defensive guard against evaluating a factor on top of its pole.
_POLE_TOL = 1e-14


class PoleProximity(ArithmeticError):
    """Evaluation point is numerically on a factor's pole.

    Cannot occur for |z| <= 1 together with the zero-modulus bound enforced
    at construction; the guard is defensive.
    """


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product given by its zeros (with multiplicity) and phase."""

    zeros: tuple
    phase: float = 0.0

    def __post_init__(self) -> None:
        zs = tuple(complex(z) for z in self.zeros)
        for z in zs:
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise ValueError("zeros must be finite")
            if abs(z) > MAX_ZERO_MODULUS:
                raise ValueError(
                    f"zero {z} has modulus {abs(z):.17g} > {MAX_ZERO_MODULUS}"
                )
        object.__setattr__(self, "zeros", zs)
        ph = float(self.phase)
        if not np.isfinite(ph):
            raise ValueError("phase must be finite")
        object.__setattr__(self, "phase", ph)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def order_at_zero(self, tol: float = DEFAULT_ORDER_TOL) -> int:
        """Multiplicity of 0 as a zero of B."""
        return sum(1 for z in self.zeros if abs(z) <= tol)

    def __call__(self, z: complex) -> complex:
        """Evaluate B(z) factor by factor for |z| <= 1."""
        z = complex(z)
        if abs(z) > 1.0 + 1e-12:
            raise ValueError("evaluation point outside the closed unit disc")
        out = cmath.exp(1j * self.phase)
        for a in self.zeros:
            den = 1.0 - a.conjugate() * z
            if abs(den) < _POLE_TOL:
                raise PoleProximity(f"factor denominator {abs(den):.3e} at z={z}")
            out *= (z - a) / den
        return out

    def taylor(self, degree: int) -> ComplexSeries:
        """Taylor coefficients of B through ``degree``.

        Each factor (z - a)/(1 - conj(a) z) is expanded by the geometric
        series and the factors are multiplied truncated.  Zeros placed
        exactly at the origin contribute exact monomial factors, so the
        leading coefficients vanish exactly to the order of 0 as a zero.
        """
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return _taylor_cached(self, degree)


@functools.lru_cache(maxsize=256)
def _taylor_cached(b: BlaschkeProduct, degree: int) -> ComplexSeries:
    out = ComplexSeries(np.full(1, cmath.exp(1j * b.phase), dtype=complex)).resized(degree)
    for a in b.zeros:
        out = mul(out, _factor_series(a, degree), degree)
    return out


def _factor_series(a: complex, degree: int) -> ComplexSeries:
    """(z - a) * sum_n conj(a)^n z^n truncated at ``degree``."""
    geo = np.conj(a) ** np.arange(degree + 1)
    c = np.empty(degree + 1, dtype=complex)
    c[0] = -a * geo[0]
    c[1:] = geo[:-1] - a * geo[1:]
    return ComplexSeries(c)


def multiplication_matrix(b: BlaschkeProduct, in_degree: int, out_degree: int) -> np.ndarray:
    """Matrix of f -> B*f from degrees <= in_degree into degrees <= out_degree.

    Lower-triangular Toeplitz in the monomial basis; column j holds the
    coefficients of B * z^j.  For a faithful (untruncated) action of B on
    polynomials of degree in_degree, take out_degree >= in_degree + degree(B).
    """
    if in_degree < 0 or out_degree < 0:
        raise ValueError("degrees must be nonnegative")
    coeffs = b.taylor(out_degree).coeffs
    idx = np.arange(out_degree + 1)[:, None] - np.arange(in_degree + 1)[None, :]
    mat = np.where(idx >= 0, coeffs[np.clip(idx, 0, out_degree)], 0.0 + 0.0j)
    return mat


def parse_blaschke_literal(text: str) -> BlaschkeProduct:
    """Parse 'zeros=re,im;re,im phase=theta'; e.g. 'zeros=0,0;0,0' is z^2."""
    zeros: list[complex] = []
    phase = 0.0
    saw_zeros = False
    for token in text.strip().split():
        key, _, value = token.partition("=")
        if key == "zeros":
            saw_zeros = True
            if value:
                for chunk in value.split(";"):
                    parts = chunk.split(",")
                    if len(parts) != 2:
                        raise ValueError(f"bad zero {chunk!r}; expected 're,im'")
                    zeros.append(complex(float(parts[0]), float(parts[1])))
        elif key == "phase":
            phase = float(value)
        else:
            raise ValueError(f"unrecognized key {key!r} in Blaschke literal")
    if not saw_zeros:
        raise ValueError("Blaschke literal must contain 'zeros=...'")
    return BlaschkeProduct(tuple(zeros), phase)


def format_blaschke_literal(b: BlaschkeProduct) -> str:
    return f"zeros={format_complex_literal(b.zeros)} phase={b.phase:.12g}"
