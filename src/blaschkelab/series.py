"""Truncated Taylor-series arithmetic and weighted coefficient norms.

Coefficient vectors are dense and short (degrees up to a few hundred), so
everything works directly on numpy arrays.  A series object is immutable
once built and all operations are pure functions: the truncation degree is
part of the data, and an operation never silently extends it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_ORDER_TOL",
    "DEFAULT_RESIDUAL_TOL",
    "ComplexSeries",
    "ExplicitWeights",
    "PowerLawWeights",
    "ShiftedWeights",
    "WeightSequence",
    "add",
    "format_complex_literal",
    "format_series_literal",
    "h2_norm",
    "inner_product",
    "mul",
    "parse_series_literal",
    "parse_weights_literal",
    "scale",
    "subtract",
    "weighted_norm",
]

# Numerical-zero thresholds: DEFAULT_ORDER_TOL for BlaschkeProduct.order_at_zero,
# DEFAULT_RESIDUAL_TOL for the stopping residual of the layer recursion.  Both
# can be overridden per call; the callers bind them at import, so reassigning
# the module attributes does not change their defaults.
DEFAULT_ORDER_TOL = 1e-12
DEFAULT_RESIDUAL_TOL = 1e-9


class ComplexSeries:
    """A truncated Taylor series sum_{n<=N} a_n z^n with dense coefficients.

    The stored array has length ``truncation_degree + 1`` and is read-only.
    Coefficients must be finite; an empty coefficient list is rejected.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        arr = arr.copy()
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        self._coeffs = arr

    @classmethod
    def zero(cls, degree: int = 0) -> "ComplexSeries":
        return cls(np.zeros(degree + 1, dtype=complex))

    @classmethod
    def monomial(cls, power: int, scale: complex = 1.0, degree: int | None = None) -> "ComplexSeries":
        """The series scale * z^power, truncated at ``degree`` (default: power)."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        n = power if degree is None else degree
        if n < power:
            raise ValueError("truncation degree below the monomial power")
        c = np.zeros(n + 1, dtype=complex)
        c[power] = scale
        return cls(c)

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def truncation_degree(self) -> int:
        return self._coeffs.size - 1

    def coefficient(self, n: int) -> complex:
        """a_n, with zero returned beyond the truncation degree."""
        if n < 0:
            raise ValueError("negative coefficient index")
        if n >= self._coeffs.size:
            return 0j
        return complex(self._coeffs[n])

    def resized(self, degree: int) -> "ComplexSeries":
        """Copy truncated or zero-padded to the requested degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        out = np.zeros(degree + 1, dtype=complex)
        n = min(degree + 1, self._coeffs.size)
        out[:n] = self._coeffs[:n]
        return ComplexSeries(out)

    def trimmed_degree(self, rel_tol: float = 1e-12) -> int:
        """Largest index carrying a coefficient above rel_tol * max |a_n|."""
        mags = np.abs(self._coeffs)
        top = mags.max()
        if top == 0.0:
            return 0
        idx = np.nonzero(mags > rel_tol * top)[0]
        return int(idx[-1])

    def trimmed_order(self, rel_tol: float = 1e-12) -> int:
        """Smallest index carrying a coefficient above rel_tol * max |a_n|."""
        mags = np.abs(self._coeffs)
        top = mags.max()
        if top == 0.0:
            return 0
        idx = np.nonzero(mags > rel_tol * top)[0]
        return int(idx[0])

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self._coeffs) <= tol))

    def __len__(self) -> int:
        return self._coeffs.size

    def __repr__(self) -> str:
        return f"ComplexSeries(degree={self.truncation_degree}, coeffs={np.array2string(self._coeffs, precision=6)})"


def add(f: ComplexSeries, g: ComplexSeries) -> ComplexSeries:
    """Coefficientwise sum; the shorter operand is zero-padded."""
    n = max(len(f), len(g))
    out = np.zeros(n, dtype=complex)
    out[: len(f)] += f.coeffs
    out[: len(g)] += g.coeffs
    return ComplexSeries(out)


def subtract(f: ComplexSeries, g: ComplexSeries) -> ComplexSeries:
    n = max(len(f), len(g))
    out = np.zeros(n, dtype=complex)
    out[: len(f)] += f.coeffs
    out[: len(g)] -= g.coeffs
    return ComplexSeries(out)


def scale(f: ComplexSeries, factor: complex) -> ComplexSeries:
    return ComplexSeries(f.coeffs * complex(factor))


def mul(f: ComplexSeries, g: ComplexSeries, degree: int) -> ComplexSeries:
    """Cauchy product truncated at ``degree``."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    conv = np.convolve(f.coeffs, g.coeffs)
    out = np.zeros(degree + 1, dtype=complex)
    n = min(degree + 1, conv.size)
    out[:n] = conv[:n]
    return ComplexSeries(out)


class WeightSequence:
    """Positive weights omega(n) defining a diagonal norm, evaluated only by ``values``."""

    def values(self, count: int) -> np.ndarray:
        """omega(0..count-1) as a float vector."""
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawWeights(WeightSequence):
    """omega(n) = (n + 1)**alpha.

    alpha = -1 is the Bergman weight, 0 the Hardy weight, 1 the Dirichlet
    weight.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    def values(self, count: int) -> np.ndarray:
        return np.arange(1.0, count + 1.0) ** self.alpha


@dataclass(frozen=True)
class ShiftedWeights(WeightSequence):
    """omega(n) = inner(n + offset); the norm of the offset-shifted series."""

    inner: WeightSequence
    offset: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")

    def values(self, count: int) -> np.ndarray:
        return self.inner.values(count + self.offset)[self.offset :]


@dataclass(frozen=True)
class ExplicitWeights(WeightSequence):
    """Explicit head table with a tail rule evaluated at the same index.

    omega(n) = head[n] for n < len(head), and tail(n) beyond; note the tail
    rule sees the absolute index n, not n - len(head).
    """

    head: tuple
    tail: WeightSequence

    def __post_init__(self) -> None:
        head = tuple(float(x) for x in self.head)
        if len(head) == 0:
            raise ValueError("head must be nonempty")
        if any(not np.isfinite(x) or x <= 0.0 for x in head):
            raise ValueError("head weights must be positive and finite")
        object.__setattr__(self, "head", head)

    def values(self, count: int) -> np.ndarray:
        out = self.tail.values(count)
        k = min(count, len(self.head))
        out[:k] = self.head[:k]
        return out


def inner_product(f: ComplexSeries, g: ComplexSeries, weights: WeightSequence) -> complex:
    """sum_n a_n conj(b_n) omega(n) over the shared index range."""
    n = min(len(f), len(g))
    w = weights.values(n)
    return complex(np.sum(f.coeffs[:n] * np.conj(g.coeffs[:n]) * w))


def weighted_norm(f: ComplexSeries, weights: WeightSequence) -> float:
    val = inner_product(f, f, weights).real
    return float(np.sqrt(max(val, 0.0)))


def h2_norm(f: ComplexSeries) -> float:
    """Plain l2 norm of the coefficients (the Hardy-space norm)."""
    return float(np.linalg.norm(f.coeffs))


def parse_series_literal(text: str) -> ComplexSeries:
    """Parse 're,im;re,im;...', e.g. '1,0;0,0;0.5,0' -> 1 + 0.5 z^2."""
    items = [chunk.strip() for chunk in text.strip().split(";")]
    if not items or items == [""]:
        raise ValueError("empty series literal")
    coeffs = []
    for chunk in items:
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad coefficient {chunk!r}; expected 're,im'")
        coeffs.append(complex(float(parts[0]), float(parts[1])))
    return ComplexSeries(coeffs)


def format_complex_literal(values) -> str:
    """'re,im;re,im;...' with 12 significant digits, from one %-template.

    The one complex-literal formatter: series, zero lists and printed layers
    all go through it.  An empty sequence gives the empty string.
    """
    flat = np.ascontiguousarray(values, dtype=complex).view(float)
    return ";".join(["%.12g,%.12g"] * (flat.size // 2)) % tuple(flat.tolist())


def format_series_literal(f: ComplexSeries) -> str:
    return format_complex_literal(f.coeffs)


def parse_weights_literal(text: str) -> WeightSequence:
    """Parse a weight-family literal.

    Grammar (prefix form, colon-separated):
      power:ALPHA
      shifted:OFFSET:SPEC
      explicit:W0,W1,...:SPEC
    """
    t = text.strip()
    if t.startswith("power:"):
        return PowerLawWeights(float(t[len("power:") :]))
    if t.startswith("shifted:"):
        rest = t[len("shifted:") :]
        off_text, _, inner = rest.partition(":")
        if not inner:
            raise ValueError("shifted literal needs an inner weight spec")
        return ShiftedWeights(parse_weights_literal(inner), int(off_text))
    if t.startswith("explicit:"):
        rest = t[len("explicit:") :]
        head_text, _, tail = rest.partition(":")
        if not tail:
            raise ValueError("explicit literal needs a tail weight spec")
        head = tuple(float(x) for x in head_text.split(","))
        return ExplicitWeights(head, parse_weights_literal(tail))
    raise ValueError(f"unrecognized weight literal {text!r}")
