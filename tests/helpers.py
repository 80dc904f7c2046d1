"""Shared fixtures: seeded inputs and independent cross-check routes."""

import mpmath
import numpy as np

import blaschkelab as bl


def random_series(rng, degree):
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return bl.ComplexSeries(coeffs)


def seeded_generator(seed, max_root=0.5, min_degree=2, max_degree=6):
    """A polynomial with all roots inside |z| <= max_root.

    Controlled root moduli keep truncated invariant-subspace experiments
    well inside their convergence regime.
    """
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(min_degree, max_degree + 1))
    radii = max_root * np.sqrt(rng.uniform(0.0, 1.0, degree))
    angles = 2j * np.pi * rng.uniform(0.0, 1.0, degree)
    roots = radii * np.exp(angles)
    return bl.ComplexSeries(np.poly(roots)[::-1].astype(complex))


def evaluate(f, z):
    return complex(np.polyval(f.coeffs[::-1], z))


def cauchy_kernel(a, degree):
    """Taylor coefficients of 1/(1 - conj(a) z) up to degree."""
    return np.conj(a) ** np.arange(degree + 1)


def ls_layer_oracle(f, b, depth, degree):
    """Layer coefficients by one global least-squares solve.

    Completely independent route from the project-and-divide iteration:
    for B with distinct zeros the complementary space is spanned by the
    Cauchy kernels at the zeros, so f is fitted against the column family
    kernel_j * B^k and the layers are read off the solution. ``degree``
    must be large enough that no column loses significant tail mass.
    """
    bt = b.taylor(degree).coeffs
    kernels = [cauchy_kernel(a, degree) for a in b.zeros]
    cols = []
    bk = np.zeros(degree + 1, dtype=complex)
    bk[0] = 1.0
    for _ in range(depth):
        for ker in kernels:
            cols.append(np.convolve(bk, ker)[: degree + 1])
        bk = np.convolve(bk, bt)[: degree + 1]
    a_mat = np.array(cols).T
    rhs = np.zeros(degree + 1, dtype=complex)
    rhs[: f.coeffs.size] = f.coeffs
    x, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    d = len(kernels)
    layers = []
    for k in range(depth):
        acc = np.zeros(degree + 1, dtype=complex)
        for j, ker in enumerate(kernels):
            acc += x[k * d + j] * ker
        layers.append(acc)
    return layers


def oracle_layer_gap(f, b, residual_tol=1e-10):
    """Worst relative gap between decompose layers and the oracle."""
    co = bl.decompose(f, b, residual_tol=residual_tol)
    depth = len(co.layers)
    rho = max(abs(z) for z in b.zeros)
    spread = (1.0 + rho) / (1.0 - rho)
    n_o = f.coeffs.size - 1 + int(np.ceil(depth * b.degree * spread)) + 32
    oracle = ls_layer_oracle(f, b, depth, n_o)
    ref = max(np.linalg.norm(layer.coeffs) for layer in co.layers)
    gap = 0.0
    for k in range(depth):
        mine = np.zeros(n_o + 1, dtype=complex)
        c = co.layers[k].coeffs[: n_o + 1]
        mine[: c.size] = c
        gap = max(gap, np.linalg.norm(mine - oracle[k]) / ref)
    return gap


def distinct_zeros(rng, count, lo=0.05, hi=0.6, min_sep=0.15):
    while True:
        radii = lo + (hi - lo) * rng.uniform(size=count)
        zeros = [complex(z) for z in radii * np.exp(2j * np.pi * rng.uniform(size=count))]
        ok = all(
            abs(zeros[i] - zeros[j]) > min_sep
            for i in range(count)
            for j in range(i + 1, count)
        )
        if ok:
            return zeros


def stein_gram(b, degree):
    """Solution X of X - A^H X A = I, A = T_B^* on degrees <= degree.

    Summation by parts turns the alpha = 1 layer norm into
    sum_k ||(T_B^*)^k f||^2, so X is the exact alpha = 1 layer Gram.  The
    doubling X <- X + A_m^H X A_m, A_m <- A_m^2 sums the series in
    log2(terms) products without the TM basis.
    """
    a = bl.multiplication_matrix(b, degree, degree).conj().T
    x = np.eye(degree + 1, dtype=complex)
    while np.linalg.norm(a) > 1e-18:
        x = x + a.conj().T @ x @ a
        a = a @ a
    return x


class MpLayerOracle:
    """Layer coordinates of B at 50 digits, independent of the float code.

    {e_j B^k} (e_j the Takenaka-Malmquist basis of the zero list) is an
    orthonormal basis of H^2, so for deg f <= N the coordinate
    c_{k,j} = <f, e_j B^k> is the finite sum over n <= N of
    f_n * conj((e_j B^k)_n).  ``atom(k)`` holds the Taylor coefficients
    0..N of e_j B^k for every j, built by series products in mpmath from
    the exact float inputs; ``basis`` holds e_j through ``width``.
    """

    DPS = 50

    def __init__(self, b, degree, width):
        self.degree = degree
        self.width = width
        with mpmath.workdps(self.DPS):
            zeros = [mpmath.mpc(z.real, z.imag) for z in b.zeros]
            n = max(degree, width)
            basis = []
            prefix = [mpmath.mpc(1)] + [mpmath.mpc(0)] * n
            for a in zeros:
                kernel = [mpmath.sqrt(1 - abs(a) ** 2) * mpmath.conj(a) ** m for m in range(n + 1)]
                basis.append(self._mul(prefix, kernel, n))
                prefix = self._mul(prefix, self._factor(a, n), n)
            self.basis = [e[: width + 1] for e in basis]
            self.b_taylor = [mpmath.expj(mpmath.mpf(b.phase)) * c for c in prefix[: degree + 1]]
            self._atoms = [[e[: degree + 1] for e in basis]]

    def _factor(self, a, n):
        geo = [mpmath.conj(a) ** m for m in range(n + 1)]
        return [-a * geo[0]] + [geo[m - 1] - a * geo[m] for m in range(1, n + 1)]

    @staticmethod
    def _mul(x, y, n):
        return [sum(x[i] * y[m - i] for i in range(m + 1)) for m in range(n + 1)]

    def atom(self, k):
        with mpmath.workdps(self.DPS):
            while len(self._atoms) <= k:
                self._atoms.append([self._mul(e, self.b_taylor, self.degree) for e in self._atoms[-1]])
        return self._atoms[k]

    def coords(self, f, layers):
        """c_{k,j} = <f, e_j B^k> for k < layers, as mpc rows."""
        fs = [mpmath.mpc(complex(c).real, complex(c).imag) for c in f.coeffs]
        with mpmath.workdps(self.DPS):
            return [
                [sum(fn * mpmath.conj(en) for fn, en in zip(fs, e)) for e in self.atom(k)]
                for k in range(layers)
            ]

    def layer(self, c_k):
        """sum_j c_{k,j} e_j through the width, rounded to complex."""
        with mpmath.workdps(self.DPS):
            return np.array(
                [complex(sum(c * e[n] for c, e in zip(c_k, self.basis))) for n in range(self.width + 1)]
            )

    def gram(self, weights, layers):
        """sum_{k < layers} w_k <z^j B-layers, z^i B-layers>."""
        n = self.degree
        out = np.zeros((n + 1, n + 1), dtype=complex)
        with mpmath.workdps(self.DPS):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    total = mpmath.mpc(0)
                    for k in range(layers):
                        total += weights[k] * sum(e[i] * mpmath.conj(e[j]) for e in self.atom(k))
                    out[i, j] = complex(total)
                    out[j, i] = complex(mpmath.conj(total))
        return out


# Reference orthonormalization: the modified Gram-Schmidt loop that
# ``subspaces._orthonormalize`` used before it moved to whitened columns,
# kept verbatim (ip-norm via the dense Gram, one reorthogonalization pass,
# the same in-order drop rule) as an oracle for the kept count and span.
RANK_TOL = bl.subspaces.RANK_TOL


def _ip_norm(v: np.ndarray, g: np.ndarray) -> float:
    return float(np.sqrt(max(np.real(np.vdot(v, g @ v)), 0.0)))


def reference_orthonormalize(candidates: list, g: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one reorthogonalization pass.

    Candidates whose residual norm falls below RANK_TOL times the largest
    candidate norm are dropped as dependent.
    """
    n = g.shape[0]
    if not candidates:
        return np.zeros((n, 0), dtype=complex)
    ref = max(_ip_norm(v, g) for v in candidates)
    if ref <= 0.0:
        return np.zeros((n, 0), dtype=complex)
    kept: list = []
    for v in candidates:
        w = v.astype(complex).copy()
        for _ in range(2):
            for q in kept:
                w -= q * np.vdot(q, g @ w)
        nrm = _ip_norm(w, g)
        if nrm > RANK_TOL * ref:
            kept.append(w / nrm)
    if not kept:
        return np.zeros((n, 0), dtype=complex)
    return np.column_stack(kept)


# Reference layer serialization: ``cli._layer_rows`` and the series
# formatter as they were before layers were formatted in one pass, kept
# verbatim as an oracle for the printed bytes.
def reference_format_series_literal(f) -> str:
    return ";".join(f"{c.real:.12g},{c.imag:.12g}" for c in f.coeffs)


def reference_layer_rows(coefficients) -> list:
    rows = []
    for i, h in enumerate(coefficients.layers):
        trimmed = h.resized(h.trimmed_degree())
        rows.append(
            {
                "layer": i,
                "h2_norm": float(np.linalg.norm(h.coeffs)),
                "coeffs": reference_format_series_literal(trimmed),
            }
        )
    return rows


def mp_operator_min_eig(b, alpha, in_degree, out_degree, dps=30):
    """Minimum eigenvalue of the operator-check block form at ``dps`` digits.

    Rebuilds 2||Tx||^2 + 2||y||^2 - ||x + Ty||^2 from the zeros alone: the
    Taylor coefficients of B by mpmath series products, the weights
    (n+1)^alpha, the Hermitian block matrix, and ``mpmath.eighe``.
    """
    n_in, n_out = in_degree + 1, out_degree + 1
    with mpmath.workdps(dps):
        taylor = [mpmath.expj(mpmath.mpf(b.phase))] + [mpmath.mpc(0)] * out_degree
        for z in b.zeros:
            a = mpmath.mpc(z.real, z.imag)
            geo = [mpmath.conj(a) ** m for m in range(n_out)]
            factor = [-a] + [geo[m - 1] - a * geo[m] for m in range(1, n_out)]
            taylor = [sum(taylor[i] * factor[m - i] for i in range(m + 1)) for m in range(n_out)]
        w = [mpmath.mpf(n + 1) ** mpmath.mpf(alpha) for n in range(n_out)]

        def t(i, j):
            return taylor[i - j] if i >= j else mpmath.mpc(0)

        def tgt(i, j):
            return sum(mpmath.conj(t(m, i)) * w[m] * t(m, j) for m in range(n_out))

        block = mpmath.matrix(2 * n_in, 2 * n_in)
        for i in range(n_in):
            for j in range(n_in):
                diag = w[i] if i == j else 0
                q = tgt(i, j)
                block[i, j] = 2 * q - diag
                block[i, n_in + j] = -w[i] * t(i, j)
                block[n_in + i, j] = -w[j] * mpmath.conj(t(j, i))
                block[n_in + i, n_in + j] = 2 * diag - q
        return float(mpmath.eighe(block, eigvals_only=True)[0])
