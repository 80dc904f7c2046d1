"""Seeded request generators for the three benchmark workloads.

A workload is an endless sequence of blocks.  Each block holds one request
of every slot the workload defines, in a seeded order, so every block has
the same mix of request classes and a run's cost depends little on the
seed.  Within a slot the seed draws the instance: coefficients, zero
arguments, degrees and exponents from narrow ranges.  Block ``i`` of seed
``s`` is always the same list of requests.

A request is the argv handed to ``blaschkelab.cli.main`` plus, for
``wsp-test``, the text of the descriptor file.  Every number is written
as its shortest round-trip decimal, so the checker reads back exactly the input
the program received.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("layers", "subspace", "criteria")

DESCRIPTOR = "{descriptor}"

# log(2/3) / log(5/3): lowest exponent with a nonempty z^2 head window.
Z2_ALPHA_BOUND = math.log(2.0 / 3.0) / math.log(5.0 / 3.0)


@dataclass(frozen=True)
class Request:
    """One CLI call.

    ``kind`` selects the output check and ``label`` names the slot the
    request fills.  ``strict`` marks requests whose results are fixed by an
    exact invariant (monomial B, taylor or shifted ip, outer generators);
    the others only get the bounds that always hold.
    """

    kind: str
    label: str
    argv: tuple
    descriptor: str = ""
    strict: bool = True


def _num(x: float) -> str:
    return repr(float(x))


def series_literal(coeffs) -> str:
    return ";".join(f"{_num(c.real)},{_num(c.imag)}" for c in np.asarray(coeffs, dtype=complex))


def blaschke_literal(zeros, phase: float = 0.0) -> str:
    zs = ";".join(f"{_num(z.real)},{_num(z.imag)}" for z in np.asarray(zeros, dtype=complex))
    return f"zeros={zs} phase={_num(phase)}"


def _gaussian(rng, degree: int) -> np.ndarray:
    return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)


def _outer(rng, degree: int) -> np.ndarray:
    """Polynomial with every root at modulus 1.5..3, constant term first.

    Outer generators keep the truncated orbit bases well conditioned, so
    dimensions and defects of monomial experiments are exact invariants.
    """
    roots = rng.uniform(1.5, 3.0, degree) * np.exp(2j * np.pi * rng.uniform(size=degree))
    c = np.atleast_1d(np.poly(roots)).astype(complex)[::-1]
    scale = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    return scale * c / c[0]


def _zeros(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` zeros with moduli in [lo, hi] and uniform arguments."""
    return rng.uniform(lo, hi, count) * np.exp(2j * np.pi * rng.uniform(size=count))


def _phase(rng) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _block_rng(seed: int, workload: str, index: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _descriptor(**entries) -> str:
    lines = []
    for key, value in entries.items():
        values = value if isinstance(value, list) else [value]
        lines.extend(f"{key} = {v}" for v in values)
    return "\n".join(lines) + "\n"


def _decompose(label: str, rng, zeros, degree: int, *extra) -> Request:
    argv = (
        "decompose",
        "--f=" + series_literal(_gaussian(rng, degree)),
        "--blaschke=" + blaschke_literal(zeros, _phase(rng)),
    ) + extra
    return Request("decompose", label, argv)


def _bnorm(label: str, rng, zeros, degree: int, alpha: float) -> Request:
    argv = (
        "bnorm",
        "--f=" + series_literal(_gaussian(rng, degree)),
        "--blaschke=" + blaschke_literal(zeros, _phase(rng)),
        "--alpha=" + _num(alpha),
    )
    return Request("bnorm", label, argv)


def _wsp(label: str, zeros, phase: float, ip: str, n: int, n_compare: int, gens: list, strict: bool, **extra) -> Request:
    text = _descriptor(
        generators=[series_literal(g) for g in gens],
        blaschke=blaschke_literal(zeros, phase),
        ip=ip,
        N=n,
        N_compare=n_compare,
        **extra,
    )
    return Request("wsp-test", label, ("wsp-test", "--descriptor=" + DESCRIPTOR), text, strict)


def layers_pool(seed: int) -> list:
    """Three (B, phase, N, alpha) entries shared by the run's badic experiments.

    Repeats of an entry need the same Gram matrix, so the first use of each
    is a cold build and later ones can be served from a cache.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index("layers"), 1 << 20])
    return [
        (zeros, _phase(rng), int(rng.integers(lo, hi + 1)), float(rng.uniform(-1.0, 0.0)))
        for zeros, lo, hi in (
            (_zeros(rng, 1, 0.5, 0.5), 24, 28),
            (_zeros(rng, 2, 0.3, 0.45), 30, 34),
            (np.zeros(2, dtype=complex), 40, 48),
        )
    ]


def layers_block(seed: int, index: int, pool: list) -> list:
    rng = _block_rng(seed, "layers", index)
    mono = lambda k: np.zeros(k, dtype=complex)  # noqa: E731
    pick = lambda lo, hi: int(rng.integers(lo, hi + 1))  # noqa: E731
    alpha = lambda: rng.uniform(-1.0, 1.0)  # noqa: E731
    # Thirteen slots: the two "bnorm z" slots hold the median, the two
    # "|a|=0.8" slots the 90th percentile, and the badic experiments are cheap
    # once their Gram matrix is cached.
    out = [
        _decompose("decompose z^2", rng, mono(2), pick(160, 192)),
        _decompose("decompose 2 zeros", rng, _zeros(rng, 2, 0.45, 0.55), pick(112, 128)),
        _decompose("decompose 3 zeros csv", rng, _zeros(rng, 3, 0.45, 0.55), pick(144, 160), "--format=csv"),
        _decompose("decompose |a|=0.8", rng, _zeros(rng, 1, 0.78, 0.8), pick(64, 72)),
        _decompose("decompose |a|=0.8", rng, _zeros(rng, 1, 0.78, 0.8), pick(64, 72)),
        _bnorm("bnorm z", rng, mono(1), pick(144, 176), alpha()),
        _bnorm("bnorm z", rng, mono(1), pick(144, 176), alpha()),
        _bnorm("bnorm z^3", rng, mono(3), pick(176, 208), alpha()),
        _bnorm("bnorm alpha=0", rng, _zeros(rng, 2, 0.35, 0.45), pick(112, 128), 0.0),
        _bnorm("bnorm 1 zero", rng, _zeros(rng, 1, 0.35, 0.45), pick(80, 96), alpha()),
    ]
    for _ in range(3):
        zeros, phase, n, ip_alpha = pool[int(rng.integers(len(pool)))]
        monomial = not np.any(zeros)
        d = len(zeros)
        gens = [_outer(rng, pick(d - 1, 4)) for _ in range(pick(1, 2))]
        n_compare = n // 2 if monomial else min(n // 2, n - 2 * d - 8)
        label = "wsp badic z^2" if monomial else f"wsp badic {d} zero" + "s" * (d > 1)
        # At N <= 48 the truncation can hide the wandering part even for
        # monomial B, so badic experiments get the bound-only checks.
        out.append(_wsp(label, zeros, phase, "badic", n, n_compare, gens, False, alpha=_num(ip_alpha)))
    return [out[i] for i in rng.permutation(len(out))]


def subspace_block(seed: int, index: int) -> list:
    rng = _block_rng(seed, "subspace", index)

    def slot(ip: str, k: int, count: int, n_lo: int, n_hi: int, outer: bool = True) -> Request:
        n = int(rng.integers(n_lo, n_hi + 1))
        draw = _outer if outer else _gaussian
        gens = [draw(rng, int(rng.integers(k - 1, 9))) for _ in range(count)]
        extra = {"alpha": _num(rng.uniform(-1.0, 0.0))}
        if ip == "shifted":
            extra["shift"] = int(rng.integers(0, k + 1))
        label = f"wsp {ip} z^{k} x{count}" + ("" if outer else " gaussian")
        zeros = np.zeros(k, dtype=complex)
        return _wsp(label, zeros, _phase(rng), ip, n, n // 2, gens, outer, **extra)

    # Seven slots of similar cost, each with a narrow range of N.
    out = [
        slot("taylor", 1, 1, 80, 96),
        slot("shifted", 2, 2, 80, 96),
        slot("taylor", 3, 3, 80, 96),
        slot("shifted", 3, 2, 120, 144),
        slot("taylor", 2, 1, 144, 160),
        slot("shifted", 1, 2, 64, 72),
        slot("taylor", 2, 2, 72, 88, outer=False),
    ]
    return [out[i] for i in rng.permutation(len(out))]


def _threshold(k: int) -> float:
    return math.log(2.0) / math.log(k + 1.0)


def criteria_block(seed: int, index: int) -> list:
    rng = _block_rng(seed, "criteria", index)
    fmt = lambda: "--format=" + ("json" if rng.uniform() < 0.5 else "csv")  # noqa: E731
    nmax = lambda lo, hi: "--nmax=%d" % int(rng.integers(lo, hi + 1))  # noqa: E731
    stride = lambda: int(rng.integers(1, 5))  # noqa: E731

    def criterion(label: str, weights: str, k: int, *extra) -> Request:
        return Request("criterion", label, ("criterion", weights, "--k=%d" % k) + extra)

    def operator(label: str, b_flag: str) -> Request:
        alpha = "--alpha=" + _num(rng.uniform(-1.0, 0.0))
        n = "--N=%d" % int(rng.integers(64, 129))
        return Request("operator-check", label, ("operator-check", b_flag, alpha, n))

    def scan(k: int, steps: tuple) -> Request:
        argv = (
            "scan",
            "--alpha-min=" + _num(rng.uniform(-1.2, -0.9)),
            "--alpha-max=" + _num(rng.uniform(0.15, 0.35)),
            "--alpha-steps=%d" % int(rng.integers(*steps)),
            "--k=%d" % k,
            "--s0=" + ("k" if rng.uniform() < 0.5 else "0"),
            nmax(4000, 6000),
            fmt(),
        )
        return Request("scan", f"scan k={k}", argv)

    k1, k2 = stride(), int(rng.integers(2, 5))
    wide, narrow = (20000, 100000), (5000, 6000)
    power = lambda lo, hi: "--weights=power:" + _num(rng.uniform(lo, hi))  # noqa: E731
    z2 = "--weights=z2-adjusted:" + _num(rng.uniform(Z2_ALPHA_BOUND + 0.01, 0.0))
    zeros = _zeros(rng, int(rng.integers(1, 3)), 0.2, 0.6)
    # Cheap slots fill the bottom five, the operator checks hold the median
    # and the four most expensive slots hold the 90th percentile.
    out = [
        # |alpha| inside the k-step threshold: passes
        criterion("criterion pass", "--alpha=" + _num(-rng.uniform(0.0, 0.95) * _threshold(k1)), k1, nmax(*wide), fmt()),
        # alpha in [-1, -threshold): (a) fails at the head, (b) holds
        criterion("criterion head fail", "--alpha=" + _num(-rng.uniform(_threshold(k2) + 0.05, 1.0)), k2, "--s0=0", nmax(*wide), fmt()),
        criterion("criterion z2-adjusted", z2, 2, nmax(*wide), fmt()),
        criterion("criterion steep-head", "--weights=steep-head", int(rng.integers(4, 7)), nmax(*wide), fmt()),
        criterion("concavity pass", power(0.0, 1.0), stride(), "--mode=concavity", nmax(*wide), fmt()),
        operator("operator-check z^k", "--k=%d" % stride()),
        operator("operator-check zeros", "--blaschke=" + blaschke_literal(zeros, _phase(rng))),
        # convex weights: the concavity inequality fails at every index
        criterion("concavity fail", power(1.1, 1.5), stride(), "--mode=concavity", nmax(3000, 4000), fmt()),
        scan(3, (4, 6)),
        scan(4, (3, 5)),
        # increasing weights: (b) fails at every scanned index
        criterion("criterion fail everywhere", "--alpha=" + _num(rng.uniform(0.1, 0.6)), stride(), nmax(*narrow), "--format=json"),
        criterion("criterion fail everywhere csv", "--alpha=" + _num(rng.uniform(0.1, 0.6)), stride(), nmax(*narrow), "--format=csv"),
        criterion("concavity fail json", power(1.1, 1.5), stride(), "--mode=concavity", nmax(*narrow), "--format=json"),
    ]
    return [out[i] for i in rng.permutation(len(out))]


class Workload:
    """Deterministic block source for one workload and seed."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self._pool = layers_pool(seed) if name == "layers" else None

    def block(self, index: int) -> list:
        if self.name == "layers":
            return layers_block(self.seed, index, self._pool)
        if self.name == "subspace":
            return subspace_block(self.seed, index)
        return criteria_block(self.seed, index)
