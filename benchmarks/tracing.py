"""Span tracing of the blaschkelab module stack from outside the package.

``Tracer.install`` replaces each public function at the name through which
the program looks it up (``cli.wsp_report``, ``badic.tm_basis``,
``subspaces.span_invariant``, ``BAdicInnerProduct.gram``, ...) with a
wrapper that records a span, and ``uninstall`` puts the originals back.
Nothing is wrapped outside a traced run, and a wrapper records only while a
request is in flight.

Spans keep their parent through a per-thread stack.  ``cmd_scan`` runs its
criteria on pool threads whose stacks start empty, so a span opened with an
empty stack on another thread is attributed to the in-flight request, under
the span open on the request's own thread.

Self time is a span's duration minus the part of it covered by its child
spans.  Where children run concurrently, each instant is shared equally by
the innermost spans open at that instant, so the self times of one request
add up to at most its wall time.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

from blaschkelab import badic, blaschke, cli, model_space, shimorin, subspaces

# (owner, attribute, span name).  The owner is the namespace the program
# reads the function from at call time.
TARGETS = [
    (cli, "main", "cli.main"),
    (cli, "cmd_scan", "cli.cmd_scan"),
    (cli, "wsp_report", "subspaces.wsp_report"),
    (cli, "multiplication_matrix", "blaschke.multiplication_matrix"),
    (badic, "multiplication_matrix", "blaschke.multiplication_matrix"),
    (subspaces, "multiplication_matrix", "blaschke.multiplication_matrix"),
    (blaschke.BlaschkeProduct, "taylor", "blaschke.taylor"),
    (badic, "tm_basis", "model_space.tm_basis"),
    (model_space, "tm_basis", "model_space.tm_basis"),
    (badic, "decompose", "badic.decompose"),
    (badic, "b_norm", "badic.b_norm"),
    (subspaces, "span_invariant", "subspaces.span_invariant"),
    (subspaces, "restrict_to_degree", "subspaces.restrict_to_degree"),
    (subspaces, "wandering_part", "subspaces.wandering_part"),
    (subspaces, "subspace_defect", "subspaces.subspace_defect"),
    (subspaces.TaylorInnerProduct, "gram", "subspaces.taylor_gram"),
    (subspaces.ShiftedInnerProduct, "gram", "subspaces.shifted_gram"),
    (subspaces.BAdicInnerProduct, "gram", "subspaces.badic_gram"),
    (shimorin, "weight_criterion", "shimorin.weight_criterion"),
    (shimorin, "concavity_criterion", "shimorin.concavity_criterion"),
    (shimorin, "operator_check", "shimorin.operator_check"),
]

# Spans whose arguments and result the per-layer metrics read afterwards.
KEEP = {
    "badic.decompose",
    "subspaces.span_invariant",
    "shimorin.weight_criterion",
    "shimorin.operator_check",
}

# Per-layer metrics in report order: name -> unit.
PER_LAYER = {
    "cli.main.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "cli.scan.pool_speedup": "ratio",
    "blaschke.taylor.calls": "calls/req",
    "blaschke.taylor.hit_ratio": "ratio",
    "blaschke.multiplication_matrix.self_ms": "ms",
    "model_space.tm_basis.calls": "calls/req",
    "model_space.tm_basis.self_ms": "ms",
    "badic.decompose.calls": "calls/req",
    "badic.decompose.self_ms": "ms",
    "badic.decompose.layers": "layers",
    "badic.decompose.budget_ratio": "ratio",
    "badic.decompose.distinct_ratio": "ratio",
    "badic.decompose.depth_exhausted": "count",
    "badic.decompose.recon_err_max": "ratio",
    "subspaces.span_invariant.self_ms": "ms",
    "subspaces.span_invariant.kept_ratio": "ratio",
    "subspaces.restrict_to_degree.self_ms": "ms",
    "subspaces.wandering_part.self_ms": "ms",
    "subspaces.subspace_defect.self_ms": "ms",
    "subspaces.badic_gram.self_ms": "ms",
    "subspaces.badic_gram.hit_ratio": "ratio",
    "shimorin.weight_criterion.self_ms": "ms",
    "shimorin.weight_criterion.indices_per_s": "1/s",
    "shimorin.weight_criterion.violations_built": "count/req",
    "shimorin.concavity_criterion.self_ms": "ms",
    "shimorin.operator_check.self_ms": "ms",
    "shimorin.operator_check.eig_dim": "rows",
    "process.cpu_util": "ratio",
    "process.trace_overhead_frac": "ratio",
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "cpu", "args", "result", "error")

    def __init__(self, span_id: int, name: str, parent) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.args = self.result = self.error = None


class _Request:
    def __init__(self) -> None:
        self.spans: list = []
        self.thread = threading.get_ident()
        self.main_stack: list = []


class Tracer:
    """Installs the wrappers and collects the spans of one request at a time."""

    def __init__(self) -> None:
        self._originals: list = []
        self._request: _Request | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def begin(self) -> None:
        self._request = _Request()

    def end(self) -> list:
        request, self._request = self._request, None
        return request.spans

    def _wrap(self, fn, name: str):
        keep = name in KEEP

        def traced(*args, **kwargs):
            request = self._request
            if request is None:
                return fn(*args, **kwargs)
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            on_main = threading.get_ident() == request.thread
            if stack:
                parent = stack[-1]
            elif not on_main and request.main_stack:
                parent = request.main_stack[-1]
            else:
                parent = None
            span = Span(next(self._ids), name, parent)
            stack.append(span)
            if on_main:
                request.main_stack.append(span)
            if keep:
                span.args = (args, kwargs)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span.result = result
                return result
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
                if on_main:
                    request.main_stack.pop()
                request.spans.append(span)

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list) -> dict:
    """span id -> self time in seconds (concurrent leaves share each instant)."""
    events = []
    for s in spans:
        events.append((s.start, 1, s.id, s))
        events.append((s.end, 0, -s.id, s))
    events.sort(key=lambda e: e[:3])
    own = defaultdict(float)
    open_children = defaultdict(int)
    active: set = set()
    leaves: set = set()
    last = None
    for t, is_start, _, s in events:
        if leaves and last is not None and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf.id] += share
        last = t
        parent = s.parent if s.parent in active else None
        if is_start:
            active.add(s)
            leaves.add(s)
            if parent is not None:
                open_children[parent.id] += 1
                leaves.discard(parent)
        else:
            active.discard(s)
            leaves.discard(s)
            if parent is not None:
                open_children[parent.id] -= 1
                if open_children[parent.id] == 0:
                    leaves.add(parent)
    return dict(own)


def _arg(span: Span, index: int, name: str):
    args, kwargs = span.args
    return args[index] if len(args) > index else kwargs.get(name)


def _orbit_candidates(generators, b, degree: int) -> int:
    total = 0
    for gen in generators:
        if gen.is_zero():
            continue
        order = gen.resized(degree).trimmed_order()
        total += 1 if b.degree == 0 else max(0, (degree - order) // b.degree) + 1
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerStats:
    """Accumulates per-layer figures over the traced requests of a run."""

    def __init__(self) -> None:
        self.requests = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.taylor_hits = 0
        self.taylor_misses = 0
        self.decompose_layers = 0
        self.decompose_budget = 0
        self.decompose_keys: set = set()
        self.depth_exhausted = 0
        self.recon_err_max = 0.0
        self.kept = 0
        self.candidates = 0
        self.gram_hits = 0
        self.scan_cpu = 0.0
        self.scan_wall = 0.0
        self.indices = 0
        self.violations = 0
        self.eig_rows = 0

    def add(self, spans: list, taylor_delta: tuple) -> float:
        """Fold in one request's spans; returns the summed self time."""
        self.requests += 1
        self.taylor_hits += taylor_delta[0]
        self.taylor_misses += taylor_delta[1]
        own = self_times(spans)
        children = defaultdict(list)
        for s in spans:
            self.self_s[s.name] += own.get(s.id, 0.0)
            self.calls[s.name] += 1
            if s.parent is not None:
                children[s.parent.id].append(s)
        for s in spans:
            if s.name == "badic.decompose":
                self._decompose(s)
            elif s.name == "subspaces.span_invariant" and s.error is None:
                self.kept += s.result.dimension
                self.candidates += _orbit_candidates(
                    _arg(s, 0, "generators"), _arg(s, 1, "b"), _arg(s, 3, "degree")
                )
            elif s.name == "subspaces.badic_gram":
                if not any(c.name == "badic.decompose" for c in children[s.id]):
                    self.gram_hits += 1
            elif s.name == "cli.cmd_scan":
                self.scan_wall += s.end - s.start
                self.scan_cpu += sum(
                    c.cpu for c in children[s.id] if c.name == "shimorin.weight_criterion"
                )
            elif s.name == "shimorin.weight_criterion" and s.error is None:
                start, n_max = s.result.scanned_range
                self.indices += n_max - start + 1
                self.violations += len(s.result.violations)
            elif s.name == "shimorin.operator_check" and s.error is None:
                self.eig_rows += 2 * (_arg(s, 2, "in_degree") + 1)
        return sum(own.values())

    def _decompose(self, s: Span) -> None:
        f, b = _arg(s, 0, "f"), _arg(s, 1, "b")
        result = s.result
        if isinstance(s.error, badic.DepthExhausted):
            self.depth_exhausted += 1
            result = s.error.partial
        if result is None:
            return
        degree = f.truncation_degree
        self.decompose_layers += result.depth_used
        self.decompose_budget += badic.default_depth(degree, b)
        self.decompose_keys.add((b, degree))
        rebuilt = badic.reconstruct(result, degree).coeffs
        scale = float((abs(f.coeffs) ** 2).sum()) ** 0.5
        if scale > 0.0:
            err = float((abs(rebuilt - f.coeffs) ** 2).sum()) ** 0.5 / scale
            self.recon_err_max = max(self.recon_err_max, err)

    def metrics(self, output_bytes: float, cpu_util: float, overhead: float) -> dict:
        per_req = lambda x: _ratio(x, self.requests)  # noqa: E731
        ms = lambda name: 1e3 * per_req(self.self_s[name])  # noqa: E731
        decompose_calls = self.calls["badic.decompose"]
        wc_self = self.self_s["shimorin.weight_criterion"]
        values = {
            "cli.main.self_ms": ms("cli.main"),
            "cli.output_bytes": output_bytes,
            "cli.scan.pool_speedup": _ratio(self.scan_cpu, self.scan_wall),
            "blaschke.taylor.calls": per_req(self.calls["blaschke.taylor"]),
            "blaschke.taylor.hit_ratio": _ratio(self.taylor_hits, self.taylor_hits + self.taylor_misses),
            "blaschke.multiplication_matrix.self_ms": ms("blaschke.multiplication_matrix"),
            "model_space.tm_basis.calls": per_req(self.calls["model_space.tm_basis"]),
            "model_space.tm_basis.self_ms": ms("model_space.tm_basis"),
            "badic.decompose.calls": per_req(decompose_calls),
            "badic.decompose.self_ms": ms("badic.decompose"),
            "badic.decompose.layers": _ratio(self.decompose_layers, decompose_calls),
            "badic.decompose.budget_ratio": _ratio(self.decompose_layers, self.decompose_budget),
            "badic.decompose.distinct_ratio": _ratio(len(self.decompose_keys), decompose_calls),
            "badic.decompose.depth_exhausted": float(self.depth_exhausted),
            "badic.decompose.recon_err_max": self.recon_err_max,
            "subspaces.span_invariant.self_ms": ms("subspaces.span_invariant"),
            "subspaces.span_invariant.kept_ratio": _ratio(self.kept, self.candidates),
            "subspaces.restrict_to_degree.self_ms": ms("subspaces.restrict_to_degree"),
            "subspaces.wandering_part.self_ms": ms("subspaces.wandering_part"),
            "subspaces.subspace_defect.self_ms": ms("subspaces.subspace_defect"),
            "subspaces.badic_gram.self_ms": ms("subspaces.badic_gram"),
            "subspaces.badic_gram.hit_ratio": _ratio(self.gram_hits, self.calls["subspaces.badic_gram"]),
            "shimorin.weight_criterion.self_ms": ms("shimorin.weight_criterion"),
            "shimorin.weight_criterion.indices_per_s": _ratio(self.indices, wc_self),
            "shimorin.weight_criterion.violations_built": per_req(self.violations),
            "shimorin.concavity_criterion.self_ms": ms("shimorin.concavity_criterion"),
            "shimorin.operator_check.self_ms": ms("shimorin.operator_check"),
            "shimorin.operator_check.eig_dim": _ratio(self.eig_rows, self.calls["shimorin.operator_check"]),
            "process.cpu_util": cpu_util,
            "process.trace_overhead_frac": overhead,
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}


def taylor_cache_info() -> tuple:
    """(hits, misses) of the Taylor-coefficient cache, or zeros without one."""
    cached = getattr(blaschke, "_taylor_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return (0, 0)
    info = cached.cache_info()
    return (info.hits, info.misses)
