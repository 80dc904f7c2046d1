"""Self-test of the benchmark: determinism, checker sensitivity, trace sanity.

    python3 benchmarks/selftest.py

Exits 0 when every test passes.  The functions are plain ``test_*``
functions, so ``python3 -m pytest benchmarks/selftest.py`` runs them too.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from blaschkelab import cli, shimorin  # noqa: E402
from workloads import WORKLOADS, Request, Workload, series_literal  # noqa: E402


def _execute(req: Request) -> tuple:
    """(exit code, stdout) of one unchecked request."""
    client = run.Client(cli, shimorin.weight_criterion, checks.check)
    try:
        return client.send(req)[:2]
    finally:
        client.close()


def _first(workload: str, label: str) -> Request:
    for index in range(4):
        for req in Workload(workload, 3).block(index):
            if req.label == label:
                return req
    raise LookupError(label)


def _rejected(req: Request, rc: int, out: str) -> bool:
    try:
        checks.check(req, rc, out, shimorin.weight_criterion)
    except checks.CheckFailed:
        return True
    return False


def test_seed_gives_identical_requests() -> None:
    for name in WORKLOADS:
        first = [Workload(name, 11).block(i) for i in range(3)]
        again = [Workload(name, 11).block(i) for i in range(3)]
        other = [Workload(name, 12).block(i) for i in range(3)]
        assert first == again, f"{name}: seed 11 produced two different request lists"
        assert first != other, f"{name}: seeds 11 and 12 produced the same requests"


def test_checker_accepts_then_rejects_corruption() -> None:
    # a perturbed layer coefficient breaks the reconstruction
    req = _first("layers", "decompose 2 zeros")
    rc, out = _execute(req)
    assert not _rejected(req, rc, out), "clean decompose output rejected"
    p = json.loads(out)
    coeffs = checks.parse_series(p["layers"][1]["coeffs"])
    coeffs[0] += 1e-3 * max(1.0, abs(coeffs[0]))
    p["layers"][1]["coeffs"] = series_literal(coeffs)
    assert _rejected(req, rc, json.dumps(p)), "perturbed layer coefficient accepted"

    # a flipped verdict contradicts the exit code and the violations
    for label in ("criterion head fail", "criterion pass", "operator-check z^k"):
        req = _first("criteria", label)
        rc, out = _execute(req)
        assert not _rejected(req, rc, out), f"clean {label} output rejected"
        if "--format=csv" in req.argv:
            flipped = out.replace("# holds=true", "# holds=X").replace("# holds=false", "# holds=true")
            flipped = flipped.replace("# holds=X", "# holds=false")
        else:
            p = json.loads(out)
            p["holds"] = not p["holds"]
            flipped = json.dumps(p)
        assert _rejected(req, rc, flipped), f"flipped holds accepted for {label}"

    # a wrong dimension for a monomial experiment
    req = _first("subspace", "wsp taylor z^2 x1")
    rc, out = _execute(req)
    assert not _rejected(req, rc, out), "clean wsp-test output rejected"
    p = json.loads(out)
    p["dims"]["W"] += 1
    assert _rejected(req, rc, json.dumps(p)), "wrong wandering dimension accepted"

    # a b_norm off the closed form for B = z
    req = _first("layers", "bnorm z")
    rc, out = _execute(req)
    assert not _rejected(req, rc, out), "clean bnorm output rejected"
    p = json.loads(out)
    p["b_norm"] *= 1.0 + 1e-6
    assert _rejected(req, rc, json.dumps(p)), "perturbed b_norm accepted"

    # a scan row that disagrees with weight_criterion
    req = _first("criteria", "scan k=3")
    rc, out = _execute(req)
    assert not _rejected(req, rc, out), "clean scan output rejected"
    if "--format=csv" in req.argv:
        lines = out.splitlines()
        last = lines[-1].split(",")
        last[3] = "false" if last[3] == "true" else "true"
        lines[-1] = ",".join(last)
        corrupted = "\n".join(lines) + "\n"
    else:
        p = json.loads(out)
        p["rows"][-1]["holds"] = not p["rows"][-1]["holds"]
        corrupted = json.dumps(p)
    assert _rejected(req, rc, corrupted), "flipped scan row accepted"


def test_reference_values() -> None:
    errors = checks.check_reference(lambda argv: _execute(Request("reference", "reference", tuple(argv))))
    assert not errors, errors


def test_self_times_within_wall() -> None:
    # concurrent children share each instant; nested ones are subtracted
    root = tracing.Span(0, "root", None)
    root.start, root.end = 0.0, 10.0
    a = tracing.Span(1, "a", root)
    a.start, a.end = 1.0, 5.0
    b = tracing.Span(2, "b", root)
    b.start, b.end = 3.0, 7.0
    own = tracing.self_times([a, b, root])
    assert abs(own[0] - 4.0) < 1e-12 and abs(own[1] - 3.0) < 1e-12 and abs(own[2] - 3.0) < 1e-12, own

    tracer = tracing.Tracer()
    client = run.Client(cli, shimorin.weight_criterion, checks.check)
    tracer.install()
    try:
        for name in WORKLOADS:
            stats = tracing.LayerStats()
            for req in Workload(name, 5).block(1)[:6]:
                tracer.begin()
                ok, wall, _, _, error, _ = client.call(req)
                total = stats.add(tracer.end(), (0, 0))
                assert ok, error
                assert total <= wall * (1.0 + 1e-9), f"{req.label}: self {total:.6f} s > wall {wall:.6f} s"
    finally:
        tracer.uninstall()
        client.close()
    left = [attr for owner, attr, _ in tracing.TARGETS if hasattr(owner.__dict__[attr], "__wrapped__")]
    assert not left, f"wrappers left installed: {left}"


def test_benchmark_json_names_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "criteria", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert not proc.stdout.strip(), f"benchmark printed a result: {proc.stdout[-200:]}"


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            t0 = time.perf_counter()
            try:
                fn()
                print(f"ok    {name} ({time.perf_counter() - t0:.1f} s)")
            except Exception:
                failed += 1
                print(f"FAIL  {name}")
                traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
