"""Command-line front end for reproducible experiments.

Subcommands
-----------
thresholds      closed-form exponent thresholds for k-step shifts
criterion       weight-inequality scan for one weight family
scan            grid scan of the criterion over (alpha, k)
decompose       layer decomposition of a series with respect to B
bnorm           equivalent layer norm of a series
wsp-test        wandering-defect experiment driven by a descriptor file
operator-check  PSD check of the shift inequality on a truncation

Exit codes: 0 success; 1 unexpected failure; 2 a checked criterion failed
(or the decomposition ran out of depth); 64 usage error.

Every output embeds the resolved configuration and prints floats with 12
significant digits, so identical invocations (including the seed) produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import badic, shimorin
from .blaschke import BlaschkeProduct, format_blaschke_literal, multiplication_matrix, parse_blaschke_literal
from .series import (
    ComplexSeries,
    PowerLawWeights,
    WeightSequence,
    format_complex_literal,
    format_series_literal,
    parse_series_literal,
    parse_weights_literal,
    weighted_norm,
)
from .subspaces import (
    BAdicInnerProduct,
    ShiftedInnerProduct,
    TaylorInnerProduct,
    wsp_report,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CRITERION = 2
EXIT_USAGE = 64

# The trivial-intersection hypothesis behind the sufficiency criterion cannot
# be probed on a truncation; outputs carry this note instead of a vacuous check.
PURITY_NOTE = (
    "the trivial-intersection hypothesis is assumed analytically "
    "and is not checked numerically"
)


# Largest output pad operator-check assembles; zeros of modulus above about
# 0.9914 need more and are refused rather than silently truncated.
_MAX_PAD = 4000


class _Parser(argparse.ArgumentParser):
    """argparse with the scriptable usage exit code."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _clean(value):
    """Payload sanitizer: floats rounded to 12 significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(_fmt(float(value)))
    if isinstance(value, complex):
        return [float(_fmt(value.real)), float(_fmt(value.imag))]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_text(payload: dict, one_line: bool = False) -> str:
    if one_line:
        return json.dumps(_clean(payload), sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(_clean(payload), sort_keys=True, indent=2) + "\n"


def _config_comment(config: dict) -> str:
    return "# config " + json.dumps(_clean(config), sort_keys=True, separators=(",", ":"))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_text(config: dict, header: list, rows: list, extra_comments: list | None = None) -> str:
    buf = io.StringIO()
    buf.write(_config_comment(config) + "\n")
    for line in extra_comments or []:
        buf.write("# " + line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _resolve_weights(text: str) -> WeightSequence:
    """Weight literal with two CLI conveniences on top of the core grammar."""
    t = text.strip()
    if t == "steep-head":
        return shimorin.steep_head_weights()
    if t.startswith("z2-adjusted:"):
        return shimorin.z2_adjusted_weights(float(t.split(":", 1)[1]))
    return parse_weights_literal(t)


def _weights_from_args(parser: argparse.ArgumentParser, args) -> tuple:
    """Resolve --alpha / --weights into (WeightSequence, canonical spec)."""
    if (args.alpha is None) == (args.weights is None):
        parser.error("exactly one of --alpha and --weights is required")
    if args.alpha is not None:
        return PowerLawWeights(args.alpha), f"power:{_fmt(args.alpha)}"
    return _resolve_weights(args.weights), args.weights.strip()


def _violation_rows(report) -> list:
    return [
        {"condition": v.condition, "index": v.index, "lhs": v.lhs, "rhs": v.rhs}
        for v in report.violations
    ]


def cmd_thresholds(parser, args) -> int:
    ks = range(1, args.k + 1)
    config = {"subcommand": "thresholds", "k": args.k, "format": args.format}
    rows = [{"k": k, "threshold": shimorin.monomial_threshold(k)} for k in ks]
    if args.format == "csv":
        table = [["monomial", k, _fmt(shimorin.monomial_threshold(k))] for k in ks]
        table.append(["z2-head-adjusted", 2, _fmt(shimorin.Z2_ALPHA_BOUND)])
        _emit(_csv_text(config, ["kind", "k", "threshold"], table), args.out)
    else:
        payload = {
            "config": config,
            "monomial_thresholds": rows,
            "z2_head_adjusted_bound": shimorin.Z2_ALPHA_BOUND,
        }
        _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_criterion(parser, args) -> int:
    weights, spec = _weights_from_args(parser, args)
    if args.mode == "concavity":
        if args.s0 != 0:
            parser.error("--s0 applies to the shift mode only")
        report = shimorin.concavity_criterion(weights, args.k, args.nmax)
    else:
        report = shimorin.weight_criterion(weights, args.k, args.s0, args.nmax)
    config = {
        "subcommand": "criterion",
        "mode": args.mode,
        "weights": spec,
        "k": args.k,
        "s0": args.s0,
        "nmax": args.nmax,
        "format": args.format,
    }
    if args.format == "csv":
        rows = [
            [v["condition"], v["index"], _fmt(v["lhs"]), _fmt(v["rhs"])]
            for v in _violation_rows(report)
        ]
        comments = [
            f"holds={_cell(report.holds)}",
            f"tail_certificate={report.tail_certificate or 'none'}",
            f"note={PURITY_NOTE}",
        ]
        _emit(_csv_text(config, ["condition", "index", "lhs", "rhs"], rows, comments), args.out)
    else:
        payload = {
            "config": config,
            "holds": report.holds,
            "violations": _violation_rows(report),
            "scanned_range": list(report.scanned_range),
            "first_violation_index": report.first_violation_index(),
            "tail_certificate": report.tail_certificate,
            "note": PURITY_NOTE,
        }
        _emit(_json_text(payload), args.out)
    return EXIT_OK if report.holds else EXIT_CRITERION


def cmd_scan(parser, args) -> int:
    if args.alpha_steps < 1:
        parser.error("--alpha-steps must be positive")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    rows = []
    for k in range(1, args.k + 1):
        s0 = k if args.s0 == "k" else int(args.s0)
        for alpha in map(float, alphas):
            report = shimorin.weight_criterion(PowerLawWeights(alpha), k, s0, args.nmax)
            rows.append(
                {
                    "alpha": alpha,
                    "k": k,
                    "s0": s0,
                    "holds": report.holds,
                    "first_violation_index": report.first_violation_index(),
                }
            )

    config = {
        "subcommand": "scan",
        "alpha_min": args.alpha_min,
        "alpha_max": args.alpha_max,
        "alpha_steps": args.alpha_steps,
        "k": args.k,
        "s0": args.s0,
        "nmax": args.nmax,
        "format": args.format,
    }
    if args.format == "csv":
        table = [
            [_fmt(r["alpha"]), r["k"], r["s0"], _cell(r["holds"]), _cell(r["first_violation_index"])]
            for r in rows
        ]
        _emit(
            _csv_text(config, ["alpha", "k", "s0", "holds", "first_violation_index"], table),
            args.out,
        )
    else:
        _emit(_json_text({"config": config, "rows": rows}), args.out)
    return EXIT_OK


def _trimmed_lengths(layers) -> list:
    """Printed length of each layer, from one pass over the stacked layers.

    The rule is ComplexSeries.trimmed_degree's: keep every entry up to the
    last |a_n| > 1e-12 * max |a_n|, and one entry of an all-zero row.  The
    stacked temporaries are freed on return, before the layers are
    formatted, so the formatted strings can reuse their memory.
    """
    mags = np.abs(np.array([h.coeffs for h in layers]))
    kept = mags > 1e-12 * mags.max(axis=1, keepdims=True)
    return np.where(kept.any(axis=1), kept.shape[1] - kept[:, ::-1].argmax(axis=1), 1).tolist()


def _layer_rows(coefficients) -> list:
    layers = coefficients.layers
    if not layers:
        return []
    return [
        {
            "layer": i,
            "h2_norm": float(np.linalg.norm(h.coeffs)),
            "coeffs": format_complex_literal(h.coeffs[:n]),
        }
        for i, (h, n) in enumerate(zip(layers, _trimmed_lengths(layers)))
    ]


def cmd_decompose(parser, args) -> int:
    if args.alpha is not None and not math.isfinite(args.alpha):
        parser.error("--alpha must be finite")
    exhausted = False
    try:
        coefficients = badic.decompose(args.f, args.blaschke, args.depth)
    except badic.DepthExhausted as exc:
        coefficients = exc.partial
        exhausted = True
    config = {
        "subcommand": "decompose",
        "f": format_series_literal(args.f),
        "blaschke": format_blaschke_literal(args.blaschke),
        "alpha": args.alpha,
        "depth": args.depth,
        "format": args.format,
    }
    rows = _layer_rows(coefficients)
    if args.format == "csv":
        table = [[r["layer"], _fmt(r["h2_norm"]), r["coeffs"]] for r in rows]
        comments = [
            f"depth_used={coefficients.depth_used}",
            f"residual_norm={_fmt(coefficients.residual_norm)}",
            f"depth_exhausted={_cell(exhausted)}",
        ]
        _emit(_csv_text(config, ["layer", "h2_norm", "coeffs"], table, comments), args.out)
    else:
        payload = {
            "config": config,
            "layers": rows,
            "depth_used": coefficients.depth_used,
            "residual_norm": coefficients.residual_norm,
            "depth_exhausted": exhausted,
        }
        _emit(_json_text(payload), args.out)
    return EXIT_CRITERION if exhausted else EXIT_OK


def cmd_bnorm(parser, args) -> int:
    config = {
        "subcommand": "bnorm",
        "f": format_series_literal(args.f),
        "blaschke": format_blaschke_literal(args.blaschke),
        "alpha": args.alpha,
        "depth": args.depth,
    }
    diag = weighted_norm(args.f, PowerLawWeights(args.alpha))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            badic._check_regime(args.alpha)
            coefficients = badic.decompose(args.f, args.blaschke, args.depth)
    except badic.DepthExhausted as exc:
        payload = {
            "config": config,
            "error": "depth exhausted",
            "residual_norm": exc.residual_norm,
            "depth_used": exc.partial.depth_used,
        }
        _emit(_json_text(payload), args.out)
        return EXIT_CRITERION
    regime = any(issubclass(w.category, badic.RegimeWarning) for w in caught)
    value = badic._layer_norm(coefficients, args.alpha)
    payload = {
        "config": config,
        "b_norm": value,
        "diag_norm": diag,
        "ratio": value / diag if diag > 0.0 else None,
        "depth_used": coefficients.depth_used,
        "residual_norm": coefficients.residual_norm,
        "unsupported_regime": regime,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


_DESCRIPTOR_KEYS = {
    "generators",
    "blaschke",
    "ip",
    "alpha",
    "weights",
    "N",
    "N_compare",
    "seed",
    "depth",
    "shift",
    "guard",
    "max_defect",
}


def _parse_descriptor(text: str) -> dict:
    """key=value lines; 'generators' may repeat; '#' starts a comment."""
    data: dict = {"generators": []}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"descriptor line {number}: expected key=value")
        if key not in _DESCRIPTOR_KEYS:
            raise ValueError(f"descriptor line {number}: unknown key {key!r}")
        if key == "generators":
            data["generators"].append(value)
        elif key in data:
            raise ValueError(f"descriptor line {number}: duplicate key {key!r}")
        else:
            data[key] = value
    return data


def _require(data: dict, key: str) -> str:
    if key not in data:
        raise ValueError(f"descriptor is missing the {key!r} key")
    return data[key]


def _descriptor_generators(specs: list, degree: int, seed: int) -> list:
    """Explicit series literals, or 'random:COUNT:DEGREE' drawn from seed.

    Random entries consume one shared stream in file order, so the whole
    descriptor stays reproducible.
    """
    rng = np.random.default_rng(seed)
    generators = []
    for spec in specs:
        if spec.startswith("random:"):
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad generator spec {spec!r}; expected random:COUNT:DEGREE")
            count, gdeg = int(parts[1]), int(parts[2])
            if count < 1 or gdeg < 0 or gdeg > degree:
                raise ValueError(f"bad generator spec {spec!r}")
            for _ in range(count):
                c = rng.standard_normal(gdeg + 1) + 1j * rng.standard_normal(gdeg + 1)
                generators.append(ComplexSeries(c))
        else:
            generators.append(parse_series_literal(spec))
    return generators


def cmd_wsp_test(parser, args) -> int:
    try:
        text = Path(args.descriptor).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read descriptor: {exc}")
    data = _parse_descriptor(text)

    b = parse_blaschke_literal(_require(data, "blaschke"))
    n = int(_require(data, "N"))
    n_compare = int(_require(data, "N_compare"))
    seed = int(data.get("seed", "0"))
    guard = int(data.get("guard", "8"))
    kind = data.get("ip", "taylor")
    alpha = float(data["alpha"]) if "alpha" in data else None

    weights: WeightSequence | None = None
    if "weights" in data:
        weights = _resolve_weights(data["weights"])
    elif alpha is not None:
        weights = PowerLawWeights(alpha)

    if kind == "taylor":
        if weights is None:
            raise ValueError("taylor inner product needs 'alpha' or 'weights'")
        ip = TaylorInnerProduct(weights)
    elif kind == "shifted":
        if alpha is None:
            raise ValueError("shifted inner product needs 'alpha'")
        ip = ShiftedInnerProduct(int(_require(data, "shift")), alpha)
    elif kind == "badic":
        if weights is None:
            raise ValueError("badic inner product needs 'alpha' or 'weights'")
        depth = int(data["depth"]) if "depth" in data else badic.default_depth(n, b)
        ip = BAdicInnerProduct(b, weights, depth)
    else:
        raise ValueError(f"unknown ip kind {kind!r}; expected taylor, badic, or shifted")

    if not data["generators"]:
        raise ValueError("descriptor needs at least one generators= line")
    generators = _descriptor_generators(data["generators"], n, seed)

    report = wsp_report(generators, b, ip, n, n_compare, guard)

    config = {
        "subcommand": "wsp-test",
        "blaschke": format_blaschke_literal(b),
        "generators": data["generators"],
        "ip": kind,
        "alpha": alpha,
        "weights": data.get("weights"),
        "shift": int(data["shift"]) if "shift" in data else None,
        "depth": int(data["depth"]) if "depth" in data else None,
        "guard": guard,
        "seed": seed,
    }
    payload = {
        "config": config,
        "defect": report.defect,
        "dims": {
            "M": report.dim_invariant,
            "W": report.dim_wandering,
            "G": report.dim_regenerated,
        },
        "N": report.ambient_degree,
        "N_compare": report.compare_degree,
    }
    _emit(_json_text(payload, one_line=True), args.out)
    if "max_defect" in data and report.defect > float(data["max_defect"]):
        return EXIT_CRITERION
    return EXIT_OK


def cmd_operator_check(parser, args) -> int:
    if (args.k is None) == (args.blaschke is None):
        parser.error("exactly one of --k and --blaschke is required")
    weights, spec = _weights_from_args(parser, args)
    b = BlaschkeProduct((0j,) * args.k) if args.k is not None else args.blaschke
    out_degree = args.N + max(1, b.degree)
    rho = max((abs(z) for z in b.zeros), default=0.0)
    if rho > 0.0:
        # Rational B has an infinite Taylor tail; pad the output space so the
        # truncated multiplication matrix loses at most ~1e-15 of the norm.
        pad = int(math.ceil(math.log(1e-15) / math.log(rho)))
        if pad > _MAX_PAD:
            raise ValueError(
                f"a zero of modulus {rho:.12g} needs an output pad of {pad} degrees "
                f"to keep the lost tail below 1e-15; the limit is {_MAX_PAD}"
            )
        out_degree += pad
    matrix = multiplication_matrix(b, args.N, out_degree)
    gram = weights.values(out_degree + 1)
    result = shimorin.operator_check(matrix, gram, args.N)
    config = {
        "subcommand": "operator-check",
        "k": args.k,
        "blaschke": format_blaschke_literal(b),
        "weights": spec,
        "N": args.N,
    }
    payload = {
        "config": config,
        "min_eig": result.min_eig,
        "holds": result.holds,
        "note": PURITY_NOTE,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK if result.holds else EXIT_CRITERION


def _scan_s0(text: str) -> str:
    t = text.strip()
    if t == "k":
        return t
    int(t)
    return t


def _build_parser() -> _Parser:
    parser = _Parser(prog="blaschkelab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the output to this file instead of stdout")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    p = sub.add_parser(
        "thresholds",
        parents=[common, fmt],
        help="closed-form exponent thresholds",
        description="Rows (k, log2/log(k+1)) for k up to --k, plus the "
        "head-adjusted two-step bound log(2/3)/log(5/3). CSV columns: kind,k,threshold.",
    )
    p.add_argument("--k", type=int, default=6, help="largest shift stride (default 6)")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser(
        "criterion",
        parents=[common, fmt],
        help="weight-inequality scan",
        description="Scan the k-step shift inequalities for a weight family. "
        "CSV rows: one per violation, columns condition,index,lhs,rhs. "
        "Exit 2 when the criterion fails.",
    )
    p.add_argument("--alpha", type=float, help="power-law weights (n+1)^alpha")
    p.add_argument(
        "--weights",
        help="weight literal: power:A | shifted:OFF:SPEC | explicit:W0,..:SPEC "
        "| steep-head | z2-adjusted:A",
    )
    p.add_argument("--k", type=int, required=True, help="shift stride")
    p.add_argument("--s0", type=int, default=0, help="first index covered (default 0)")
    p.add_argument("--nmax", type=int, default=100_000, help="scan upper bound (default 100000)")
    p.add_argument(
        "--mode",
        choices=("shift", "concavity"),
        default="shift",
        help="shift: reciprocal inequalities (a)+(b); concavity: stride concavity",
    )
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser(
        "scan",
        parents=[common, fmt],
        help="grid scan over (alpha, k)",
        description="Run the shift criterion for power-law weights on an alpha grid "
        "for every stride up to --k. CSV columns: alpha,k,s0,holds,first_violation_index. "
        "Always exits 0; read the holds column.",
    )
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-steps", type=int, default=11)
    p.add_argument("--k", type=int, default=6, help="largest stride (default 6)")
    p.add_argument(
        "--s0",
        type=_scan_s0,
        default="0",
        help="first covered index: an integer, or 'k' to track the stride",
    )
    p.add_argument("--nmax", type=int, default=100_000)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "decompose",
        parents=[common, fmt],
        help="layer decomposition of a series",
        description="Decompose --f into layers with respect to --blaschke. "
        "CSV columns: layer,h2_norm,coeffs (series literal). "
        "Exit 2 with the partial result when the depth is exhausted.",
    )
    p.add_argument("--f", type=parse_series_literal, required=True, help="series literal 're,im;re,im;..'")
    p.add_argument(
        "--blaschke",
        type=parse_blaschke_literal,
        required=True,
        help="Blaschke literal 'zeros=re,im;re,im phase=T'",
    )
    p.add_argument("--depth", type=int, help="maximum number of layers")
    p.add_argument("--alpha", type=float, help="echoed in the header for provenance")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "bnorm",
        parents=[common],
        help="equivalent layer norm",
        description="Layer norm of --f with respect to --blaschke at exponent --alpha, "
        "with the plain diagonal norm and their ratio.",
    )
    p.add_argument("--f", type=parse_series_literal, required=True)
    p.add_argument("--blaschke", type=parse_blaschke_literal, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_bnorm)

    p = sub.add_parser(
        "wsp-test",
        parents=[common],
        help="wandering-defect experiment",
        description="Read a key=value descriptor (keys: generators [repeatable, series "
        "literal or random:COUNT:DEGREE], blaschke, ip {taylor|badic|shifted}, alpha, "
        "weights, N, N_compare, seed, depth, shift, guard, max_defect) and emit a "
        "one-line JSON result. Exit 2 when the defect exceeds max_defect.",
    )
    p.add_argument("--descriptor", required=True, help="path to the experiment descriptor")
    p.set_defaults(func=cmd_wsp_test)

    p = sub.add_parser(
        "operator-check",
        parents=[common],
        help="PSD check of the shift inequality",
        description="Assemble the quadratic form 2|Tx|^2 + 2|y|^2 - |x+Ty|^2 for "
        "multiplication by z^k (--k) or a Blaschke product (--blaschke) on the "
        "diagonal norm, and report its minimum eigenvalue. Exit 2 when it fails.",
    )
    p.add_argument("--k", type=int, help="monomial stride: B = z^k")
    p.add_argument("--blaschke", type=parse_blaschke_literal, help="general Blaschke product")
    p.add_argument("--alpha", type=float, help="power-law weights (n+1)^alpha")
    p.add_argument("--weights", help="weight literal (see criterion --help)")
    p.add_argument("--N", type=int, default=64, help="input truncation degree (default 64)")
    p.set_defaults(func=cmd_operator_check)

    return parser


def main(argv: list | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "k", None) is not None and args.k < 1:
        parser.error("--k must be positive")
    try:
        return args.func(parser, args)
    except badic.DepthExhausted as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_CRITERION
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but a numerical failure, not a usage error.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (ValueError, ArithmeticError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
