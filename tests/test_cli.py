import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blaschkelab
from blaschkelab import cli

from helpers import reference_layer_rows

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(args, capsys):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(args, capsys):
    """Exit status whether main returns it or argparse raises SystemExit."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    return code, json.loads(out)


# ---------------------------------------------------------------- thresholds


def test_thresholds_json(capsys):
    code, payload = run_json(["thresholds", "--k", "3"], capsys)
    assert code == 0
    rows = {row["k"]: row["threshold"] for row in payload["monomial_thresholds"]}
    assert rows[1] == 1.0
    assert round(rows[2], 4) == 0.6309
    assert rows[3] == 0.5
    assert round(payload["z2_head_adjusted_bound"], 4) == -0.7937


def test_thresholds_csv(capsys):
    code, out, _ = run_cli(["thresholds", "--k", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config")
    assert lines[1] == "kind,k,threshold"
    assert lines[2] == "monomial,1,1"
    assert lines[-1].startswith("z2-head-adjusted,2,-0.79374465423")


# ---------------------------------------------------------------- criterion


def test_criterion_holds_exit_zero(capsys):
    code, payload = run_json(
        ["criterion", "--alpha", "-1", "--k", "2", "--s0", "2", "--nmax", "5000"], capsys
    )
    assert code == 0
    assert payload["holds"] is True
    assert payload["violations"] == []
    assert payload["first_violation_index"] is None
    assert "not checked numerically" in payload["note"]


def test_criterion_fails_exit_two(capsys):
    code, payload = run_json(
        ["criterion", "--alpha", "-1", "--k", "2", "--nmax", "5000"], capsys
    )
    assert code == 2
    assert payload["holds"] is False
    assert payload["first_violation_index"] == 0


def test_criterion_csv_one_row_per_violation(capsys):
    code, out, _ = run_cli(
        ["criterion", "--alpha", "-1", "--k", "2", "--nmax", "5000", "--format", "csv"],
        capsys,
    )
    assert code == 2
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "condition,index,lhs,rhs"
    assert lines[1].startswith("a,0,1,0.6666")
    assert len(lines) == 2


def test_criterion_concavity_mode(capsys):
    code, payload = run_json(
        ["criterion", "--alpha", "0.5", "--k", "1", "--mode", "concavity", "--nmax", "2000"],
        capsys,
    )
    assert code == 0
    assert payload["holds"] is True


def test_criterion_weights_literal(capsys):
    code, payload = run_json(
        ["criterion", "--weights", "steep-head", "--k", "6", "--nmax", "2000"], capsys
    )
    assert code == 2
    assert payload["holds"] is False
    assert len(payload["violations"]) >= 1


def test_criterion_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["criterion", "--k", "2"])
    assert exc.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["criterion", "--alpha", "-1", "--weights", "power:0", "--k", "2"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_criterion_s0_only_in_shift_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["criterion", "--alpha", "0", "--k", "1", "--mode", "concavity", "--s0", "2"])
    assert exc.value.code == 64
    capsys.readouterr()


# ---------------------------------------------------------------- scan


def test_scan_grid(capsys):
    code, out, _ = run_cli(
        [
            "scan", "--alpha-min", "-1", "--alpha-max", "0", "--alpha-steps", "3",
            "--k", "2", "--nmax", "2000", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "alpha,k,s0,holds,first_violation_index"
    assert len(lines) == 1 + 6  # 3 alphas x 2 strides
    assert "-1,2,0,false,0" in lines
    assert "0,2,0,true," in lines


def test_scan_tracking_s0(capsys):
    code, out, _ = run_cli(
        [
            "scan", "--alpha-min", "-1", "--alpha-max", "-1", "--alpha-steps", "1",
            "--k", "3", "--s0", "k", "--nmax", "2000", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert rows == ["-1,1,1,true,", "-1,2,2,true,", "-1,3,3,true,"]


# ---------------------------------------------------------------- decompose / bnorm


def test_decompose_grouping(capsys):
    code, out, _ = run_cli(
        [
            "decompose", "--f", "1,0;1,0;1,0;1,0", "--blaschke", "zeros=0,0;0,0",
            "--alpha", "-1", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert rows[0].split(",", 2)[0] == "0"
    assert '"1,0;1,0"' in rows[0]
    assert '"1,0;1,0"' in rows[1]


def test_decompose_depth_exhausted(tmp_path, capsys):
    out_file = tmp_path / "dump.json"
    code = cli.main(
        [
            "decompose", "--f", "0,0;0,0;0,0;0,0;0,0;0,0;0,0;1,0",
            "--blaschke", "zeros=0.5,0", "--depth", "2", "--out", str(out_file),
        ]
    )
    capsys.readouterr()
    assert code == 2
    payload = json.loads(out_file.read_text())
    assert payload["depth_exhausted"] is True
    assert payload["depth_used"] == 2
    assert payload["residual_norm"] > 1e-9


F8 = "1,0;0.5,-0.25;-0.3,0.7;0.125,0;0,-1;2,0.5;-0.75,0.1;0.3,0.3;-1,2"
DECOMPOSE_CASES = {
    "zero_055_057_N8": ["--f", F8, "--blaschke", "zeros=0.55,0.57", "--alpha", "0.5"],
    "z2_N8": ["--f", F8, "--blaschke", "zeros=0,0;0,0"],
    "zero_series": ["--f", "0,0", "--blaschke", "zeros=0.5,0"],
    "depth2_partial": ["--f", F8, "--blaschke", "zeros=0.55,0.57", "--depth", "2"],
}
# sha256 of stdout, recorded from the per-layer serialization loop that
# ``helpers.reference_layer_rows`` keeps verbatim.
DECOMPOSE_DIGESTS = {
    ("zero_055_057_N8", "json"): (0, "64961ff339bd3a29d061759e8fc8efb2b5fc2df000cf54e1cab304eb4c1ab61e"),
    ("zero_055_057_N8", "csv"): (0, "6daea043afebd755a06cff1927f762a88e24b5321157aaa78af12993f5aaec7b"),
    ("z2_N8", "json"): (0, "58fca434ba192083b873dfd3e50e54d54d6b3ebcd949b372770421516f3004f8"),
    ("z2_N8", "csv"): (0, "d0c0aec6bb7ec7fe089ec0d55440cc778368b25287dd9bcd4e18cff93fac9229"),
    ("zero_series", "json"): (0, "0f5ea95dfc3c91ed17498468d69aa7072e542f0f91bc554da772f5e56cf7b75d"),
    ("zero_series", "csv"): (0, "6c2377ae49ea791006db76526432b7d0e225a088d77997788d59f62cff6e1b36"),
    ("depth2_partial", "json"): (2, "04d0e033a3b11cd543fede16462eb3d264fda2d217c25527abd608ac3e83cab6"),
    ("depth2_partial", "csv"): (2, "a076bc60764828c6a64dc6d0dcaf1e75d826ea3d28fdf5316984c545c7bf83af"),
}


@pytest.mark.parametrize("case,fmt", sorted(DECOMPOSE_DIGESTS))
def test_decompose_output_bytes_pinned(case, fmt, capsys):
    code, out, _ = run_cli(["decompose", *DECOMPOSE_CASES[case], "--format", fmt], capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DECOMPOSE_DIGESTS[case, fmt]


def test_decompose_zero_series_has_no_layers(capsys):
    code, payload = run_json(["decompose", *DECOMPOSE_CASES["zero_series"]], capsys)
    assert code == 0
    assert payload["layers"] == []
    assert payload["depth_used"] == 0


# Real and imaginary parts: exact and signed zeros, subnormals, and normal
# values over a wide exponent range.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e-300]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _layer_stacks(draw):
    """Equal-width layers: free rows, all-zero rows, and rows whose last entry
    sits exactly at 1e-12 * max, which the trim must drop."""
    width = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = [complex(draw(_PARTS), draw(_PARTS)) for _ in range(width)]
        kind = draw(st.sampled_from(["free", "zero", "at-threshold"]))
        if kind == "zero":
            row = [complex(draw(st.sampled_from([0.0, -0.0])), 0.0) for _ in range(width)]
        elif kind == "at-threshold" and width > 1:
            top = draw(st.floats(min_value=1.0, max_value=1e3))
            row = [complex(top, 0.0)] + [c * 1e-7 for c in row[1:-1]] + [complex(1e-12 * top, 0.0)]
        rows.append(blaschkelab.ComplexSeries(row))
    return types.SimpleNamespace(layers=tuple(rows))


@settings(max_examples=200, deadline=None)
@given(_layer_stacks())
def test_layer_rows_match_per_layer_loop(coefficients):
    assert cli._layer_rows(coefficients) == reference_layer_rows(coefficients)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_decompose_rejects_nonfinite_alpha(alpha, fmt, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--f", "1,0", "--blaschke", "zeros=0,0", f"--alpha={alpha}", "--format", fmt])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha must be finite" in captured.err


def test_bnorm_shift_ratio_one(capsys):
    code, payload = run_json(
        ["bnorm", "--f", "1,0;2,0;3,0", "--blaschke", "zeros=0,0", "--alpha", "-1"], capsys
    )
    assert code == 0
    assert payload["ratio"] == 1.0
    assert payload["b_norm"] == pytest.approx(payload["diag_norm"], abs=1e-12)
    assert payload["unsupported_regime"] is False


def test_bnorm_flags_unsupported_regime(capsys):
    code, payload = run_json(
        ["bnorm", "--f", "1,0;1,0", "--blaschke", "zeros=0,0", "--alpha", "1.5"], capsys
    )
    assert code == 0
    assert payload["unsupported_regime"] is True


# ---------------------------------------------------------------- wsp-test


def write_descriptor(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_wsp_test_affine_generator(tmp_path, capsys):
    desc = write_descriptor(
        tmp_path,
        "generators = 1,0;0.7,0\n"
        "blaschke = zeros=0,0;0,0\n"
        "ip = taylor\n"
        "alpha = -1\n"
        "N = 64\n"
        "N_compare = 40\n",
    )
    code, payload = run_json(["wsp-test", "--descriptor", desc], capsys)
    assert code == 0
    assert payload["defect"] <= 1e-9
    assert payload["dims"] == {"G": 33, "M": 33, "W": 1}
    assert payload["N"] == 64
    assert payload["N_compare"] == 40


def test_wsp_test_output_is_single_line(tmp_path, capsys):
    desc = write_descriptor(
        tmp_path,
        "generators = 1,0\nblaschke = zeros=0,0\nip = taylor\nalpha = 0\nN = 32\nN_compare = 16\n",
    )
    code, out, _ = run_cli(["wsp-test", "--descriptor", desc], capsys)
    assert code == 0
    assert out.count("\n") == 1
    assert out.endswith("}\n")


def test_wsp_test_seeded_random_generators(tmp_path, capsys):
    desc = write_descriptor(
        tmp_path,
        "generators = random:2:5\n"
        "blaschke = zeros=0,0;0,0\n"
        "ip = taylor\n"
        "alpha = -1\n"
        "N = 48\n"
        "N_compare = 24\n"
        "seed = 11\n",
    )
    code, payload = run_json(["wsp-test", "--descriptor", desc], capsys)
    assert code == 0
    assert payload["config"]["seed"] == 11
    code2, payload2 = run_json(["wsp-test", "--descriptor", desc], capsys)
    assert payload2 == payload


def test_wsp_test_max_defect_exit(tmp_path, capsys):
    desc = write_descriptor(
        tmp_path,
        "generators = 1,0;0.5,0\n"
        "blaschke = zeros=0,0;0,0\n"
        "ip = taylor\n"
        "alpha = -1\n"
        "N = 48\n"
        "N_compare = 24\n"
        "max_defect = 1e-30\n",
    )
    code, payload = run_json(["wsp-test", "--descriptor", desc], capsys)
    assert code == 2


def test_wsp_test_badic_ip(tmp_path, capsys):
    desc = write_descriptor(
        tmp_path,
        "generators = 1,0;0.5,0\n"
        "blaschke = zeros=0,0;0,0\n"
        "ip = badic\n"
        "alpha = -1\n"
        "N = 48\n"
        "N_compare = 24\n",
    )
    code, payload = run_json(["wsp-test", "--descriptor", desc], capsys)
    assert code == 0
    assert payload["defect"] <= 1e-9


def test_wsp_test_descriptor_errors(tmp_path, capsys):
    bad = write_descriptor(tmp_path, "generators = 1,0\nbogus_key = 7\n")
    assert exit_code(["wsp-test", "--descriptor", bad], capsys) == 64
    dup = write_descriptor(tmp_path, "alpha = 1\nalpha = 2\ngenerators = 1,0\n", "dup.cfg")
    assert exit_code(["wsp-test", "--descriptor", dup], capsys) == 64


# ---------------------------------------------------------------- operator-check


def test_operator_check_monomial(capsys):
    code, payload = run_json(
        ["operator-check", "--k", "2", "--alpha", "-0.5", "--N", "48"], capsys
    )
    assert code == 0
    assert payload["holds"] is True
    code, payload = run_json(
        ["operator-check", "--k", "2", "--alpha", "-1", "--N", "48"], capsys
    )
    assert code == 2
    assert payload["holds"] is False
    assert payload["min_eig"] < -1e-6


def test_operator_check_inner_function_isometry(capsys):
    # multiplication by an inner function on the plain norm is isometric
    code, payload = run_json(
        ["operator-check", "--blaschke", "zeros=0.5,0", "--alpha", "0", "--N", "24"], capsys
    )
    assert code == 0
    assert payload["min_eig"] >= -1e-9


def test_solver_failure_is_internal_error_not_usage(monkeypatch, capsys):
    # LinAlgError subclasses ValueError; it must still exit 1, not 64
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    code, out, err = run_cli(["operator-check", "--k", "2", "--alpha", "-0.5", "--N", "8"], capsys)
    assert code == cli.EXIT_FAILURE == 1
    assert out == ""
    assert "did not converge" in err


def test_operator_check_refuses_pad_beyond_limit(capsys):
    # |a| = 0.995 needs about 6900 pad degrees to keep the lost tail below 1e-15
    args = ["operator-check", "--alpha", "-0.5", "--N", "8", "--blaschke"]
    code, out, err = run_cli([*args, "zeros=0.995,0"], capsys)
    assert code == cli.EXIT_USAGE == 64
    assert out == ""
    assert "6891" in err and "4000" in err
    code, payload = run_json([*args, "zeros=0.99,0"], capsys)
    assert code in (0, 2)
    assert np.isfinite(payload["min_eig"])


def test_operator_check_requires_exactly_one_operator(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["operator-check", "--alpha", "0", "--N", "8"])
    assert exc.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["thresholds", "--k", "0"],
        ["criterion", "--alpha", "-0.5", "--k", "0"],
        ["scan", "--alpha-min", "-1", "--alpha-max", "0", "--k", "0"],
        ["operator-check", "--alpha", "-1", "--N", "8", "--k", "0"],
        ["operator-check", "--alpha", "-1", "--N", "8", "--k", "-2"],
    ],
)
def test_nonpositive_k_is_usage_error(args, capsys):
    # k = 0 would check B = 1 or scan nothing and still exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--k must be positive" in captured.err


# ---------------------------------------------------------------- plumbing


def test_output_file_and_stdout_match(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    code = cli.main(["thresholds", "--k", "2", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    cli.main(["thresholds", "--k", "2"])
    assert capsys.readouterr().out == out_file.read_text()


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(["thresholds", "--k", "2"], capsys)
    assert "0.630929753571" in out
    assert "0.63092975357145" not in out


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 64
    capsys.readouterr()


def checkout_env():
    """Environment whose PYTHONPATH starts with the imported blaschkelab.

    A subprocess then runs the code under test, however the suite was
    started, and not a copy installed elsewhere.
    """
    env = dict(os.environ)
    root = str(Path(blaschkelab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def run_console_script(args):
    """Run the ``blaschkelab`` entry point declared in pyproject.toml.

    This is what the wrapper script generated by pip does, so the check
    does not depend on a ``blaschkelab`` executable on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "blaschkelab" in scripts
    target = re.fullmatch(r"([\w.]+):(\w+)", scripts["blaschkelab"])
    assert target, scripts["blaschkelab"]
    module, attr = target.groups()
    code = f"import sys; from {module} import {attr} as f; sys.exit(f())"
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=checkout_env()
    )


def test_console_script_installed():
    proc = run_console_script(["thresholds", "--k", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["monomial_thresholds"][0]["threshold"] == 1.0


def test_module_main_matches_script():
    args = ["thresholds", "--k", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "blaschkelab", *args], capture_output=True, env=checkout_env()
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["monomial_thresholds"][0]["k"] == 1
    assert proc.stdout == run_console_script(args).stdout


def test_import_loads_no_scipy():
    code = (
        "import sys, blaschkelab, blaschkelab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"
