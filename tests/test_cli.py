import argparse
import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from relspec import cli, verify
from relspec.cli import build_parser, main
from relspec.models import OnePointModel, TwoPointModel
from relspec.quad import QuadratureSpec
from relspec.thermo import (ThermalState, one_point_log_eta_closed,
                            two_point_partition)
from relspec.zetareg import one_point_zeta_closed

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# basic tables and values
# ---------------------------------------------------------------------------

def test_spectral_measure_table(capsys):
    # e(0) = 1/(4 pi^2 alpha); (4 pi alpha)^2 underflows at alpha = 1e-300
    # and overflows at alpha = 1e200, where e read 0 at every v
    for alpha in (1.0 / (4 * math.pi), 1e-300, 1e200):
        code, out, _ = run_cli(capsys, "spectral-measure",
                               "--alpha", repr(alpha), "--v-min", "0",
                               "--v-max", "2", "--samples", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "v,e"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(
            1.0 / (4 * math.pi ** 2 * alpha), rel=1e-15, abs=0.0)


def test_spectral_measure_zero_alpha_all_zero(capsys):
    code, out, _ = run_cli(capsys, "spectral-measure", "--alpha", "0",
                           "--v-min", "0", "--v-max", "1", "--samples", "4")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_zeta_laurent_one_point(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--alpha", "0.25", "--laurent")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "residue,finite_part"
    residue, finite = (float(x) for x in lines[1].split(","))
    assert residue == 0.5
    assert finite == pytest.approx(-math.log(math.pi), rel=1e-12)


def test_zeta_laurent_two_point(capsys):
    for tolerances in ((), ("--abs-tol", "1e-12", "--rel-tol", "1e-12")):
        code, out, _ = run_cli(capsys, "zeta", "--model", "two-point",
                               "--alpha0", "1", "--alpha1", "1", "--a", "1",
                               "--laurent", *tolerances)
        assert code == 0
        residue, finite = (float(x)
                           for x in out.strip().split("\n")[1].split(","))
        assert residue == 4.0
        # 30-digit reference (scripts/derive_reference_values.py)
        assert finite == pytest.approx(-20.2491314133242184274628568759,
                                       rel=1e-10)


def test_zeta_table_value_at_zero(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--alpha", "0.25",
                           "--s-min", "-0.2", "--s-max", "0.2",
                           "--samples", "5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    middle = rows[2]
    assert float(middle[0]) == 0.0
    assert float(middle[1]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("argv", [
    # a split at v = 1 cancels 7 digits here: 0.0040908099 at s = 0.499,
    # where the closed form is 0.0040908109
    ["--alpha", "3162.2776601683795", "--s-min", "0.45", "--s-max", "0.499",
     "--samples", "3"],
    ["--alpha", "1e12"],
    ["--alpha", "1e-300", "--s-min", "0", "--s-max", "0.4", "--samples", "3"],
], ids=["large-alpha-near-half", "alpha-1e12", "alpha-1e-300"])
def test_one_point_zeta_at_coupling_corners(capsys, argv):
    code, out, err = run_cli(capsys, "zeta", *argv)
    assert (code, err) == (0, "")
    m = OnePointModel(float(argv[1]))
    rows = [[float(x) for x in line.split(",")]
            for line in out.strip().split("\n")[1:]]
    assert len(rows) == (3 if "--samples" in argv else 25)
    for s, zeta in rows:
        closed = one_point_zeta_closed(m, s)
        assert abs(zeta - closed) <= QuadratureSpec().tolerance_for(closed), s


@pytest.mark.parametrize("argv", [
    # a^2 overflows past a ~ 1.3e154, and (c0 - iva)(c1 - iva) in e(v)
    ("spectral-measure", "--alpha0", "1", "--alpha1", "1", "--a", "1e160"),
    ("heat-trace", "--alpha0", "1", "--alpha1", "1", "--a", "1e160"),
    ("zeta", "--alpha0", "1", "--alpha1", "1", "--a", "1e160"),
    ("zeta", "--alpha0", "1", "--alpha1", "1", "--a", "1e160", "--laurent"),
    ("eta", "--alpha0", "1", "--alpha1", "1", "--a", "1e160"),
    ("partition", "--alpha0", "1", "--alpha1", "1", "--a", "1e160"),
    ("casimir", "--alpha0", "1", "--alpha1", "1", "--a-max", "1e200",
     "--steps", "3"),
    # 4 pi^2 alpha0 alpha1 a^2 = 3.9e21, though a^2 alone overflows
    ("zeta", "--alpha0", "1e-200", "--alpha1", "1e-200", "--a", "1e210",
     "--laurent"),
    # (c0 - iva)(c1 - iva) overflows in e(v), w0 w1 in the heat trace's R
    ("spectral-measure", "--alpha0", "1e300", "--alpha1", "1e300",
     "--a", "1"),
    ("heat-trace", "--alpha0", "1e160", "--alpha1", "1e160", "--a", "1"),
], ids=lambda argv: " ".join(argv))
def test_two_point_at_huge_scales(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--model", "two-point",
                             "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert rows
    for row in rows:
        assert all(math.isfinite(x) for x in row if not isinstance(x, str))
    if argv[0] == "spectral-measure":
        # alpha0 = alpha1 = alpha and alpha a >= 1: e(0) = 1/(2 pi^2 alpha)
        # to 1/(4 pi alpha a) relative
        v, e0 = rows[0]
        assert v == 0.0
        assert e0 == pytest.approx(1.0 / (2.0 * math.pi ** 2
                                          * float(argv[2])),
                                   rel=1e-14, abs=0.0)


def test_heat_trace_columns_and_diff(capsys):
    code, out, _ = run_cli(capsys, "heat-trace", "--alpha", "0.25",
                           "--t-min", "0.01", "--t-max", "1",
                           "--samples", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,heat_trace,closed_form,abs_diff"
    for line in lines[1:]:
        assert float(line.split(",")[3]) < 1e-8


def test_eta_table(capsys):
    code, out, _ = run_cli(capsys, "eta", "--alpha", "0.25",
                           "--tau-min", "2", "--tau-max", "4",
                           "--samples", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau,log_eta,closed_form,abs_diff"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(-0.081061466795327258,
                                            abs=1e-9)


def test_one_point_eta_at_small_tau(capsys):
    # 2 alpha tau down to 2e-6 (and tau to 1e-17): exp(-tau v) rounds to 1
    # near v = 0, where log(1 - exp(-tau v)) must not be taken as log1p(-1)
    for argv in (("--alpha", "0.001", "--tau-min", "0.001",
                  "--tau-max", "0.01"),
                 ("--alpha", "1", "--tau-min", "1e-17",
                  "--tau-max", "1e-16")):
        code, out, err = run_cli(capsys, "eta", *argv, "--samples", "2")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 2
        assert all(float(row[3]) <= 1e-10 for row in rows)
    code, out, err = run_cli(capsys, "partition", "--alpha", "1",
                             "--beta", "1e-6")
    assert (code, err) == (0, "")
    header, values = (line.split(",") for line in out.strip().split("\n"))
    record = dict(zip(header, values))
    assert record["explicit_check"] == "pass"
    closed = one_point_log_eta_closed(OnePointModel(1.0), 1e-6)
    assert abs(float(record["eta_log"]) - closed) <= 1e-10


def test_explicit_check_is_relative_to_log_z(capsys):
    # |log Z| = 1.03e8: a 1.5e-8 gap to the closed form is one ulp
    code, out, err = run_cli(capsys, "partition", "--alpha", "1000",
                             "--beta", "5623.413251903491")
    assert (code, err) == (0, "")
    header, values = (line.split(",") for line in out.strip().split("\n"))
    assert dict(zip(header, values))["explicit_check"] == "pass"


def test_partition_record(capsys):
    code, out, _ = run_cli(capsys, "partition", "--alpha", "0.25",
                           "--beta", "5")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    values = lines[1].split(",")
    record = dict(zip(header, values))
    assert record["explicit_check"] == "pass"
    assert float(record["log_z"]) == pytest.approx(2.1278555395433,
                                                   abs=1e-8)
    assert float(record["slope_vs_evac"]) < 1e-3


def test_partition_two_point(capsys):
    code, out, _ = run_cli(capsys, "partition", "--model", "two-point",
                           "--alpha0", "1", "--alpha1", "1", "--a", "1",
                           "--beta", "5")
    assert code == 0
    header, values = (line.split(",") for line in out.strip().split("\n"))
    record = dict(zip(header, values))
    assert record["explicit_check"] == "n/a"
    assert float(record["log_z"]) == pytest.approx(44.5037210, abs=1e-5)
    # the Laurent terms are linear in beta, so the slope over [29.5, 30.5]
    # is E_vac + log eta(30.5) - log eta(29.5)
    m = TwoPointModel(1.0, 1.0, 1.0)

    def log_z(beta):
        return two_point_partition(m, ThermalState(beta)).log_z

    assert float(record["slope_beta30"]) == pytest.approx(
        -(log_z(30.5) - log_z(29.5)), rel=1e-10, abs=1e-10)


def test_casimir_sweep_skips_invalid_rows(capsys):
    code, out, err = run_cli(capsys, "casimir", "--model", "two-point",
                             "--alpha0", "1", "--alpha1", "1",
                             "--a-min", "0.05", "--a-max", "0.4",
                             "--steps", "5", "--beta", "5")
    assert code == 0
    assert "skipping" in err
    lines = out.strip().split("\n")
    assert lines[0] == "a,force,error_estimate"
    kept = [float(line.split(",")[0]) for line in lines[1:]]
    assert kept
    assert all(a > 1.0 / (2 * math.pi) for a in kept)


def test_casimir_sweep_from_constraint_edge(capsys):
    code, out, err = run_cli(capsys, "casimir", "--model", "two-point",
                             "--alpha0", "1", "--alpha1", "1",
                             "--a-min", "0.16", "--a-max", "20",
                             "--steps", "20")
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 20
    forces = [float(row[1]) for row in rows]
    assert all(f < 0.0 for f in forces)
    assert all(abs(x) > abs(y) for x, y in zip(forces, forces[1:]))


# ---------------------------------------------------------------------------
# formats, determinism, config
# ---------------------------------------------------------------------------

def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "spectral-measure", "--alpha", "0.25",
                           "--v-min", "0", "--v-max", "1", "--samples", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["v", "e"]
    assert len(payload["rows"]) == 3
    assert payload["meta"]["model"] == "one-point(alpha=0.25)"


def test_byte_identical_output(tmp_path, capsys):
    args = ["heat-trace", "--alpha", "0.3", "--t-min", "0.01",
            "--t-max", "10", "--samples", "7", "--log-spacing"]
    out1 = tmp_path / "first.csv"
    out2 = tmp_path / "second.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")


def test_removed_flags_are_rejected(capsys):
    # --jobs and --step are gone; --step must not pass for --steps either
    cases = (
        (["spectral-measure", "--model", "two-point", "--alpha0", "1",
          "--alpha1", "1", "--a", "1", "--v-min", "0", "--v-max", "20",
          "--samples", "40"], ["--jobs", "4"]),
        (["casimir", "--model", "two-point", "--alpha0", "1",
          "--alpha1", "1", "--a-min", "1", "--a-max", "3", "--steps", "3"],
         ["--step", "1"]),
    )
    for base, removed in cases:
        code, _, err = run_cli(capsys, *base)
        assert code == 0 and err == ""
        with pytest.raises(SystemExit) as exc:
            main(base + removed)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(removed)}" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0.25, "v_max": 2.0, "samples": 3}))
    code, out, _ = run_cli(capsys, "spectral-measure",
                           "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 4  # header + 3 rows from config
    code, out, _ = run_cli(capsys, "spectral-measure", "--config", str(cfg),
                           "--samples", "5")
    assert code == 0
    assert len(out.strip().split("\n")) == 6  # flag overrides config


def test_config_file_invalid(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "spectral-measure", "--alpha", "1",
                           "--config", str(cfg))
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize("command, values", [
    ("spectral-measure", {"alpha": "0.25"}),
    ("spectral-measure", {"alpha": True}),
    ("spectral-measure", {"alpha": None}),
    ("spectral-measure", {"alpha": 0.25, "samples": 2.7}),
    ("spectral-measure", {"alpha": 0.25, "format": 1}),
    ("spectral-measure", {"alpha": 0.25, "format": "xml"}),
    ("heat-trace", {"alpha": 0.25, "log_spacing": "no"}),
    ("zeta", {"alpha": 0.25, "laurent": 1}),
    ("casimir", {"model": "two-point", "alpha0": 1, "alpha1": 1,
                 "steps": 4.0}),
    # keys that are no command's flag
    ("spectral-measure", {"alpha": 1, "abstol": 1e-12}),
    ("spectral-measure", {"alpha": 1, "command": "zeta"}),
])
def test_config_value_of_wrong_type(tmp_path, capsys, command, values):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: config key") and err.count("\n") == 1
    assert repr(list(values)[-1]) in err


def test_config_does_not_leak_into_a_later_call(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0.25, "samples": 3,
                               "format": "json"}))
    code, out, _ = run_cli(capsys, "spectral-measure", "--config", str(cfg))
    assert code == 0 and len(json.loads(out)["rows"]) == 3
    code, out, _ = run_cli(capsys, "spectral-measure", "--alpha", "0.25")
    assert code == 0
    assert len(out.strip().split("\n")) == 26  # header + default 25 rows


# every flag's default, kept apart from the parser so that a changed
# default fails here
_EXPECTED_DEFAULTS = {
    "model": "one-point",
    "beta": 1.0,
    "ell": 1.0,
    "format": "csv",
    "v_min": 0.0, "v_max": 10.0,
    "t_min": 1e-3, "t_max": 10.0,
    "s_min": -0.45, "s_max": 0.45,
    "tau_min": 0.5, "tau_max": 5.0,
    "samples": 25,
    "a_min": 1.0, "a_max": 10.0, "steps": 10,
    "log_spacing": False,
    "laurent": False,
    "inject_failure": False,
}
_COMMON_KEYS = ("model", "alpha", "alpha0", "alpha1", "a", "beta", "ell",
                "format", "out", "abs_tol", "rel_tol", "config")
_OWN_KEYS = {
    "spectral-measure": ("v_min", "v_max", "samples"),
    "heat-trace": ("t_min", "t_max", "samples", "log_spacing"),
    "zeta": ("s_min", "s_max", "samples", "laurent"),
    "eta": ("tau_min", "tau_max", "samples"),
    "partition": (),
    "casimir": ("a_min", "a_max", "steps"),
    "verify": ("inject_failure",),
}


@pytest.mark.parametrize("command", sorted(_OWN_KEYS))
def test_parsed_defaults_of_every_command(command):
    expected = {key: _EXPECTED_DEFAULTS.get(key)
                for key in _COMMON_KEYS + _OWN_KEYS[command]}
    for parser in (build_parser(), build_parser(command)):
        parsed = vars(parser.parse_args([command]))
        assert parsed == {"command": command, **expected}


# ---------------------------------------------------------------------------
# a run builds only its own subcommand's flags
# ---------------------------------------------------------------------------

_SWEEP = ["casimir", "--model", "two-point", "--alpha0", "1", "--alpha1",
          "1", "--a-min", "0.2", "--a-max", "2", "--steps", "3"]
# help, usage errors and one run of each command
_SEEN_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["casimir", "-h"], ["zeta", "--help"],
    ["verify", "-h"], ["foo"], ["-1"], ["--", "casimir"], ["-x", "casimir"],
    ["casimir", "--he"], _SWEEP + ["--bogus"], ["zeta", "--step", "3"],
    ["eta", "--alpha", "1", "--samples", "2.5"],
    ["eta", "--model", "three-point"],
    ["spectral-measure", "--alpha", "0.25", "--samples", "3"],
    ["heat-trace", "--alpha", "0.25", "--samples", "3", "--log-spacing"],
    ["zeta", "--alpha", "0.25", "--samples", "3"],
    ["eta", "--model", "two-point", "--alpha0", "1", "--alpha1", "1",
     "--a", "1", "--samples", "3"],
    ["partition", "--alpha", "0.3", "--beta", "2"],
    _SWEEP,
    ["verify"],
]


def run_seen(capsys, argv):
    """(exit code, stdout, stderr) of main, help and usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _SEEN_ARGVS,
                         ids=lambda argv: " ".join(argv) or "no-args")
def test_per_command_parser_changes_nothing_seen(monkeypatch, capsys, argv):
    seen = run_seen(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run_seen(capsys, argv) == seen


@pytest.mark.parametrize("argv, own_flags",
                         [(_SWEEP, 15), (["verify"], 13)],
                         ids=["casimir", "verify"])
def test_a_run_builds_only_its_own_flags(monkeypatch, capsys, argv,
                                         own_flags):
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    assert main(argv) == 0
    capsys.readouterr()
    # 8 -h actions: the top-level parser's and one per subcommand's
    assert len(calls) == 8 + own_flags


def test_parser_is_freed_by_a_young_collection(capsys):
    # with a collection at every allocation, a parser alive during one
    # would reach the oldest generation and survive gc.collect(1)
    gc.collect()
    thresholds = gc.get_threshold()
    gc.set_threshold(1, 1, 10**9)
    try:
        assert main(_SWEEP) == 0
    finally:
        gc.set_threshold(*thresholds)
    capsys.readouterr()
    gc.collect(1)
    assert [o for o in gc.get_objects()
            if isinstance(o, argparse.ArgumentParser)
            and o.prog.startswith("relspec")] == []
    assert gc.isenabled()
    gc.disable()  # a caller's disabled collector stays disabled
    try:
        assert main(_SWEEP) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()


def test_console_entry_point_reads_sys_argv(monkeypatch, capsys):
    expected = run_cli(capsys, *_SWEEP)
    assert expected[0] == 0
    monkeypatch.setattr(sys, "argv", ["relspec"] + _SWEEP)
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    run = subprocess.run([sys.executable, "-m", "relspec.cli", *_SWEEP],
                         cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == expected


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

def test_exit_2_on_invalid_alpha(capsys):
    code, _, err = run_cli(capsys, "spectral-measure", "--alpha", "-1")
    assert code == 2
    assert err.startswith("error:")


def test_exit_2_on_missing_parameters(capsys):
    code, _, err = run_cli(capsys, "spectral-measure")
    assert code == 2
    assert "--alpha" in err


def test_exit_2_on_bound_state_regime(capsys):
    for couplings in (("--alpha0", "0.01", "--alpha1", "0.01", "--a", "1"),
                      # 4 pi^2 alpha0 alpha1 a^2 = 3.9e-99; formed left to
                      # right, 4 pi^2 alpha0 alpha1 overflows, a^2
                      # underflows, and no comparison rejects their nan
                      ("--alpha0", "1e200", "--alpha1", "1e200",
                       "--a", "1e-250")):
        code, _, err = run_cli(capsys, "zeta", "--model", "two-point",
                               *couplings, "--laurent")
        assert code == 2
        assert "bound-state" in err


def test_exit_2_outside_strip(capsys):
    code, _, err = run_cli(capsys, "zeta", "--alpha", "0.25",
                           "--s-min", "-0.6", "--s-max", "0.0",
                           "--samples", "3")
    assert code == 2
    assert "strip" in err


_CASIMIR = ("casimir", "--model", "two-point", "--alpha0", "1",
            "--alpha1", "1")


@pytest.mark.parametrize("argv", [
    _CASIMIR + ("--abs-tol", "0"),
    ("heat-trace", "--alpha", "1", "--rel-tol", "-1"),
    ("heat-trace", "--alpha", "1", "--t-min", "0"),
    ("heat-trace", "--alpha", "1", "--t-min", "-1", "--t-max", "1"),
    ("eta", "--alpha", "1", "--tau-min", "0"),
    ("heat-trace", "--alpha", "1", "--t-max", "inf"),
    ("eta", "--alpha", "1", "--tau-max", "inf"),
    _CASIMIR + ("--a-min", "1", "--a-max", "inf"),
    ("heat-trace", "--alpha", "1", "--abs-tol", "inf"),
    ("heat-trace", "--alpha", "1", "--rel-tol", "inf"),
    ("heat-trace", "--alpha", "1", "--abs-tol", "1e300", "--rel-tol",
     "1e300", "--samples", "3"),
    ("heat-trace", "--alpha", "1", "--abs-tol", "2e-3"),
    ("zeta", "--alpha", "1", "--rel-tol", "1e300"),
    _CASIMIR + ("--steps", "0"),
    _CASIMIR + ("--steps", "1"),
])
def test_exit_2_on_bad_numeric_flags(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


_TWO = ("--model", "two-point", "--alpha0", "0.3", "--alpha1", "3",
        "--a", "0.5")


def test_two_point_commands_converge_at_corners(capsys):
    # tight tolerances, t = 1e-8 and tau past 1e5 Matsubara terms
    for argv in (("zeta",), ("zeta", "--laurent"),
                 ("zeta", "--laurent", "--abs-tol", "1e-12",
                  "--rel-tol", "1e-12"),
                 ("eta",), ("partition", "--beta", "5"),
                 ("heat-trace", "--t-min", "1e-8", "--log-spacing"),
                 # past 1e5 Matsubara terms: the real-axis log_eta
                 ("eta", "--tau-min", "2e4", "--tau-max", "3e4")):
        code, out, err = run_cli(capsys, *argv, *_TWO)
        assert (code, err) == (0, ""), argv
        assert out.count("\n") >= 2


def test_two_point_eta_near_float_maximum(capsys):
    # 20/step overflows there, so the step count must not be taken first
    code, out, err = run_cli(capsys, "eta", *_TWO, "--tau-min", "1e307",
                             "--tau-max", "1.7e308", "--samples", "2")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 2
    assert all(math.isfinite(float(row[1])) for row in rows)


@pytest.mark.parametrize("alpha0, alpha1, a", [
    ("1", "1", "1"),
    # 4 pi^2 alpha0 alpha1 a^2 = 1.003, just inside the constraint edge
    ("1", "1", repr(math.sqrt(1.003) / (2 * math.pi))),
    ("8.68", "17.9", "8.75"),
])
def test_two_point_heat_trace_down_to_small_t(capsys, alpha0, alpha1, a):
    code, out, err = run_cli(capsys, "heat-trace", "--model", "two-point",
                             "--alpha0", alpha0, "--alpha1", alpha1,
                             "--a", a, "--t-min", "1e-8", "--t-max", "10",
                             "--log-spacing")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 25
    values = [float(k) for _, k in rows]
    # on these models the trace falls monotonically in t, from below 1
    assert all(1.0 > x > y > 0.0 for x, y in zip(values, values[1:]))


def test_exit_2_on_out_path_that_cannot_be_opened(tmp_path, capsys):
    code, out, err = run_cli(capsys, "spectral-measure", "--alpha", "1",
                             "--samples", "2",
                             "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out") and \
        err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("zeta", "--alpha", "0", "--laurent"), "alpha = 0 is degenerate"),
    # 4 pi^2 alpha0 alpha1 a^2 == 1 exactly in floating point
    (("zeta", "--model", "two-point", "--alpha0", "1",
      "--alpha1", repr(1 / (4 * math.pi ** 2)), "--a", "1", "--laurent"),
     "at the constraint boundary"),
])
def test_library_warning_is_one_line_on_every_call(capsys, argv, message):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    code, out, err = first
    assert code == 0 and out.count("\n") == 2
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert message in err


def test_exit_3_on_non_convergence(capsys):
    code, _, err = run_cli(capsys, "heat-trace", "--alpha", "0.25",
                           "--t-min", "0.5", "--t-max", "1", "--samples",
                           "2", "--abs-tol", "1e-300", "--rel-tol", "1e-300")
    assert code == 3
    assert "converge" in err


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

def test_verify_green(capsys, tmp_path):
    out_file = tmp_path / "summary.json"
    code = main(["verify", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAIL" not in captured.out
    assert "sum_rule" in captured.out
    assert "0.5" in captured.out  # the sum-rule value is reported
    summary = json.loads(out_file.read_text())
    assert summary["all_passed"] is True


def test_verify_compares_the_two_point_heat_trace_routes():
    assert verify.check_two_point_heat_trace_two_routes in verify.ALL_CHECKS
    result = verify.check_two_point_heat_trace_two_routes()
    assert result.name == "two_point_heat_trace_two_routes"
    assert result.passed and result.tolerance == 1e-9


def test_readme_states_the_verify_check_count():
    assert f"runs {len(verify.ALL_CHECKS)} checks" in _README


def test_verify_injected_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inject-failure")
    assert code != 0
    assert "FAIL injected_failure" in out


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

_README = (ROOT / "README.md").read_text(encoding="utf-8")
_README_CLI = _README.split("## CLI", 1)[1].split("\n## ", 1)[0]
_README_COMMANDS = [line.split()[1:]
                    for line in _README_CLI.split("```")[1].splitlines()
                    if line.startswith("relspec ")]
_README_CONFIG = re.search(r"`(\{.*?\})`", _README_CLI).group(1)


def test_readme_cli_block_is_found():
    assert len(_README_COMMANDS) == 8
    assert json.loads(_README_CONFIG) == {"alpha": 0.25, "v_max": 2.0}


@pytest.mark.parametrize("argv", _README_COMMANDS + [["config"]],
                         ids=lambda argv: " ".join(argv[:2]))
def test_readme_cli_commands_run(tmp_path, capsys, argv):
    if argv == ["config"]:
        # v_max is a spectral-measure flag, ignored by heat-trace
        cfg = tmp_path / "run.json"
        cfg.write_text(_README_CONFIG)
        argv = ["heat-trace", "--config", str(cfg)]
    out_file = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert err == ""
    if argv[0] == "verify":  # PASS lines on stdout, JSON summary in --out
        assert out.startswith("PASS ")
        assert json.loads(out_file.read_text())["all_passed"] is True
        return
    lines = out_file.read_text().splitlines()
    assert len(lines) >= 2 and "," in lines[0]
