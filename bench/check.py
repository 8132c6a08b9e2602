"""Check one op's CLI output against the oracles.

check(argv, exit_code, stdout) returns a Verdict: whether the op passed,
how many result rows it asked for, printed and got right, and why it
failed.  An op fails when it exits non-zero or when any row is outside its
tolerance; rows an op did not print count as wrong.  A verdict is
`malformed` when the output could not be checked at all (an exit code the
CLI contract does not define, a wrong header, a wrong row count, a grid
point that is not the requested one); that is a defect of the output
format, not a numerical miss.

Tolerances are those of the acceptance suite, scaled by max(1, |value|):
heat traces and log eta 1e-8, zeta 1e-7, Laurent and partition data 1e-8.
A Casimir force row fails when the oracle lies outside its printed
error_estimate.
"""

import json
import math
from dataclasses import dataclass

import oracles

HEAT_TOL = 1e-8
ETA_TOL = 1e-8
ZETA_TOL = 1e-7
LAURENT_TOL = 1e-8


@dataclass(frozen=True)
class Verdict:
    passed: bool
    expected: int
    rows: int = 0
    good_rows: int = 0
    reason: str = ""
    malformed: bool = False


class _Malformed(Exception):
    pass


def flags(argv):
    """Flag values of an argv as a dict; store_const flags map to True."""
    out = {"command": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _close(value, reference, tol):
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def _grid(lo, hi, n, log=False):
    if log:
        la, lb = math.log(lo), math.log(hi)
        return [math.exp(la + i * (lb - la) / (n - 1)) for i in range(n)]
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _table(stdout, columns):
    lines = stdout.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(columns):
        raise _Malformed(f"header {lines[0]!r}")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise _Malformed(f"row {line!r}")
        rows.append(cells)
    return rows


def _floats(row, skip=()):
    try:
        return [c if i in skip else float(c) for i, c in enumerate(row)]
    except ValueError as exc:
        raise _Malformed(str(exc)) from exc


def _grid_rows(stdout, columns, lo, hi, n, log=False):
    rows = [_floats(r) for r in _table(stdout, columns)]
    expected = _grid(lo, hi, n, log)
    if len(rows) != n:
        raise _Malformed(f"{len(rows)} rows, expected {n}")
    for row, x in zip(rows, expected):
        if not _close(row[0], x, 1e-12):
            raise _Malformed(f"grid point {row[0]!r}, expected {x!r}")
    return rows


def _model(f):
    if f.get("model") == "two-point":
        return (float(f["alpha0"]), float(f["alpha1"]), float(f["a"]))
    return (float(f["alpha"]),)


# misses are (row index, description) pairs

def _misses(rows, reference, column, tol):
    return [(i, f"{column} {row[column]!r} vs {reference(row[0])!r}")
            for i, row in enumerate(rows)
            if not _close(row[column], reference(row[0]), tol)]


def _closed_form_misses(rows, reference, tol):
    """One-point tables print value, closed form and their difference."""
    out = _misses(rows, reference, 1, tol) + _misses(rows, reference, 2, tol)
    for i, row in enumerate(rows):
        if abs(row[3] - abs(row[1] - row[2])) > 1e-15 * max(1.0, abs(row[1])):
            out.append((i, f"abs_diff {row[3]!r}"))
    return out


def _check_heat(f, stdout, params):
    lo, hi, n = float(f["t_min"]), float(f["t_max"]), int(f["samples"])
    if len(params) == 1:
        ref = lambda t: oracles.one_heat(params[0], t)
        rows = _grid_rows(stdout, ("t", "heat_trace", "closed_form",
                                   "abs_diff"), lo, hi, n, log=True)
        return rows, _closed_form_misses(rows, ref, HEAT_TOL)
    ref = lambda t: oracles.two_heat(*params, t)
    rows = _grid_rows(stdout, ("t", "heat_trace"), lo, hi, n, log=True)
    return rows, _misses(rows, ref, 1, HEAT_TOL)


def _check_zeta(f, stdout, params):
    if f.get("laurent"):
        rows = [_floats(r) for r in _table(stdout, ("residue",
                                                    "finite_part"))]
        if len(rows) != 1:
            raise _Malformed(f"{len(rows)} Laurent rows")
        residue, finite = _laurent(params)
        misses = []
        if not _close(rows[0][0], residue, LAURENT_TOL):
            misses.append((0, f"residue {rows[0][0]!r} vs {residue!r}"))
        if not _close(rows[0][1], finite, LAURENT_TOL):
            misses.append((0, f"finite_part {rows[0][1]!r} vs {finite!r}"))
        return rows, misses
    lo, hi, n = float(f["s_min"]), float(f["s_max"]), int(f["samples"])
    rows = _grid_rows(stdout, ("s", "zeta"), lo, hi, n)
    if len(params) == 1:
        ref = lambda s: oracles.one_zeta(params[0], s)
    else:
        ref = lambda s: oracles.two_zeta(*params, s)
    return rows, _misses(rows, ref, 1, ZETA_TOL)


def _check_eta(f, stdout, params):
    lo, hi, n = float(f["tau_min"]), float(f["tau_max"]), int(f["samples"])
    if len(params) == 1:
        ref = lambda tau: oracles.one_log_eta(params[0], tau)
        rows = _grid_rows(stdout, ("tau", "log_eta", "closed_form",
                                   "abs_diff"), lo, hi, n)
        return rows, _closed_form_misses(rows, ref, ETA_TOL)
    ref = lambda tau: oracles.two_log_eta(*params, tau)
    rows = _grid_rows(stdout, ("tau", "log_eta"), lo, hi, n)
    return rows, _misses(rows, ref, 1, ETA_TOL)


def _laurent(params):
    if len(params) == 1:
        return 2.0 * params[0], oracles.one_finite_part(params[0])
    return 2.0 * (params[0] + params[1]), oracles.two_finite_part(*params)


def _log_eta(params, beta):
    if len(params) == 1:
        return oracles.one_log_eta(params[0], beta)
    return oracles.two_log_eta(*params, beta)


_PARTITION_COLUMNS = ("model", "beta", "ell", "log_z", "vacuum_energy",
                      "eta_log", "residue", "finite_part", "explicit_check",
                      "slope_beta30", "slope_vs_evac")


def _check_partition(f, stdout, params):
    rows = [_floats(r, skip=(0, 8))
            for r in _table(stdout, _PARTITION_COLUMNS)]
    if len(rows) != 1:
        raise _Malformed(f"{len(rows)} partition rows")
    row = dict(zip(_PARTITION_COLUMNS, rows[0]))
    beta, ell = float(f["beta"]), float(f["ell"])
    if row["beta"] != beta or row["ell"] != ell:
        raise _Malformed(f"beta/ell {row['beta']!r}/{row['ell']!r}")
    residue, finite = _laurent(params)
    scale = math.log(2.0 * ell) - 1.0

    def log_z(b):
        return b * scale * residue - 0.5 * b * finite - _log_eta(params, b)

    evac = -scale * residue + 0.5 * finite
    slope = -(log_z(30.5) - log_z(29.5))
    reference = {
        "log_z": log_z(beta), "vacuum_energy": evac,
        "eta_log": _log_eta(params, beta), "residue": residue,
        "finite_part": finite, "slope_beta30": slope,
    }
    misses = [(0, f"{k} {row[k]!r} vs {v!r}") for k, v in reference.items()
              if not _close(row[k], v, LAURENT_TOL)]
    # a difference of two printed values: its tolerance is theirs
    if abs(row["slope_vs_evac"] - abs(slope - evac)) > LAURENT_TOL * max(
            1.0, abs(slope), abs(evac)):
        misses.append((0, f"slope_vs_evac {row['slope_vs_evac']!r}"))
    expected = "pass" if len(params) == 1 else "n/a"
    if row["explicit_check"] != expected:
        misses.append((0, f"explicit_check {row['explicit_check']!r}"))
    return rows, misses


def _check_casimir(f, stdout, params):
    alpha0, alpha1 = float(f["alpha0"]), float(f["alpha1"])
    rows = _grid_rows(stdout, ("a", "force", "error_estimate"),
                      float(f["a_min"]), float(f["a_max"]), int(f["steps"]))
    misses = []
    for i, (a, force, err) in enumerate(rows):
        ref = oracles.casimir_force(alpha0, alpha1, a)
        if not abs(force - ref) <= err:
            misses.append(
                (i, f"force at a={a!r}: {force!r} +- {err!r} vs {ref!r}"))
    return rows, misses


def _check_verify(f, stdout, params):
    lines = stdout.split("\n")
    if lines[-1] != "":
        raise _Malformed("no final newline")
    try:
        summary = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError) as exc:
        raise _Malformed(f"summary: {exc}") from exc
    checks = summary.get("checks", [])
    if len(checks) != len(lines) - 2:
        raise _Malformed("check lines and summary disagree")
    misses = [(i, f"{c['name']}: {c['detail']}")
              for i, c in enumerate(checks)
              if not c["passed"] or not abs(c["value"]) <= c["tolerance"]]
    if summary.get("all_passed") is not (not misses):
        raise _Malformed("all_passed disagrees with the checks")
    return checks, misses


_CHECKERS = {
    "heat-trace": _check_heat,
    "zeta": _check_zeta,
    "eta": _check_eta,
    "partition": _check_partition,
    "casimir": _check_casimir,
    "verify": _check_verify,
}


def expected_rows(f):
    """Rows a successful op prints; verify's count is known only from its
    output, so a verify op that printed nothing counts as one row."""
    command = f["command"]
    if command == "casimir":
        return int(f["steps"])
    if command in ("heat-trace", "eta") or (command == "zeta"
                                             and not f.get("laurent")):
        return int(f["samples"])
    return 1


def check(argv, exit_code, stdout):
    """Verdict for one op; exit_code is None when main raised."""
    f = flags(argv)
    command = f["command"]
    expected = expected_rows(f)
    if exit_code == 3:
        return Verdict(False, expected,
                       reason="exit 3 (quadrature non-convergence)")
    # 0 is success; 1 is a failed verify check; anything else (2 means the
    # generator made invalid input) is outside the contract
    if exit_code not in (0, 1) or (exit_code == 1 and command != "verify"):
        return Verdict(False, expected, reason=f"exit {exit_code}",
                       malformed=True)
    try:
        params = () if command in ("casimir", "verify") else _model(f)
        rows, misses = _CHECKERS[command](f, stdout, params)
    except _Malformed as exc:
        return Verdict(False, expected, reason=f"malformed output: {exc}",
                       malformed=True)
    if command == "verify":
        expected = len(rows)
    good = len(rows) - len({i for i, _ in misses})
    if exit_code == 1 and not misses:
        return Verdict(False, expected, len(rows), good,
                       "exit 1 without a failed check", malformed=True)
    return Verdict(not misses, expected, len(rows), good,
                   "; ".join(text for _, text in misses))
