"""Command-line front end.

Subcommands: spectral-measure, heat-trace, zeta, eta, partition, casimir,
verify.  Each emits a CSV table (default) or a JSON mirror of the same
fields, to stdout or --out.  Floats are printed with 17 significant digits
and '\\n' line endings, so identical configurations produce byte-identical
output.

Exit codes: 0 success, 2 invalid parameters or configuration, 3 numerical
non-convergence.

Flag values override config-file values (--config, a flat JSON object keyed
by flag names with underscores), which override built-in defaults.  A
config value must have its flag's JSON type: a number for numeric flags, an
integer for --samples and --steps, a boolean for switches and a string
otherwise.
Flags must be spelled out in full: an abbreviation such as --step is not
taken for --steps.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from .models import (BoundStateRegimeError, OnePointModel, TwoPointModel,
                     spectral_measure)
from .quad import TIGHT, NonConvergenceError, QuadratureSpec
from .thermo import (ThermalState, casimir_force, log_eta,
                     one_point_log_eta_closed, one_point_log_z_closed,
                     one_point_partition, two_point_log_eta,
                     two_point_partition)
from .verify import run_all
from .zetareg import (ContinuationRequiredError, ZetaPoleError,
                      one_point_heat_trace_closed, one_point_laurent,
                      relative_heat_trace, relative_zeta_in_strip,
                      two_point_laurent)


class CliValidationError(ValueError):
    """Bad parameters or configuration; maps to exit code 2."""


_DEFAULTS = {
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


@dataclass
class RunConfig:
    """Resolved options for one CLI invocation."""

    command: str
    model: str = "one-point"
    alpha: Optional[float] = None
    alpha0: Optional[float] = None
    alpha1: Optional[float] = None
    a: Optional[float] = None
    beta: float = 1.0
    ell: float = 1.0
    format: str = "csv"
    out: Optional[str] = None
    abs_tol: Optional[float] = None
    rel_tol: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def quadrature_spec(self):
        if self.abs_tol is None and self.rel_tol is None:
            return None
        abs_tol = TIGHT.abs_tol if self.abs_tol is None else self.abs_tol
        rel_tol = TIGHT.rel_tol if self.rel_tol is None else self.rel_tol
        try:
            return QuadratureSpec(abs_tol=abs_tol, rel_tol=rel_tol)
        except ValueError as exc:
            raise CliValidationError(str(exc)) from exc

    def build_model(self):
        if self.model == "one-point":
            if self.alpha is None:
                raise CliValidationError(
                    "one-point model requires --alpha")
            try:
                return OnePointModel(self.alpha)
            except ValueError as exc:
                raise CliValidationError(str(exc)) from exc
        if self.model == "two-point":
            missing = [n for n, v in (("--alpha0", self.alpha0),
                                      ("--alpha1", self.alpha1),
                                      ("--a", self.a)) if v is None]
            if missing:
                raise CliValidationError(
                    f"two-point model requires {' '.join(missing)}")
            try:
                return TwoPointModel(self.alpha0, self.alpha1, self.a)
            except ValueError as exc:
                raise CliValidationError(str(exc)) from exc
        raise CliValidationError(f"unknown model kind {self.model!r}")

    def thermal_state(self):
        try:
            return ThermalState(self.beta, self.ell)
        except ValueError as exc:
            raise CliValidationError(str(exc)) from exc


def _add_common(sub):
    sub.add_argument("--model", choices=("one-point", "two-point"))
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--alpha0", type=float)
    sub.add_argument("--alpha1", type=float)
    sub.add_argument("--a", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--ell", type=float)
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--out")
    sub.add_argument("--abs-tol", type=float)
    sub.add_argument("--rel-tol", type=float)
    sub.add_argument("--config")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relspec",
        description="Relative spectral functions and zeta-regularized "
                    "thermodynamics for point interactions.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        sub = subs.add_parser(name, help=summary, allow_abbrev=False)
        _add_common(sub)
        return sub

    p = command("spectral-measure",
                "tabulate the relative spectral measure e(v)")
    p.add_argument("--v-min", type=float)
    p.add_argument("--v-max", type=float)
    p.add_argument("--samples", type=int)

    p = command("heat-trace", "tabulate the relative heat trace")
    p.add_argument("--t-min", type=float)
    p.add_argument("--t-max", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--log-spacing", action="store_const", const=True)

    p = command("zeta", "tabulate the relative zeta function or emit its "
                        "Laurent data at s = -1/2")
    p.add_argument("--s-min", type=float)
    p.add_argument("--s-max", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--laurent", action="store_const", const=True)

    p = command("eta", "tabulate the relative eta logarithm")
    p.add_argument("--tau-min", type=float)
    p.add_argument("--tau-max", type=float)
    p.add_argument("--samples", type=int)

    command("partition", "partition function and vacuum energy")

    p = command("casimir", "sweep the Casimir force over the separation of "
                           "a two-point model")
    p.add_argument("--a-min", type=float)
    p.add_argument("--a-max", type=float)
    p.add_argument("--steps", type=int)

    p = command("verify", "run the internal consistency suite")
    p.add_argument("--inject-failure", action="store_const", const=True,
                   help=argparse.SUPPRESS)
    return parser


def _check_config_value(key, value, action):
    """Raise unless a config value has the JSON type of its flag's action."""
    if action.type is float:
        kind, types = "a number", (int, float)
    elif action.type is int:
        kind, types = "an integer", (int,)
    elif action.const is True:
        kind, types = "a boolean", (bool,)
    else:
        kind, types = "a string", (str,)
    # bool is an int subtype, so booleans are told apart explicitly
    if (isinstance(value, bool) != (types == (bool,))
            or not isinstance(value, types)):
        raise CliValidationError(
            f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise CliValidationError(
            f"config key {key!r} must be one of "
            f"{', '.join(action.choices)}, got {json.dumps(value)}")


def resolve_config(args, parser) -> RunConfig:
    """Merge flags over config-file values over defaults."""
    values = vars(args).copy()
    command = values.pop("command")
    values.pop("config", None)
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliValidationError(f"cannot read config file: {exc}")
        if not isinstance(file_values, dict):
            raise CliValidationError("config file must hold a JSON object")
        subs = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in subs.choices[command]._actions}
        for key, value in file_values.items():
            if key in values:
                _check_config_value(key, value, actions[key])

    def pick(key):
        if values.get(key) is not None:
            return values[key]
        if key in file_values:
            return file_values[key]
        return _DEFAULTS.get(key)

    core = {k: pick(k) for k in ("model", "alpha", "alpha0", "alpha1", "a",
                                 "beta", "ell", "format", "out",
                                 "abs_tol", "rel_tol")}
    extra_keys = set(values) - set(core) | {
        k for k in _DEFAULTS if k not in core}
    extra = {k: pick(k) for k in sorted(extra_keys) if pick(k) is not None}
    return RunConfig(command=command, extra=extra, **core)


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv_cell(x):
    text = _fmt(x)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit(cfg: RunConfig, columns, rows, meta=None):
    if cfg.format == "json":
        payload = {"columns": list(columns),
                   "rows": [list(r) for r in rows],
                   "meta": meta or {}}
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_csv_cell(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(cfg, text)


def _write(cfg: RunConfig, text):
    """Write text to --out, or to stdout without it."""
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(lo, hi, n, logspace=False):
    if n < 2:
        raise CliValidationError("samples must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliValidationError(f"grid bounds must be finite, got {lo!r} "
                                 f"and {hi!r}")
    if logspace:
        la, lb = math.log(lo), math.log(hi)
        return [math.exp(la + i * (lb - la) / (n - 1)) for i in range(n)]
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _positive_bounds(cfg: RunConfig, name):
    """The --<name>-min/--<name>-max pair, both required to be > 0."""
    lo, hi = cfg.extra[name + "_min"], cfg.extra[name + "_max"]
    if not (lo > 0 and hi > 0):
        raise CliValidationError(f"need {name}-min > 0 and {name}-max > 0")
    return lo, hi


def cmd_spectral_measure(cfg: RunConfig):
    model = cfg.build_model()
    v_min = cfg.extra["v_min"]
    v_max = cfg.extra["v_max"]
    samples = cfg.extra["samples"]
    if not (0 <= v_min < v_max):
        raise CliValidationError("need 0 <= v-min < v-max")
    e = spectral_measure(model)
    grid = _grid(v_min, v_max, samples)
    rows = [(v, e.eval(v)) for v in grid]
    emit(cfg, ("v", "e"), rows, meta={"model": model.describe()})
    return 0


def cmd_heat_trace(cfg: RunConfig):
    model = cfg.build_model()
    spec = cfg.quadrature_spec()
    t_min, t_max = _positive_bounds(cfg, "t")
    grid = _grid(t_min, t_max, cfg.extra["samples"],
                 logspace=bool(cfg.extra.get("log_spacing")))
    e = spectral_measure(model)
    if isinstance(model, OnePointModel):
        def row(t):
            q = relative_heat_trace(e, t, spec)
            c = one_point_heat_trace_closed(model, t)
            return (t, q, c, abs(q - c))
        columns = ("t", "heat_trace", "closed_form", "abs_diff")
    else:
        def row(t):
            return (t, relative_heat_trace(e, t, spec))
        columns = ("t", "heat_trace")
    rows = [row(t) for t in grid]
    emit(cfg, columns, rows, meta={"model": model.describe()})
    return 0


def cmd_zeta(cfg: RunConfig):
    model = cfg.build_model()
    spec = cfg.quadrature_spec()
    if cfg.extra.get("laurent"):
        if isinstance(model, OnePointModel):
            lau = one_point_laurent(model)
        else:
            lau = two_point_laurent(model, spec)
        emit(cfg, ("residue", "finite_part"),
             [(lau.residue, lau.finite_part)],
             meta={"model": model.describe(), "expansion_point": -0.5})
        return 0
    e = spectral_measure(model)
    grid = _grid(cfg.extra["s_min"], cfg.extra["s_max"], cfg.extra["samples"])
    rows = [(s, relative_zeta_in_strip(e, s, spec)) for s in grid]
    emit(cfg, ("s", "zeta"), rows, meta={"model": model.describe()})
    return 0


def _log_eta_of(model, spec):
    """tau -> log eta: the quadrature for one point, the Matsubara sum for
    two points."""
    if isinstance(model, OnePointModel):
        e = spectral_measure(model)
        return lambda tau: log_eta(e, tau, spec)
    return lambda tau: two_point_log_eta(model, tau, spec)


def cmd_eta(cfg: RunConfig):
    model = cfg.build_model()
    spec = cfg.quadrature_spec()
    eta = _log_eta_of(model, spec)
    tau_min, tau_max = _positive_bounds(cfg, "tau")
    grid = _grid(tau_min, tau_max, cfg.extra["samples"])
    if isinstance(model, OnePointModel) and model.alpha > 0:
        def row(tau):
            q = eta(tau)
            c = one_point_log_eta_closed(model, tau)
            return (tau, q, c, abs(q - c))
        columns = ("tau", "log_eta", "closed_form", "abs_diff")
    else:
        def row(tau):
            return (tau, eta(tau))
        columns = ("tau", "log_eta")
    rows = [row(tau) for tau in grid]
    emit(cfg, columns, rows, meta={"model": model.describe()})
    return 0


def cmd_partition(cfg: RunConfig):
    model = cfg.build_model()
    th = cfg.thermal_state()
    spec = cfg.quadrature_spec()
    if isinstance(model, OnePointModel):
        report = one_point_partition(model, th, spec)
        closed = one_point_log_z_closed(model, th)
        explicit = "pass" if abs(report.log_z - closed) < 1e-8 else "fail"
    else:
        report = two_point_partition(model, th, spec)
        explicit = "n/a"
    # low-temperature slope annotation: -d(log Z)/dbeta at beta = 30 as a
    # difference over [29.5, 30.5]; the Laurent terms of log Z are linear in
    # beta, so only log eta needs evaluating again
    eta = _log_eta_of(model, spec)
    slope = report.vacuum_energy + eta(30.5) - eta(29.5)
    columns = ("model", "beta", "ell", "log_z", "vacuum_energy", "eta_log",
               "residue", "finite_part", "explicit_check",
               "slope_beta30", "slope_vs_evac")
    rows = [(report.model, th.beta, th.ell, report.log_z,
             report.vacuum_energy, report.eta_log, report.laurent.residue,
             report.laurent.finite_part, explicit, slope,
             abs(slope - report.vacuum_energy))]
    emit(cfg, columns, rows,
         meta={"model": report.model,
               "slope_note": "slope_beta30 approximates the vacuum energy "
                             "at low temperature"})
    return 0


def cmd_casimir(cfg: RunConfig):
    if cfg.model != "two-point":
        raise CliValidationError("casimir requires --model two-point")
    for name in ("alpha0", "alpha1"):
        if getattr(cfg, name) is None:
            raise CliValidationError(f"casimir requires --{name}")
    cfg.thermal_state()  # validates --beta/--ell; the force uses neither
    spec = cfg.quadrature_spec()
    a_min = cfg.extra["a_min"]
    a_max = cfg.extra["a_max"]
    steps = cfg.extra["steps"]
    if not (0 < a_min < a_max):
        raise CliValidationError("need 0 < a-min < a-max")
    if steps < 2:
        raise CliValidationError("steps must be >= 2")
    grid = _grid(a_min, a_max, steps)

    def row(a):
        try:
            model = TwoPointModel(cfg.alpha0, cfg.alpha1, a)
            force = casimir_force(model, spec)
        except BoundStateRegimeError as exc:
            sys.stderr.write(f"warning: skipping a = {a:g}: {exc}\n")
            return None
        return (a, force.value, force.error_estimate)

    rows = [r for r in (row(a) for a in grid) if r is not None]
    emit(cfg, ("a", "force", "error_estimate"), rows,
         meta={"sign_convention": "force = -dE_vacuum/da "
                                  "(negative = attractive)",
               "alpha0": cfg.alpha0, "alpha1": cfg.alpha1})
    return 0


def cmd_verify(cfg: RunConfig):
    results, ok = run_all(inject_failure=bool(
        cfg.extra.get("inject_failure")))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{status} {r.name}: {r.detail} "
                         f"(tolerance {r.tolerance:g})\n")
    summary = {
        "all_passed": ok,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                    "value": r.value, "tolerance": r.tolerance}
                   for r in results],
    }
    _write(cfg, json.dumps(summary, sort_keys=True) + "\n")
    return 0 if ok else 1


_COMMANDS = {
    "spectral-measure": cmd_spectral_measure,
    "heat-trace": cmd_heat_trace,
    "zeta": cmd_zeta,
    "eta": cmd_eta,
    "partition": cmd_partition,
    "casimir": cmd_casimir,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args, parser)
        return _COMMANDS[cfg.command](cfg)
    except (CliValidationError, BoundStateRegimeError,
            ContinuationRequiredError, ZetaPoleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
