"""Command-line front end.

Subcommands: spectral-measure, heat-trace, zeta, eta, partition, casimir,
verify.  Each emits a CSV table (default) or a JSON mirror of the same
fields, to stdout or --out.  Floats are printed with 17 significant digits
and '\\n' line endings, so identical configurations produce byte-identical
output.

Exit codes: 0 success, 2 invalid parameters or configuration (an --out
path that cannot be written and an unknown config key included), 3
numerical non-convergence.  Library warnings go to stderr as one
'warning: <message>' line each, on every call.

Each flag's default is declared once, on its argument in build_parser,
which builds every command's flags; a run builds only its own command's.
--config names a flat JSON object keyed by flag names with underscores;
its values become the command's parser defaults, so flags override the
file and the file overrides the built-in defaults.  A config value must
have its flag's JSON type: a number for numeric flags, an integer for
--samples and --steps, a boolean for switches and a string otherwise.  Keys
of another command's flags are ignored.
Flags must be spelled out in full: an abbreviation such as --step is not
taken for --steps.
"""

import argparse
import gc
import json
import math
import sys
import warnings

from .models import (BoundStateRegimeError, OnePointModel, TwoPointModel,
                     spectral_measure)
from .quad import NonConvergenceError, QuadratureSpec
from .thermo import (ThermalState, casimir_force, log_eta,
                     one_point_log_eta_closed, one_point_log_z_closed,
                     one_point_partition, two_point_log_eta,
                     two_point_partition)
from .verify import run_all
from .zetareg import (ContinuationRequiredError, ZetaPoleError,
                      one_point_heat_trace_closed, one_point_laurent,
                      relative_heat_trace, relative_zeta_in_strip,
                      two_point_heat_trace, two_point_laurent)


class CliValidationError(ValueError):
    """Bad parameters or configuration; maps to exit code 2."""


def _add_common(sub):
    sub.add_argument("--model", choices=("one-point", "two-point"),
                     default="one-point")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--alpha0", type=float)
    sub.add_argument("--alpha1", type=float)
    sub.add_argument("--a", type=float)
    sub.add_argument("--beta", type=float, default=1.0)
    sub.add_argument("--ell", type=float, default=1.0)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out")
    sub.add_argument("--abs-tol", type=float)
    sub.add_argument("--rel-tol", type=float)
    sub.add_argument("--config")


def build_parser(command=None):
    """The relspec parser.  Every subcommand is listed, but only the one
    named by command gets its flags; with command None, every one does."""
    parser = argparse.ArgumentParser(
        prog="relspec",
        description="Relative spectral functions and zeta-regularized "
                    "thermodynamics for point interactions.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, own_flags=None):
        sub = subs.add_parser(name, help=summary, allow_abbrev=False)
        if command in (None, name):
            _add_common(sub)
            if own_flags:
                own_flags(sub)

    def table(var, lo, hi, switch=None, count="--samples", n=25):
        """Flags of a command tabulating over --<var>-min..--<var>-max."""
        def own_flags(sub):
            sub.add_argument(f"--{var}-min", type=float, default=lo)
            sub.add_argument(f"--{var}-max", type=float, default=hi)
            sub.add_argument(count, type=int, default=n)
            if switch:
                sub.add_argument(switch, action="store_true")
        return own_flags

    add("spectral-measure", "tabulate the relative spectral measure e(v)",
        table("v", 0.0, 10.0))
    add("heat-trace", "tabulate the relative heat trace",
        table("t", 1e-3, 10.0, "--log-spacing"))
    add("zeta", "tabulate the relative zeta function or emit its Laurent "
                "data at s = -1/2", table("s", -0.45, 0.45, "--laurent"))
    add("eta", "tabulate the relative eta logarithm", table("tau", 0.5, 5.0))
    add("partition", "partition function and vacuum energy")
    add("casimir", "sweep the Casimir force over the separation of a "
                   "two-point model", table("a", 1.0, 10.0, count="--steps",
                                            n=10))
    add("verify", "run the internal consistency suite",
        lambda sub: sub.add_argument("--inject-failure", action="store_true",
                                     help=argparse.SUPPRESS))
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


def _apply_config(argv, args):
    """Parse argv again with the --config file's values as the command's
    defaults, so that flags override the file and the file overrides the
    built-in defaults.

    Keys of another command's flags are ignored, so one file can serve
    several commands; a key that is no command's flag is an error.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliValidationError(f"cannot read config file: {exc}")
    if not isinstance(values, dict):
        raise CliValidationError("config file must hold a JSON object")
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    sub = commands[args.command]
    actions = {a.dest: a for a in sub._actions}
    flags = {a.dest for p in commands.values() for a in p._actions}
    for key, value in values.items():
        if key not in flags:
            raise CliValidationError(f"config key {key!r} is not a flag of "
                                     "any command")
        if key in vars(args):
            _check_config_value(key, value, actions[key])
    sub.set_defaults(**{k: v for k, v in values.items() if k in vars(args)})
    return parser.parse_args(argv)


def _model(args):
    """The operator pair named by --model and its parameters."""
    if args.model == "one-point":
        given = {"--alpha": args.alpha}
    else:
        given = {"--alpha0": args.alpha0, "--alpha1": args.alpha1,
                 "--a": args.a}
    missing = [name for name, value in given.items() if value is None]
    if missing:
        raise CliValidationError(
            f"{args.model} model requires {' '.join(missing)}")
    try:
        if args.model == "one-point":
            return OnePointModel(args.alpha)
        return TwoPointModel(args.alpha0, args.alpha1, args.a)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc


def _quadrature_spec(args):
    """The spec from --abs-tol/--rel-tol, or None when neither is given."""
    given = {name: getattr(args, name) for name in ("abs_tol", "rel_tol")
             if getattr(args, name) is not None}
    if not given:
        return None
    try:
        return QuadratureSpec(**given)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc


def _thermal_state(args):
    try:
        return ThermalState(args.beta, args.ell)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv_cell(x):
    text = _fmt(x)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit(args, columns, rows, meta=None):
    if args.format == "json":
        payload = {"columns": list(columns),
                   "rows": [list(r) for r in rows],
                   "meta": meta or {}}
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_csv_cell(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text):
    """Write text to --out, or to stdout without it."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliValidationError(f"cannot write --out file: {exc}") from exc


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


def _positive_bounds(args, name):
    """The --<name>-min/--<name>-max pair, both required to be > 0."""
    lo, hi = getattr(args, name + "_min"), getattr(args, name + "_max")
    if not (lo > 0 and hi > 0):
        raise CliValidationError(f"need {name}-min > 0 and {name}-max > 0")
    return lo, hi


def cmd_spectral_measure(args):
    model = _model(args)
    if not (0 <= args.v_min < args.v_max):
        raise CliValidationError("need 0 <= v-min < v-max")
    e = spectral_measure(model)
    grid = _grid(args.v_min, args.v_max, args.samples)
    rows = [(v, e.eval(v)) for v in grid]
    emit(args, ("v", "e"), rows, meta={"model": model.describe()})
    return 0


def cmd_heat_trace(args):
    model = _model(args)
    spec = _quadrature_spec(args)
    t_min, t_max = _positive_bounds(args, "t")
    grid = _grid(t_min, t_max, args.samples, logspace=args.log_spacing)
    if isinstance(model, OnePointModel):
        e = spectral_measure(model)

        def row(t):
            q = relative_heat_trace(e, t, spec)
            c = one_point_heat_trace_closed(model, t)
            return (t, q, c, abs(q - c))
        columns = ("t", "heat_trace", "closed_form", "abs_diff")
    else:
        def row(t):
            return (t, two_point_heat_trace(model, t, spec))
        columns = ("t", "heat_trace")
    rows = [row(t) for t in grid]
    emit(args, columns, rows, meta={"model": model.describe()})
    return 0


def cmd_zeta(args):
    model = _model(args)
    spec = _quadrature_spec(args)
    if args.laurent:
        if isinstance(model, OnePointModel):
            lau = one_point_laurent(model)
        else:
            lau = two_point_laurent(model, spec)
        emit(args, ("residue", "finite_part"),
             [(lau.residue, lau.finite_part)],
             meta={"model": model.describe(), "expansion_point": -0.5})
        return 0
    e = spectral_measure(model)
    grid = _grid(args.s_min, args.s_max, args.samples)
    rows = [(s, relative_zeta_in_strip(e, s, spec)) for s in grid]
    emit(args, ("s", "zeta"), rows, meta={"model": model.describe()})
    return 0


def _log_eta_of(model, spec):
    """tau -> log eta: the quadrature for one point, the Matsubara sum for
    two points."""
    if isinstance(model, OnePointModel):
        e = spectral_measure(model)
        return lambda tau: log_eta(e, tau, spec)
    return lambda tau: two_point_log_eta(model, tau, spec)


def cmd_eta(args):
    model = _model(args)
    spec = _quadrature_spec(args)
    eta = _log_eta_of(model, spec)
    tau_min, tau_max = _positive_bounds(args, "tau")
    grid = _grid(tau_min, tau_max, args.samples)
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
    emit(args, columns, rows, meta={"model": model.describe()})
    return 0


def cmd_partition(args):
    model = _model(args)
    th = _thermal_state(args)
    spec = _quadrature_spec(args)
    if isinstance(model, OnePointModel):
        report = one_point_partition(model, th, spec)
        closed = one_point_log_z_closed(model, th)
        # log Z grows like beta, so the gap is judged relative to it
        gap = abs(report.log_z - closed)
        explicit = "pass" if gap < 1e-8 * max(1.0, abs(closed)) else "fail"
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
    emit(args, columns, rows,
         meta={"model": report.model,
               "slope_note": "slope_beta30 approximates the vacuum energy "
                             "at low temperature"})
    return 0


def cmd_casimir(args):
    if args.model != "two-point":
        raise CliValidationError("casimir requires --model two-point")
    for name in ("alpha0", "alpha1"):
        if getattr(args, name) is None:
            raise CliValidationError(f"casimir requires --{name}")
    _thermal_state(args)  # validates --beta/--ell; the force uses neither
    spec = _quadrature_spec(args)
    if not (0 < args.a_min < args.a_max):
        raise CliValidationError("need 0 < a-min < a-max")
    if args.steps < 2:
        raise CliValidationError("steps must be >= 2")
    grid = _grid(args.a_min, args.a_max, args.steps)

    def row(a):
        try:
            model = TwoPointModel(args.alpha0, args.alpha1, a)
            force = casimir_force(model, spec)
        except BoundStateRegimeError as exc:
            sys.stderr.write(f"warning: skipping a = {a:g}: {exc}\n")
            return None
        return (a, force.value, force.error_estimate)

    rows = [r for r in (row(a) for a in grid) if r is not None]
    emit(args, ("a", "force", "error_estimate"), rows,
         meta={"sign_convention": "force = -dE_vacuum/da "
                                  "(negative = attractive)",
               "alpha0": args.alpha0, "alpha1": args.alpha1})
    return 0


def cmd_verify(args):
    results, ok = run_all(inject_failure=args.inject_failure)
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
    _write(args, json.dumps(summary, sort_keys=True) + "\n")
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


def _show_warning(message, *_):
    sys.stderr.write(f"warning: {message}\n")


def _parse_args(argv):
    """Parse argv with the flags of the subcommand it names, and with
    garbage collection paused.  argparse links each action back to its
    parser, so only the collector frees a parser; a collection while it
    is alive would move it to an older generation, where it outlives the
    call until a full collection."""
    # the top-level parser takes no option value, so the first token that
    # is no option names the subcommand argparse runs, if it runs one
    named = next((a for a in argv if not a.startswith("-")), None)
    command = named if named in _COMMANDS else None
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build_parser(command).parse_args(argv)
    finally:
        if enabled:
            gc.enable()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # entering catch_warnings also clears Python's once-per-location
    # registry, so a repeated in-process call reports its warnings again
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        args = _parse_args(argv)
        try:
            if args.config:
                args = _apply_config(argv, args)
            return _COMMANDS[args.command](args)
        except (CliValidationError, BoundStateRegimeError,
                ContinuationRequiredError, ZetaPoleError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        except NonConvergenceError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 3


if __name__ == "__main__":
    raise SystemExit(main())
