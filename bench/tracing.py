"""Per-layer tracing of relspec, installed from outside the package.

Tracer.install() wraps the public functions of each layer and rebinds every
relspec module attribute that refers to the original, since `from .quad
import integrate_finite` gives each importing module its own binding.  A
function missing from the traced commit is skipped; its metrics read 0.

Layers are the package's modules.  Each wrapped call records a span (name,
start, end, parent) in memory; the spans go to a file when the run ends.
Model evaluations are too many for spans: the eval closures of the
measures that *_spectral_measure returns are wrapped to count calls and add
their time to the enclosing span's child time, so a span's self time is
its duration minus its child spans and the model evaluations directly
under it.
"""

import dataclasses
import json
import sys
from time import perf_counter

# (module, function, span name); integrate_to_infinity is named per call
_SPANNED = (
    ("thermo", "casimir_force", "thermo.casimir_force"),
    ("thermo", "log_eta", "thermo.log_eta"),
    ("thermo", "one_point_partition", "thermo.partition"),
    ("thermo", "two_point_partition", "thermo.partition"),
    ("zetareg", "two_point_laurent_parts", "zetareg.laurent_parts"),
    ("zetareg", "relative_heat_trace", "zetareg.heat_trace"),
    ("zetareg", "relative_zeta_in_strip", "zetareg.zeta_strip"),
    ("zetareg", "numeric_laurent_probe", "zetareg.laurent_probe"),
    ("quad", "integrate_finite", "quad.finite"),
    ("quad", "integrate_to_infinity", None),
)
_MEASURES = (
    ("one_point_spectral_measure", "models.eval_one"),
    ("two_point_spectral_measure", "models.eval_two"),
)
QUAD_LAYERS = ("quad.finite", "quad.smooth_tail", "quad.osc_tail")
CALL_LAYERS = ("thermo.casimir_force", "thermo.log_eta", "thermo.partition",
               "zetareg.laurent_parts", "zetareg.heat_trace",
               "zetareg.zeta_strip", "zetareg.laurent_probe")
# verify.ALL_CHECKS at the commit that defined the benchmark
VERIFY_CHECKS = ("theta_modular", "sum_rule", "heat_trace",
                 "eta_closed_form", "zeta_strip", "one_point_probe",
                 "two_point_probe", "degeneracy", "explicit_log_z",
                 "ell_covariance", "force_ell_invariance")


def _quad_name(args, kwargs):
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    if getattr(spec, "oscillation_period", None) is None:
        return "quad.smooth_tail"
    return "quad.osc_tail"


class Tracer:
    def __init__(self):
        # span i: [name, start, end, parent index, child seconds]
        self.spans = []
        self._stack = []
        self._active = {}
        # per span name: calls, outermost busy seconds, self seconds
        self.calls = {}
        self.busy = {}
        self.self_s = {}
        # per quad layer: evaluations and unconverged results
        self.evals = {}
        self.unconverged = {}
        self.eval_calls = {"models.eval_one": 0, "models.eval_two": 0}
        self.eval_s = 0.0
        self.wide_bar = 0
        self._undo = []

    # -- spans ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._active[name] = self._active.get(name, 0) + 1
        return index

    def close(self, index):
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        name, start, _, parent, child = span
        duration = end - start
        self._active[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if not self._active[name]:
            self.busy[name] = self.busy.get(name, 0.0) + duration
        if parent is not None:
            self.spans[parent][4] += duration

    def _spanned(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name or _quad_name(args, kwargs)
            index = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer._observe(span, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, result):
        if name.startswith("quad."):
            self.evals[name] = (self.evals.get(name, 0)
                                + getattr(result, "evaluations", 0))
            if getattr(result, "converged", True) is False:
                self.unconverged[name] = self.unconverged.get(name, 0) + 1
        elif name == "thermo.casimir_force":
            err = getattr(result, "error_estimate", None)
            value = getattr(result, "value", None)
            if err is not None and value is not None and err >= abs(value):
                self.wide_bar += 1

    def _measure(self, fn, name):
        tracer = self

        def counted_eval(eval_fn):
            def timed(v):
                start = perf_counter()
                y = eval_fn(v)
                spent = perf_counter() - start
                tracer.eval_calls[name] += 1
                tracer.eval_s += spent
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][4] += spent
                return y
            return timed

        def wrapper(*args, **kwargs):
            measure = fn(*args, **kwargs)
            try:
                return dataclasses.replace(
                    measure, eval=counted_eval(measure.eval))
            except (TypeError, AttributeError):
                return measure

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "relspec"
                                         or n.startswith("relspec."))]
        replacements = {}
        for module_name, attr, span in _SPANNED:
            fn = getattr(sys.modules.get(f"relspec.{module_name}"), attr, None)
            if callable(fn):
                replacements[id(fn)] = (fn, self._spanned(fn, span))
        models = sys.modules.get("relspec.models")
        for attr, name in _MEASURES:
            fn = getattr(models, attr, None)
            if callable(fn):
                replacements[id(fn)] = (fn, self._measure(fn, name))
        specfun = sys.modules.get("relspec.specfun")
        for attr, fn in vars(specfun).items() if specfun else ():
            if (not attr.startswith("_") and callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == specfun.__name__):
                replacements[id(fn)] = (fn, self._spanned(fn, "specfun"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        verify = sys.modules.get("relspec.verify")
        checks = getattr(verify, "ALL_CHECKS", None)
        if checks is not None:
            wrapped = tuple(self._spanned(fn, "verify." + _check_name(fn))
                            for fn in checks)
            verify.ALL_CHECKS = wrapped
            self._undo.append((verify, "ALL_CHECKS", checks))

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, name -> (value, unit)."""
        out = {"cli.self_s": (self.self_s.get("cli.main", 0.0), "s")}
        for name in CALL_LAYERS:
            out[name + ".calls"] = (self.calls.get(name, 0), "count")
            out[name + ".busy_s"] = (self.busy.get(name, 0.0), "s")
        out["thermo.casimir_force.wide_bar"] = (self.wide_bar, "count")
        for name in QUAD_LAYERS:
            out[name + ".calls"] = (self.calls.get(name, 0), "count")
            out[name + ".evals"] = (self.evals.get(name, 0), "count")
            out[name + ".self_s"] = (self.self_s.get(name, 0.0), "s")
            out[name + ".unconverged"] = (self.unconverged.get(name, 0),
                                          "count")
        for name, calls in self.eval_calls.items():
            out[name + ".calls"] = (calls, "count")
        out["models.eval.busy_s"] = (self.eval_s, "s")
        out["specfun.calls"] = (self.calls.get("specfun", 0), "count")
        out["specfun.busy_s"] = (self.busy.get("specfun", 0.0), "s")
        for check in VERIFY_CHECKS:
            name = "verify." + check
            out[name + ".busy_s"] = (self.busy.get(name, 0.0), "s")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _check_name(fn):
    name = getattr(fn, "__name__", "check")
    return name[len("check_"):] if name.startswith("check_") else name
