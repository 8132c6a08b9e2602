"""Seeded operation streams, one per workload.

An operation ("op") is the argument vector of one relspec CLI invocation.
Parameters are drawn afresh for every op, so no two ops share inputs: a CLI
user pays for every result in a fresh process, and an in-process cache
across ops must not be able to win.  Mixes that matter for the metrics
(command, parameter class, corner cases) follow the op index in fixed
cycles, and every parameter is drawn stratified (each block of ten draws
hits each tenth of its range once), so every run of a workload has nearly
the same mix and cost; only the values inside each stratum come from the
seed.

The two-point draws keep the defect corners that ROADMAP aim 3 names
instead of trimming them: separations a >= 6, unequal couplings such as
(0.3, 3), the constraint edge 4 pi^2 alpha0 alpha1 a^2 just above 1,
t = 1e-6 heat traces and user tolerances of 1e-12.
"""

import itertools
import math
import random

WORKLOADS = ("casimir_sweep", "one_point_tables", "two_point_tables",
             "verify_suite")

# Seed that no tuning run used; quote claims on it.
HELD_OUT_SEED = 20071
# the five commands of the table workloads, in cycle order
TABLE_COMMANDS = ("heat-trace", "zeta", "eta", "partition", "laurent")


class _Draws:
    """Uniform variates stratified per named dimension."""

    _BLOCK = 10

    def __init__(self, rng):
        self.rng = rng
        self.pending = {}

    def unit(self, name):
        queue = self.pending.setdefault(name, [])
        if not queue:
            queue.extend((j + self.rng.random()) / self._BLOCK
                         for j in range(self._BLOCK))
            self.rng.shuffle(queue)
        return queue.pop()

    def uniform(self, name, lo, hi):
        return lo + (hi - lo) * self.unit(name)

    def log_uniform(self, name, lo, hi):
        return math.exp(self.uniform(name, math.log(lo), math.log(hi)))

    def integer(self, name, lo, hi):
        """lo..hi inclusive."""
        return lo + int(self.unit(name) * (hi - lo + 1))


def _num(x):
    return repr(float(x))


def edge_separation(alpha0, alpha1):
    """Separation at which 4 pi^2 alpha0 alpha1 a^2 = 1."""
    return 1.0 / (2.0 * math.pi * math.sqrt(alpha0 * alpha1))


def _couplings(draw, key):
    # ratios up to ~16 either way include pairs such as (0.3, 3)
    alpha0 = draw.log_uniform(key + "alpha0", 0.1, 10.0)
    return alpha0, alpha0 * 10.0 ** draw.uniform(key + "ratio", -1.2, 1.2)


def _casimir_ops(draw):
    """Sweeps from just inside the admissible region out to a = 20."""
    while True:
        alpha0, alpha1 = _couplings(draw, "")
        a_min = edge_separation(alpha0, alpha1) * (
            1.0 + draw.log_uniform("edge", 1e-3, 1.0))
        yield ("casimir", "--model", "two-point",
               "--alpha0", _num(alpha0), "--alpha1", _num(alpha1),
               "--a-min", _num(a_min), "--a-max", "20.0",
               "--steps", str(draw.integer("steps", 4, 6)))


def _table_argv(draw, command, tight=False):
    """Arguments of one table command, without the model flags."""
    if command == "heat-trace":
        t_min = 1e-6 if tight else draw.log_uniform("t_min", 1e-4, 1e-2)
        args = ["heat-trace", "--t-min", _num(t_min),
                "--t-max", _num(draw.log_uniform("t_max", 1.0, 10.0)),
                "--log-spacing"]
    elif command == "zeta":
        args = ["zeta", "--s-min", _num(draw.uniform("s_min", -0.45, -0.1)),
                "--s-max", _num(draw.uniform("s_max", 0.1, 0.45))]
    elif command == "eta":
        args = ["eta", "--tau-min", _num(draw.uniform("tau_min", 0.3, 1.0)),
                "--tau-max", _num(draw.uniform("tau_max", 2.0, 8.0))]
    elif command == "partition":
        return ["partition",
                "--beta", _num(draw.log_uniform("beta", 0.5, 20.0)),
                "--ell", _num(draw.uniform("ell", 0.5, 2.0))]
    else:
        return ["zeta", "--laurent"]
    return args + ["--samples", str(draw.integer(command + "samples", 3, 6))]


def _one_point_ops(draw):
    for i in itertools.count():
        command = TABLE_COMMANDS[i % len(TABLE_COMMANDS)]
        args = _table_argv(draw, command)
        alpha = draw.log_uniform(command + "alpha", 1e-3, 1e3)
        yield tuple(args) + ("--alpha", _num(alpha))


def _two_point_ops(draw):
    """Commands cycle with period 5; the separation class with period 50.

    Of every ten ops of one command, seven draw a from [max(1.05 a_edge,
    0.3), 6), one sits just above the constraint edge, one has a in [6, 12]
    and one is a corner: t down to 1e-6 for heat-trace, tolerances 1e-12
    for the others.
    """
    for i in itertools.count():
        command = TABLE_COMMANDS[i % len(TABLE_COMMANDS)]
        kind = (i // len(TABLE_COMMANDS)) % 10
        alpha0, alpha1 = _couplings(draw, command)
        edge = edge_separation(alpha0, alpha1)
        if kind == 3:
            a = edge * (1.0 + draw.log_uniform("edge", 1e-3, 3e-2))
        elif kind == 7:
            a = draw.uniform("far", 6.0, 12.0)
        else:
            lo = max(1.05 * edge, 0.3)
            a = draw.log_uniform(command + "a", lo, max(6.0, 2.0 * lo))
        tight = kind == 9
        args = _table_argv(draw, command,
                           tight=tight and command == "heat-trace")
        if tight and command != "heat-trace":
            args += ["--abs-tol", "1e-12", "--rel-tol", "1e-12"]
        yield tuple(args) + ("--model", "two-point", "--alpha0", _num(alpha0),
                             "--alpha1", _num(alpha1), "--a", _num(a))


def _verify_ops(draw):
    while True:
        yield ("verify",)


_STREAMS = {
    "casimir_sweep": _casimir_ops,
    "one_point_tables": _one_point_ops,
    "two_point_tables": _two_point_ops,
    "verify_suite": _verify_ops,
}


def ops(workload, seed, stream="timed"):
    """Endless iterator of argv tuples; the same (workload, seed, stream)
    gives the same ops.  stream="warmup" draws from an independent stream."""
    rng = random.Random(f"{workload}:{seed}:{stream}")
    return _STREAMS[workload](_Draws(rng))
