"""Seeded end-to-end benchmark of the relspec command line.

    python3 bench/run.py --workload casimir_sweep --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a relspec checkout; the package is imported from its
`src/` directory, and the benchmark stops with exit code 2 if that is
missing.  One client drives `relspec.cli.main(argv)` in this process as a
closed loop: each operation is one CLI invocation with seeded arguments
and the default CSV output, and the next starts when it returns.  After
the timed window every op's stdout is checked against oracles that do not
use relspec (see check.py and oracles.py).  Op latencies are reported at a
nominal machine speed (see SpeedReference); the set-up time is the CPU
time of the process that does the set-up.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed list of
ops twice, untraced and then traced (see tracing.py), checks that both print
the same bytes, reports the per-layer metrics and writes the spans to
.bench_out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts the ops whose
output could not be checked at all; rows outside their oracle tolerance and
exit-3 ops are measured by ok_row_ratio and, per op, by the `# note
miss_ratio` line and the check.* per-layer counts.
"""

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
WARMUP_OPS = 2
# traced runs take rate * seconds ops, about half the window per pass today
TRACE_OPS_PER_SECOND = {"casimir_sweep": 6, "one_point_tables": 60,
                        "two_point_tables": 10, "verify_suite": 2.5}
# a speed-reference slice runs between ops at most this often
SLICE_EVERY_S = 0.03
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import relspec.cli; relspec.cli.build_parser()")


class SetupError(RuntimeError):
    pass


def load_cli(root):
    """Import relspec.cli from root/src, and from nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "relspec", "cli.py")):
        raise SetupError(f"no relspec sources under {src}")
    sys.path.insert(0, src)
    import relspec.cli
    if not os.path.abspath(relspec.cli.__file__).startswith(src + os.sep):
        raise SetupError(f"relspec imported from {relspec.cli.__file__}")
    return relspec.cli


class SpeedReference:
    """Machine speed, from a fixed pure-Python kernel run between ops.

    Where cores are shared with other tenants, the same work can take half
    again as long from one second to the next, for relspec and for any
    other interpreted code alike.  Timings are therefore reported at a nominal
    machine speed, the one at which a slice of the kernel takes NOMINAL_S.
    A slice runs before an op when the last one is SLICE_EVERY_S old, and
    once more after the last op.  local(k) is the speed factor around the
    ops that follow slice k: the mean of slices k and k + 1 over NOMINAL_S.
    An op's latency divided by it is what the op would take at the nominal
    speed.  The kernel is part of the benchmark, so no change to relspec
    moves it.
    """

    NOMINAL_S = 0.002
    _STEPS = 3200

    def __init__(self):
        self.samples = []

    def sample(self):
        start = perf_counter()
        total = 0.0
        for i in range(self._STEPS):
            v = i * 1e-3
            z = cmath.exp(2j * v) / (1.0 + 1j * v)
            total += math.exp(-v * v) + z.real
        self.samples.append(perf_counter() - start)
        return total

    def factor(self):
        return statistics.fmean(self.samples) / self.NOMINAL_S

    def local(self, k):
        return (self.samples[k] + self.samples[k + 1]) / (
            2.0 * self.NOMINAL_S)


def measure_setup(src):
    """Medians of the CPU time (user + system, all threads) and of the wall
    time a fresh interpreter takes to import relspec.cli and build its
    parser; the first sample is a discarded warm-up.

    CPU time is what relspec's import graph costs; on shared cores the wall
    time also counts the waits for a core, which moved the median of the
    same code by up to 17 % between sets of runs.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cpu, wall = [], []
    for _ in range(SETUP_SAMPLES + 1):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, src], env=env,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True, timeout=60)
        wall.append(perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append(after.ru_utime + after.ru_stime
                   - before.ru_utime - before.ru_stime)
    return statistics.median(cpu[1:]), statistics.median(wall[1:])


def run_op(main, argv):
    """(exit code, stdout, stderr); the code is None when main raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is an op result, reported below
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def warm_up(main, workload, seed):
    for argv in _take(workloads.ops(workload, seed, "warmup"), WARMUP_OPS):
        run_op(main, argv)


def _take(iterator, n):
    return [next(iterator) for _ in range(n)]


class Tally:
    """Verdicts of a batch of ops."""

    def __init__(self, results):
        # the oracles import scipy.integrate; loading them only now keeps
        # that memory out of the peak RSS measured during the loop
        import check
        self.attempted = len(results)
        self.rows = 0
        self.expected_rows = 0
        self.good_rows = 0
        self.missed = 0
        self.exit3 = 0
        self.malformed = 0
        self.reasons = []
        for argv, code, out, err in results:
            verdict = check.check(argv, code, out)
            self.rows += verdict.rows
            self.expected_rows += verdict.expected
            self.good_rows += verdict.good_rows
            if not verdict.passed:
                self.missed += 1
                self.exit3 += code == 3
                self.malformed += verdict.malformed
                detail = err.strip().splitlines()[-1:] if code != 0 else []
                self.reasons.append(" ".join(
                    [verdict.reason] + detail + ["::"] + list(argv)))


def run_end_to_end(main, src, workload, seed, seconds):
    setup_s, setup_wall_s = measure_setup(src)
    warm_up(main, workload, seed)
    ops = workloads.ops(workload, seed)
    speed = SpeedReference()
    # per op: argv, exit code, stdout, stderr; latency; slice before it
    results, latencies, slice_index = [], [], []
    start = perf_counter()
    deadline = start + seconds
    next_slice = end = start
    while end < deadline:
        if end >= next_slice:
            speed.sample()
            next_slice = perf_counter() + SLICE_EVERY_S
        argv = next(ops)
        t0 = perf_counter()
        code, out, err = run_op(main, argv)
        end = perf_counter()
        latencies.append(end - t0)
        slice_index.append(len(speed.samples) - 1)
        results.append((argv, code, out, err))
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = Tally(results)
    scaled = [t / speed.local(k) for t, k in zip(latencies, slice_index)]
    # the client is busy for the sum of the latencies; slices are not ops
    busy = math.fsum(scaled)
    scaled.sort()
    # the slowest tenth, averaged: two_point_tables' latencies double
    # between p85 and p92, which makes p90 itself jump between runs
    tail = scaled[-max(1, len(scaled) // 10):]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.attempted / busy, "1/s"),
        "rows_per_s": (tally.rows / busy, "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail10_ms": (statistics.fmean(tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_row_ratio": (tally.good_rows / tally.expected_rows, "ratio"),
    }
    samples = {"setup_s": SETUP_SAMPLES, "ops_per_s": tally.attempted,
               "rows_per_s": tally.rows, "op_p50_ms": len(latencies),
               "op_tail10_ms": len(tail), "peak_rss_mb": 1,
               "ok_row_ratio": tally.expected_rows}
    notes = {"miss_ratio": tally.missed / tally.attempted,
             "exit3_ratio": tally.exit3 / tally.attempted,
             "speed_factor": speed.factor(),
             "setup_wall_s": setup_wall_s,
             "raw_ops_per_s": tally.attempted / math.fsum(latencies),
             "raw_op_p50_ms": statistics.median(latencies) * 1e3,
             "slices": len(speed.samples)}
    return tally, metrics, samples, True, notes


def run_traced(main, workload, seed, seconds, spans_path):
    n = max(1, round(TRACE_OPS_PER_SECOND[workload] * seconds))
    ops = _take(workloads.ops(workload, seed), n)
    warm_up(main, workload, seed)

    def one_pass(tracer=None):
        results = []
        start = perf_counter()
        for argv in ops:
            if tracer is None:
                results.append((argv,) + run_op(main, argv))
                continue
            span = tracer.open("cli.main")
            try:
                results.append((argv,) + run_op(main, argv))
            finally:
                tracer.close(span)
        return results, perf_counter() - start

    plain, plain_wall = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_wall = one_pass(tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    identical = all(a[1:3] == b[1:3] for a, b in zip(plain, traced))
    metrics = tracer.metrics()
    metrics["trace.untraced_ops_per_s"] = (n / plain_wall, "1/s")
    metrics["trace.traced_ops_per_s"] = (n / traced_wall, "1/s")
    tally = Tally(plain)
    metrics["check.missed_ops"] = (tally.missed, "count")
    metrics["check.exit3_ops"] = (tally.exit3, "count")
    samples = {name: n for name in metrics}
    return tally, metrics, samples, identical, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        cli = load_cli(root)
    except (SetupError, ImportError) as exc:
        sys.stderr.write(f"bench: cannot load relspec: {exc}\n")
        return 2
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir,
                             f"spans_{args.workload}_{args.seed}.jsonl")
        tally, metrics, samples, identical, notes = run_traced(
            cli.main, args.workload, args.seed, args.seconds, spans)
    else:
        tally, metrics, samples, identical, notes = run_end_to_end(
            cli.main, os.path.join(root, "src"), args.workload, args.seed,
            args.seconds)
    for reason in tally.reasons[:5]:
        sys.stderr.write(f"missed op: {reason}\n")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={tally.attempted} rows={tally.rows} missed={tally.missed} "
          f"exit3={tally.exit3} malformed={tally.malformed} "
          f"identical_traced_output={identical}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit} (samples {samples[name]})")
    for name, value in notes.items():
        print(f"# note {name} = {value!r}")
    result = {
        "correct": tally.malformed == 0 and identical,
        "attempted": tally.attempted,
        "failed": tally.malformed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
