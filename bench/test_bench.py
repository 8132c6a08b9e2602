"""Self-tests of the benchmark: python3 -m pytest bench

They are outside the tier-1 suite (pyproject's testpaths is tests/).
"""

import itertools
import math
import os

import pytest

import check
import oracles
import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def cli():
    return run.load_cli(ROOT)


def _first(workload, seed, n=60):
    return list(itertools.islice(workloads.ops(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    assert _first(workload, 5) == _first(workload, 5)
    if workload != "verify_suite":
        assert _first(workload, 5) != _first(workload, 6)
        ops = _first(workload, 5, 200)
        assert len(set(ops)) == len(ops)


def test_two_point_mix_keeps_the_corners():
    ops = _first("two_point_tables", 1, 50)
    assert sum("1e-06" in argv for argv in ops) == 1
    assert sum("1e-12" in argv for argv in ops) == 4
    params = [check.flags(argv) for argv in ops]
    assert any(float(f["a"]) >= 6.0 for f in params)
    assert any(workloads.edge_separation(float(f["alpha0"]),
                                         float(f["alpha1"]))
               < float(f["a"]) < 1.05 * workloads.edge_separation(
                   float(f["alpha0"]), float(f["alpha1"])) for f in params)


# 30-digit values printed by scripts/derive_reference_values.py
def test_oracles_match_reference_values():
    finite = oracles.two_finite_part(1.0, 1.0, 1.0)
    assert finite == pytest.approx(-20.2491314133242184274628568759,
                                   rel=1e-13)
    log_eta = oracles.two_log_eta(1.0, 1.0, 1.0, 5.0)
    assert log_eta == pytest.approx(-0.017948903656038631495403218355,
                                    rel=1e-10)
    log_z = 5.0 * (math.log(2.0) - 1.0) * 4.0 - 2.5 * finite - log_eta
    assert log_z == pytest.approx(44.5037210481654908884971878372, rel=1e-13)
    assert oracles.one_log_eta(0.5, 1.0) == pytest.approx(
        -0.0810614667953272582196702635944, rel=1e-13)
    assert oracles.one_log_eta(0.5, 2.0) == pytest.approx(
        -0.0413406959554092940938220814071, rel=1e-13)
    assert oracles.one_finite_part(1.0) == pytest.approx(
        -10.1240969878771631719115663771, rel=1e-14)
    assert oracles.one_heat(1.0 / (4.0 * math.pi), 1.0) == pytest.approx(
        0.5 * 0.427583576155807004410750344491, rel=1e-14)

    def one_log_z(alpha, beta, ell):
        scale = math.log(2.0 * ell) - 1.0
        return (beta * scale * 2.0 * alpha
                - 0.5 * beta * oracles.one_finite_part(alpha)
                - oracles.one_log_eta(alpha, beta))

    assert one_log_z(0.25, 5.0, 1.0) == pytest.approx(
        2.12785553954329999638675919177, rel=1e-13)
    assert one_log_z(1.0, 30.0, 2.0) == pytest.approx(
        175.040505361380711722006067694, rel=1e-13)
    # ROADMAP's mpmath value of the force at (0.3, 3, a = 2)
    assert oracles.casimir_force(0.3, 3.0, 2.0) == pytest.approx(
        -9.6238e-5, rel=1e-4)


def test_checker_rejects_a_wrong_row(cli):
    argv = _first("one_point_tables", 2, 2)[1]
    code, out, _ = run.run_op(cli.main, argv)
    assert check.check(argv, code, out).passed
    lines = out.split("\n")
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    lines[1] = ",".join(cells)
    verdict = check.check(argv, code, "\n".join(lines))
    assert not verdict.passed and not verdict.malformed


@pytest.mark.parametrize("workload,seconds", [
    ("casimir_sweep", 0.5), ("one_point_tables", 0.2),
    ("two_point_tables", 1.0), ("verify_suite", 0.4)])
def test_traced_output_and_counts_repeat(cli, workload, seconds, tmp_path):
    counts = []
    for attempt in range(2):
        tally, metrics, _, identical, _ = run.run_traced(
            cli.main, workload, 3, seconds, tmp_path / f"spans{attempt}")
        assert identical
        assert tally.malformed == 0
        counts.append({name: value for name, (value, unit) in metrics.items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["models.eval_one.calls"] + counts[0][
        "models.eval_two.calls"] > 0
    if workload == "one_point_tables":
        assert counts[0]["quad.osc_tail.calls"] == 0


def test_tracer_restores_the_package(cli):
    import relspec.verify as verify
    import relspec.zetareg as zetareg
    before = (zetareg.integrate_to_infinity, verify.ALL_CHECKS)
    tracer = tracing.Tracer()
    tracer.install()
    assert zetareg.integrate_to_infinity is not before[0]
    tracer.uninstall()
    assert (zetareg.integrate_to_infinity, verify.ALL_CHECKS) == before
