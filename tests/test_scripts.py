"""Smoke tests of the example scripts, run in-process with small arguments.

The scripts are not part of the package, so only these tests notice when
an API they use changes.
"""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_rows(out, width):
    lines = out.strip().split("\n")
    assert all(len(line.split(",")) == width for line in lines)
    return lines[1:]


def test_casimir_sweep_script(capsys):
    assert load("casimir_sweep").main(["--steps", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(csv_rows(captured.out, 3)) == 2


def test_partition_vs_beta_script(capsys):
    assert load("partition_vs_beta").main(["--samples", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(csv_rows(captured.out, 5)) == 2


@pytest.mark.parametrize("samples", ["1", "0"])
def test_partition_vs_beta_rejects_fewer_than_two_samples(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        load("partition_vs_beta").main(["--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples must be >= 2" in captured.err
