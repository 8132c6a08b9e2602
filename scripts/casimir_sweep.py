"""Sweep the Casimir force between two delta centers over their separation.

Writes plot-ready CSV to stdout; redirect to a file for plotting.

    python scripts/casimir_sweep.py > force_vs_a.csv
    python scripts/casimir_sweep.py --alpha0 2 --alpha1 0.5 --a-max 30
"""

import argparse

from relspec.cli import main as cli_main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha0", type=float, default=1.0)
    parser.add_argument("--alpha1", type=float, default=1.0)
    parser.add_argument("--a-min", type=float, default=0.5)
    parser.add_argument("--a-max", type=float, default=20.0)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--beta", type=float, default=5.0)
    args = parser.parse_args(argv)
    return cli_main([
        "casimir", "--model", "two-point",
        "--alpha0", repr(args.alpha0), "--alpha1", repr(args.alpha1),
        "--a-min", repr(args.a_min), "--a-max", repr(args.a_max),
        "--steps", str(args.steps), "--beta", repr(args.beta),
    ])


if __name__ == "__main__":
    raise SystemExit(main())
