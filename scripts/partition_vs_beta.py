"""Tabulate log Z against inverse temperature for both models.

Shows the low-temperature linear law log Z ~ -E_vacuum beta directly in
the emitted numbers.

    python scripts/partition_vs_beta.py > logz_vs_beta.csv
"""

import argparse

from relspec.models import OnePointModel, TwoPointModel
from relspec.thermo import ThermalState, one_point_partition, \
    two_point_partition


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--alpha0", type=float, default=1.0)
    parser.add_argument("--alpha1", type=float, default=1.0)
    parser.add_argument("--a", type=float, default=1.0)
    parser.add_argument("--beta-min", type=float, default=1.0)
    parser.add_argument("--beta-max", type=float, default=40.0)
    parser.add_argument("--samples", type=int, default=20)
    args = parser.parse_args(argv)
    if args.samples < 2:
        parser.error("--samples must be >= 2")

    one = OnePointModel(args.alpha)
    two = TwoPointModel(args.alpha0, args.alpha1, args.a)
    print("beta,log_z_one_point,log_z_two_point,"
          "evac_one_point,evac_two_point")
    for i in range(args.samples):
        beta = args.beta_min + i * (args.beta_max - args.beta_min) \
            / (args.samples - 1)
        th = ThermalState(beta)
        r1 = one_point_partition(one, th)
        r2 = two_point_partition(two, th)
        print(",".join(f"{x:.17g}" for x in
                       (beta, r1.log_z, r2.log_z,
                        r1.vacuum_energy, r2.vacuum_energy)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
