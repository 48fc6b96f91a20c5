#!/usr/bin/env python3
"""Mixture-strategy ablation on the overlapping-cluster stream.

Runs every variant on identical streams across several class-order seeds, as
a grid over the variant: the comparative table goes to <out>/grid.csv and
each run's accuracies to <out>/runs.csv.
"""
from __future__ import annotations

import argparse
import sys

from noisemix.cli import main as cli_main
from noisemix.experiment import ABLATION_VARIANTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/ablation")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1993, 2003)))
    parser.add_argument("--overlap", type=int, default=8)
    args = parser.parse_args()
    return cli_main(
        [
            "grid",
            "--axis", "variant=" + ",".join(ABLATION_VARIANTS),
            "--set", f"data.overlap_classes={args.overlap}",
            "--set", "data.samples_per_class=30",
            "--set", "backbone.buffer_size=512",
            "--class-seeds", *[str(s) for s in args.seeds],
            "--out", args.out,
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
