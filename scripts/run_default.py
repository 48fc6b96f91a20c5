#!/usr/bin/env python3
"""Run the default desk-scale incremental stream and print the summary."""
from __future__ import annotations

import argparse
import sys

from noisemix.cli import main as cli_main
from noisemix.config import PROFILES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/default")
    parser.add_argument("--class-seed", type=int, default=1993)
    parser.add_argument("--profile", choices=list(PROFILES), default="desk")
    args = parser.parse_args()
    return cli_main(
        [
            "train",
            "--profile", args.profile,
            "--set", f"data.class_seed={args.class_seed}",
            "--out", args.out,
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
