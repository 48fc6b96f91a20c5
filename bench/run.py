#!/usr/bin/env python3
"""noisemix benchmark: each workload run in fresh processes, one at a time.

Runs one workload (or ``all`` of them, in turn) for at least ``--seconds``
seconds in whole runs, each run a fresh child process started one at a time
(``child.py``), and goes on to three untraced runs when the third ends within
twice ``--seconds``. Untraced runs give the end-to-end metrics as medians.
With ``--trace 1`` untraced and traced runs alternate, starting with an
untraced one, and the per-layer metrics come from the traced ones. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

No BLAS thread variable is set here; the children inherit the environment
as it is, and every result records what was in force.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("desk", "wide-buffer", "ablation-overlap", "embedding-20task")
TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 3  # set-up is measured at least this often per run, in set-up-only children when needed
MIN_RUNS = 3  # untraced runs past --seconds, while the next one ends within twice --seconds


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_child(workload: str, seed: int, flags: list[str], index: int, work: Path, csv: Path | None,
              deadline: float) -> dict:
    out, result = work / f"run{index}", work / f"run{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--result", str(result), *flags]
    if csv is not None:
        cmd += ["--csv", str(csv)]
    proc = subprocess.run(cmd, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"{workload} run {index} exited with code {proc.returncode}")
    record = json.loads(result.read_text(encoding="utf-8"))
    shutil.rmtree(out, ignore_errors=True)  # the wide-buffer checkpoint alone is over 500 MB
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Runs of one workload; returns the result object and prints a summary."""
    started = time.monotonic()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv = None
    if workload == "embedding-20task":
        import gen_embedding

        csv = work / "embedding.csv"
        gen_embedding.write(csv, *gen_embedding.generate(seed))

    deadline = started + TIME_LIMIT_S
    counter = itertools.count()
    child = lambda flags: run_child(workload, seed, flags, next(counter), work, csv, deadline)
    runs: list[dict] = []
    traced_runs: list[dict] = []
    measure_start = time.monotonic()
    while True:  # with --trace 1, untraced and traced runs alternate, so drift does not read as overhead
        t0 = time.monotonic()
        runs.append(child([]))
        if trace:
            traced_runs.append(child(["--trace"]))
        now = time.monotonic()
        elapsed, step = now - measure_start, now - t0
        done = elapsed >= seconds and (trace or len(runs) >= MIN_RUNS or elapsed + step > 2 * seconds)
        if done or now + step > deadline - 10:
            break
    setups = [r["setup_s"] for r in runs]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(child(["--setup-only"])["setup_s"])

    everything = runs + traced_runs
    failures = [f for r in everything for f in r["failures"]]
    if len({json.dumps(r["artifacts"], sort_keys=True) for r in everything}) != 1:
        failures.append("runs of the same workload wrote different artifacts")
    attempted = sum(r["attempted"] for r in everything)
    failed = 0  # a session that raises ends its child with a traceback, and this run exits non-zero

    median = lambda rs, key: statistics.median(r[key] for r in rs)
    if trace:
        units = metric_units("per_layer")
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced_runs), "unit": unit}
                   for name, unit in units.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {"value": median(traced_runs, "run_s") - median(runs, "run_s"),
                                       "unit": units["trace.overhead_s"]}
    else:
        metrics = {name: {"value": median(runs, name), "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
        metrics["setup_s"]["value"] = statistics.median(setups)

    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "runs": [{k: r[k] for k in ("setup_s", "run_s", "check_s", "peak_rss_mb")} for r in runs],
        "setup_s": setups,
        "traced_runs": [{k: r[k] for k in ("setup_s", "run_s", "check_s", "peak_rss_mb")} for r in traced_runs],
        "failures": failures,
        "ridge_rel_error": max(r["ridge_rel_error"] for r in everything),
        "environment": everything[0]["environment"],
    }
    (WORK / f"{workload}.result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{workload}: {len(runs)} untraced and {len(traced_runs)} traced runs, "
          f"{attempted} sessions attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"  CHECK FAILED: {f}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "noisemix" / "__init__.py").is_file():
        print(f"no noisemix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}/{k}": v for w, p in parts.items() for k, v in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
