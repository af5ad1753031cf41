"""decksym benchmark: time to a validated result on three pipeline workloads.

Usage:
  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every pass over a workload's jobs runs in a fresh worker process
(``worker.py``) with the BLAS and OpenMP thread counts pinned to 1, and
set-up is sampled in fresh processes around the passes.  Times are scaled
to a reference host speed, sampled by a gauge thread of this process while
each job runs (``gauge.py``); the raw times are printed beside them.
With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a
traced run (``tracer.py``), whose times are raw.  Every job's report is
checked; a wrong report counts as a failed job, never as a timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print the machine, the pinned variables and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from gauge import REFERENCE_UNIT_S, Gauge
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# A run must end within 180 s.  Workers share what is left of this budget;
# a traced p3p_graded run takes 70-75 s, so it still ends at half speed.
DEADLINE_S = 170
WAITING_WARN = 0.25

# Which end-to-end metric each layer should move, and on which workload.
PREDICTIONS = (
    ("tracker", "wall_s on p3p_graded (most) and triangular_d32, little on small_dense; "
                "compile_s moves setup_s"),
    ("monodromy", "wall_s on triangular_d32 (about 70%) and p3p_graded (about 60% with orbit "
                  "sampling)"),
    ("permgrp", "wall_s and peak_rss_mb on triangular_d32; no change on p3p_graded"),
    ("scaling", "wall_s on p3p_graded (about 10 s); triangular_d32 bypasses it"),
    ("interp", "wall_s on p3p_graded (graded) and small_dense (dense); triangular_d32 "
               "bypasses it"),
    ("numcore", "at most about 1% of wall_s on p3p_graded; some on small_dense"),
    ("expr", "setup_s on all workloads; verification share of wall_s on p3p_graded and "
             "small_dense"),
    ("cli", "the stage that each optimisation targets"),
)


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def worker(args, deadline: float, *extra) -> dict:
    env = dict(os.environ, **PINNED)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed(args, deadline: float) -> dict:
    """Passes in fresh processes until the next one would end after
    ``--seconds`` (at least one), reported as the median over passes.

    Set-up is the median of the samples taken in each pass process and in
    two set-up-only processes before and two after them.  Every job and
    set-up is scaled to the reference speed by the gauge samples taken while
    it ran; the raw medians are kept beside the scaled ones.
    """
    setups, passes = [], []
    with Gauge() as gauge:
        for _ in range(2):
            setups.append(worker(args, deadline, "--setup-only")["setup"])
        start = time.monotonic()
        rounds = []
        while True:
            began = time.monotonic()
            passes.append(worker(args, deadline))
            setups.append(passes[-1]["setup"])
            rounds.append(time.monotonic() - began)
            if time.monotonic() - start + statistics.median(rounds) > args.seconds:
                break
        for _ in range(2):
            setups.append(worker(args, deadline, "--setup-only")["setup"])

    def scaled(entry, key):
        return entry[key] * gauge.factor(*entry["span"])

    def median_total(key, scale):
        return statistics.median(
            sum(scaled(job, key) if scale else job[key] for job in p["jobs"]) for p in passes
        )

    setup_scaled = [scaled(s, "seconds") for s in setups]
    return {
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [q for p in passes for q in p["problems"]],
        "metrics": {
            "wall_s": median_total("wall_s", True),
            "cpu_s": median_total("cpu_s", True),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setup_scaled),
        },
        "raw": {
            "wall_s": median_total("wall_s", False),
            "cpu_s": median_total("cpu_s", False),
            "setup_s": statistics.median(s["seconds"] for s in setups),
        },
        "setups": setup_scaled,
        "gauge": {
            "samples": len(gauge.samples),
            "unit_ms": gauge.unit_s() * 1e3,
            "waiting_share": gauge.waiting_share(),
        },
        "stages": {
            k: statistics.median(p["stages"][k] for p in passes) for k in passes[0]["stages"]
        },
        "loops": passes[0]["loops"],
    }


def main() -> int:
    # Exit through SystemExit on SIGTERM so that subprocess.run kills and
    # waits for the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "decksym" / "__init__.py").is_file():
        print(f"error: no decksym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    try:
        result = worker(args, deadline) if args.trace else timed(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    info = machine()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  jobs {result['attempted']}")
    print("machine  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    print("pinned   " + "  ".join(f"{k}={v}" for k, v in PINNED.items()))
    for problem in result["problems"]:
        print(f"FAILED   {problem}")
    failed_frac = result["failed"] / result["attempted"]
    for m in wanted:
        print(f"{m['name']:<30} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<30} {failed_frac:>14.6g} ratio")
    if args.trace:
        print("layer self time (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1])
        ))
        print("stages of the traced pass (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in result["stages"].items()
        ))
        print(f"spans written to {result['trace_file']}; counters {result['counters']}")
        for layer, moves in PREDICTIONS:
            print(f"predicts {layer:<10} {moves}")
    else:
        print("raw (unscaled)                 " + "  ".join(
            f"{k} {v:.6g} s" for k, v in result["raw"].items()
        ))
        g = result["gauge"]
        print(f"gauge: {g['samples']} samples, median unit {g['unit_ms']:.4f} ms CPU "
              f"(reference {1e3 * REFERENCE_UNIT_S:g} ms), waited for a core in "
              f"{g['waiting_share']:.1%} of them")
        if g["waiting_share"] > WAITING_WARN:
            print("WARNING  the gauge often waited for a core: the measured program kept every "
                  "core busy; compare the raw times as well as the scaled ones")
        print(f"scaled setup_s samples: {', '.join(f'{v:.4f}' for v in result['setups'])}")
        print("median stages, unscaled (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in result["stages"].items()
        ))
        print(f"monodromy loops per job: {result['loops']}")

    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
