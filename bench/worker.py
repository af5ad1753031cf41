"""One measurement process of the decksym benchmark.

``run.py`` starts this script in a fresh interpreter for every measurement,
so that import time and peak memory belong to one pass of one workload.  It
prints one JSON object as its last line of standard output.

Modes:
  --setup-only  import decksym, parse and compile the workload's systems.
  --trace 0     also run one pass over the workload's jobs, tracing off.
  --trace 1     run an untraced pass, then a traced one, compare the traced
                pass's counters with an earlier traced run of the same
                sources at the same seed, and run the evaluator probes.

Times are raw.  Set-up and every job also report their interval on
``time.monotonic()``, so that ``run.py`` can scale them with the gauge it
samples in its own process (``gauge.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import ROOT

sys.path.insert(0, str(ROOT / "src"))

STAGES = ("input", "monodromy", "group", "scaling", "interpolation", "verification")
PROBES = (("p3p", "p3p_quasihom"), ("fivepoint", "fivepoint_quasihom"), ("radial", "radial"))


def setup(paths: dict[str, Path]) -> dict:
    """Seconds to import decksym, parse each system and compile it once."""
    start = time.monotonic()
    import decksym  # noqa: F401  (the import is what is timed)
    from decksym import tracker
    from decksym.expr import parse_system

    for path in paths.values():
        tracker.compiled(parse_system(path.read_text()))
    end = time.monotonic()
    return {"seconds": end - start, "span": [start, end]}


def run_pass(configs) -> list[dict]:
    """Run every job once; wall and process CPU time of each."""
    from decksym import cli

    out = []
    for cfg in configs:
        start, cpu = time.monotonic(), time.process_time()
        report, code = cli.run(cfg)
        cpu, end = time.process_time() - cpu, time.monotonic()
        out.append(
            {"report": report, "code": code, "wall_s": end - start, "cpu_s": cpu,
             "span": [start, end]}
        )
    return out


def check_passes(workload: str, paths: dict[str, Path], passes) -> tuple[int, list[str]]:
    """Failed job count and the problems found, over every job of every pass."""
    from decksym.expr import parse_system

    systems = {f: parse_system(p.read_text()) for f, p in paths.items()}
    failed, problems = 0, []
    for results in passes:
        for job, res in zip(workloads.WORKLOADS[workload], results):
            found = workloads.check(job, res["report"], res["code"], systems[job.fixture])
            failed += bool(found)
            problems += [f"{job.label}: {p}" for p in found]
    return failed, problems


def pass_total(results, key: str) -> float:
    return sum(r[key] for r in results)


def stage_times(results) -> dict[str, float]:
    return {
        f"cli.{stage}_s": sum(r["report"]["timings"].get(stage, 0.0) for r in results)
        for stage in STAGES
    }


def kernel_probes() -> dict[str, float]:
    """µs per F + dF/dx + dF/dp evaluation at each fixture's bundled seed,
    with the term counts of F, Jx and Jp as the computed operation basis."""
    from decksym import expr, fixtures, tracker

    out = {}
    for key, name in PROBES:
        system = expr.parse_system(fixtures.fixture_path(name).read_text())
        comp = tracker.compiled(system)
        x, p = expr.parse_seed_pair(fixtures.seed_path(name).read_text())

        def evaluate():
            comp.f_and_jx(x, p)
            comp.jp_at(x, p)

        evaluate()
        batches = []
        for _ in range(5):
            reps, start = 0, time.perf_counter()
            while reps == 0 or time.perf_counter() - start < 0.05:
                evaluate()
                reps += 1
            batches.append((time.perf_counter() - start) / reps)
        out[f"tracker.eval_us.{key}"] = statistics.median(batches) * 1e6
        out[f"tracker.terms_f.{key}"] = sum(len(eq.terms) for eq in system.equations)
        for part, rows in (
            ("jx", expr.jacobian(system)),
            ("jp", expr.parameter_jacobian(system)),
        ):
            out[f"tracker.terms_{part}.{key}"] = sum(len(q.terms) for row in rows for q in row)
    return out


def one_pass(workload: str, paths, configs) -> dict:
    results = run_pass(configs)
    failed, problems = check_passes(workload, paths, [results])
    return {
        "attempted": len(results),
        "failed": failed,
        "problems": problems,
        "jobs": [{k: r[k] for k in ("wall_s", "cpu_s", "span")} for r in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stages": stage_times(results),
        "loops": [r["report"].get("monodromy", {}).get("loop_count") for r in results],
    }


def compile_seconds(paths) -> float:
    """Seconds to compile the workload's systems.  ``tracker.compiled`` keeps
    every compiled system for the life of the process, so passes after set-up
    never compile; this times the constructor directly."""
    from decksym import tracker
    from decksym.expr import parse_system

    systems = [parse_system(p.read_text()) for p in paths.values()]
    start = time.perf_counter()
    for system in systems:
        tracker.CompiledSystem(system)
    return time.perf_counter() - start


def source_digest() -> str:
    """Digest of every file the counters depend on: decksym and the benchmark."""
    digest = hashlib.sha256()
    for tree in (ROOT / "src" / "decksym", ROOT / "bench"):
        for path in sorted(tree.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def compare_counters(record: Path, counters: dict) -> tuple[str, list[str]]:
    """Compare with the counters an earlier traced run of the same sources
    recorded at the same workload and seed, or record them if there is none.

    Counters are deterministic, so any difference is a problem.  A traced
    pass takes 30 s on p3p_graded, too long to trace twice within one run.
    """
    source = source_digest()
    if record.is_file():
        earlier = json.loads(record.read_text())
        if earlier["source"] == source:
            old = earlier["counters"]
            diff = sorted(k for k in old.keys() | counters.keys() if old.get(k) != counters.get(k))
            if diff:
                return "differ", [f"counters differ from the earlier traced run: "
                                  f"{', '.join(diff[:8])}"]
            return "match the earlier traced run", []
    record.write_text(json.dumps({"source": source, "counters": counters}))
    return "recorded for the next traced run", []


def traced(workload: str, seed: int, paths, configs) -> dict:
    """An untraced pass, which also warms up, then a traced pass whose spans
    give the metrics."""
    from tracer import Tracer

    untraced = run_pass(configs)
    tracer = Tracer()
    with tracer:
        traced_pass = run_pass(configs)
    failed, problems = check_passes(workload, paths, [untraced, traced_pass])
    problems += tracer.check_fired(workload)
    counters = tracer.counters()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    counters_state, found = compare_counters(
        out_dir / f"counters-{workload}-seed{seed}.json", counters
    )
    problems += found
    metrics = tracer.metrics()
    metrics.update(stage_times(untraced))
    metrics["cli.pass_wall_s"] = pass_total(untraced, "wall_s")
    metrics["cli.pass_cpu_s"] = pass_total(untraced, "cpu_s")
    metrics["tracker.compile_s"] = compile_seconds(paths)
    metrics["trace_overhead_frac"] = (
        pass_total(traced_pass, "wall_s") / pass_total(untraced, "wall_s") - 1
    )
    metrics.update(kernel_probes())
    trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(
        json.dumps({"spans": tracer.dump(), "counters": counters}, separators=(",", ":"))
    )
    return {
        "attempted": 2 * len(configs),
        "failed": failed,
        "problems": problems,
        "passes": 2,
        "metrics": metrics,
        "layer_self_s": tracer.layer_self_times(),
        "stages": stage_times(traced_pass),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "counters": counters_state,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix=".bench-inputs-", dir=ROOT) as tmp:
        paths = workloads.write_inputs(args.workload, args.seed, Path(tmp))
        result = {"setup": setup(paths)}
        if not args.setup_only:
            configs = workloads.run_configs(args.workload, paths)
            if args.trace:
                result.update(traced(args.workload, args.seed, paths, configs))
            else:
                result.update(one_pass(args.workload, paths, configs))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
