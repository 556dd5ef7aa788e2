#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the HASTE schedulers.

    python3 perfbench/run.py --workload offline-2x --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, untraced + traced
    python3 perfbench/run.py --self-test                    # tiny sizes, checks the output format
    python3 perfbench/run.py --write-benchmark-json         # regenerates BENCHMARK.json

Run from the repository root. The first call configures and builds
perfbench/ (a CMake package linking the repository's libraries) in Release
mode under $CARGO_TARGET_DIR, or .bench_build when that is unset. Each
workload runs in its own process on inputs generated from --seed. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics of BENCHMARK.json when
--trace 0 and its per-layer metrics when --trace 1. Everything above that
line is the human-readable report: host context, checks, every metric with
its unit and sample count, and (traced) the per-span self-time table.
See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 32
# Every run holds at least this many plans (a p90 with ten samples beyond
# it); on a slow host the timed phase runs past --seconds to reach it.
MIN_PLANS = 100
LIBRARY_THREADS = "2"
DEADLINE_S = 165  # one invocation, build excluded

WORKLOADS = {
    "offline-2x": {
        "why": "offline HASTE (TabularGreedy, C=4, S=16) on distinct 100-charger/400-task "
               "instances, JSON text in and out; ground set and color stages dominate, "
               "dist/predict/serve bypassed",
        "plan_span": "offline.solve",
        "count": lambda seconds: max(2, math.ceil(5 * seconds)),
    },
    "online-paper": {
        "why": "reactive online HASTE at paper scale (50/200), one on_arrival per arrival "
               "batch; negotiation is ~100% of the time, offline ground set and predict bypassed",
        "plan_span": "online.arrival",
        "count": lambda seconds: 8,
    },
    "serve-bursty": {
        "why": "two lock-step clients replaying bursty 20/80 sessions with the predictor on "
               "and two charger failures each against an in-process daemon; the only "
               "serve and predict workload",
        "plan_span": "serve.session",
        "count": lambda seconds: 48,
    },
}
TINY_COUNT = 3

# (name, unit, better, bound); bound None = printed but not in BENCHMARK.json.
# messages_per_plan is 0 on offline-2x and fail_ratio is 0 on a correct run,
# so neither can serve as a relative gate; the JSON line carries
# attempted/failed instead of fail_ratio. plan_ms.p90 spread over 0.25 across
# ten seeds on online-paper, so it is printed but not gated. The timings get
# the widest bound because host speed drifts by more than 0.2 between
# windows minutes apart (see README.md, "Why it is built this way").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("plan_ms.p50", "ms", "lower", 0.25),
    ("plan_ms.p90", "ms", "lower", None),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("normalized_utility", "ratio", "higher", 0.1),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("messages_per_plan", "count/plan", "lower", None),
    ("fail_ratio", "ratio", "lower", None),
]

# (name, unit, better, in BENCHMARK.json). A layer-specific timing reads 0
# with no samples on a workload that bypasses its layer, so it is printed
# but not listed; its .self_share ratio stands in for it in the file.
PER_LAYER = [
    ("io.parse_ms", "ms", "lower", True),
    ("io.write_ms", "ms", "lower", True),
    ("model.network_ms", "ms", "lower", True),
    ("core.dominant_sets_ms", "ms", "lower", True),
    ("core.dominant_sets", "count/plan", "lower", True),
    ("core.build_partitions_ms", "ms", "lower", False),
    ("core.partitions", "count/plan", "lower", True),
    ("core.policies", "count/plan", "lower", True),
    ("core.offline_ms", "ms", "lower", False),
    ("core.row_evals", "count/plan", "lower", True),
    ("core.marginal_evals", "count/plan", "lower", True),
    ("core.evaluate_ms", "ms", "lower", True),
    ("dist.replan_ms", "ms", "lower", False),
    ("dist.finish_ms", "ms", "lower", False),
    ("dist.messages", "count/plan", "lower", True),
    ("dist.deliveries", "count/plan", "lower", True),
    ("dist.rounds", "count/plan", "lower", True),
    ("dist.row_evals", "count/plan", "lower", True),
    ("dist.ns_per_delivery", "ns", "lower", False),
    ("predict.deferred_ratio", "ratio", "higher", True),
    ("predict.hits", "count/plan", "higher", True),
    ("predict.misses", "count/plan", "lower", True),
    ("serve.open_ms", "ms", "lower", False),
    ("serve.deferred_ms", "ms", "lower", False),
    ("serve.finish_ms", "ms", "lower", False),
    ("serve.session_ms", "ms", "lower", False),
    ("core.build_partitions.self_share", "ratio", "lower", True),
    ("core.offline.self_share", "ratio", "lower", True),
    ("dist.replan.self_share", "ratio", "lower", True),
    ("dist.finish.self_share", "ratio", "lower", True),
    ("serve.open.self_share", "ratio", "lower", True),
    ("serve.replan.self_share", "ratio", "lower", True),
    ("serve.deferred.self_share", "ratio", "lower", True),
    ("serve.finish.self_share", "ratio", "lower", True),
    ("layer_coverage", "ratio", "higher", True),
    ("trace.overhead_ms", "ms", "lower", True),
]


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END if bound is not None],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, listed in PER_LAYER if listed],
    }


def benchmark_json_text():
    return json.dumps(benchmark_json(), indent=2) + "\n"


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Configures (once) and builds the benchmark; returns (program, trace_check)."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    cmake_dir = out / "cmake"
    build_log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / "build.lock", "w") as lock, open(build_log, "w") as log_file:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "--target", "haste_perfbench",
                      "trace_check", "-j", jobs])
        for step in steps:
            code = subprocess.run(step, stdout=log_file, stderr=subprocess.STDOUT).returncode
            if code != 0:
                if step[1] == "-S":
                    shutil.rmtree(cmake_dir, ignore_errors=True)
                tail = build_log.read_text(errors="replace").splitlines()[-25:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return cmake_dir / "haste_perfbench", cmake_dir / "haste" / "tools" / "trace_check"


def host_context(seed):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE / "src"):
        for path in sorted(tree.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "workload_seed": seed}


def run_workload(program, trace_check, workload, seed, seconds, trace, deadline, tiny=False):
    spec = WORKLOADS[workload]
    tag = f"{workload}-{seed}{'-tiny' if tiny else ''}-{os.getpid()}"
    inputs = build_dir() / "inputs" / tag
    trace_file = build_dir() / "traces" / f"{tag}.json"
    shutil.rmtree(inputs, ignore_errors=True)
    count = TINY_COUNT if tiny else spec["count"](seconds)
    generate = [str(program), "generate", "--workload", workload, "--seed", str(seed % (1 << 63)),
                "--count", str(count), "--out", str(inputs)] + (["--tiny"] if tiny else [])
    try:
        if subprocess.run(generate, timeout=60).returncode != 0:
            raise BenchError(f"{workload}: input generation failed")
        command = [str(program), "run", "--workload", workload, "--inputs", str(inputs),
                   "--seconds", str(seconds), "--min-plans", "1" if tiny else str(MIN_PLANS)]
        if trace:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            command += ["--trace", "--trace-out", str(trace_file)]
        env = dict(os.environ, HASTE_THREADS=LIBRARY_THREADS)
        remaining = max(1.0, deadline - time.monotonic())
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: measured process exceeded {remaining:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload}: measured process exited {proc.returncode}")
        result = json.loads(lines[-1])
        result["trace_check"] = "not traced"
        if trace:
            check = subprocess.run([str(trace_check), str(trace_file), "--require-name",
                                    spec["plan_span"]], capture_output=True, text=True,
                                   timeout=60)
            result["trace_check"] = (check.stdout + check.stderr).strip()
            if check.returncode != 0:
                result["correct"] = False
                result["errors"].append("trace_check: " + result["trace_check"])
        return result
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        trace_file.unlink(missing_ok=True)


def contract_line(result, trace):
    table = PER_LAYER if trace else END_TO_END
    source = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for row in table:
        name, unit = row[0], row[1]
        listed = row[3] if trace else row[3] is not None
        if listed:
            metrics[name] = {"value": source[name]["value"], "unit": unit}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def report(result, workload, seed, seconds, trace, context):
    ctx = dict(result["context"], **context)
    print(f"== perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("context: " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    print(f"checks: correct={str(result['correct']).lower()} attempted={result['attempted']} "
          f"failed={result['failed']} plans={result['plans']} digest={result['digest']} "
          f"({result['digest_scope']})")
    for error in result["errors"]:
        print(f"  error: {error}")
    if trace:
        print(f"trace_check: {result['trace_check']}")
    print("end-to-end (untraced ops):")
    for name, unit, _, _ in END_TO_END:
        entry = result["end_to_end"][name]
        print(f"  {name:<34} {entry['value']:>14.6g} {unit:<10} samples={entry['samples']}")
    if trace:
        print("per-layer (traced ops; timings are p50 per call, counts per plan):")
        for name, unit, _, _ in PER_LAYER:
            entry = result["per_layer"][name]
            print(f"  {name:<34} {entry['value']:>14.6g} {unit:<10} samples={entry['samples']}")
        print("spans (self time as a share of the plan spans):")
        for row in sorted(result["layers"], key=lambda r: -r["self_ms"]):
            print(f"  {row['span']:<26} calls={row['calls']:<7} p50_ms={row['p50_ms']:<10.4g} "
                  f"self_ms={row['self_ms']:<11.5g} share={row['self_share_of_plans']:.4f}")


def check_line(line, trace):
    """Problems with one contract line, as the self-test sees them."""
    expected = benchmark_json()["per_layer" if trace else "end_to_end"]
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if set(line["metrics"]) != {m["name"] for m in expected}:
        problems.append("metric names differ from BENCHMARK.json")
    for metric in expected:
        got = line["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{metric['name']}: {got}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"correct={line['correct']} failed={line['failed']}")
    return problems


def self_test(program, trace_check):
    problems = []
    on_disk = ROOT / "BENCHMARK.json"
    if not on_disk.exists() or on_disk.read_text() != benchmark_json_text():
        problems.append("BENCHMARK.json is stale; rerun with --write-benchmark-json")
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(program, trace_check, workload, 1, 1, trace,
                                  time.monotonic() + 120, tiny=True)
            report(result, workload, 1, 1, trace, {})
            if result["end_to_end"]["fail_ratio"]["value"] != 0:
                problems.append(f"{workload}: fail_ratio is not 0")
            for name, _, _, _ in END_TO_END:
                if name not in result["end_to_end"]:
                    problems.append(f"{workload}: end-to-end {name} missing")
            if trace:
                for name, _, _, _ in PER_LAYER:
                    if name not in result["per_layer"]:
                        problems.append(f"{workload}: per-layer {name} missing")
            problems += [f"{workload} trace={int(trace)}: {p}"
                         for p in check_line(contract_line(result, trace), trace)]
    for problem in problems:
        print(f"self-test: {problem}")
    print("self-test: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(benchmark_json_text())
        return 0
    try:
        program, trace_check = build()
        if args.self_test:
            return self_test(program, trace_check)
        context = host_context(args.seed)
        if args.workload != "all":
            deadline = time.monotonic() + DEADLINE_S
            result = run_workload(program, trace_check, args.workload, args.seed,
                                  args.seconds, bool(args.trace), deadline)
            report(result, args.workload, args.seed, args.seconds, bool(args.trace), context)
            print(json.dumps(contract_line(result, bool(args.trace))), flush=True)
            return 0
        summary = {}
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_workload(program, trace_check, workload, args.seed, args.seconds,
                                      trace, time.monotonic() + DEADLINE_S)
                report(result, workload, args.seed, args.seconds, trace, context)
                summary.setdefault(workload, {})["trace" if trace else "untraced"] = \
                    contract_line(result, trace)
        print(json.dumps(summary), flush=True)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as error:
        log(str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
