"""sdkit benchmark: one command, three workloads, pinned answers.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
        [--out DIR]

Run from the repository root; sdkit is imported from ./src. One client,
closed loop, no threads: every pass is a fresh interpreter (passrun.py)
started only after the previous one exited. With --trace 0 a run is one
pass that answers the query list over and over for --seconds, each query
in a child forked from the set-up state, and that times set-up-only passes
started at even intervals between queries; it prints the end-to-end
metrics. Each query's time is its best over the run. With --trace 1 it
makes one untraced and one traced pass through the list in-process and
prints the per-layer split. The last line of standard output is one JSON object: correct,
attempted, failed, metrics. The exit code is 1 when any answer differs from
its pinned value, 2 when ./src/sdkit is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

# set-up is timed about this many times per run: by set-up-only passes that
# the measuring pass starts at even intervals, plus the measuring pass itself
SETUP_SAMPLES = 21
# the calibration job's best time in a run (passrun.Calibrator) when the
# 2-vCPU machine these figures come from (Python 3.11) is quiet; timings are
# reported at the speed this implies
CALIBRATION_NOMINAL_MS = 25.0
# the tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
# a pass may end this long after its deadline (its last query) before it is killed
PASS_GRACE_S = 60
PASS_TIMEOUT_S = 120


def tail(values):
    """(value, percentile): the highest order statistic that still has
    TAIL_BEYOND samples above it; the largest value when there are too few
    samples for that."""
    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * index / len(ordered)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "sdkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sdkit_commit": commit or "unknown",
        "sdkit_source_sha256": digest.hexdigest(),
    }


def run_pass(workload, seed, tag, until=None, setup_every=None, trace=False, setup_only=False, spans=None) -> dict:
    work = os.path.join(STATE, "work", f"{os.getpid()}-{tag}")
    result_path = os.path.join(STATE, "work", f"{os.getpid()}-{tag}.json")
    argv = [
        sys.executable, os.path.join(HERE, "passrun.py"),
        "--workload", workload, "--seed", str(seed), "--src", SRC,
        "--work", work, "--result", result_path,
    ]
    if until is not None:
        argv += ["--until", repr(until)]
    if setup_every is not None:
        argv += ["--setup-every", repr(setup_every)]
    if trace:
        argv.append("--trace")
    if spans:
        argv += ["--spans", spans]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    timeout = PASS_TIMEOUT_S if until is None else until - time.monotonic() + PASS_GRACE_S
    spawned_at = time.monotonic()
    # a session of its own, so that a timeout ends the pass and every process it started
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"pass exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    result["setup_s"] = result["first_query_at"] - spawned_at
    return result


def summarize(passes):
    """Correctness totals over the passes: every query execution is an
    attempt, and a pass that failed as a whole counts as one failed attempt."""
    attempted = failed = 0
    failures = {}
    for p in passes:
        if "error" in p:
            attempted += 1
            failed += 1
            failures.setdefault("pass", p["error"])
        else:
            attempted += p.get("executions", 0)
            failed += p.get("failed", 0)
            failures.update(p.get("failures", {}))
    return max(attempted, 1), failed, failures


def measure(workload, seed, seconds, trace) -> dict:
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    record.update(environment())
    if not trace:
        started = time.monotonic()
        main = run_pass(workload, seed, "main", until=started + seconds, setup_every=seconds / (SETUP_SAMPLES - 1))
        attempted, failed, failures = summarize([main])
        record.update(attempted=attempted, failed=failed, failures=failures)
        if "samples_s" in main:
            setups = [main["setup_s"]] + main["setup_samples_s"]
            record["setup_samples"] = setups
            record["query_ids"] = main["query_ids"]
            record["samples_ms"] = [[1000 * t for t in per_query] for per_query in main["samples_s"]]
            record["rounds"] = main["rounds"]
            record["calibration_ms"] = [1000 * t for t in main["calibration_s"]]
            record["pair_compositions"] = main["pair_compositions"]
            # each query at its best over the run: the machine's speed drifts
            # by tens of percent within seconds, and a query's fastest run is
            # the one least disturbed by that drift
            best_ms = [min(per_query) for per_query in record["samples_ms"] if per_query]
            if best_ms and len(best_ms) == len(record["query_ids"]) and record["calibration_ms"]:
                tail_ms, tail_pct = tail(best_ms)
                raw = {
                    "setup_s": statistics.median(setups),
                    "wall_s": sum(best_ms) / 1000,
                    "query_ms_p50": statistics.median(best_ms),
                    "query_ms_tail": tail_ms,
                }
                # the drift that outlasts a run: scale every time by how much
                # slower than nominal the calibration job ran at its best
                scale = CALIBRATION_NOMINAL_MS / min(record["calibration_ms"])
                record["raw_metrics"] = raw
                record["scale"] = scale
                record["metrics"] = {name: value * scale for name, value in raw.items()}
                record["metrics"]["peak_rss_mib"] = main["peak_rss_kib"] / 1024
                record["tail"] = {"percentile": tail_pct, "queries": len(best_ms)}
        record["error_rate"] = failed / attempted
        return record

    os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
    spans = os.path.join(STATE, "spans", f"{workload}-seed{seed}.json.gz")
    plain = run_pass(workload, seed, "plain")
    traced = run_pass(workload, seed, "traced", trace=True, spans=spans)
    attempted, failed, failures = summarize([plain, traced])
    record.update(attempted=attempted, failed=failed, failures=failures, error_rate=failed / attempted)
    if "wall_s" in plain and "wall_s" in traced:
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        record["metrics"] = layers
        record["untraced_wall_s"] = plain["wall_s"]
        record["pair_compositions"] = traced["pair_compositions"]
        record["skipped_wrappers"] = traced["skipped_wrappers"]
        record["spans_file"] = os.path.relpath(spans, ROOT)
    return record


def metric_units(trace) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record, units):
    env = f"python {record['python']}, nproc {record['nproc']}, sdkit {record['sdkit_commit'][:12]}"
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  ({env})")
    metrics = record.get("metrics", {})
    for name, unit in units.items():
        if name not in metrics:
            continue
        note = ""
        if name == "query_ms_tail":
            note = f"  (p{record['tail']['percentile']:.1f} of {record['tail']['queries']} queries' best times)"
        elif name == "query_ms_p50":
            note = f"  (median of {record['tail']['queries']} queries' best times)"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples'])} starts)"
        elif name == "wall_s":
            runs = [len(s) for s in record["samples_ms"]]
            note = f"  (each query's best of {min(runs)}-{max(runs)} runs, summed; {record['rounds']} rounds)"
        if name in record.get("raw_metrics", {}):
            note += f"  [{record['raw_metrics'][name]:.6g} {unit} as measured]"
        elif name == "solver.pred_cache_hit_ratio":
            note = f"  (1 - {metrics['solver.pred_calls']} / {metrics['solver.pair_compositions']})"
        elif name == "width.layering_valid_ratio":
            note = f"  ({metrics['width.layerings_valid']} / {metrics['width.layerings_tried']})"
        elif name == "trace.overhead_s":
            note = f"  (traced {metrics['trace.wall_s']:.3f} s - untraced {record['untraced_wall_s']:.3f} s)"
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}{note}")
    if "scale" in record:
        best = min(record["calibration_ms"])
        print(f"  {'timings scaled by':34s} {record['scale']:14.6g}       (nominal {CALIBRATION_NOMINAL_MS} ms / "
              f"calibration best {best:.3f} ms of {len(record['calibration_ms'])})")
    print(f"  {'error_rate':34s} {record['error_rate']:14.6g} ratio  ({record['failed']}/{record['attempted']})")
    for qid, reason in list(record["failures"].items())[:10]:
        print(f"  FAILED {qid}: {reason.strip().splitlines()[-1] if reason.strip() else reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sdkit benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the result records (default .perfbench/results)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sdkit", "__init__.py")):
        print(f"sdkit sources not found under {SRC}; run from an sdkit checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    out_dir = args.out or os.path.join(STATE, "results")
    os.makedirs(out_dir, exist_ok=True)
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            report(record, units)
            path = os.path.join(out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
            records.append(record)
    finally:
        shutil.rmtree(os.path.join(STATE, "work"), ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = all(set(units) <= set(r.get("metrics", {})) for r in records)
    correct = failed == 0 and complete
    prefix = (lambda r: "") if len(records) == 1 else (lambda r: r["workload"] + ".")
    metrics = {
        prefix(r) + name: {"value": r["metrics"][name], "unit": unit}
        for r in records
        for name, unit in units.items()
        if name in r.get("metrics", {})
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
