"""One pass over a workload's query list, in this fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --src DIR --work DIR --result FILE
        [--until T [--setup-every S] | --trace [--spans FILE] | --setup-only]

Set-up (importing sdkit, relabeling the pool, writing the input JSON files)
ends at the monotonic timestamp written as "first_query_at"; run.py
subtracts its own spawn timestamp from it.

With --until T the pass answers the list over and over until the monotonic
clock reads T (at least once through), and runs every query in a child
forked from the set-up state: each query starts with the planarity cache
and garbage collector of a CLI process that has just read its input, the
way a user's `sdkit` command does. The child times the call, judges the
answer and reports back through a pipe; the next child is forked only after
the previous one has exited. With --setup-every S it also times, about
every S seconds between two queries, the set-up of a set-up-only pass
started from here, so that set-up is sampled across the whole run. Every
CALIBRATE_EVERY_S seconds, between two queries, it times a fixed
calibration job (see Calibrator). Without
--until the queries run once, one after another, in this process (the
traced mode and its untraced twin).
"""
import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

import workloads

# the calibration job runs about this often (s) during a measuring pass
CALIBRATE_EVERY_S = 0.5


def _run_cli(cli, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(argv)
    return code, buffer.getvalue()


def _call(call):
    try:
        return call()
    except (Exception, SystemExit):  # a traceback or argparse exit is a failed query
        return ("raised", traceback.format_exc(limit=3))


def _judge(q, outcome):
    """(problem or None, pair count or None) for one query's outcome."""
    if outcome[0] == "raised":
        return outcome[1], None
    try:
        if q.argv is None:
            value, witness, stats = outcome
            return workloads.check_answer(q, (value, witness)), getattr(stats, "pair_compositions", None)
        code, stdout = outcome
        if code != 0:
            return f"exit code {code}: {stdout.strip()[:200]}", None
        problem = workloads.check_answer(q, stdout)
        pairs = json.loads(stdout).get("stats", {}).get("pairCompositions") if q.verb == "solve" else None
        return problem, pairs
    except (ValueError, KeyError, TypeError, AttributeError) as exc:  # malformed output
        return f"unreadable output: {exc!r}", None


def _forked(job):
    """(wait status, report): job() run in a child forked from this process,
    which sends back the JSON-able dict job() returns; None if it failed."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            report = job()
            with os.fdopen(write_end, "w", encoding="utf-8") as pipe:
                json.dump(report, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    return status, (json.loads(text) if status == 0 and text else None)


def _in_child(q, call) -> dict:
    """Answer one query in a child forked from this process and wait for it."""

    def answer():
        t0 = time.perf_counter()
        outcome = _call(call)
        latency = time.perf_counter() - t0
        problem, pairs = _judge(q, outcome)
        return {
            "latency_s": latency,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "problem": problem,
            "pairs": pairs,
        }

    status, report = _forked(answer)
    return report or {"problem": f"query child ended with wait status {status}"}


def _calibration_job() -> dict:
    """A fixed pure-Python job (dict, frozenset and sort work, no sdkit),
    timed; how long it takes measures how fast the machine is just then."""
    t0 = time.perf_counter()
    table = {}
    for i in range(20000):
        key = frozenset((i % 97, i % 89, i // 7))
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda kv: (len(kv[0]), kv[1]))
    return {"latency_s": time.perf_counter() - t0}


class Calibrator:
    """A helper process, forked before sdkit is imported, that on request
    times the calibration job in a child of its own. Like a query, the job
    then runs in a fresh fork and pays for its page faults and collections,
    but on a heap that holds no sdkit objects, so no change to sdkit changes
    its cost. The helper only waits while queries run."""

    def __init__(self):
        requests_r, self._requests = os.pipe()
        replies, replies_w = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            code = 1
            try:
                os.close(self._requests)
                os.close(replies)
                while os.read(requests_r, 1):
                    _, report = _forked(_calibration_job)
                    os.write(replies_w, f"{report['latency_s'] if report else -1.0}\n".encode())
                code = 0
            finally:
                os._exit(code)
        os.close(requests_r)
        os.close(replies_w)
        self._replies = os.fdopen(replies, encoding="utf-8")

    def measure_s(self) -> float:
        os.write(self._requests, b"x")
        seconds = float(self._replies.readline())
        if seconds < 0:
            raise RuntimeError("the calibration child failed")
        return seconds

    def close(self):
        os.close(self._requests)  # the helper reads end-of-file and exits
        self._replies.close()
        os.waitpid(self._pid, 0)


def _setup_time(args, tag) -> float:
    """Seconds from spawning a set-up-only pass to its first query."""
    result = f"{args.result}.{tag}"
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--src", args.src, "--work", f"{args.work}.{tag}", "--result", result, "--setup-only"]
    spawned_at = time.monotonic()
    subprocess.run(argv, check=True, timeout=120)
    with open(result, encoding="utf-8") as handle:
        first_query_at = json.load(handle)["first_query_at"]
    os.remove(result)
    return first_query_at - spawned_at


def _forked_until(queries, calls, until, calibrator, setup_every=None, time_setup=None) -> dict:
    samples = [[] for _ in queries]
    calibration, setups = [], []
    failures, counts = {}, {}
    executions = failed = rounds = peak_rss_kib = 0
    next_setup = time.monotonic() + setup_every if setup_every else math.inf
    next_calibration = time.monotonic()
    while rounds == 0 or time.monotonic() < until:
        for i, (q, call) in enumerate(zip(queries, calls)):
            if rounds and time.monotonic() >= until:
                break
            if time.monotonic() >= next_calibration:
                calibration.append(calibrator.measure_s())
                next_calibration += CALIBRATE_EVERY_S
            if time.monotonic() >= next_setup:
                setups.append(time_setup(len(setups)))
                next_setup += setup_every
            report = _in_child(q, call)
            executions += 1
            if report["problem"]:
                failed += 1
                failures.setdefault(q.id, report["problem"])
                continue
            samples[i].append(report["latency_s"])
            peak_rss_kib = max(peak_rss_kib, report["peak_rss_kib"])
            if report["pairs"] is not None:
                counts[q.id] = report["pairs"]
        rounds += 1
    return {
        "samples_s": samples,
        "calibration_s": calibration,
        "setup_samples_s": setups,
        "rounds": rounds,
        "executions": executions,
        "failed": failed,
        "peak_rss_kib": peak_rss_kib,
        "failures": failures,
        "pair_compositions": counts,
    }


def _in_process(queries, calls, tracer) -> dict:
    outcomes, latencies = [], []
    started = time.perf_counter()
    for q, call in zip(queries, calls):
        t0 = time.perf_counter()
        outcomes.append(tracer.query(q.id, lambda call=call: _call(call)) if tracer else _call(call))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - started
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures, counts = {}, {}
    for q, outcome in zip(queries, outcomes):
        problem, pairs = _judge(q, outcome)
        if problem:
            failures[q.id] = problem
        elif pairs is not None:
            counts[q.id] = pairs
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "executions": len(queries),
        "failed": len(failures),
        "peak_rss_kib": peak_rss_kib,
        "failures": failures,
        "pair_compositions": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True, help="directory that holds the sdkit package")
    parser.add_argument("--until", type=float, help="repeat the list in forked children until this monotonic time")
    parser.add_argument("--setup-every", type=float, help="with --until: time a set-up-only pass this often (s)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    calibrator = Calibrator() if args.until is not None else None
    try:
        return _pass(args, calibrator)
    finally:
        if calibrator:
            calibrator.close()


def _pass(args, calibrator) -> int:
    import sdkit
    import sdkit.cli
    import sdkit.solver
    from sdkit.core import Graph
    from sdkit.decomposition import decomposition_from_json

    expected = os.path.join(os.path.abspath(args.src), "sdkit")
    if os.path.dirname(os.path.abspath(sdkit.__file__)) != expected:
        print(f"imported sdkit from {sdkit.__file__}, expected {expected}", file=sys.stderr)
        return 2

    prepared = workloads.prepare(args.workload, args.seed, args.work)
    library_inputs = {
        qid: (Graph.from_json(g), decomposition_from_json(d), labeling)
        for qid, (g, d, labeling) in prepared.library_inputs.items()
    }
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = {"first_query_at": time.monotonic()}
    if args.setup_only:
        shutil.rmtree(args.work, ignore_errors=True)
        _write(args.result, result)
        return 0

    cli, solver = sys.modules["sdkit.cli"], sys.modules["sdkit.solver"]
    calls = []
    for q in prepared.queries:
        if q.argv is not None:
            calls.append(lambda argv=q.argv: _run_cli(cli, argv))
        else:
            g, d, labeling = library_inputs[q.id]
            calls.append(lambda g=g, d=d, labeling=labeling: solver.longest_path(g, d, labeling))
    if args.until is not None:
        result.update(_forked_until(prepared.queries, calls, args.until, calibrator, args.setup_every,
                                    lambda i: _setup_time(args, f"s{i}")))
    else:
        result.update(_in_process(prepared.queries, calls, tracer))
    result["query_ids"] = [q.id for q in prepared.queries]
    shutil.rmtree(args.work, ignore_errors=True)
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["skipped_wrappers"] = tracer.skipped
        if args.spans:
            tracer.write_spans(args.spans)
    _write(args.result, result)
    return 0


def _write(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


if __name__ == "__main__":
    sys.exit(main())
