"""Byte identity on the benchmark's own queries: every CLI query of the three
perfbench workloads at seed 5, and the longest_path library calls, against
the exit code and stdout sha256 pinned in golden/pool.json.

perfbench/ is only read here. To rewrite the golden after a deliberate
output change, run `python tests/test_pool_golden.py` from the repository
root.
"""
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from sdkit import Graph, cli, decomposition_from_json
from sdkit.errors import SdkitError
from sdkit.solver import longest_path

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "pool.json"
WORKLOADS = ("ladder-fold", "small-queries", "width-exact")
SEED = 5


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def outcomes(workload: str, work_dir: str) -> dict:
    """query id -> (argv, [exit code, stdout sha256]); argv is None for a
    library call, whose (value, witness, stats) is hashed as JSON, and whose
    refusal (an SdkitError) is exit code 1 with its text hashed."""
    prepared = _workloads().prepare(workload, SEED, work_dir)
    found = {}
    for q in prepared.queries:
        if q.argv is None:
            g, d, labeling = prepared.library_inputs[q.id]
            try:
                value, witness, stats = longest_path(Graph.from_json(g), decomposition_from_json(d), labeling)
                code, out = 0, json.dumps([value, witness.to_json(), list(stats)], sort_keys=True)
            except SdkitError as exc:  # a refusal is an outcome to compare
                code, out = 1, f"{type(exc).__name__}: {exc}"
        else:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.run(q.argv)
            out = buffer.getvalue()
        found[q.id] = (q.argv, [code, hashlib.sha256(out.encode("utf-8")).hexdigest()])
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pool_queries_match_golden(tmp_path, workload):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]
    found = outcomes(workload, str(tmp_path))
    assert sorted(found) == sorted(golden)
    mismatched = [
        (argv or ["longest_path", qid], outcome, golden[qid])
        for qid, (argv, outcome) in sorted(found.items())
        if outcome != golden[qid]
    ]
    assert mismatched == []


if __name__ == "__main__":
    written = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for name in WORKLOADS:
            written[name] = {qid: outcome for qid, (_, outcome) in outcomes(name, work_dir).items()}
    GOLDEN.write_text(json.dumps(written, sort_keys=True, indent=1) + "\n", encoding="utf-8")
