"""Tests of the benchmark itself: pinned answers against independent oracles,
seeded inputs, the correctness gate and the traced counts.

    python3 -m pytest perfbench -q

The pins are checked against oracles.py (networkx, a subset-DP tree-width,
a level-function layered tree-width), never against sdkit. The traced-count
tests start real passes and take about a minute.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import make_pool  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

POOL = workloads.load_pool()

# ROADMAP figures for the ladder path decompositions; ladder-5 is not in a
# workload (its solves take seconds) and is solved on its own below
ROADMAP_PAIRS = {"ladder-4-paths": 22_080}
ROADMAP_LADDER_5_PAIRS = {"paths": 210_036, "bipartite": 269_545, "planar": 269_545}


def oracle_answer(q, graphs, decs) -> dict:
    verb = q["verb"]
    if verb in ("solve", "longest_path"):
        # ladder solves name no graph; the ladder graph has the decomposition's name
        graph = graphs[q.get("graph", q["decomposition"])]
        return {"value": oracles.max_edges_with(graph, q.get("property", "longest_path"))}
    if verb == "colim":
        n, m = oracles.colimit_size(decs[q["decomposition"]])
        return {"vertices": n, "edges": m}
    if verb == "check":
        target = decs[q["decomposition"]] if "decomposition" in q else None
        return {"violations": oracles.decomposition_violations(target) if target else []}
    if verb == "to-arrow":
        dec = decs[q["decomposition"]]
        return {
            "total": [sum(b["size"] for b in dec["bags"]), sum(a["apex"]["size"] for a in dec["adhesions"])],
            "base": [dec["shape"]["vertices"], len(dec["shape"]["edges"])],
        }
    if verb == "chordal":
        return {"chordal": oracles.is_chordal(graphs[q["graph"]])}
    if verb == "clique-tree":
        return {"bag_sizes": oracles.maximal_clique_sizes(graphs[q["graph"]])}
    if verb == "h-width":
        return {"value": oracles.h_width(decs[q["decomposition"]], q["property"])}
    if verb == "treewidth":
        return {"value": oracles.treewidth_subset_dp(graphs[q["graph"]])}
    if verb == "co-treewidth":
        return {"value": oracles.treewidth_subset_dp(oracles.complement(graphs[q["graph"]]))}
    if verb == "layered-width":
        g = graphs[q["graph"]]
        if q["graph"] == "P6":
            return {"value": 1}  # a path: one vertex per layer, width-1 decomposition
        if q["graph"] == "K6":
            return {"value": 3}  # K_n has layered tree-width ceil(n / 2)
        return {"value": oracles.layered_treewidth_levels(g)}
    raise AssertionError(f"no oracle for {verb}")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pins_equal_independent_oracles(workload):
    for q in POOL["queries"][workload]:
        assert q["expect"] == oracle_answer(q, POOL["graphs"], POOL["decompositions"]), q["id"]


@pytest.mark.parametrize("k", [3, 4])
def test_ladder_closed_forms(k):
    pins = {q["id"]: q["expect"]["value"] for q in POOL["queries"]["ladder-fold"]}
    assert pins[f"ladder-{k}-paths"] == 2 * k - 1
    assert pins[f"ladder-{k}-bipartite"] == 3 * k - 2
    assert pins[f"ladder-{k}-planar"] == 3 * k - 2
    assert pins[f"ladder-{k}-longest_path"] == 2 * k - 1


def test_oracle_cross_checks():
    assert oracles.layered_treewidth_levels({"vertices": 5, "edges": [[i, i + 1] for i in range(4)]}) == 1
    k5 = {"vertices": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}
    assert oracles.layered_treewidth_levels(k5) == 3
    assert oracles.treewidth_subset_dp(k5) == 4
    grid = {"vertices": 9, "edges": [[r * 3 + c, r * 3 + c + 1] for r in range(3) for c in range(2)]
            + [[r * 3 + c, (r + 1) * 3 + c] for r in range(2) for c in range(3)]}
    assert oracles.treewidth_subset_dp(grid) == 3


def _prepared_files(workload, seed, directory):
    prepared = workloads.prepare(workload, seed, str(directory), POOL)
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            files[name] = handle.read()
    return [q.id for q in prepared.queries], files, prepared


def test_same_seed_same_inputs(tmp_path):
    a = _prepared_files("small-queries", 7, tmp_path / "a")
    b = _prepared_files("small-queries", 7, tmp_path / "b")
    c = _prepared_files("small-queries", 8, tmp_path / "c")
    assert a[:2] == b[:2]
    assert a[0] != c[0] and a[1] != c[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeled_inputs_keep_their_answers(tmp_path, seed):
    for workload in ("small-queries", "ladder-fold"):
        _, files, prepared = _prepared_files(workload, seed, tmp_path / workload)
        graphs = {name[2:-5]: json.loads(text) for name, text in files.items() if name.startswith("g-")}
        decs = {name[2:-5]: json.loads(text) for name, text in files.items() if name.startswith("d-")}
        for q in prepared.queries:
            if "graph" in q.spec or q.verb in ("colim", "check", "h-width", "to-arrow"):
                assert q.spec["expect"] == oracle_answer(q.spec, graphs, decs), q.id
            if "decomposition" in q.spec:
                dec, original = decs[q.spec["decomposition"]], POOL["decompositions"][q.spec["decomposition"]]
                assert not oracles.decomposition_violations(dec), q.id
                assert oracles.colimit_size(dec) == oracles.colimit_size(original), q.id
        for qid, (graph, dec, labeling) in prepared.library_inputs.items():
            # the relabeled labeling still maps every bag edge onto a graph edge
            present = {tuple(e) for e in graph["edges"]}
            for bag, lab in zip(dec["bags"], labeling):
                assert all(tuple(sorted((lab[u], lab[v]))) in present for u, v in bag["edges"]), qid


def test_gate_rejects_wrong_answers(tmp_path):
    prepared = workloads.prepare("small-queries", 3, str(tmp_path), POOL)
    solve = next(q for q in prepared.queries if q.verb == "solve" and q.spec["expect"]["value"] > 0)
    value = solve.spec["expect"]["value"]
    edges = [list(e) for e in solve.graph["edges"]]
    wrong = json.dumps({"value": value + 1, "witness": {"vertices": [], "edges": edges[: value + 1]}})
    assert workloads.check_answer(solve, wrong)
    width = next(q for q in prepared.queries if q.verb == "h-width")
    assert workloads.check_answer(width, json.dumps({"hWidth": width.spec["expect"]["value"] + 1}))


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) == 10 and percentile == 89.0
    assert run.tail([3, 1, 2]) == (3, 100.0 * 2 / 3)  # too few samples: the largest


def _traced_pass(tmp_path, workload, seed) -> dict:
    result = tmp_path / f"{workload}-{seed}.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload, "--seed", str(seed),
         "--src", os.path.join(ROOT, "src"), "--work", str(tmp_path / f"work-{seed}"),
         "--result", str(result), "--trace"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        check=True,
        timeout=170,
    )
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


DETERMINISTIC = ("solver.pair_compositions", "solver.table_max", "solver.leaf_candidates", "width.layerings_tried")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    first, second = (_traced_pass(tmp_path, workload, seed) for seed in (1, 2))
    assert not first["failures"] and not second["failures"]
    for key in DETERMINISTIC:
        assert first["layers"][key] == second["layers"][key], key
    assert first["pair_compositions"] == second["pair_compositions"]
    for qid, pairs in ROADMAP_PAIRS.items():
        if qid in first["pair_compositions"]:
            assert first["pair_compositions"][qid] == pairs, qid
    if workload == "width-exact":
        # 4683 ordered set partitions of 6 vertices, for each of 6 graphs
        assert first["layers"]["width.layerings_tried"] == 6 * 4683
        assert first["layers"]["solver.pair_compositions"] == 0
    assert first["layers"]["trace.coverage"] >= 0.9


def _sdkit_cli(*argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from sdkit import cli; sys.exit(cli.run(sys.argv[1:]))", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("prop", sorted(ROADMAP_LADDER_5_PAIRS))
def test_ladder_5_pair_counts_match_roadmap(tmp_path, prop):
    _, dec, _ = make_pool.ladder(5)
    path = tmp_path / "ladder-5.json"
    path.write_text(json.dumps(dec), encoding="utf-8")
    out = _sdkit_cli("solve", "--property", prop, "-d", str(path))
    assert out["value"] == (9 if prop == "paths" else 13)
    assert out["stats"]["pairCompositions"] == ROADMAP_LADDER_5_PAIRS[prop]


@pytest.mark.parametrize("name,edges,expected", [
    ("P7", [(i, i + 1) for i in range(6)], 1),  # a path: one vertex per layer
    ("K7", list(itertools.combinations(range(7), 2)), 4),  # K_n: ceil(n / 2)
])
def test_layered_width_closed_forms_on_7_vertices(tmp_path, name, edges, expected):
    # the 7-vertex graphs take seconds per query and are not in a workload
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(make_pool.graph_json(7, edges)), encoding="utf-8")
    assert _sdkit_cli("layered-width", "-g", str(path), "--exact")["layeredTreewidth"] == expected


def test_forked_pass_answers_every_query(tmp_path):
    result = tmp_path / "forked.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", "ladder-fold", "--seed", "1",
         "--src", os.path.join(ROOT, "src"), "--work", str(tmp_path / "work"), "--result", str(result),
         "--until", "0", "--setup-every", "0.05"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        check=True,
        timeout=170,
    )
    with open(result, encoding="utf-8") as handle:
        out = json.load(handle)
    # a deadline in the past still answers the list once
    assert out["rounds"] == 1 and out["failed"] == 0 and not out["failures"]
    assert [len(s) for s in out["samples_s"]] == [1] * len(POOL["queries"]["ladder-fold"])
    assert out["pair_compositions"]["ladder-4-paths"] == ROADMAP_PAIRS["ladder-4-paths"]
    # set-up was timed between queries (the list takes far longer than 50 ms)
    assert out["setup_samples_s"] and all(0 < s < 60 for s in out["setup_samples_s"])
    # the calibration job was timed before the first query
    assert out["calibration_s"] and all(0 < s < 10 for s in out["calibration_s"])
    assert sorted(os.listdir(tmp_path)) == ["forked.json"]  # set-up passes clean up after themselves


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-fold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
