"""Regenerate data/pool.json: the benchmark's fixed inputs and pinned answers.

    python3 perfbench/make_pool.py [--fixtures DIR]

The pool is drawn once from POOL_SEED and committed. A run's --seed only
relabels vertices and shuffles query order (see workloads.py), which leaves
every answer unchanged, so the answers pinned here hold for every seed.
Every answer comes from oracles.py, never from sdkit.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "data", "pool.json")
POOL_SEED = 0

# Caps from the README: isomorphism search for `solve -g` up to 8 vertices,
# brute-force bag enumeration up to 10, exact tree-width up to 12, exact
# layered tree-width up to 7.
ISO_CAP = 8
LADDERS = (3, 4)
# Keeps one bag's brute-force enumeration (sum over vertex subsets S of
# 2^|E(S)| candidates) near the tens-of-milliseconds scale of a CLI query.
LEAF_CANDIDATE_LIMIT = 10_000
# Bounds the product of two bags' candidate counts, which bounds the pair
# loop of a two-bag solve, so leaf enumeration dominates this workload.
PAIR_LIMIT = 2_000
# tree-width graphs per (size, density) cell: few enough that each query is
# repeated about ten times in a run of width-exact
TREEWIDTH_PER_CELL = 5


def graph_json(n, edges) -> dict:
    return {"vertices": n, "edges": sorted([min(u, v), max(u, v)] for u, v in edges)}


def random_edges(rng, vertices, p):
    return [(u, v) for u, v in itertools.combinations(vertices, 2) if rng.random() < p]


def leaf_candidates(n, edges) -> int:
    total = 0
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            s = set(subset)
            total += 2 ** sum(1 for u, v in edges if u in s and v in s)
    return total


def ladder(k):
    """The 2 x k grid (top j = j, bottom j = k + j) and its path
    decomposition with bags {top i, bot i, top i+1, bot i+1}."""
    edges = [(j, k + j) for j in range(k)]
    edges += [(j, j + 1) for j in range(k - 1)] + [(k + j, k + j + 1) for j in range(k - 1)]
    bag = graph_json(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    dec = {
        "valueKind": "graph",
        "shape": graph_json(k - 1, [(i, i + 1) for i in range(k - 2)]),
        "bags": [bag] * (k - 1),
        "adhesions": [
            {
                "edge": [i, i + 1],
                "apex": graph_json(2, [(0, 1)]),
                "legSource": [2, 3],
                "legTarget": [0, 1],
            }
            for i in range(k - 2)
        ],
    }
    labeling = [[i, k + i, i + 1, k + i + 1] for i in range(k - 1)]
    return graph_json(2 * k, edges), dec, labeling


def one_bag(rng, n):
    while True:
        edges = random_edges(rng, range(n), rng.choice((0.35, 0.45, 0.55)))
        if edges and leaf_candidates(n, edges) <= LEAF_CANDIDATE_LIMIT:
            break
    g = graph_json(n, edges)
    dec = {"valueKind": "graph", "shape": graph_json(1, []), "bags": [g], "adhesions": []}
    return g, dec


def two_bags(rng, a, b, shared):
    """Bags A = [0, a) and B = [a - shared, a - shared + b) of one graph,
    glued along their overlap; shared == 0 gives a forest-shaped
    (disconnected) decomposition."""
    total = a + b - shared
    bag_a = list(range(a))
    bag_b = list(range(a - shared, total))
    overlap = bag_a[a - shared:]
    for _ in range(50):
        common = random_edges(rng, overlap, 0.6)
        only_a = [e for e in random_edges(rng, bag_a, 0.5) if not set(e) <= set(overlap)]
        only_b = [e for e in random_edges(rng, bag_b, 0.5) if not set(e) <= set(overlap)]
        edges_a, edges_b = common + only_a, common + only_b
        if edges_a and edges_b and (
            leaf_candidates(a, [(bag_a.index(u), bag_a.index(v)) for u, v in edges_a])
            * leaf_candidates(b, [(bag_b.index(u), bag_b.index(v)) for u, v in edges_b])
        ) <= PAIR_LIMIT:
            break
    else:
        return None

    def local(bag, edges):
        pos = {v: i for i, v in enumerate(bag)}
        return graph_json(len(bag), [(pos[u], pos[v]) for u, v in edges])

    apex_pos = {v: i for i, v in enumerate(overlap)}
    adhesions = []
    shape_edges = []
    if shared:
        shape_edges = [(0, 1)]
        adhesions = [
            {
                "edge": [0, 1],
                "apex": graph_json(shared, [(apex_pos[u], apex_pos[v]) for u, v in common]),
                "legSource": [bag_a.index(v) for v in overlap],
                "legTarget": [bag_b.index(v) for v in overlap],
            }
        ]
    dec = {
        "valueKind": "graph",
        "shape": graph_json(2, shape_edges),
        "bags": [local(bag_a, edges_a), local(bag_b, edges_b)],
        "adhesions": adhesions,
    }
    return graph_json(total, set(edges_a) | set(edges_b)), dec


def random_chordal(rng, n):
    """Each new vertex joins a random subset of a random clique of the
    vertices before it, which keeps a perfect elimination ordering."""
    cliques = [[0]]
    edges = set()
    for v in range(1, n):
        base = rng.choice(cliques)
        picked = [u for u in base if rng.random() < 0.7] or [rng.choice(base)]
        edges.update((u, v) for u in picked)
        cliques.append(picked + [v])
    return graph_json(n, edges)


def load_fixtures(directory):
    names = {
        "bowtie": "bowtie.json",
        "bowtie.dec": "bowtie.dec.json",
        "td_example_g": "td_example_g.json",
        "td_example.dec": "td_example.dec.json",
        "five_bag_tree.dec": "five_bag_tree.dec.json",
        "completion_dh.dec": "completion_dh.dec.json",
        "completion_g": "completion_g.json",
        "completion_h": "completion_h.json",
        "k5": "k5.json",
        "p3": "p3.json",
        "p3.dec": "p3.dec.json",
    }
    out = {}
    for key, filename in names.items():
        with open(os.path.join(directory, filename), encoding="utf-8") as handle:
            out[key] = json.load(handle)
    return out


def solve_query(qid, gname, dname, prop, graphs, with_graph=True):
    q = {"id": qid, "verb": "solve", "decomposition": dname, "property": prop}
    if with_graph:
        q["graph"] = gname
    q["expect"] = {"value": oracles.max_edges_with(graphs[gname], prop)}
    return q


def build_pool(fixture_dir) -> dict:
    rng = random.Random(POOL_SEED)
    graphs, decs, labelings = {}, {}, {}
    queries = {}

    # ladder-fold: the paths, bipartite and planar folds and longest_path,
    # smaller ladder first (in one process the planarity cache carries over).
    # Ladders stop at 4: a query must stay short enough (0.1-0.3 s) to be
    # repeated many times in a run, see run.py.
    queries["ladder-fold"] = []
    for k in LADDERS:
        name = f"ladder-{k}"
        graphs[name], decs[name], labelings[name] = ladder(k)
        queries["ladder-fold"] += [solve_query(f"{name}-{p}", name, name, p, graphs, False)
                                   for p in ("paths", "bipartite", "planar")]
        queries["ladder-fold"].append({
            "id": f"{name}-longest_path",
            "verb": "longest_path",
            "graph": name,
            "decomposition": name,
            "labeling": name,
            "expect": {"value": oracles.max_edges_with(graphs[name], "longest_path")},
        })

    # small-queries: seeded solves, then the fixture verbs
    small = []
    shapes = [("one", n) for n in (6, 7, 8) for _ in range(6)]
    shapes += [("two", None)] * 16 + [("forest", None)] * 4
    for index, (kind, n) in enumerate(shapes):
        name = f"sq-{kind}-{index:02d}"
        if kind == "one":
            g, d = one_bag(rng, n)
        else:
            drawn = None
            while drawn is None:
                a, b = rng.randint(3, 6), rng.randint(3, 6)
                shared = 0 if kind == "forest" else rng.randint(1, min(3, a - 1, b - 1))
                if 6 <= a + b - shared <= ISO_CAP:
                    drawn = two_bags(rng, a, b, shared)
            g, d = drawn
        graphs[name], decs[name] = g, d
        for prop in ("paths", "bipartite", "planar"):
            small.append(solve_query(f"{name}-{prop}", name, name, prop, graphs))

    fx = load_fixtures(fixture_dir)
    for key, obj in fx.items():
        (decs if key.endswith(".dec") else graphs)["fx-" + key] = obj
    fixture_decs = ["bowtie.dec", "td_example.dec", "five_bag_tree.dec", "completion_dh.dec", "p3.dec"]
    for key in fixture_decs:
        dec = fx[key]
        assert not oracles.decomposition_violations(dec), key
        n, m = oracles.colimit_size(dec)
        small.append({"id": f"colim-{key}", "verb": "colim", "decomposition": "fx-" + key,
                      "expect": {"vertices": n, "edges": m}})
        small.append({"id": f"check-{key}", "verb": "check", "decomposition": "fx-" + key,
                      "expect": {"violations": []}})
    for key in ("bowtie", "completion_g", "k5"):
        small.append({"id": f"check-{key}", "verb": "check", "graph": "fx-" + key,
                      "expect": {"violations": []}})
    for key in ("five_bag_tree.dec", "completion_dh.dec"):
        dec = fx[key]
        total = sum(b["size"] for b in dec["bags"])
        links = sum(a["apex"]["size"] for a in dec["adhesions"])
        small.append({"id": f"to-arrow-{key}", "verb": "to-arrow", "decomposition": "fx-" + key,
                      "expect": {"total": [total, links], "base": [dec["shape"]["vertices"], len(dec["shape"]["edges"])]}})
    for key in ("completion_h", "completion_g", "bowtie", "k5"):
        small.append({"id": f"chordal-{key}", "verb": "chordal", "graph": "fx-" + key,
                      "expect": {"chordal": oracles.is_chordal(fx[key])}})
    for key in ("completion_h", "bowtie", "k5"):
        small.append({"id": f"clique-tree-{key}", "verb": "clique-tree", "graph": "fx-" + key,
                      "expect": {"bag_sizes": oracles.maximal_clique_sizes(fx[key])}})
    for key in ("bowtie.dec", "td_example.dec"):
        for prop in ("paths", "bipartite", "planar"):
            small.append({"id": f"h-width-{key}-{prop}", "verb": "h-width", "decomposition": "fx-" + key,
                          "property": prop, "expect": {"value": oracles.h_width(fx[key], prop)}})
    for gkey, dkey in (("bowtie", "bowtie.dec"), ("td_example_g", "td_example.dec")):
        for prop in ("paths", "bipartite", "planar"):
            small.append(solve_query(f"fx-{gkey}-{prop}", "fx-" + gkey, "fx-" + dkey, prop, graphs))
    queries["small-queries"] = small

    # width-exact
    wide = []
    for n in (9, 10, 11, 12):
        for density in (0.3, 0.5, 0.7):
            for i in range(TREEWIDTH_PER_CELL):
                name = f"tw-{n:02d}-{int(density * 100):03d}-{i}"
                g = graph_json(n, random_edges(rng, range(n), density))
                graphs[name] = g
                wide.append({"id": f"treewidth-{name}", "verb": "treewidth", "graph": name,
                             "expect": {"value": oracles.treewidth_subset_dp(g)}})
                wide.append({"id": f"co-treewidth-{name}", "verb": "co-treewidth", "graph": name,
                             "expect": {"value": oracles.treewidth_subset_dp(oracles.complement(g))}})
    for i in range(12):
        name = f"ch-{i:02d}"
        if i < 10:
            g = random_chordal(rng, rng.randint(8, 12))
        else:
            while True:
                g = graph_json(8, random_edges(rng, range(8), 0.4))
                if not oracles.is_chordal(g):
                    break
        graphs[name] = g
        chordal = oracles.is_chordal(g)
        wide.append({"id": f"chordal-{name}", "verb": "chordal", "graph": name,
                     "expect": {"chordal": chordal}})
        if chordal:
            wide.append({"id": f"clique-tree-{name}", "verb": "clique-tree", "graph": name,
                         "expect": {"bag_sizes": oracles.maximal_clique_sizes(g)}})
    for i in range(4):
        name = f"lw-06-{i}"
        g = graph_json(6, random_edges(rng, range(6), 0.5))
        graphs[name] = g
        wide.append({"id": f"layered-{name}", "verb": "layered-width", "graph": name,
                     "expect": {"value": oracles.layered_treewidth_levels(g)}})
    # 6 vertices, not 7: a 7-vertex search takes about 4 s, too long to be
    # repeated many times in a run
    graphs["P6"] = graph_json(6, [(i, i + 1) for i in range(5)])
    graphs["K6"] = graph_json(6, itertools.combinations(range(6), 2))
    # closed forms: a path has layered tree-width 1, K_n has ceil(n / 2)
    wide.append({"id": "layered-P6", "verb": "layered-width", "graph": "P6", "expect": {"value": 1}})
    wide.append({"id": "layered-K6", "verb": "layered-width", "graph": "K6", "expect": {"value": 3}})
    queries["width-exact"] = wide

    return {
        "pool_seed": POOL_SEED,
        "graphs": graphs,
        "decompositions": decs,
        "labelings": labelings,
        "queries": queries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", default=os.path.join(HERE, "..", "fixtures"),
                        help="directory holding the sdkit JSON fixtures")
    args = parser.parse_args(argv)
    pool = build_pool(args.fixtures)
    os.makedirs(os.path.dirname(POOL_PATH), exist_ok=True)
    with open(POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    counts = {w: len(q) for w, q in pool["queries"].items()}
    print(f"wrote {POOL_PATH}: {counts}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
