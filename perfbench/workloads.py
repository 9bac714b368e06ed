"""The three workloads: seeded inputs, the query list, and answer checks.

Every workload draws from the committed pool (data/pool.json, see
make_pool.py). The run seed relabels the vertices of every graph, bag and
adhesion apex and, for the two workloads with many independent queries,
shuffles the query order. Relabeling preserves every pinned answer, so the
pool pins one answer per query for all seeds.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "data", "pool.json")


@dataclass(frozen=True)
class Workload:
    name: str
    # the traced pass answers the list in one process, where the ladder
    # planar solves share the planarity cache, so their order changes their
    # cost; the ladder queries keep the pool order
    shuffle: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder-fold", False),
        Workload("small-queries", True),
        Workload("width-exact", True),
    )
}


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _map_edges(edges, perm):
    return sorted(sorted((perm[u], perm[v])) for u, v in edges)


def relabel_graph(graph, perm):
    return {"vertices": graph["vertices"], "edges": _map_edges(graph["edges"], perm)}


def relabel_decomposition(dec, rng):
    """Permute the local numbering of every bag and apex; returns the new
    decomposition and the per-bag permutations."""
    graph_valued = dec["valueKind"] == "graph"
    size = (lambda o: o["vertices"]) if graph_valued else (lambda o: o["size"])
    bag_perms = [_permutation(rng, size(b)) for b in dec["bags"]]
    bags = [relabel_graph(b, p) if graph_valued else dict(b) for b, p in zip(dec["bags"], bag_perms)]
    adhesions = []
    for a in dec["adhesions"]:
        u, v = a["edge"]
        k = size(a["apex"])
        tau = _permutation(rng, k)
        left, right = [0] * k, [0] * k
        for x in range(k):
            left[tau[x]] = bag_perms[u][a["legSource"][x]]
            right[tau[x]] = bag_perms[v][a["legTarget"][x]]
        apex = relabel_graph(a["apex"], tau) if graph_valued else dict(a["apex"])
        adhesions.append({"edge": list(a["edge"]), "apex": apex, "legSource": left, "legTarget": right})
    out = {"valueKind": dec["valueKind"], "shape": dec["shape"], "bags": bags, "adhesions": adhesions}
    return out, bag_perms


@dataclass
class Query:
    id: str
    verb: str
    argv: list  # CLI arguments; None for library calls
    spec: dict  # the pool entry, with its pinned "expect"
    graph: dict  # the relabeled graph the answer refers to, if any


@dataclass
class Prepared:
    queries: list
    library_inputs: dict  # query id -> JSON inputs for library calls


def prepare(workload: str, seed: int, work_dir: str, pool=None) -> Prepared:
    """Relabel the workload's inputs with the seed and write the CLI's JSON
    files into work_dir."""
    spec = WORKLOADS[workload]
    pool = pool or load_pool()
    entries = pool["queries"][workload]
    rng = random.Random(f"{workload}:{seed}")
    graph_names = sorted({q["graph"] for q in entries if "graph" in q})
    dec_names = sorted({q["decomposition"] for q in entries if "decomposition" in q})
    graph_perms, graphs = {}, {}
    for name in graph_names:
        g = pool["graphs"][name]
        graph_perms[name] = _permutation(rng, g["vertices"])
        graphs[name] = relabel_graph(g, graph_perms[name])
    decs, bag_perms = {}, {}
    for name in dec_names:
        decs[name], bag_perms[name] = relabel_decomposition(pool["decompositions"][name], rng)
    os.makedirs(work_dir, exist_ok=True)
    paths = {}
    for kind, objects in (("g", graphs), ("d", decs)):
        for name, obj in objects.items():
            path = os.path.join(work_dir, f"{kind}-{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
            paths[kind, name] = path
    order = list(entries)
    if spec.shuffle:
        rng.shuffle(order)
    queries, library_inputs = [], {}
    for q in order:
        graph = graphs.get(q.get("graph"))
        if q["verb"] == "longest_path":
            gname, dname = q["graph"], q["decomposition"]
            perm, sigma = graph_perms[gname], bag_perms[dname]
            labeling = pool["labelings"][q["labeling"]]
            relabeled = []
            for i, lab in enumerate(labeling):
                row = [0] * len(lab)
                for b, x in enumerate(lab):
                    row[sigma[i][b]] = perm[x]
                relabeled.append(row)
            library_inputs[q["id"]] = (graph, decs[dname], relabeled)
            queries.append(Query(q["id"], q["verb"], None, q, graph))
            continue
        argv = [q["verb"]]
        if "property" in q:
            argv += ["--property", q["property"]]
        if "graph" in q:
            argv += ["-g", paths["g", q["graph"]]]
        if "decomposition" in q:
            argv += ["-d", paths["d", q["decomposition"]]]
        if q["verb"] == "layered-width":
            argv.append("--exact")
        queries.append(Query(q["id"], q["verb"], argv, q, graph))
    return Prepared(queries, library_inputs)


# --- answer checks -------------------------------------------------------


def _is_linear_forest(edges) -> bool:
    degree, parent = {}, {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return all(d <= 2 for d in degree.values())


def _is_two_colorable(edges) -> bool:
    nbrs = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    color = {}
    for start in nbrs:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _witness_problem(query: Query, value, witness_edges, prop) -> str | None:
    edges = [tuple(e) for e in witness_edges]
    if len(edges) != value:
        return f"witness has {len(edges)} edges for value {value}"
    if query.graph is not None:
        present = {tuple(e) for e in query.graph["edges"]}
        if any(tuple(sorted(e)) not in present for e in edges):
            return "witness uses an edge outside the graph"
    if prop in ("paths", "longest_path") and not _is_linear_forest(edges):
        return "witness is not a union of paths"
    if prop == "longest_path" and edges:
        touched = {v for e in edges for v in e}
        if len(edges) != len(touched) - 1:
            return "witness is not a single path"
    if prop == "bipartite" and not _is_two_colorable(edges):
        return "witness is not bipartite"
    return None


def check_answer(query: Query, output) -> str | None:
    """None when the output matches the pinned answer, else the reason."""
    expect = query.spec["expect"]
    verb = query.verb
    if verb == "longest_path":
        value, witness = output
        if value != expect["value"]:
            return f"value {value} != pinned {expect['value']}"
        return _witness_problem(query, value, sorted(witness.edges), "longest_path")
    out = json.loads(output)
    if verb == "solve":
        if out["value"] != expect["value"]:
            return f"value {out['value']} != pinned {expect['value']}"
        return _witness_problem(query, out["value"], out["witness"]["edges"], query.spec["property"])
    if verb == "colim":
        obj = out["object"]
        got = {"vertices": obj.get("vertices", obj.get("size")), "edges": len(obj.get("edges", []))}
    elif verb == "check":
        got = {"violations": out["violations"]}
    elif verb == "to-arrow":
        got = {
            "total": [out["total"]["vertices"], len(out["total"]["edges"])],
            "base": [out["base"]["vertices"], len(out["base"]["edges"])],
        }
    elif verb == "chordal":
        got = {"chordal": out["chordal"]}
    elif verb == "clique-tree":
        got = {"bag_sizes": sorted(b["size"] for b in out["bags"])}
    else:
        key = {"h-width": "hWidth", "treewidth": "treewidth", "co-treewidth": "coTreewidth",
               "layered-width": "layeredTreewidth"}[verb]
        got = {"value": out[key]}
    return None if got == expect else f"{got} != pinned {expect}"
