"""Independent answer oracles for the benchmark's pinned data.

Nothing here imports sdkit: every pinned answer in data/pool.json is derived
from these functions (networkx edge-subset checks, a subset-DP tree-width,
a level-function layered tree-width search and a plain union-find), so a
wrong sdkit answer cannot pin itself.
"""
from __future__ import annotations

import itertools

import networkx as nx


def nx_graph(graph: dict) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph["vertices"]))
    g.add_edges_from(tuple(e) for e in graph["edges"])
    return g


def _edge_graph(edges) -> nx.Graph:
    g = nx.Graph()
    g.add_edges_from(edges)
    return g


def is_linear_forest(edges) -> bool:
    if not edges:
        return True
    g = _edge_graph(edges)
    return nx.is_forest(g) and max(d for _, d in g.degree()) <= 2


def is_single_path(edges) -> bool:
    return not edges or (is_linear_forest(edges) and nx.is_connected(_edge_graph(edges)))


def is_bipartite(edges) -> bool:
    return nx.is_bipartite(_edge_graph(edges))


def is_planar(edges) -> bool:
    return nx.check_planarity(_edge_graph(edges))[0]


EDGE_PROPERTIES = {
    "paths": is_linear_forest,
    "bipartite": is_bipartite,
    "planar": is_planar,
    "longest_path": is_single_path,
}


def max_edges_with(graph: dict, prop: str) -> int:
    """Largest k such that some k-edge subset of the graph has the property.

    Exhaustive over edge subsets, largest size first; the first size with a
    satisfying subset is the answer (every property holds for no edges).
    """
    edges = [tuple(e) for e in graph["edges"]]
    test = EDGE_PROPERTIES[prop]
    for k in range(len(edges), -1, -1):
        if any(test(list(sub)) for sub in itertools.combinations(edges, k)):
            return k
    raise AssertionError("the empty subgraph satisfies every property")


def treewidth_subset_dp(graph: dict) -> int:
    """Exact tree-width by the vertex-subset recurrence
    TW(S) = min over v in S of max(TW(S - v), |Q(S - v, v)|), where Q(S, v)
    is the set of vertices outside S + v reachable from v through S
    (Bodlaender, Fomin, Koster, Kratsch, Thilikos 2012)."""
    n = graph["vertices"]
    if n == 0:
        return 0
    nbr = [0] * n
    for u, v in graph["edges"]:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    def q_size(s: int, v: int) -> int:
        reach = 1 << v
        frontier = reach
        while frontier:
            grow = 0
            rest = frontier
            while rest:
                low = rest & -rest
                grow |= nbr[low.bit_length() - 1]
                rest ^= low
            frontier = grow & s & ~reach
            reach |= frontier
        outside = 0
        rest = reach
        while rest:
            low = rest & -rest
            outside |= nbr[low.bit_length() - 1]
            rest ^= low
        return bin(outside & ~s & ~(1 << v)).count("1")

    full = (1 << n) - 1
    tw = [0] * (1 << n)
    tw[0] = -1
    for s in range(1, full + 1):
        best = n
        rest = s
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            prev = s ^ low
            cand = max(tw[prev], q_size(prev, v))
            if cand < best:
                best = cand
            rest ^= low
        tw[s] = best
    return max(tw[full], 0)


def complement(graph: dict) -> dict:
    n = graph["vertices"]
    present = {tuple(sorted(e)) for e in graph["edges"]}
    edges = [[u, v] for u, v in itertools.combinations(range(n), 2) if (u, v) not in present]
    return {"vertices": n, "edges": edges}


def _elimination_bag_families(n: int, edges) -> set:
    """Bag families of the triangulations given by every elimination order;
    every tree decomposition refines to one of them."""
    base = [set() for _ in range(n)]
    for u, v in edges:
        base[u].add(v)
        base[v].add(u)
    families = set()
    for order in itertools.permutations(range(n)):
        adj = [set(s) for s in base]
        done = set()
        bags = []
        for v in order:
            later = adj[v] - done
            bags.append(frozenset(later | {v}))
            done.add(v)
            for a in later:
                adj[a] |= later - {a}
        families.add(frozenset(bags))
    return families


def layered_treewidth_levels(graph: dict) -> int:
    """Exact layered tree-width by brute force over level functions.

    A layering is a map f from vertices onto 0..L-1 (every level used) with
    |f(u) - f(v)| <= 1 on every edge; its width against a tree decomposition
    is the largest bag-layer intersection.
    """
    n = graph["vertices"]
    edges = [tuple(e) for e in graph["edges"]]
    families = [tuple(family) for family in _elimination_bag_families(n, edges)]
    best = n
    for levels in range(1, n + 1):
        for f in itertools.product(range(levels), repeat=n):
            if len(set(f)) != levels or any(abs(f[u] - f[v]) > 1 for u, v in edges):
                continue
            for family in families:
                w = 0
                for bag in family:
                    counts = [0] * levels
                    for x in bag:
                        counts[f[x]] += 1
                    w = max(w, max(counts))
                    if w >= best:
                        break
                best = min(best, w)
    return best


def colimit_size(dec: dict) -> tuple:
    """(vertex count, edge count) of the glued object, by union-find over
    (bag, element) pairs along every adhesion leg."""
    graph_valued = dec["valueKind"] == "graph"
    sizes = [b["vertices"] if graph_valued else b["size"] for b in dec["bags"]]
    parent = {(i, x): (i, x) for i, n in enumerate(sizes) for x in range(n)}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for a in dec["adhesions"]:
        u, v = a["edge"]
        for x, y in zip(a["legSource"], a["legTarget"]):
            parent[find((u, x))] = find((v, y))
    classes = {find(p) for p in parent}
    edges = set()
    if graph_valued:
        for i, bag in enumerate(dec["bags"]):
            for x, y in bag["edges"]:
                cx, cy = find((i, x)), find((i, y))
                if cx != cy:
                    edges.add(frozenset((cx, cy)))
    return len(classes), len(edges)


def decomposition_violations(dec: dict) -> list:
    """Structural problems: legs out of range, non-preserved apex edges,
    adhesions that are not shape edges."""
    problems = []
    graph_valued = dec["valueKind"] == "graph"
    size = (lambda o: o["vertices"]) if graph_valued else (lambda o: o["size"])
    shape_edges = {tuple(sorted(e)) for e in dec["shape"]["edges"]}
    for a in dec["adhesions"]:
        u, v = sorted(a["edge"])
        if (u, v) not in shape_edges:
            problems.append(f"adhesion {a['edge']} is not a shape edge")
        for leg, bag in ((a["legSource"], dec["bags"][u]), (a["legTarget"], dec["bags"][v])):
            if len(leg) != size(a["apex"]) or not all(0 <= x < size(bag) for x in leg):
                problems.append(f"adhesion {a['edge']} has a leg out of range")
            elif graph_valued:
                bag_edges = {tuple(sorted(e)) for e in bag["edges"]}
                for x, y in a["apex"]["edges"]:
                    if tuple(sorted((leg[x], leg[y]))) not in bag_edges:
                        problems.append(f"adhesion {a['edge']} drops an apex edge")
    if len(dec["adhesions"]) != len(shape_edges):
        problems.append("shape edges and adhesions differ")
    return problems


def h_width(dec: dict, prop: str) -> int:
    """Largest bag whose whole graph lacks the property; 0 if none."""
    sizes = [
        b["vertices"] for b in dec["bags"] if not EDGE_PROPERTIES[prop]([tuple(e) for e in b["edges"]])
    ]
    return max(sizes, default=0)


def maximal_clique_sizes(graph: dict) -> list:
    return sorted(len(c) for c in nx.find_cliques(nx_graph(graph)))


def is_chordal(graph: dict) -> bool:
    return nx.is_chordal(nx_graph(graph))
