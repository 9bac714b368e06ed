"""Compositional optimization over predicate-closed subgraph tables.

A table holds every subobject of an ambient graph satisfying a
subgraph-closed predicate. Two tables whose ambients lie inside one graph
glue into the table over the union of those ambients: a glue A | B is kept
when the predicate accepts it. Only pairs that agree on the overlap of the
two ambients need trying, because an accepted union restricts to an entry of
each (full, subgraph-closed) table and both restrictions share one trace on
the overlap. `compose` glues the tables over the feet of a monic span inside
its pushout; `solve_on_decomposition` pushes every bag's table once into the
colimit of a tame tree-shaped decomposition, where every partial colimit
embeds, and glues them there in post-order. `_compose_entries` does every
glue.

The planar predicate is the path-addition test of Demoucron, Malgrange &
Pertuiset (1964), polynomial in the subobject and without state between
calls.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .core import (
    Graph,
    GraphMorphism,
    Span,
    _normalize_edge,
    connected_components,
    is_forest,
    pushout,
)
from .decomposition import (
    GRAPH,
    StructuredDecomposition,
    evaluate_colimit,
    is_tame,
    require_valid,
)
from .errors import (
    NonMonicSpan,
    NonTreeShape,
    NotATreeDecomposition,
    NotTame,
    TooLarge,
    ValidationError,
)
from .width import tree_decomposition_reading

DEFAULT_BRUTE_CAP = 10
BRUTE_CAP_ENV = "SDKIT_MAX_BRUTE"
# Largest table, leaf or glued, that a solve may build. At peak RSS a
# ladder-5 solve spends 1.1-1.2 KiB per entry, so this bounds a solve near
# 1.3 GB; ladder-6's largest table has 584,143 entries.
MAX_TABLE_ENTRIES = 1 << 20


def brute_force_cap() -> int:
    raw = os.environ.get(BRUTE_CAP_ENV)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValidationError(f"{BRUTE_CAP_ENV} must be a non-negative integer, got {raw!r}")
    return cap


class Subobject(NamedTuple):
    """A subgraph of a fixed ambient graph: vertex subset + edge subset."""

    vertices: frozenset
    edges: frozenset

    def encoding(self) -> tuple:
        """Deterministic sort/tie-break key."""
        return (tuple(sorted(self.vertices)), tuple(sorted(self.edges)))

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "edges": [list(e) for e in sorted(self.edges)],
        }


EMPTY_SUBOBJECT = Subobject(frozenset(), frozenset())


def _degrees(sub: Subobject) -> dict:
    deg = {}
    for u, v in sub.edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def predicate_paths(sub: Subobject) -> bool:
    """Disjoint union of paths: acyclic with every degree at most 2."""
    deg = _degrees(sub)
    if any(x > 2 for x in deg.values()):
        return False
    parent = {v: v for v in sub.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in sub.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def predicate_bipartite(sub: Subobject) -> bool:
    """2-colorable over the included edges."""
    nbrs = {v: [] for v in sub.vertices}
    for u, v in sub.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    color = {}
    for start in sub.vertices:
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


def _some_cycle(adj):
    """One cycle of the graph, as its vertices in order: a BFS-tree path
    closed by the first non-tree edge met. None for a forest."""
    parent = {}
    for root in adj:
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for x in queue:
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x]:
                    up = [x]
                    while parent[up[-1]] is not None:
                        up.append(parent[up[-1]])
                    depth = {v: i for i, v in enumerate(up)}
                    down = []
                    while y not in depth:
                        down.append(y)
                        y = parent[y]
                    return up[: depth[y] + 1] + down[::-1]
    return None


def _planar(adj) -> bool:
    """Path-addition planarity test (Demoucron, Malgrange & Pertuiset 1964)
    of a simple graph given as vertex -> neighbour set, which it consumes.

    H starts as one cycle with its two faces. A fragment is a non-H edge
    between two H vertices, or a component of G - H with its attaching
    edges. A fragment with at most one attachment meets the rest only at a
    cut vertex, so it is tested on its own and dropped. Every other fragment
    must fit a face whose boundary holds all its attachments; a path through
    a fragment with the fewest fitting faces then splits that face in two.
    """
    cycle = _some_cycle(adj)
    if cycle is None:
        return True
    placed = {v: set() for v in cycle}  # H as vertex -> H-neighbour set
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        placed[u].add(w)
        placed[w].add(u)
    faces = [cycle, cycle[::-1]]
    while True:
        fragments = [
            ({u, w}, None)
            for u, h_nbrs in placed.items()
            for w in adj[u] - h_nbrs
            if u < w and w in placed
        ]
        seen = set(placed)
        for start in list(adj):
            if start in seen:
                continue
            seen.add(start)
            comp, attach = [start], set()
            for x in comp:
                for y in adj[x]:
                    if y in placed:
                        attach.add(y)
                    elif y not in seen:
                        seen.add(y)
                        comp.append(y)
            if len(attach) > 1:
                fragments.append((attach, set(comp)))
                continue
            keep = attach.union(comp)
            if not _planar({v: adj[v] & keep for v in keep}):
                return False
            for v in comp:
                del adj[v]
            for a in attach:
                adj[a].difference_update(comp)
        if not fragments:
            return True
        fits, attach, comp = min(
            (([f for f in faces if attach.issubset(f)], attach, comp) for attach, comp in fragments),
            key=lambda fit: len(fit[0]),
        )
        if not fits:
            return False
        face = fits[0]
        a = min(attach)
        if comp is None:
            path = sorted(attach)
        else:
            # BFS inside the component from a neighbour of a to a neighbour
            # of another attachment
            first = min(adj[a] & comp)
            parent = {first: None}
            queue = [first]
            for x in queue:
                b = min((adj[x] & attach) - {a}, default=None)
                if b is not None:
                    break
                for y in adj[x] & comp:
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
            path = [b]
            while x is not None:
                path.append(x)
                x = parent[x]
            path.append(a)
            path.reverse()
        for u, w in zip(path, path[1:]):
            placed.setdefault(u, set()).add(w)
            placed.setdefault(w, set()).add(u)
        # split the face along the path from a = path[0] to b = path[-1]
        i = face.index(path[0])
        rotated = face[i:] + face[:i]
        j = rotated.index(path[-1])
        faces.remove(face)
        faces.append(rotated[: j + 1] + path[-2:0:-1])
        faces.append(rotated[j:] + path[:-1])


def predicate_planar(sub: Subobject) -> bool:
    """Planarity by the path-addition test, after cheap exits on the edge
    count of the graph reduced to minimum degree 3."""
    if len(sub.edges) <= 8:
        # a nonplanar graph contains a subdivision of K3,3 (9 edges) or of
        # K5 (10 edges), by Kuratowski's theorem
        return True
    adj = {}
    for u, v in sub.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    # deleting a vertex of degree at most 1, or smoothing one of degree 2
    # (keeping one edge where that makes two), preserves planarity; no
    # degree rises, so a queued vertex still has degree at most 2
    low = [v for v, nb in adj.items() if len(nb) <= 2]
    while low:
        v = low.pop()
        nb = adj.pop(v, None)
        if nb is None:
            continue
        for u in nb:
            adj[u].discard(v)
        if len(nb) == 2:
            x, y = nb
            adj[x].add(y)
            adj[y].add(x)
        low.extend(u for u in nb if len(adj[u]) <= 2)
    edges = sum(map(len, adj.values())) // 2
    if edges <= 8:
        return True
    if edges > 3 * len(adj) - 6:
        return False
    return _planar(adj)


@dataclass(frozen=True)
class PropertyPredicate:
    """A named property of subobjects.

    Contract, which enumerate_subp_bruteforce and the gluing rely on: the
    property is subgraph-closed (a subobject of an accepted one is accepted)
    and ignores isolated vertices (the verdict on (V, E) is the verdict on
    (ends of E, E)). paths, bipartite and planar meet it.
    """

    name: str
    evaluator: Callable

    def __call__(self, sub: Subobject) -> bool:
        return self.evaluator(sub)


PATHS = PropertyPredicate("paths", predicate_paths)
BIPARTITE = PropertyPredicate("bipartite", predicate_bipartite)
PLANAR = PropertyPredicate("planar", predicate_planar)
PREDICATES = {p.name: p for p in (PATHS, BIPARTITE, PLANAR)}


def predicate_by_name(name: str) -> PropertyPredicate:
    if name not in PREDICATES:
        raise ValidationError(
            f"unknown property {name!r}; choose from {sorted(PREDICATES)}"
        )
    return PREDICATES[name]


@dataclass(frozen=True)
class Objective:
    """A weight on subobjects together with an optimization direction."""

    name: str
    weight: Callable
    direction: str

    def best_value(self, values):
        return max(values) if self.direction == "max" else min(values)


MAX_EDGES = Objective("max-edges", lambda s: len(s.edges), "max")
MAX_VERTICES = Objective("max-vertices", lambda s: len(s.vertices), "max")
MIN_EDGES = Objective("min-edges", lambda s: len(s.edges), "min")
OBJECTIVES = {o.name: o for o in (MAX_EDGES, MAX_VERTICES, MIN_EDGES)}


def objective_by_name(name: str) -> Objective:
    if name not in OBJECTIVES:
        raise ValidationError(
            f"unknown objective {name!r}; choose from {sorted(OBJECTIVES)}"
        )
    return OBJECTIVES[name]


@dataclass(frozen=True)
class SubPTable:
    """Deduplicated subobjects of one ambient graph satisfying one predicate.

    op_counter records how many pair compositions built the table; it
    describes the computation, not the table, so it is excluded from
    equality.
    """

    ambient: Graph
    predicate_name: str
    entries: frozenset
    op_counter: int = field(default=0, compare=False)

    def sorted_entries(self) -> list:
        return sorted(self.entries, key=Subobject.encoding)


def _table_too_large() -> TooLarge:
    return TooLarge(f"a Sub_P table grew past {MAX_TABLE_ENTRIES} entries")


def enumerate_subp_bruteforce(g: Graph, predicate: PropertyPredicate) -> SubPTable:
    """Every (vertex subset, edge subset) pair satisfying the predicate.

    Rests on the PropertyPredicate contract. The accepted edge sets form a
    downward-closed family, listed level by level from the empty set
    (Apriori): a candidate S | {e}, with e after S's last edge in edge_list
    order, is tested on the ends of its edges only when every set one edge
    smaller was accepted, so the predicate is called once per accepted edge
    set and once per minimal rejected one. Every accepted edge set is then
    paired with every vertex set that contains its ends.
    """
    cap = brute_force_cap()
    if g.vertices > cap:
        raise TooLarge(
            f"brute-force enumeration is limited to {cap} vertices "
            f"(override with {BRUTE_CAP_ENV})"
        )
    if not predicate(EMPTY_SUBOBJECT):
        return SubPTable(g, predicate.name, frozenset())
    n = g.vertices
    # every vertex set with no edges is an entry
    total = 1 << n
    if total > MAX_TABLE_ENTRIES:
        raise _table_too_large()
    vsets = [frozenset(v for v in range(n) if mask >> v & 1) for mask in range(total)]
    edge_list = g.edge_list()
    edge_ends = [(1 << u) | (1 << v) for u, v in edge_list]
    # accepted edge sets of the current size: edge-index bitmask ->
    # (edge indices, edge set, vertex bitmask of their ends)
    level = {0: ((), frozenset(), 0)}
    accepted = [(frozenset(), 0)]
    while level:
        grown = {}
        for mask, (indices, edges, ends) in level.items():
            for j in range(mask.bit_length(), len(edge_list)):
                candidate = mask | (1 << j)
                if any(candidate ^ (1 << i) not in level for i in indices):
                    continue
                cand_edges = edges | {edge_list[j]}
                cand_ends = ends | edge_ends[j]
                if predicate(Subobject(vsets[cand_ends], cand_edges)):
                    grown[candidate] = (indices + (j,), cand_edges, cand_ends)
                    accepted.append((cand_edges, cand_ends))
                    total += 1 << (n - cand_ends.bit_count())
                    if total > MAX_TABLE_ENTRIES:
                        raise _table_too_large()
        level = grown
    entries = []
    full = (1 << n) - 1
    for edges, ends in accepted:
        free = full ^ ends
        extra = free
        while True:
            entries.append(Subobject(vsets[ends | extra], edges))
            if not extra:
                break
            extra = (extra - 1) & free
    return SubPTable(g, predicate.name, frozenset(entries))


def translate_subobject(sub: Subobject, mapping) -> Subobject:
    return Subobject(
        frozenset(mapping[v] for v in sub.vertices),
        frozenset(_normalize_edge(mapping[u], mapping[v]) for u, v in sub.edges),
    )


def _embed(table: SubPTable, leg: GraphMorphism) -> tuple:
    """(part, entries): a table pushed along an injective leg, together with
    the image of the leg as a subobject of the leg's codomain."""
    part = Subobject(leg.image_vertices(), leg.image_edges())
    if leg.mapping == tuple(range(leg.dom.vertices)):
        # an identity leg (a one-bag decomposition has one) keeps the table:
        # a copy of a large leaf table costs time and memory for no change
        return part, table.entries
    return part, [translate_subobject(sub, leg.mapping) for sub in table.entries]


def _compose_entries(images_l, images_r, predicate, overlap: Subobject) -> set:
    """Both tables plus every glue A | B that satisfies the predicate.

    The inputs are the full Sub_P tables of two subgraphs L and R of one
    ambient graph, which meet in `overlap` (the vertices and the edges that
    lie in both). Only pairs with the same trace on the overlap are glued:
    if S = A | B satisfies the predicate, so do S & L and S & R, which are
    entries of the two tables with one shared trace and the union S. Matched
    pairs give distinct unions, so no union is evaluated twice; a pair with
    one entry inside the overlap gives back the other entry and is skipped.
    """
    shared_v, shared_e = overlap
    by_trace = {}
    for b in images_r:
        trace = (b.vertices & shared_v, b.edges & shared_e)
        if trace != b:
            by_trace.setdefault(trace, []).append(b)
    kept = set(images_l)
    kept.update(images_r)
    for a in images_l:
        trace = (a.vertices & shared_v, a.edges & shared_e)
        if trace == a:
            continue
        for b in by_trace.get(trace, ()):
            candidate = Subobject(a.vertices | b.vertices, a.edges | b.edges)
            if predicate(candidate):
                kept.add(candidate)
                if len(kept) > MAX_TABLE_ENTRIES:
                    raise _table_too_large()
    return kept


def _glue(left: tuple, right: tuple, predicate: PropertyPredicate) -> tuple:
    """Glue two (part, entries) tables whose parts lie in one ambient graph."""
    (part_l, entries_l), (part_r, entries_r) = left, right
    overlap = Subobject(part_l.vertices & part_r.vertices, part_l.edges & part_r.edges)
    part = Subobject(part_l.vertices | part_r.vertices, part_l.edges | part_r.edges)
    return part, _compose_entries(entries_l, entries_r, predicate, overlap)


def compose(span: Span, sub_l: SubPTable, sub_r: SubPTable, predicate: PropertyPredicate):
    """Table over the pushout of a monic span from the full tables over its
    feet.

    The tables must be full, as enumerate_subp_bruteforce and compose build
    them: a table that leaves out the trace of one of its entries on the
    apex is rejected. Both tables are pushed into the pushout along its
    cocone (injective by adhesivity) and glued there. op_counter counts
    |sub_l| * |sub_r| pair compositions, although only the pairs that agree
    on the image of the apex are glued.
    """
    if not span.is_monic():
        raise NonMonicSpan("table composition requires a monic span")
    if sub_l.ambient != span.left.cod or sub_r.ambient != span.right.cod:
        raise ValidationError("tables do not match the span feet")
    if sub_l.predicate_name != predicate.name or sub_r.predicate_name != predicate.name:
        raise ValidationError("tables were built for a different predicate")
    for table, leg in ((sub_l, span.left), (sub_r, span.right)):
        shared_v, shared_e = leg.image_vertices(), leg.image_edges()
        for sub in table.entries:
            if Subobject(sub.vertices & shared_v, sub.edges & shared_e) not in table.entries:
                raise ValidationError("compose needs the full Sub_P tables of the span feet")
    glued, cocone = pushout(span)
    _, kept = _glue(_embed(sub_l, cocone.left), _embed(sub_r, cocone.right), predicate)
    pair_count = len(sub_l.entries) * len(sub_r.entries)
    return SubPTable(glued, predicate.name, frozenset(kept), pair_count)


def compose_optimize(
    span: Span,
    sub_l: SubPTable,
    sub_r: SubPTable,
    predicate: PropertyPredicate,
    objective: Objective,
) -> Subobject:
    """Best entry of the composed table; ties broken by smallest encoding."""
    return best_entry(compose(span, sub_l, sub_r, predicate), objective)


def _best(entries, objective: Objective):
    """The entry of best weight with the smallest encoding; None if empty.

    One pass finds the best weight; only the tied entries are encoded.
    """
    if not entries:
        return None
    weight = objective.weight
    top = objective.best_value(map(weight, entries))
    return min((sub for sub in entries if weight(sub) == top), key=Subobject.encoding)


def best_entry(table: SubPTable, objective: Objective):
    return _best(table.entries, objective)


@dataclass(frozen=True)
class SolveStats:
    """Deterministic counters of one fold.

    compositions holds (|L|, |R|) per glue, in fold order; pair_compositions
    is the sum of |L| * |R| over them, the size of the full pair space. Only
    the pairs whose traces match on the overlap are actually glued.
    """

    table_sizes: tuple
    compositions: tuple

    @property
    def pair_compositions(self) -> int:
        return sum(l * r for l, r in self.compositions)


@dataclass(frozen=True)
class SolveResult:
    value: object
    witness: Subobject
    table: SubPTable
    stats: SolveStats


def solve_on_decomposition(
    d: StructuredDecomposition,
    predicate: PropertyPredicate,
    objective: Objective,
    root=None,
) -> SolveResult:
    """Fold table composition over a tree-shaped tame decomposition.

    Every bag's brute-force table is pushed once along its leg of the
    cocone of evaluate_colimit(d), which is injective for a tame tree, so
    every partial colimit is a subgraph of the colimit and the fold works in
    its canonical vertex numbering throughout. In post-order, every shape
    edge glues the child subtree's table onto the parent's accumulated
    table; forest shapes are folded per component and then glued in
    component order. The result does not depend on the chosen root.
    """
    require_valid(d)
    if d.value_kind != GRAPH:
        raise ValidationError("solving needs a graph-valued decomposition")
    if not is_forest(d.shape):
        raise NonTreeShape("solving folds over a tree: the shape must be acyclic")
    if not is_tame(d):
        raise NotTame("solving requires injective adhesion legs")
    cap = brute_force_cap()
    for bag in d.bags:
        if bag.vertices > cap:
            raise TooLarge(
                f"bag with {bag.vertices} vertices exceeds the brute-force cap {cap}"
            )
    glued, cocone = evaluate_colimit(d)
    assert all(leg.is_mono() for leg in cocone), "a tame tree embeds every bag in its colimit"

    if not d.bags:
        entries = {EMPTY_SUBOBJECT} if predicate(EMPTY_SUBOBJECT) else set()
        table = SubPTable(glued, predicate.name, frozenset(entries))
        stats = SolveStats((), ())
        witness = best_entry(table, objective)
        value = objective.weight(witness) if witness is not None else None
        return SolveResult(value, witness, table, stats)

    table_sizes = []
    compositions = []

    def leaf(t) -> tuple:
        part = _embed(enumerate_subp_bruteforce(d.bags[t], predicate), cocone[t])
        table_sizes.append(len(part[1]))
        return part

    def glue(left, right) -> tuple:
        compositions.append((len(left[1]), len(right[1])))
        part = _glue(left, right, predicate)
        table_sizes.append(len(part[1]))
        return part

    shape_nbrs = d.shape.neighbor_sets()
    components = connected_components(d.shape)
    if root is not None:
        if not 0 <= root < d.shape.vertices:
            raise ValidationError(f"root {root} is not a shape vertex")
        components.sort(key=lambda comp: (root not in comp, comp))

    def fold_component(component) -> tuple:
        start = root if root is not None and root in component else component[0]
        # iterative post-order over the tree component
        order = []
        parent = {start: None}
        stack = [start]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in sorted(shape_nbrs[v], reverse=True):
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
        state = {}  # shape vertex -> (part, entries) of its folded subtree
        for v in reversed(order):
            acc = leaf(v)
            for child in sorted(shape_nbrs[v]):
                if parent.get(child) == v:
                    acc = glue(state.pop(child), acc)
            state[v] = acc
        return state[start]

    acc = fold_component(components[0])
    for component in components[1:]:
        acc = glue(acc, fold_component(component))

    stats = SolveStats(tuple(table_sizes), tuple(compositions))
    table = SubPTable(glued, predicate.name, frozenset(acc[1]), stats.pair_compositions)
    witness = best_entry(table, objective)
    value = objective.weight(witness) if witness is not None else None
    return SolveResult(value, witness, table, stats)


def _is_single_path(sub: Subobject) -> bool:
    """A connected path (possibly a single vertex, not empty): a disjoint
    union of paths with one edge fewer than vertices."""
    return len(sub.edges) == len(sub.vertices) - 1 and predicate_paths(sub)


def _solve_named(g, d, predicate, labeling, keep):
    reading = tree_decomposition_reading(g, d, labeling)
    if reading is None:
        raise NotATreeDecomposition(
            "the decomposition is not a tree decomposition of the graph"
        )
    _, colim_to_g = reading
    result = solve_on_decomposition(d, predicate, MAX_EDGES)
    best = _best([sub for sub in result.table.entries if keep(sub)], MAX_EDGES)
    if best is None:
        return 0, EMPTY_SUBOBJECT, result.stats
    return len(best.edges), translate_subobject(best, colim_to_g), result.stats


def longest_path(g: Graph, d: StructuredDecomposition, labeling=None):
    """Maximum edge count over single connected paths, with a witness in g's
    own numbering."""
    return _solve_named(g, d, PATHS, labeling, _is_single_path)


def max_bipartite_subgraph(g: Graph, d: StructuredDecomposition, labeling=None):
    return _solve_named(g, d, BIPARTITE, labeling, lambda s: True)


def max_planar_subgraph(g: Graph, d: StructuredDecomposition, labeling=None):
    return _solve_named(g, d, PLANAR, labeling, lambda s: True)
