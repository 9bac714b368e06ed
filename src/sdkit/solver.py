"""Compositional optimization over predicate-closed subgraph tables.

A table holds every subobject of an ambient graph satisfying a
subgraph-closed predicate that ignores isolated vertices. Over a graph with
vertex set V it is therefore {(V', E) : E accepted, ends(E) <= V' <= V}, and
the solver carries it as its accepted edge sets. Two tables whose ambients
lie inside one graph glue into the table over the union of those ambients:
a union of accepted edge sets is kept when the predicate accepts it. Only
pairs that agree on the edges the two ambients share need trying, because
an accepted union restricts to an accepted edge set of each (full,
subgraph-closed) table and both restrictions share one trace on the shared
edges. So the glued table is the accepted unions of the trace-matched
pairs, and each union comes from one pair. `solve_on_decomposition`
enumerates every bag's accepted edge sets on its image in the colimit of a
tame tree-shaped decomposition, where every partial colimit embeds, and
glues them there in post-order with `_compose_entries`. `compose` takes the
Sub_P tables of the feet of a monic span, as `enumerate_subp_bruteforce`
builds them, and runs that fold on the span's one-edge decomposition, whose
colimit is the pushout. A part the predicate accepts whole has every edge
set accepted, so the leaf and the glue first ask about the part's whole
edge set (the bag's edges, or the union of the two sides'), and on a yes
take its power set without another call. Otherwise the leaf runs Apriori
and the glue asks once per matched pair, except a pair with a side inside
the shared edges: it gives back the other side, accepted already. An
Objective weighs a subobject by its vertex or edge count, so the best
entry, ties broken by the smallest encoding, is read off the edge sets; the
full table of a solve is built only when SolveResult.table is read.

For a predicate decided_at_boundary, `solve_at_boundary` runs the same fold
(_fold) without keeping edge sets: a table is one class per signature, what
the rest of the decomposition can see of an edge set (its trace on the
part's edges that lie in other bags, and the summary of the rest on the
part's vertices that do), with exact counts and the best witnesses. Its
glue places every trace-matched pair of classes by the same rule and asks
the predicate once per key of the shared-edge trace and the two sides'
boundary summaries; its leaf asks once per (edge, summary of the set it
extends on the edge's ends). `solve`, the route of `sdkit solve`, takes
it for paths and bipartite, and longest_path takes it with its own weight;
the edge-set fold stays the oracle and the route for planar and compose.

Three caps raise TooLarge, each on what it protects: BRUTE_CAP on the
vertices of a bag, MAX_EDGE_SETS on the accepted edge sets any table of the
fold holds (counted by either route), and MAX_TABLE_ENTRIES on the entries
of a table about to be built (_expand).

The planar predicate is the path-addition test of Demoucron, Malgrange &
Pertuiset (1964), polynomial in the subobject and without state between
calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

from .core import (
    Graph,
    Span,
    _normalize_edge,
)
from .decomposition import (
    Adhesion,
    GRAPH,
    StructuredDecomposition,
    _require_tame_forest,
    evaluate_colimit,
)
from .errors import (
    NonMonicSpan,
    NotATreeDecomposition,
    TooLarge,
    ValidationError,
)
from .width import tree_decomposition_reading

# Most vertices a bag may have. A count of held edge sets does not bound the
# rejected candidates a leaf tries: a star K1,m under paths holds about m^2/2
# edge sets but tries C(m, 3) candidates.
BRUTE_CAP = 10
# Most accepted edge sets one table of the fold may hold, leaf or glued: the
# largest power of two at which every known worst input (README "Size caps")
# is refused or answered within 5 s wall and 512 MiB peak RSS. A held set
# costs about 1.2 KB, and 17-18 us in a leaf.
MAX_EDGE_SETS = 1 << 18
# Most entries (vertex set, edge set) a built table may have: compose,
# enumerate_subp_bruteforce and SolveResult.table build every entry.
MAX_TABLE_ENTRIES = 1 << 20


class Subobject(NamedTuple):
    """A subgraph of a fixed ambient graph: vertex subset + edge subset."""

    vertices: frozenset
    edges: frozenset

    def encoding(self) -> tuple:
        """Deterministic sort/tie-break key."""
        return (tuple(sorted(self.vertices)), tuple(sorted(self.edges)))

    def to_json(self) -> dict:
        return {"vertices": sorted(self.vertices), "edges": sorted(map(list, self.edges))}


EMPTY_SUBOBJECT = Subobject(frozenset(), frozenset())


def predicate_paths(sub: Subobject) -> bool:
    """Disjoint union of paths: acyclic with every degree at most 2. One
    pass over the edges, by degree counts and union-find."""
    degree, root = {}, {}
    for u, v in sub.edges:
        du, dv = degree.get(u, 0), degree.get(v, 0)
        if du == 2 or dv == 2:
            return False
        degree[u], degree[v] = du + 1, dv + 1
        while u in root:
            u = root[u]
        while v in root:
            v = root[v]
        if u == v:
            return False
        root[u] = v
    return True


def predicate_bipartite(sub: Subobject) -> bool:
    """2-colorable over the included edges: union-find that keeps each
    vertex's colour parity against its parent, and fails on an edge whose
    ends already have one colour."""
    root = {}
    for u, v in sub.edges:
        parity = 1
        while u in root:
            u, step = root[u]
            parity ^= step
        while v in root:
            v, step = root[v]
            parity ^= step
        if u != v:
            root[u] = (v, parity)
        elif parity:
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

    decided_at_boundary claims more. Let A and B be accepted edge sets of
    two parts of one graph whose vertex sets meet in I, and T their common
    edges. Then the verdict on A | B is fixed by T and by the summaries
    of A - T and of B - T on I: each vertex's degree, and its component
    and colour parity against the first vertex of I in that component. So
    solve_at_boundary keeps one class per summary instead of the edge sets,
    its glue asks the predicate once per such key, and its leaf once per
    edge e and summary of A on the ends of e (B = {e}). It holds for paths,
    whose degrees and closed cycles through I are read off the summaries,
    and for bipartite, whose odd cycles through I are too; not for planar.
    """

    name: str
    evaluator: Callable
    decided_at_boundary: bool = False

    def __call__(self, sub: Subobject) -> bool:
        return self.evaluator(sub)


PATHS = PropertyPredicate("paths", predicate_paths, decided_at_boundary=True)
BIPARTITE = PropertyPredicate("bipartite", predicate_bipartite, decided_at_boundary=True)
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
    """A subobject's vertex count or edge count (counts is "vertices" or
    "edges") together with an optimization direction.

    Weighing by one of the two counts is what lets the fold name the best
    entry with a given edge set without building the other entries (see
    _best_in_family).
    """

    name: str
    counts: str
    direction: str

    def __post_init__(self):
        if self.counts not in ("vertices", "edges"):
            raise ValidationError(f"an objective counts vertices or edges, not {self.counts!r}")

    def weight(self, sub: Subobject) -> int:
        return len(sub.vertices) if self.counts == "vertices" else len(sub.edges)

    def best_value(self, values):
        return max(values) if self.direction == "max" else min(values)


MAX_EDGES = Objective("max-edges", "edges", "max")
MAX_VERTICES = Objective("max-vertices", "vertices", "max")
MIN_EDGES = Objective("min-edges", "edges", "min")
OBJECTIVES = {o.name: o for o in (MAX_EDGES, MAX_VERTICES, MIN_EDGES)}
# longest_path's objective under PATHS: the most edges over the accepted edge
# sets that form one path (_best_in_family)
_LONGEST_PATH = Objective("longest-path", "edges", "max")


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


def _too_many_edge_sets() -> TooLarge:
    return TooLarge(f"a Sub_P table grew past {MAX_EDGE_SETS} accepted edge sets")


def _entry_count(family, n: int) -> int:
    """The entries a family of (edge set, ends) stands for over n vertices:
    2^(n - |ends|) per edge set."""
    return sum(1 << (n - len(ends)) for _, ends in family)


def _power_set(edge_list) -> list:
    """Every subset of edge_list with its ends, the empty set first: the
    family of a part whose whole edge set is accepted, built without a
    predicate call. Raises TooLarge at once past MAX_EDGE_SETS."""
    if 1 << len(edge_list) > MAX_EDGE_SETS:
        raise _too_many_edge_sets()
    family = [(frozenset(), frozenset())]
    for edge in edge_list:
        family += [(edges | {edge}, ends.union(edge)) for edges, ends in family]
    return family


def _accepted_whole(edges, predicate: PropertyPredicate) -> bool:
    """The predicate's verdict on a part's whole edge set, on its ends."""
    return predicate(Subobject(frozenset().union(*edges), frozenset(edges)))


def _accepted_edge_sets(edge_list, predicate: PropertyPredicate) -> tuple:
    """(family, calls) for the Sub_P table of the graph with the edges in
    edge_list, in whatever numbering those edges use.

    family lists every accepted edge set with its ends, the empty set first,
    and calls counts the predicate calls. Rests on the PropertyPredicate
    contract: the accepted edge sets form a downward-closed family. The
    empty set is asked first, then, with two edges or more, the whole edge
    set: when it is accepted the family is the power set (_power_set) and
    the leaf made 2 calls. Otherwise the family is listed level by level
    from the empty set (Apriori). A candidate S | {e}, with e after S's last
    edge in edge_list order, is tested on the ends of its edges only when
    every set one edge smaller was accepted, so the predicate is called once
    per accepted edge set, once per minimal rejected one, and once more for
    the rejected whole.
    """
    if not predicate(EMPTY_SUBOBJECT):
        return [], 1
    calls = 1
    if len(edge_list) > 1:
        calls += 1
        if _accepted_whole(edge_list, predicate):
            return _power_set(edge_list), calls
    # accepted edge sets of the current size: edge-index bitmask ->
    # (edge indices, edge set, ends)
    level = {0: ((), frozenset(), frozenset())}
    family = [(frozenset(), frozenset())]
    while level:
        grown = {}
        for mask, (indices, edges, ends) in level.items():
            for j in range(mask.bit_length(), len(edge_list)):
                candidate = mask | (1 << j)
                if any(candidate ^ (1 << i) not in level for i in indices):
                    continue
                cand_edges = edges | {edge_list[j]}
                cand_ends = ends.union(edge_list[j])
                calls += 1
                if predicate(Subobject(cand_ends, cand_edges)):
                    grown[candidate] = (indices + (j,), cand_edges, cand_ends)
                    family.append((cand_edges, cand_ends))
                    if len(family) > MAX_EDGE_SETS:
                        raise _too_many_edge_sets()
        level = grown
    return family, calls


def _expand(family, vertices) -> frozenset:
    """The entries that a family of (edge set, ends) stands for: every edge
    set with every vertex set between its ends and `vertices`."""
    count = _entry_count(family, len(vertices))
    if count > MAX_TABLE_ENTRIES:
        raise TooLarge(f"a Sub_P table of {count} entries is past the cap of {MAX_TABLE_ENTRIES}")
    if not family:
        return frozenset()
    order = sorted(vertices)
    bit = {v: 1 << i for i, v in enumerate(order)}
    vsets = [frozenset(v for v in order if bit[v] & mask) for mask in range(1 << len(order))]
    full = len(vsets) - 1
    entries = []
    for edges, ends in family:
        low = sum(bit[v] for v in ends)
        free = full ^ low
        extra = free
        while True:
            entries.append(Subobject(vsets[low | extra], edges))
            if not extra:
                break
            extra = (extra - 1) & free
    return frozenset(entries)


def enumerate_subp_bruteforce(g: Graph, predicate: PropertyPredicate) -> SubPTable:
    """Every (vertex subset, edge subset) pair satisfying the predicate:
    every accepted edge set (see _accepted_edge_sets) paired with every
    vertex set that contains its ends."""
    if g.vertices > BRUTE_CAP:
        raise TooLarge(f"brute-force enumeration is limited to {BRUTE_CAP} vertices")
    family, _ = _accepted_edge_sets(g.edge_list(), predicate)
    return SubPTable(g, predicate.name, _expand(family, range(g.vertices)))


def translate_subobject(sub: Subobject, mapping) -> Subobject:
    edges = []
    for u, v in sub.edges:
        a, b = mapping[u], mapping[v]
        edges.append((a, b) if a < b else (b, a))
    return Subobject(frozenset(map(mapping.__getitem__, sub.vertices)), frozenset(edges))


class _Table(NamedTuple):
    """The full Sub_P table of a part (a subgraph) of one ambient graph,
    kept as its accepted edge sets: it holds every (V, E) with (E, ends(E))
    in family and ends(E) <= V <= vertices."""

    vertices: frozenset
    edges: frozenset
    family: list


def _compose_entries(left: _Table, right: _Table, predicate: PropertyPredicate) -> tuple:
    """(table, calls): the table over the union of two parts, glued from
    theirs, and the number of predicate calls the glue made.

    An edge set U of the union is accepted exactly when the predicate
    accepts it and U & left.edges and U & right.edges are accepted, which
    are edge sets of the two families with one trace on the shared edges.
    So the glued family is the accepted unions of the trace-matched pairs,
    and each union comes from one pair only.

    When both families are non-empty and the union has two edges or more,
    the predicate is first asked about the whole union. When it accepts,
    every edge set of the union is accepted and the family is its power set
    (_power_set): 1 call. Otherwise the pairs are glued: a pair with a side
    inside the shared edges gives back the other side, accepted already; the
    predicate is called once per other matched pair.
    """
    vertices, whole = left.vertices | right.vertices, left.edges | right.edges
    calls = 0
    if left.family and right.family and len(whole) > 1:
        calls += 1
        if _accepted_whole(whole, predicate):
            return _Table(vertices, whole, _power_set(sorted(whole))), calls
    shared = left.edges & right.edges
    by_trace = {}
    for edges, ends in right.family:
        by_trace.setdefault(edges & shared, []).append((edges, ends))
    family = []
    for edges, ends in left.family:
        trace = edges & shared
        inside = edges == trace
        for other, other_ends in by_trace.get(trace, ()):
            if inside:
                family.append((other, other_ends))
            elif other == trace:
                family.append((edges, ends))
            else:
                calls += 1
                union, union_ends = edges | other, ends | other_ends
                if not predicate(Subobject(union_ends, union)):
                    continue
                family.append((union, union_ends))
            if len(family) > MAX_EDGE_SETS:
                raise _too_many_edge_sets()
    return _Table(vertices, whole, family), calls


def compose(span: Span, sub_l: SubPTable, sub_r: SubPTable, predicate: PropertyPredicate):
    """Table over the pushout of a monic span from the Sub_P tables over its
    feet, as enumerate_subp_bruteforce builds them; any other table is
    rejected.

    A span is the decomposition whose shape is one edge, and its pushout is
    that decomposition's colimit, so the table is the fold's
    (solve_on_decomposition) over it, in the pushout's numbering. op_counter
    counts |sub_l| * |sub_r| pair compositions, although only the edge sets
    that agree on the image of the apex are glued.
    """
    if not span.is_monic():
        raise NonMonicSpan("table composition requires a monic span")
    if sub_l.ambient != span.left.cod or sub_r.ambient != span.right.cod:
        raise ValidationError("tables do not match the span feet")
    if sub_l.predicate_name != predicate.name or sub_r.predicate_name != predicate.name:
        raise ValidationError("tables were built for a different predicate")
    for table in (sub_l, sub_r):
        if table != enumerate_subp_bruteforce(table.ambient, predicate):
            raise ValidationError("compose needs the full Sub_P tables of the span feet")
    feet = (span.left.cod, span.right.cod)
    d = StructuredDecomposition(Graph(2, [(0, 1)]), GRAPH, feet, (Adhesion((0, 1), span),))
    return solve_on_decomposition(d, predicate, MAX_EDGES).table


def compose_optimize(
    span: Span,
    sub_l: SubPTable,
    sub_r: SubPTable,
    predicate: PropertyPredicate,
    objective: Objective,
) -> Subobject:
    """Best entry of the composed table; ties broken by smallest encoding."""
    return best_entry(compose(span, sub_l, sub_r, predicate), objective)


def best_entry(table: SubPTable, objective: Objective):
    """The entry of best weight with the smallest encoding; None if empty.

    One pass finds the best weight; only the tied entries are encoded.
    """
    if not table.entries:
        return None
    weight = objective.weight
    top = objective.best_value(map(weight, table.entries))
    return min((sub for sub in table.entries if weight(sub) == top), key=Subobject.encoding)


def _best_in_family(family, n: int, objective: Objective):
    """best_entry of the full table over the vertices 0..n-1 that family, a
    list of (edge set, ends), stands for, without building it; None if
    family is empty. Both routes read their witness here, solve_at_boundary
    from the best sets of its root classes.

    The entries with edge set E have every vertex set between ends(E) and
    all vertices. The best of them with the smallest encoding is
    0..max ends(E) (the smallest sorted tuple that holds ends(E); empty for
    E empty) when the objective counts edges, every vertex when it
    maximizes vertices, and ends(E) when it minimizes them. One candidate
    per edge set is therefore enough, and its weight is known from (E,
    ends(E)), so only the candidates of the best weight are built.

    For _LONGEST_PATH the family is of linear forests (PATHS), and E forms
    one path exactly when |ends(E)| = |E| + 1. The witness is (ends(E), E)
    for such an E with the most edges and the smallest encoding, or vertex
    0 alone when no E has an edge (None when n is 0).
    """
    longest, counts_edges = objective is _LONGEST_PATH, objective.counts == "edges"
    sign = 1 if objective.direction == "max" else -1
    everything = frozenset(range(n)) if not counts_edges and sign > 0 else None
    top, tied = None, []
    for pair in family:
        edges, ends = pair
        if longest and len(ends) != len(edges) + 1:
            continue
        weight = sign * (len(edges) if counts_edges else n if everything else len(ends))
        if top is None or weight > top:
            top, tied = weight, []
        if weight == top:
            tied.append(pair)
    if top is None:
        return Subobject(frozenset({0}), frozenset()) if longest and family and n else None
    for i, (edges, ends) in enumerate(tied):
        if counts_edges and not longest:
            ends = frozenset(range(max(ends, default=-1) + 1))
        tied[i] = Subobject(everything or ends, edges)
    # the encoding only breaks ties; skipping it for one saves a cold first
    # call (about 10 us) in each CLI query
    return tied[0] if len(tied) == 1 else min(tied, key=Subobject.encoding)


class SolveStats(NamedTuple):
    """Deterministic counters of one fold.

    table_sizes holds the entries of every table, leaf or glued, in fold
    order, and edge_sets the accepted edge sets they stand for. compositions
    holds (|L|, |R|) per glue; pair_compositions is the sum of |L| * |R|
    over them, the size of the full pair space. Only the edge sets whose
    traces match on the overlap are actually glued, each union from one
    pair. predicate_calls is (leaf, glue): the calls the leaves and the
    glues made. In the edge-set fold a part with two edges or more is
    first asked whole: a leaf accepted whole makes 2 calls (the empty set,
    the whole), a glue whose union is accepted 1; otherwise a glue makes 1
    more per matched pair with no side inside the shared edges
    (_compose_entries). solve_at_boundary's glue makes one per
    boundary-summary key of such pairs.
    """

    table_sizes: tuple
    compositions: tuple
    edge_sets: tuple
    predicate_calls: tuple

    @property
    def pair_compositions(self) -> int:
        pairs = 0
        for left, right in self.compositions:
            pairs += left * right
        return pairs


@dataclass(frozen=True)
class SolveResult:
    """Value, witness and counters of one solve. The colimit's Sub_P table
    is kept as its accepted edge sets with their ends (family); table, the
    full SubPTable, is built from them when first read."""

    value: object
    witness: Subobject
    stats: SolveStats
    ambient: Graph
    predicate_name: str
    family: tuple = field(repr=False, compare=False)

    @cached_property
    def table(self) -> SubPTable:
        entries = _expand(self.family, range(self.ambient.vertices))
        return SubPTable(self.ambient, self.predicate_name, entries, self.stats.pair_compositions)


def _solvable_colimit(d: StructuredDecomposition):
    """evaluate_colimit(d), shared with tree_decomposition_reading, and each
    bag's edges in colimit coordinates, of a graph-valued, tame,
    forest-shaped decomposition whose bags are within BRUTE_CAP; each check
    raises."""
    _require_tame_forest(d, GRAPH, "solving")
    for bag in d.bags:
        if bag.vertices > BRUTE_CAP:
            raise TooLarge(
                f"bag with {bag.vertices} vertices exceeds the brute-force cap {BRUTE_CAP}"
            )
    glued, cocone = evaluate_colimit(d)
    bag_edges = []
    for bag, leg in zip(d.bags, cocone):
        at = leg.mapping
        edges = []
        for u, v in bag.edge_list():
            edges.append((at[u], at[v]) if at[u] < at[v] else (at[v], at[u]))
        bag_edges.append(edges)
    return glued, cocone, bag_edges


def _fold(d: StructuredDecomposition, root, leaf, glue) -> tuple:
    """(table, stats) of the fold over a decomposition with bags.

    leaf(t) and glue(child, parent) return (table, predicate calls, entries,
    accepted edge sets). In post-order, every shape edge glues the child
    subtree's table onto the parent's accumulated table; forest shapes are
    folded per component and then glued in component order, the component
    of root (if given) first and from it, the others by their least shape
    vertex, each from that vertex.
    """
    if root is not None and not 0 <= root < d.shape.vertices:
        raise ValidationError(f"root {root} is not a shape vertex")
    table_sizes, edge_sets, compositions, calls = [], [], [], [0, 0]

    def glued(left, right):
        compositions.append((left[1], right[1]))
        table, made, entries, held = glue(left[0], right[0])
        calls[1] += made
        table_sizes.append(entries)
        edge_sets.append(held)
        return table, entries

    shape_nbrs = d.shape.neighbor_sets()
    parent, acc = {}, None
    for start in ([] if root is None else [root]) + list(range(d.shape.vertices)):
        if start in parent:
            continue
        # iterative post-order over the tree component of start
        order, stack, parent[start] = [], [start], None
        while stack:
            v = stack.pop()
            order.append(v)
            for u in sorted(shape_nbrs[v], reverse=True):
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
        state = {}  # shape vertex -> (table, entries) of its folded subtree
        for v in reversed(order):
            table, made, entries, held = leaf(v)
            calls[0] += made
            table_sizes.append(entries)
            edge_sets.append(held)
            folded = table, entries
            for child in sorted(shape_nbrs[v]):
                if parent[child] == v:
                    folded = glued(state.pop(child), folded)
            state[v] = folded
        acc = state[start] if acc is None else glued(acc, state[start])
    stats = SolveStats(tuple(table_sizes), tuple(compositions), tuple(edge_sets), tuple(calls))
    return acc[0], stats


def solve_on_decomposition(
    d: StructuredDecomposition,
    predicate: PropertyPredicate,
    objective: Objective,
    root=None,
) -> SolveResult:
    """Fold table composition over a tree-shaped tame decomposition.

    Every bag's accepted edge sets are enumerated on its image under its
    leg of the cocone of evaluate_colimit(d), which is injective for a tame
    tree, so every partial colimit is a subgraph of the colimit and the fold
    (_fold) works in its canonical vertex numbering throughout, gluing with
    _compose_entries. No table is expanded into its entries: the stats count
    them, and the witness is read off the edge sets. A table holding more
    than MAX_EDGE_SETS accepted edge sets raises TooLarge. The result does
    not depend on the chosen root.
    """
    glued, cocone, bag_edges = _solvable_colimit(d)
    if not d.bags:
        family, made = _accepted_edge_sets([], predicate)
        stats = SolveStats((), (), (), (made, 0))
    else:

        def measured(table, made):
            return table, made, _entry_count(table.family, len(table.vertices)), len(table.family)

        def leaf(t):
            family, made = _accepted_edge_sets(bag_edges[t], predicate)
            return measured(_Table(cocone[t].image_vertices(), frozenset(bag_edges[t]), family), made)

        glue = lambda left, right: measured(*_compose_entries(left, right, predicate))
        table, stats = _fold(d, root, leaf, glue)
        family = table.family
    witness = _best_in_family(family, glued.vertices, objective)
    value = objective.weight(witness) if witness is not None else None
    return SolveResult(value, witness, stats, glued, predicate.name, tuple(family))


def solve(d: StructuredDecomposition, predicate: PropertyPredicate, objective: Objective):
    """The route sdkit solve takes: solve_at_boundary for a predicate
    decided_at_boundary, solve_on_decomposition for any other."""
    route = solve_at_boundary if predicate.decided_at_boundary else solve_on_decomposition
    return route(d, predicate, objective)


def solve_on_graph(g: Graph, d: StructuredDecomposition, predicate, objective, labeling=None):
    """(result, colim_to_g): solve(d, ...) with d read as a tree decomposition
    of g, and the bijection from its colimit's vertices onto g's that
    translates a witness (see tree_decomposition_reading). Raises
    NotATreeDecomposition when d does not glue to g."""
    reading = tree_decomposition_reading(g, d, labeling)
    if reading is None:
        raise NotATreeDecomposition("the decomposition is not a tree decomposition of the graph")
    return solve(d, predicate, objective), reading[1]


def _solve_named(g, d, predicate, labeling, objective=MAX_EDGES):
    """(value, witness in g's numbering, stats) of an objective that counts
    edges; (0, the empty subobject, stats) when there is no witness."""
    result, colim_to_g = solve_on_graph(g, d, predicate, objective, labeling)
    if result.witness is None:
        return 0, EMPTY_SUBOBJECT, result.stats
    return result.value, translate_subobject(result.witness, colim_to_g), result.stats


def longest_path(g: Graph, d: StructuredDecomposition, labeling=None):
    """Maximum edge count over single connected paths, with a witness in g's
    own numbering: the smallest encoding among them, or vertex 0 alone when
    g has vertices but no edges."""
    return _solve_named(g, d, PATHS, labeling, _LONGEST_PATH)


def max_bipartite_subgraph(g: Graph, d: StructuredDecomposition, labeling=None):
    return _solve_named(g, d, BIPARTITE, labeling)


def max_planar_subgraph(g: Graph, d: StructuredDecomposition, labeling=None):
    return _solve_named(g, d, PLANAR, labeling)


# the summary route needs the names above, so it is bound last
from .summaries import solve_at_boundary  # noqa: E402
