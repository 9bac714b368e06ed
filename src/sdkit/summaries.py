"""Sub_P tables kept as one class per boundary signature: the summary
route of the solver (solve_at_boundary), for predicates decided_at_boundary.

The route folds a tame tree-shaped decomposition as solve_on_decomposition
does (solver._fold), with the same value, witness, TooLarge points and
counters, but keeps no edge set. For the part of the fold below a shape
vertex, the rest of the decomposition sees an accepted edge set E only
through its trace on the part's seam (its edges that lie in some other bag)
and through the summary of E - seam on the part's boundary (its vertices
that lie in some other bag): each vertex's degree, and its component and
colour parity against the first boundary vertex of that component. That is
what the glue's boundary-summary key reads, and by decided_at_boundary it
fixes every later verdict, so a table is one class per signature with the
number of its edge sets, the entries they stand for and its best witnesses.
longest_path takes the same route with a weight that counts paths.
This is the path and connectivity state of Cygan et al., Parameterized
Algorithms (2015), ch. 7.
"""
from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from . import solver
from .core import Graph
from .decomposition import StructuredDecomposition
from .solver import (
    EMPTY_SUBOBJECT,
    Objective,
    PropertyPredicate,
    SolveStats,
    Subobject,
    _LONGEST_PATH,
    _accepted_edge_sets,
    _best_in_family,
    _fold,
    _solvable_colimit,
    _too_many_edge_sets,
)
from .width import _bits


class Solved(NamedTuple):
    """Value, witness and counters of a solve that keeps no table
    (solve_at_boundary), with the colimit it is over."""

    value: object
    witness: Subobject
    stats: SolveStats
    ambient: Graph


def _components(labels) -> tuple:
    """For labels 2 * (a name of the component) + parity against it: 2 *
    (index of the first label of the same component) + parity against it."""
    firsts, out = {}, []
    for i, label in enumerate(labels):
        first, parity = firsts.setdefault(label >> 1, (i, label & 1))
        out.append(2 * first + (label & 1 ^ parity))
    return tuple(out)


def _boundary_summary(edges, boundary, pieces=()) -> tuple:
    """What a glue along the vertices boundary (sorted) sees of the union of
    the edge set edges and the edge sets summarized in pieces, each given as
    (its own boundary, degrees, components): (degrees, components), with
    each boundary vertex's degree, and 2 * (index of the first boundary
    vertex of its component) + its colour parity against that vertex. The
    parity is well defined on a bipartite union."""
    if not boundary:
        return (), ()
    if len(pieces) == 1 and not edges and pieces[0][0] == boundary:
        return pieces[0][1:]
    deg, links = {}, []
    for vertices, degrees, components in pieces:
        for i, (x, k, c) in enumerate(zip(vertices, degrees, components)):
            deg[x] = deg.get(x, 0) + k
            if c >> 1 != i:
                links.append((x, vertices[c >> 1], c & 1))
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        links.append((u, v, 1))
    up = {}  # union-find: vertex -> (parent, parity against it)
    for x, y, parity in links:
        while x in up:
            x, step = up[x]
            parity ^= step
        while y in up:
            y, step = up[y]
            parity ^= step
        if x != y:
            up[x] = (y, parity)
    labels = []
    for x in boundary:
        parity = 0
        while x in up:
            x, step = up[x]
            parity ^= step
        labels.append(2 * x + parity)
    return tuple(deg.get(x, 0) for x in boundary), _components(labels)


class _Summaries(NamedTuple):
    """The Sub_P table of the part of a decomposition made of the bags in
    bags, kept as one class per signature.

    boundary lists (sorted) the part's vertices that also lie in a bag
    outside it, and seam masks its edges that do; edges are colimit edge
    masks. An accepted edge set E has the signature (E & seam, whether E -
    seam is non-empty, degrees, components), the last two the summary of
    E - seam on boundary (_boundary_summary). classes maps a signature to
    [count of edge sets, entries they stand for, their best weight, front],
    where front lists the (max end, mask) of the sets of that weight that no
    other beats on both (_front). The weight is the size |E|, or, for
    longest_path, the key (|E| - |ends E|, |E|, vertex mask of ends E): a
    linear forest has |ends E| - |E| paths, and the sets of one key share
    their ends, so their front is the one with the largest mask.
    """

    bags: frozenset
    vertices: frozenset
    edges: int
    boundary: tuple
    seam: int
    classes: dict


def _front(reps) -> list:
    """The (max end, mask) pairs that no other pair beats on both: a smaller
    or equal max end and a larger mask. Sorted by max end."""
    if len(reps) < 2:
        return list(reps)
    out = []
    for top, mask in sorted(reps, key=lambda rep: (rep[0], -rep[1])):
        if not out or mask > out[-1][1]:
            out.append((top, mask))
    return out


def _place(classes, signature, count, entries, weight, front) -> None:
    """Add a class's contents to classes under signature; the fronts of one
    weight are concatenated, and _front prunes them once the table is built."""
    cls = classes.get(signature)
    if cls is None:
        classes[signature] = [count, entries, weight, front]
        return
    cls[0] += count
    cls[1] += entries
    if weight > cls[2]:
        cls[2:] = weight, front
    elif weight == cls[2]:
        cls[3] = cls[3] + front


def _join(lab, a, b) -> tuple:
    """lab once the edge ab joins the components of a and b (lab gives each
    vertex 2 * a vertex of its component + its parity against that vertex)."""
    la, lb = lab[a], lab[b]
    if la >> 1 != lb >> 1:
        root, flip, other = la & ~1, (la ^ lb ^ 1) & 1, lb >> 1
        lab = tuple([root | (x ^ flip) & 1 if x >> 1 == other else x for x in lab])
    return lab


def _leaf_summaries(frame, pairs, bits, predicate, vertex_bit, longest) -> tuple:
    """(classes, calls) of the Sub_P table of the one bag of frame with the
    colimit edges pairs (with their bits), in _accepted_edge_sets' order;
    vertex_bit gives a colimit vertex's bit in a vertex mask, and longest
    picks longest_path's weight (_Summaries).

    Each accepted edge set S is kept as its mask, the vertex mask of its
    ends, its degrees (four bits a vertex) and component labels (_join), and
    the same for S - seam, whose summary on boundary gives S's signature.
    S | {e} is decided by the verdict on the first candidate with the same
    edge e and the same summary of S on the ends of e: their degrees, and
    whether they are joined and with which parity. That is the
    decided_at_boundary contract with A = S, B = {e} and no common edges,
    so the predicate is called once per such key, and once on the empty
    subobject.
    """
    if not predicate(EMPTY_SUBOBJECT):
        return {}, 1
    cap, boundary, seam = solver.MAX_EDGE_SETS, frame.boundary, frame.seam
    order = sorted(frame.vertices)
    local = {v: i for i, v in enumerate(order)}
    n = len(order)
    edges = [
        (local[u], local[v], 4 * local[u], 4 * local[v], b, v, vertex_bit(u) | vertex_bit(v))
        for (u, v), b in zip(pairs, bits)
    ]
    # pick reads the labels of the boundary vertices and of a sentinel vertex
    # n, which keeps its result a tuple; fours masks the boundary's degrees
    pick = itemgetter(*[local[v] for v in boundary], n) if boundary else None
    fours = sum(15 << 4 * local[v] for v in boundary)
    shifts = [4 * local[v] for v in boundary]
    start = tuple(range(0, 2 * n + 2, 2))
    canon = {}  # labels read by pick -> the boundary's components
    empty = (0, False, 0, tuple(range(0, 2 * len(boundary), 2))) if pick else False
    raw = {empty: [1, 1 << n, (0, 0, 0) if longest else 0, {-1: 0}]}
    verdicts = {}
    calls, count, size = 1, 1, 0
    level = [(0, 0, start, 0, start, 0, -1, 0)]
    while level:
        size += 1
        grown = []
        for first, deg, lab, rdeg, rlab, mask, top, ends in level:
            for j in range(first, len(edges)):
                a, b, sa, sb, bit, v, ab = edges[j]
                la, lb, da, db = lab[a], lab[b], deg >> sa & 15, deg >> sb & 15
                key = (j, da, db, (la ^ lb) & 1 if la >> 1 == lb >> 1 else 2)
                accepted = verdicts.get(key)
                if accepted is None:
                    calls += 1
                    chosen = [p for p, c in zip(pairs, bits) if (mask | bit) & c]
                    accepted = predicate(Subobject(frozenset().union(*chosen), frozenset(chosen)))
                    verdicts[key] = accepted
                if not accepted:
                    continue
                count += 1
                if count > cap:
                    raise _too_many_edge_sets()
                step = 1 << sa | 1 << sb
                grown_deg, grown_lab = deg + step, _join(lab, a, b)
                if bit & seam:
                    rest = rdeg, rlab
                elif seam:
                    rest = rdeg + step, _join(rlab, a, b)
                else:
                    rest = grown_deg, grown_lab
                grown_mask, grown_top, grown_ends = mask | bit, max(top, v), ends | ab
                grown_used = grown_ends.bit_count()
                grown.append((j + 1, grown_deg, grown_lab, *rest, grown_mask, grown_top, grown_ends))
                if pick:
                    labels = pick(rest[1])
                    components = canon.get(labels)
                    if components is None:
                        components = canon[labels] = _components(labels[:-1])
                    tau = grown_mask & seam
                    signature = (tau, grown_mask != tau, rest[0] & fours, components)
                else:
                    signature = True
                weight = (size - grown_used, size, grown_ends) if longest else size
                cls = raw.get(signature)
                if cls is None:
                    raw[signature] = [1, 1 << (n - grown_used), weight, {grown_top: grown_mask}]
                elif cls[2] < weight:
                    cls[:] = cls[0] + 1, cls[1] + (1 << (n - grown_used)), weight, {grown_top: grown_mask}
                else:
                    cls[0] += 1
                    cls[1] += 1 << (n - grown_used)
                    if cls[2] == weight and cls[3].get(grown_top, -1) < grown_mask:
                        cls[3][grown_top] = grown_mask
        level = grown
    classes = {}
    for signature, (count, entries, weight, best) in raw.items():
        if pick:
            tau, flag, degrees, components = signature
            signature = (tau, flag, tuple([degrees >> shift & 15 for shift in shifts]), components)
        else:
            signature = (0, signature, (), ())
        classes[signature] = [count, entries, weight, _front(best.items())]
    return classes, calls


def solve_at_boundary(
    d: StructuredDecomposition,
    predicate: PropertyPredicate,
    objective: Objective,
    root=None,
) -> Solved:
    """solve_on_decomposition for a predicate decided_at_boundary, with the
    same value, witness, TooLarge points and stats, except that the leaf
    count of predicate_calls counts the calls _leaf_summaries makes. No
    edge set is kept: a table is one class per signature (_Summaries).

    The colimit edge of rank r in sorted order is bit M - 1 - r of a mask
    over the M colimit edges, so that of two edge sets of one size the one
    with the smaller sorted edge tuple has the larger mask; masks add over
    parts with disjoint edges.

    longest_path's objective weighs a class by the key of its best set
    (_Summaries), with colimit vertex v at bit N - 1 - v, so that of two
    vertex sets of one size the smaller sorted tuple has the larger mask.
    A glue adds the two keys less (|T| - |ends L & ends R|, |T|) for the
    trace T, and ORs the masks; the class fixes both sides' boundary bits
    and their interiors are disjoint, so the best set of a class pair is
    the union of their best sets.

    At the root nothing lies outside, so the empty edge set is a class of
    its own and the other class holds the best non-empty sets. The witness
    is _best_in_family's, the edge-set fold's rule, over one (edges, ends)
    pair per front mask of the root classes: every objective's best
    candidate is among them.
    """
    glued, cocone, bag_edges = _solvable_colimit(d)
    longest = objective is _LONGEST_PATH
    vertex_bit = lambda v: 1 << glued.vertices - 1 - v
    edge_at = glued.edge_list()[::-1]
    bit = {edge: 1 << i for i, edge in enumerate(edge_at)}
    edges_of = lambda mask: [edge_at[i] for i in _bits(mask)] if mask else ()

    def edge_set(mask):
        """(edges, ends) of the edge set mask, as a family lists it."""
        edges = edges_of(mask)
        return frozenset(edges), frozenset().union(*edges)

    frames = [(leg.image_vertices(), sum(bit[e] for e in pairs)) for leg, pairs in zip(cocone, bag_edges)]

    def part(bags, vertices, edges, classes):
        outside, outside_edges = set(), 0
        for t, (bag_vertices, bag_mask) in enumerate(frames):
            if t not in bags:
                outside |= bag_vertices
                outside_edges |= bag_mask
        boundary = tuple(sorted(vertices & outside))
        return _Summaries(bags, vertices, edges, boundary, edges & outside_edges, classes)

    def leaf(t):
        frame = part(frozenset((t,)), *frames[t], None)
        pairs = bag_edges[t]
        classes, made = _leaf_summaries(frame, pairs, [bit[e] for e in pairs], predicate, vertex_bit, longest)
        return frame._replace(classes=classes), made

    def glue(left, right):
        glued_part = part(
            left.bags | right.bags, left.vertices | right.vertices, left.edges | right.edges, {}
        )
        boundary, seam, classes = glued_part[3:]
        iface = tuple(sorted(left.vertices & right.vertices))
        at = {x: 1 << i for i, x in enumerate(iface)}
        shared = left.edges & right.edges
        keys = {}  # (trace, summary less the trace on iface) -> (number, ends on iface)
        subs = {}  # mask -> (edges, ends) of a witness a predicate call reads

        def sub(mask):
            if mask not in subs:
                subs[mask] = edge_set(mask)
            return subs[mask]

        def place(tau, flag, pieces, *contents):
            out = tau & ~seam
            summary = _boundary_summary(edges_of(out), boundary, pieces) if boundary else ((), ())
            _place(classes, (tau & seam, bool(flag or out), *summary), *contents)

        def sides(side, grow):
            """Carry each class of side into the glued table alone; list those
            not inside the shared edges as (trace, number of its key, its ends
            on iface as a mask, tau, flag, piece, contents)."""
            out = []
            for (tau, flag, degrees, components), cls in side.classes.items():
                trace = tau & shared
                piece = (side.boundary, degrees, components)
                inside = not flag and tau == trace
                if side is left or not inside:
                    count, entries, weight, front = cls
                    place(tau, flag, [piece], count, entries << grow, weight, front)
                if not inside:
                    summary = _boundary_summary(edges_of(tau ^ trace), iface, [piece])
                    key = keys.get((trace, summary))
                    if key is None:
                        ends = sum(at[x] for x, k in zip(iface, summary[0]) if k)
                        key = keys[trace, summary] = len(keys), ends | sum(at[x] for x in sub(trace)[1])
                    out.append((trace, *key, tau, flag, piece, cls))
            return out

        lefts = sides(left, len(right.vertices) - len(iface))
        by_trace = {}
        for trace, *item in sides(right, len(left.vertices) - len(iface)):
            by_trace.setdefault(trace, []).append(item)
        made = 0
        verdicts = {}  # (left key, right key) -> verdict on the union
        for trace, key, ends, tau, flag, piece, (count, entries, weight, front) in lefts:
            lost = trace.bit_count()
            for other_key, other_ends, other_tau, other_flag, other_piece, other in by_trace.get(trace, ()):
                accepted = verdicts.get((key, other_key))
                if accepted is None:
                    made += 1
                    (edges, vertices), (other_edges, other_vertices) = sub(front[0][1]), sub(other[3][0][1])
                    union = Subobject(vertices | other_vertices, edges | other_edges)
                    accepted = verdicts[key, other_key] = predicate(union)
                if accepted:
                    met, w = (ends & other_ends).bit_count(), other[2]
                    place(
                        tau | other_tau,
                        flag or other_flag,
                        [piece, other_piece],
                        count * other[0],
                        entries * other[1] >> len(iface) - met,
                        (weight[0] + w[0] - lost + met, weight[1] + w[1] - lost, weight[2] | w[2])
                        if longest
                        else weight + w - lost,
                        [(max(a, b), m | o) for a, m in front for b, o in other[3]],
                    )
        if sum(cls[0] for cls in classes.values()) > solver.MAX_EDGE_SETS:
            raise _too_many_edge_sets()
        for cls in classes.values():
            cls[3] = _front(cls[3])
        return glued_part, made

    def measure(table):
        return sum(cls[1] for cls in table.classes.values()), sum(cls[0] for cls in table.classes.values())

    if d.bags:
        table, stats = _fold(d, root, leaf, glue, measure)
        family = [edge_set(mask) for cls in table.classes.values() for _, mask in cls[3]]
    else:
        family, made = _accepted_edge_sets([], predicate)
        stats = SolveStats((), (), (), (made, 0))
    witness = _best_in_family(family, glued.vertices, objective)
    value = objective.weight(witness) if witness is not None else None
    return Solved(value, witness, stats, glued)
