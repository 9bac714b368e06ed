"""Sub_P tables kept as one class per boundary signature: the summary
route of the solver (_solve_at_boundary), which solver.solve alone takes.

The route folds a tame tree-shaped decomposition as solve_on_decomposition
does (solver._fold), with the same value, witness, TooLarge points and
counters, but keeps no edge set. For the part of the fold below a shape
vertex, the rest of the decomposition sees an accepted edge set E only
through its trace on the part's seam (its edges that lie in some other bag)
and through the summary of E - seam on the part's boundary (its vertices
that lie in some other bag): each vertex's degree, and its component and
colour parity against the first boundary vertex of that component. That is
what the glue's boundary-summary key reads, and the predicate's
BoundaryRule reads every later verdict off it (_judge), so a table is
one class per signature with the number of its edge sets, the entries they
stand for and its best witnesses. No union is built to be judged: the
evaluator is asked only about the empty subobject, once per bag.
longest_path takes the same route with a weight that counts paths.
This is the path and connectivity state of Cygan et al., Parameterized
Algorithms (2015), ch. 7.
"""
from __future__ import annotations

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
    _best_in_family,
    _fold,
    _solvable_colimit,
    _too_many_edge_sets,
)


class Solved(NamedTuple):
    """Value, witness and counters of a solve that keeps no table, with the
    graph the witness lies in: the colimit for _solve_at_boundary, g for
    solver.solve_on_graph."""

    value: object
    witness: Subobject
    stats: SolveStats
    ambient: Graph


def _union(up, links) -> int:
    """Add the links (x, y, parity), each a walk of that length parity from
    x to y, to the union-find up (vertex -> (parent, parity against it)),
    and return the parities of the cycles they close, bit p for parity p."""
    closed = 0
    for x, y, parity in links:
        while x in up:
            x, step = up[x]
            parity ^= step
        while y in up:
            y, step = up[y]
            parity ^= step
        if x != y:
            up[x] = (y, parity)
        else:
            closed |= 1 << parity
    return closed


def _judge(rule, iface, width, edges_of):
    """judge(trace, degrees, components, other_degrees, other_components):
    the BoundaryRule rule's verdict on A | B, where A and B are edge sets of
    two parts whose vertex sets meet in the sorted vertices iface, each with
    the rule's property, T = A & B is the edge mask trace (edges_of lists
    its edges), and the rest are the summaries of A - T and B - T on iface:
    their degrees, packed width bits per vertex, and their components,
    numbered as _merge numbers them. BoundaryRule says why the degrees of
    T, A - T and B - T on iface, and the links of the components with the
    edges of T, decide it. The verdict on the links is kept per (trace,
    components, other_components)."""
    full, at, traces, closes = (1 << width) - 1, {x: i for i, x in enumerate(iface)}, {}, {}
    # cap: the degree cap or None; forbidden: the parities of the cycles
    # the rule rejects, bit p for parity p (_union)
    cap, forbidden = rule.max_degree, 2 if rule.cycles == "even" else 3

    def judge(trace, degrees, components, other_degrees, other_components):
        if trace not in traces:
            packed, links = 0, []
            for u, v in edges_of(trace):
                packed += 1 << width * u | 1 << width * v
                links.append((at[u], at[v], 1))
            traces[trace] = packed, links
        packed, links = traces[trace]
        if cap is not None:
            total = packed + degrees + other_degrees
            for x in iface:
                if total >> width * x & full > cap:
                    return False
        key = (trace, components, other_components)
        accepted = closes.get(key)
        if accepted is None:
            joins = list(links)
            for labels in (components, other_components):
                for x, c in enumerate(labels):
                    if c >> 1 != x:
                        joins.append((x, c >> 1, c & 1))
            accepted = closes[key] = not _union({}, joins) & forbidden
        return accepted

    return judge


def _merge(pieces, edges, target, width) -> tuple:
    """(degrees, components) that a glue along the sorted vertices target
    sees of the union of the edge set edges and the edge sets summarized in
    pieces, each given as (its boundary, its components there): the degrees
    of edges alone, and the components of the union, packed and numbered as
    _solve_at_boundary says. The parities are well defined on a bipartite
    union."""
    up, degrees, links = {}, 0, []  # up: union-find, vertex -> (parent, parity against it)
    for u, v in edges:
        degrees += 1 << width * u | 1 << width * v
        links.append((u, v, 1))
    for boundary, components in pieces:
        for x, c in zip(boundary, components):
            if boundary[c >> 1] != x:
                links.append((x, boundary[c >> 1], c & 1))
    _union(up, links)
    firsts, components = {}, []  # firsts: root -> (index, parity) of its first target vertex
    for i, x in enumerate(target):
        parity = 0
        while x in up:
            x, step = up[x]
            parity ^= step
        first, first_parity = firsts.setdefault(x, (i, parity))
        components.append(2 * first + (parity ^ first_parity))
    return degrees, tuple(components)


def _join(lab, la, lb) -> tuple:
    """lab once an edge joins the components of the vertices labelled la and
    lb: lab gives each vertex 2 * the least vertex of its component + its
    colour parity against that vertex, and so does the result."""
    keep, other = (la, lb) if la < lb else (lb, la)
    root, other = keep & ~1 | (la ^ lb ^ 1) & 1, other >> 1
    joined = []
    for x in lab:
        joined.append(root ^ x & 1 if x >> 1 == other else x)
    return tuple(joined)


def _place(classes, signature, count, entries, weight, ends, front, other) -> None:
    """Add count edge sets standing for entries entries to the class of
    signature, with their best weight weight and the (max end, mask) pairs
    of front, each combined with each of other, as their best sets; ends
    are the class's if it is new (_solve_at_boundary)."""
    cls = classes.get(signature)
    if cls is None:
        cls = classes[signature] = [0, 0, weight, {}, ends]
    cls[0] += count
    cls[1] += entries
    if weight > cls[2]:
        cls[2:4] = weight, {}
    elif weight < cls[2]:
        return
    best = cls[3]
    for a, mask in front:
        for b, more in other:
            top = a if a > b else b
            if best.get(top, -1) < mask | more:
                best[top] = mask | more


def _finish(classes) -> tuple:
    """(entries, accepted edge sets) of a table, once each class's best sets
    (max end -> the largest mask with it) are cut to the (max end, mask)
    pairs that no other beats on both, a smaller or equal max end and a
    larger mask, sorted by max end."""
    entries = held = 0
    for cls in classes.values():
        held += cls[0]
        entries += cls[1]
        best, front = cls[3], []
        for top in sorted(best):
            if not front or best[top] > front[-1][1]:
                front.append((top, best[top]))
        cls[3] = front
    return entries, held


def _solve_at_boundary(
    d: StructuredDecomposition,
    predicate: PropertyPredicate,
    objective: Objective,
    root=None,
) -> Solved:
    """solve_on_decomposition for a predicate with a boundary_rule and a
    decomposition with bags, with the same value, witness, TooLarge points
    and stats, except predicate_calls: it counts the verdicts decided, one
    per leaf key and per glue key pair, and per bag the one call that asks
    the evaluator about the empty subobject. Every other verdict is the
    rule's, read off the keys (_judge), so no union is built to be
    judged. No edge set is kept: a table is one class per signature.

    The colimit edge of rank r in sorted order is bit M - 1 - r of an edge
    mask over the M colimit edges, and colimit vertex v is bit N - 1 - v of
    a vertex mask over the N colimit vertices, so that of two sets of one
    size the one with the smaller sorted tuple has the larger mask. A
    degrees value packs the degree of vertex v in width bits from bit
    width * v, wide enough for any degree, so degrees add over disjoint
    edge sets.

    A table is (bags, boundary, seam, classes) for the part of d made of
    the bags in the mask bags: boundary lists (sorted) the part's vertices
    that also lie in a bag outside it, and seam masks its edges that do. An
    accepted edge set E has the signature (E & seam, whether E - seam is
    non-empty, degrees, components), the last two the summary of E - seam
    on boundary: the degrees of the boundary vertices, and a tuple that
    gives each boundary vertex 2 * (index of the first boundary vertex of
    its component) + its colour parity against that vertex. classes maps a
    signature to [count of edge sets, entries they stand for, their best
    weight, front, ends], where front lists the (max end, mask) of the sets
    of that weight that no other beats on both (_finish), and ends masks the
    boundary vertices the sets touch.

    The weight is the size |E|, or, for longest_path, the key (|E| - |ends
    E|, |E|, vertex mask of ends E): a linear forest has |ends E| - |E|
    paths, and the sets of one key share their ends, so their front is the
    one with the largest mask. A glue adds the two keys less (|T| - |ends L
    & ends R|, |T|) for the trace T, and ORs the masks; the class fixes both
    sides' boundary bits and their interiors are disjoint, so the best set
    of a class pair is the union of their best sets.

    At the root nothing lies outside, so the empty edge set is a class of
    its own and the other class holds the best non-empty sets. The witness
    is _best_in_family's, the edge-set fold's rule, over one (edges, ends)
    pair per front mask of the root classes: every objective's best
    candidate is among them.
    """
    glued, cocone, bag_edges = _solvable_colimit(d)
    longest, high, width = objective is _LONGEST_PATH, glued.vertices - 1, glued.vertices.bit_length()
    # the leaves' judge reads S | {e} on the ends of e as the vertices 0 and 1
    edges_of, one_edge = lambda mask: edge_set(mask)[0], 1 | 1 << width
    leaf_judge = _judge(predicate.boundary_rule, (0, 1), width, edges_of)
    full = (1 << width) - 1
    # bit: colimit edge -> its bit, pair_of the inverse; home and edge_home:
    # the mask of the bags that hold each colimit vertex and edge bit; cache:
    # a summary's arguments -> its value
    bit, pair_of, home, edge_home, cache = {}, {}, [0] * glued.vertices, {}, {}
    b = 1 << len(glued.edges)
    for pair in glued.edge_list():
        b >>= 1
        bit[pair], pair_of[b] = b, pair
    for t, (leg, pairs) in enumerate(zip(cocone, bag_edges)):
        for x in leg.mapping:
            home[x] |= 1 << t
        for pair in pairs:
            edge_home[bit[pair]] = edge_home.get(bit[pair], 0) | 1 << t

    def edge_set(mask):
        """(edges, ends) of the edge set mask."""
        edges = []
        while mask:
            low = mask & -mask
            mask ^= low
            edges.append(pair_of[low])
        return frozenset(edges), frozenset().union(*edges)

    def summary(pieces, mask, target):
        """_merge of pieces and the edge set mask on target."""
        if not mask and len(pieces) == 1 and pieces[0][0] == target:
            return 0, pieces[0][1]
        key = (pieces, mask, target)
        if key not in cache:
            cache[key] = _merge(pieces, edge_set(mask)[0], target, width)
        return cache[key]

    def leaf(t):
        """(table, calls, entries, accepted edge sets) of the Sub_P table of
        bag t, its colimit edges in _accepted_edge_sets' order.

        Each accepted edge set S is kept as its mask, the vertex mask of its
        ends, its degrees and its component labels over the bag's vertices
        (_join), and the same for S - seam, whose summary on the boundary
        gives S's signature. S | {e} is decided once per key of the edge e
        and the summary of S on the ends of e: their degrees, and whether
        they are joined and with which parity. That is the rule's verdict
        with A = S, B = {e} and no common edges; the evaluator is asked
        only about the empty subobject.
        """
        tb, n, pairs = 1 << t, len(cocone[t].mapping), bag_edges[t]
        boundary, inner, edges, seam, fields, ends_mask = [], [], [], 0, 0, 0
        for x in sorted(cocone[t].mapping):
            if home[x] != tb:
                boundary.append(x)
                fields |= full << width * x
                ends_mask |= 1 << high - x
            else:
                inner.append(x)
        # the boundary vertices come first, so that the labels of S - seam
        # on them are its components as the signature numbers them (_join)
        local = dict(zip(boundary + inner, range(n)))
        for u, v in pairs:
            b = bit[u, v]
            if edge_home[b] != tb:
                seam |= b
            edges.append((local[u], local[v], width * u, width * v, b, v, 1 << high - u | 1 << high - v))
        classes = {}
        if not predicate.evaluator(EMPTY_SUBOBJECT):
            return (tb, tuple(boundary), seam, classes), 1, 0, 0
        start, verdicts, k = tuple(range(0, 2 * n, 2)), {}, len(boundary)
        calls, count, size, level = 1, 1, 0, [(0, 0, start, 0, start, 0, -1, 0)]
        while level:
            grown = []
            for first, deg, lab, rdeg, rlab, mask, top, ends in level:
                used, tau = ends.bit_count(), mask & seam
                signature = (tau, mask != tau, rdeg & fields, rlab[:k])
                weight = (size - used, size, ends) if longest else size
                # inline, not _place: a call per listed set slows a one-bag K7 solve by about 12%
                cls = classes.get(signature)
                if cls is None:
                    classes[signature] = [1, 1 << n - used, weight, {top: mask}, ends & ends_mask]
                else:
                    cls[0] += 1
                    cls[1] += 1 << n - used
                    if cls[2] < weight:
                        cls[2:4] = weight, {top: mask}
                    elif cls[2] == weight and cls[3].get(top, -1) < mask:
                        cls[3][top] = mask
                for j in range(first, len(edges)):
                    a, b, sa, sb, eb, v, ab = edges[j]
                    la, lb = lab[a], lab[b]
                    key = (j, deg >> sa & full, deg >> sb & full, (la ^ lb) & 1 if la >> 1 == lb >> 1 else 2)
                    accepted = verdicts.get(key)
                    if accepted is None:
                        calls += 1
                        accepted = verdicts[key] = leaf_judge(0, key[1] | key[2] << width, (0, key[3]), one_edge, (0, 1))
                    if not accepted:
                        continue
                    count += 1
                    if count > solver.MAX_EDGE_SETS:
                        raise _too_many_edge_sets()
                    step = 1 << sa | 1 << sb
                    grown_deg, grown_lab = deg + step, lab if la >> 1 == lb >> 1 else _join(lab, la, lb)
                    if eb & seam:
                        rest = rdeg, rlab
                    elif rdeg == deg:  # S has no seam edge, so S - seam is S
                        rest = grown_deg, grown_lab
                    else:
                        ra, rb = rlab[a], rlab[b]
                        rest = rdeg + step, rlab if ra >> 1 == rb >> 1 else _join(rlab, ra, rb)
                    grown.append((j + 1, grown_deg, grown_lab, *rest, mask | eb, v if v > top else top, ends | ab))
            size += 1
            level = grown
        return (tb, tuple(boundary), seam, classes), calls, *_finish(classes)

    def glue(left, right):
        """(table, calls, entries, accepted edge sets) of the union of the
        parts left and right, glued from their classes.

        As in _compose_entries, the glued edge sets are the accepted unions
        of the pairs with one trace on the shared edges, one pair each, so
        every pair of classes with one trace is placed. A pair with a class
        inside the shared edges (whose one set is the trace) gives back the
        other class, accepted already. Any other pair is placed when the
        rule accepts it, decided once per key of the trace and the two
        sides' summaries on the interface.
        """
        bags, shared, seams = left[0] | right[0], left[2] & right[2], left[2] | right[2]
        boundary, iface, seam, fields, ends_mask, iface_fields, iface_mask = [], [], 0, 0, 0, 0, 0
        for x in sorted({*left[1], *right[1]}):
            if home[x] & ~bags:
                boundary.append(x)
                fields |= full << width * x
                ends_mask |= 1 << high - x
            if x in left[1] and x in right[1]:
                iface.append(x)
                iface_fields |= full << width * x
                iface_mask |= 1 << high - x
        while seams:
            low = seams & -seams
            seams ^= low
            if edge_home[low] & ~bags:
                seam |= low
        boundary, iface, classes = tuple(boundary), tuple(iface), {}
        keys, lefts, by_trace = {}, [], {}
        for side in (left, right):
            for (tau, flag, degrees, components), cls in side[3].items():
                trace = tau & shared
                more, joined = summary(((side[1], components),), tau ^ trace, iface)
                key = keys.setdefault((trace, degrees + more & iface_fields, joined), len(keys))
                item = (key, not flag and tau == trace, cls[4] & iface_mask, tau, flag, degrees, components, cls)
                if side is left:
                    lefts.append((trace, item))
                else:
                    by_trace.setdefault(trace, []).append(item)
        by_key, judge = list(keys), _judge(predicate.boundary_rule, iface, width, edges_of)
        made, verdicts = 0, {}  # verdicts: (left key, right key) -> verdict on the union
        for trace, (key, inside, ends, tau, flag, degrees, components, cls) in lefts:
            for other_key, other_inside, other_ends, other_tau, other_flag, other_degrees, other_components, other in by_trace.get(
                trace, ()
            ):
                if not (inside or other_inside):
                    accepted = verdicts.get((key, other_key))
                    if accepted is None:
                        made += 1
                        accepted = verdicts[key, other_key] = judge(*by_key[key], *by_key[other_key][1:])
                    if not accepted:
                        continue
                lost, met, w, loose = trace.bit_count(), (ends & other_ends).bit_count(), other[2], (tau | other_tau) & ~seam
                more, joined = 0, ()
                if boundary:
                    pieces = ((left[1], components), (right[1], other_components))
                    more, joined = summary(pieces, loose, boundary)
                _place(
                    classes,
                    ((tau | other_tau) & seam, bool(flag or other_flag or loose), degrees + other_degrees + more & fields, joined),
                    cls[0] * other[0],
                    cls[1] * other[1] >> len(iface) - met,
                    (cls[2][0] + w[0] - lost + met, cls[2][1] + w[1] - lost, cls[2][2] | w[2])
                    if longest
                    else cls[2] + w - lost,
                    (cls[4] | other[4]) & ends_mask,
                    cls[3],
                    other[3],
                )
        entries, held = _finish(classes)
        if held > solver.MAX_EDGE_SETS:
            raise _too_many_edge_sets()
        return (bags, boundary, seam, classes), made, entries, held

    table, stats = _fold(d, root, leaf, glue)
    family = []
    for cls in table[3].values():
        for _, mask in cls[3]:
            family.append(edge_set(mask))
    witness = _best_in_family(family, glued.vertices, objective)
    value = objective.weight(witness) if witness is not None else None
    return Solved(value, witness, stats, glued)
