"""Shared generators and independent oracles for the test suite."""
from __future__ import annotations

import functools
import itertools
import random

from sdkit import (
    Adhesion,
    FINSET,
    FinSet,
    GRAPH,
    Graph,
    GraphMorphism,
    Layering,
    SetFunction,
    Span,
    StructuredDecomposition,
    SubPTable,
    Subobject,
    TooLarge,
    complete_graph,
    decomposition_from_vertex_bags,
    evaluate_colimit,
    find_isomorphism,
    is_forest,
    is_layering,
    is_tame,
    predicate_paths,
    validate,
)
from sdkit.core import ISO_VERTEX_CAP, is_json_int, object_size
from sdkit.decomposition import _set_adhesion
from sdkit.errors import NotChordal
from sdkit.solver import _solvable_colimit
from sdkit.width import _bits, _min_elimination_cost, peo

# The budget the caps are chosen for (README "Size caps"): an input is
# refused, or answered, within 5 s wall and 512 MiB peak RSS. CHILD runs the
# CLI under an address-space limit on itself (its first argument, in bytes),
# and the tests bound both at twice the budget, so that a slower machine
# passes and a missing cap does not.
BUDGET_S, BUDGET_MIB = 5, 512
CHILD = """
import resource, sys
from sdkit.cli import main
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
main()
"""


def fs_adhesion(edge, pairs, bag_u, bag_v) -> Adhesion:
    """Adhesion whose apex elements map to the given (source, target) pairs."""
    apex = FinSet(len(pairs))
    return Adhesion(
        edge,
        Span(
            SetFunction(apex, bag_u, tuple(p[0] for p in pairs)),
            SetFunction(apex, bag_v, tuple(p[1] for p in pairs)),
        ),
    )


def random_graph(rng: random.Random, max_n: int, p: float = 0.5, min_n: int = 0) -> Graph:
    n = rng.randint(min_n, max_n)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def grid(rows: int, cols: int, diagonals: bool = False) -> Graph:
    """The rows x cols grid, vertex r * cols + c at row r and column c; with
    diagonals, every square also gets its down-right diagonal."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
                if diagonals and c + 1 < cols:
                    edges.append((v, v + cols + 1))
    return Graph(rows * cols, edges)


def ladder(k: int):
    """(g, d, labeling): the 2 x k grid (top j = j, bottom j = k + j), its
    path decomposition with bags {top i, bot i, top i+1, bot i+1}, glued
    along the rungs, and the labeling of those bags."""
    g = Graph(2 * k, [(j, k + j) for j in range(k)]
              + [(j, j + 1) for j in range(k - 1)]
              + [(k + j, k + j + 1) for j in range(k - 1)])
    bag = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    rung = Graph(2, [(0, 1)])
    adhesions = tuple(
        Adhesion((i, i + 1), Span(GraphMorphism(rung, bag, (2, 3)), GraphMorphism(rung, bag, (0, 1))))
        for i in range(k - 2)
    )
    shape = Graph(k - 1, [(i, i + 1) for i in range(k - 2)])
    d = StructuredDecomposition(shape, GRAPH, (bag,) * (k - 1), adhesions)
    labeling = [[i, k + i, i + 1, k + i + 1] for i in range(k - 1)]
    return g, d, labeling


def block_chain(blocks) -> Graph:
    """The graphs in blocks glued in a row at cut vertices: the last vertex
    of each block is vertex 0 of the next."""
    edges, offset = [], 0
    for block in blocks:
        edges += [(u + offset, v + offset) for u, v in block.edges]
        offset += block.vertices - 1
    return Graph(offset + 1, edges)


def grid_path_decomposition():
    """(d, glued, relabeled): a path decomposition of the 3 x 3 grid with
    bags {v, .., v + 3}, its colimit, and the colimit with vertices 0 and 1
    swapped. Nine vertices are one over ISO_VERTEX_CAP."""
    g = grid(3, 3)
    d, _ = decomposition_from_vertex_bags(g, Graph(6, [(i, i + 1) for i in range(5)]),
                                          [range(v, v + 4) for v in range(6)])
    glued, _ = evaluate_colimit(d)
    swap = (1, 0) + tuple(range(2, 9))
    relabeled = Graph(9, [(swap[u], swap[v]) for u, v in glued.edges])
    assert glued.vertices == ISO_VERTEX_CAP + 1 and relabeled != glued
    return d, glued, relabeled


def random_tree_shape(rng: random.Random, max_bags: int, min_bags: int = 1) -> Graph:
    n = rng.randint(min_bags, max_bags)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_shape(rng: random.Random, max_bags: int, cycle_p: float = 0.3) -> Graph:
    """A connected shape, sometimes with extra (cycle-forming) edges."""
    tree = random_tree_shape(rng, max_bags)
    extra = [
        e
        for e in itertools.combinations(range(tree.vertices), 2)
        if e not in tree.edges and rng.random() < cycle_p / max(1, tree.vertices)
    ]
    return Graph(tree.vertices, list(tree.edges) + extra)


def random_monic_graph_span(rng: random.Random, max_n: int) -> Span:
    left_foot = random_graph(rng, max_n, min_n=0)
    right_foot = random_graph(rng, max_n, min_n=0)
    k = rng.randint(0, min(left_foot.vertices, right_foot.vertices))
    into_l = rng.sample(range(left_foot.vertices), k)
    into_r = rng.sample(range(right_foot.vertices), k)
    apex_edges = [
        (i, j)
        for i, j in itertools.combinations(range(k), 2)
        if left_foot.has_edge(into_l[i], into_l[j])
        and right_foot.has_edge(into_r[i], into_r[j])
        and rng.random() < 0.8
    ]
    apex = Graph(k, apex_edges)
    return Span(
        GraphMorphism(apex, left_foot, tuple(into_l)),
        GraphMorphism(apex, right_foot, tuple(into_r)),
    )


def random_finset_decomposition(
    rng: random.Random,
    max_bags: int,
    max_bag_size: int,
    tree: bool = True,
    tame: bool = True,
    min_bags: int = 1,
) -> StructuredDecomposition:
    shape = (
        random_tree_shape(rng, max_bags, min_bags)
        if tree
        else random_shape(rng, max_bags)
    )
    bags = tuple(FinSet(rng.randint(0, max_bag_size)) for _ in range(shape.vertices))
    adhesions = []
    for u, v in sorted(shape.edges):
        if tame:
            k = rng.randint(0, min(bags[u].size, bags[v].size))
            into_u = rng.sample(range(bags[u].size), k)
            into_v = rng.sample(range(bags[v].size), k)
        else:
            k = rng.randint(0, max_bag_size)
            if bags[u].size == 0 or bags[v].size == 0:
                k = 0
            into_u = [rng.randrange(bags[u].size) for _ in range(k)]
            into_v = [rng.randrange(bags[v].size) for _ in range(k)]
        adhesions.append(fs_adhesion((u, v), list(zip(into_u, into_v)), bags[u], bags[v]))
    return StructuredDecomposition(shape, FINSET, bags, adhesions)


def random_graph_decomposition(
    rng: random.Random,
    max_bags: int,
    max_bag_size: int,
    tree: bool = True,
    edge_p: float = 0.5,
) -> StructuredDecomposition:
    """A tame graph-valued decomposition with induced-subgraph-style adhesions."""
    shape = random_tree_shape(rng, max_bags) if tree else random_shape(rng, max_bags)
    bags = []
    for _ in range(shape.vertices):
        n = rng.randint(0, max_bag_size)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < edge_p]
        bags.append(Graph(n, edges))
    adhesions = []
    for u, v in sorted(shape.edges):
        k = rng.randint(0, min(bags[u].vertices, bags[v].vertices))
        into_u = rng.sample(range(bags[u].vertices), k)
        into_v = rng.sample(range(bags[v].vertices), k)
        apex_edges = [
            (i, j)
            for i, j in itertools.combinations(range(k), 2)
            if bags[u].has_edge(into_u[i], into_u[j])
            and bags[v].has_edge(into_v[i], into_v[j])
            and rng.random() < 0.8
        ]
        apex = Graph(k, apex_edges)
        adhesions.append(
            Adhesion(
                (u, v),
                Span(
                    GraphMorphism(apex, bags[u], tuple(into_u)),
                    GraphMorphism(apex, bags[v], tuple(into_v)),
                ),
            )
        )
    return StructuredDecomposition(shape, GRAPH, tuple(bags), adhesions)


def colimit_reference(d):
    """sdkit.core.colimit by a union-find keyed on (object index, element)
    pairs, each class numbered by its smallest pair: the oracle for the
    integer-offset glue."""
    elements = [(i, x) for i, obj in enumerate(d.objects) for x in range(object_size(obj))]
    parent = {e: e for e in elements}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for s, t, f in d.arrows:
        for x in range(object_size(d.objects[s])):
            a, b = find((s, x)), find((t, f(x)))
            parent[max(a, b)] = min(a, b)
    reps = sorted({find(e) for e in elements})
    index = {rep: i for i, rep in enumerate(reps)}
    classof = {e: index[find(e)] for e in elements}
    if isinstance(d.objects[0], Graph):
        edges = {
            tuple(sorted((classof[i, u], classof[i, v])))
            for i, obj in enumerate(d.objects)
            for u, v in obj.edges
            if classof[i, u] != classof[i, v]
        }
        result, leg = Graph(len(reps), edges), GraphMorphism
    else:
        result, leg = FinSet(len(reps)), SetFunction
    cocone = tuple(
        leg(obj, result, tuple(classof[i, x] for x in range(object_size(obj))))
        for i, obj in enumerate(d.objects)
    )
    return result, cocone


def underlying_diagram(d: StructuredDecomposition):
    """A decomposition unrolled into a diagram: bags first (index = shape
    vertex), then apexes in edge order, each with its two legs."""
    from sdkit import Diagram

    objects, arrows = list(d.bags), []
    for a in d.adhesions:
        u, v = a.edge
        arrows.append((len(objects), u, a.span.left))
        arrows.append((len(objects), v, a.span.right))
        objects.append(a.span.left.dom)
    return Diagram(objects, arrows)


def random_diagram(rng: random.Random, graphs: bool, max_objects: int = 5, max_size: int = 5):
    """A diagram of finite sets or of graphs with arrows between random
    objects (loops, parallel arrows and non-injective maps included); an
    object may be empty, and the diagram may have no arrows."""
    from sdkit import Diagram

    objects = []
    for _ in range(rng.randint(1, max_objects)):
        n = rng.randint(0, max_size)
        if graphs:
            objects.append(Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]))
        else:
            objects.append(FinSet(n))
    arrows = []
    for _ in range(rng.randint(0, 2 * len(objects))):
        s, t = rng.randrange(len(objects)), rng.randrange(len(objects))
        dom, cod = objects[s], objects[t]
        n, m = object_size(dom), object_size(cod)
        if n and not m:
            continue
        mapping = tuple(rng.randrange(m) for _ in range(n))
        if not graphs:
            arrows.append((s, t, SetFunction(dom, cod, mapping)))
            continue
        for _ in range(5):
            if all(mapping[u] == mapping[v] or cod.has_edge(mapping[u], mapping[v]) for u, v in dom.edges):
                break
            mapping = tuple(rng.randrange(m) for _ in range(n))
        else:
            mapping = (rng.randrange(m),) * n  # every edge collapses onto one vertex
        arrows.append((s, t, GraphMorphism(dom, cod, mapping)))
    return Diagram(objects, arrows)


def components_by_search(g: Graph) -> list:
    """sdkit.connected_components by breadth-first search from each vertex
    not yet reached, in vertex order."""
    nbrs, seen, comps = g.neighbor_sets(), set(), []
    for s in range(g.vertices):
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        for v in queue:  # the loop also visits what it appends
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(queue))
    return comps


def random_subgraph_mono(rng: random.Random, g: Graph) -> GraphMorphism:
    """A random subgraph of g included by its sorted-vertex embedding."""
    keep = sorted(v for v in range(g.vertices) if rng.random() < 0.7)
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index and rng.random() < 0.8
    ]
    sub = Graph(len(keep), edges)
    return GraphMorphism(sub, g, tuple(keep))


def random_chordal_graph(rng: random.Random, max_n: int) -> Graph:
    """Grow a chordal graph by repeatedly gluing a clique onto a clique subset."""
    size = rng.randint(1, max(1, max_n))
    g = complete_graph(rng.randint(0, min(3, size)))
    while g.vertices < size:
        new_clique = rng.randint(1, min(3, size - g.vertices + 1))
        glue_candidates = _some_clique(rng, g, max_size=new_clique)
        fresh = min(max(1, new_clique - len(glue_candidates)), size - g.vertices)
        base = g.vertices
        verts = base + fresh
        edges = set(g.edges)
        new_ids = list(glue_candidates) + list(range(base, verts))
        edges.update(
            (a, b) if a < b else (b, a) for a, b in itertools.combinations(new_ids, 2)
        )
        g = Graph(verts, edges)
    return g


def _some_clique(rng: random.Random, g: Graph, max_size: int) -> list:
    if g.vertices == 0 or max_size == 0:
        return []
    nbrs = g.neighbor_sets()
    clique = [rng.randrange(g.vertices)]
    while len(clique) < max_size:
        common = set(range(g.vertices))
        for v in clique:
            common &= nbrs[v]
        common -= set(clique)
        if not common:
            break
        clique.append(rng.choice(sorted(common)))
    take = rng.randint(0, len(clique))
    return sorted(rng.sample(clique, take))


def all_graphs_labeled(n: int):
    """Every labeled simple graph on n vertices."""
    pool = list(itertools.combinations(range(n), 2))
    for r in range(len(pool) + 1):
        for chosen in itertools.combinations(pool, r):
            yield Graph(n, chosen)


@functools.cache
def graphs_up_to_iso(n: int) -> tuple:
    """Representatives of isomorphism classes of n-vertex graphs. Every
    n-vertex graph is isomorphic to a representative on n - 1 vertices plus a
    vertex n - 1 joined to some subset of it (delete any vertex and relabel),
    so only those candidates are tried. Only candidates that agree on every
    vertex's degree and sorted neighbour degrees are compared by isomorphism
    search."""
    from sdkit import is_isomorphic

    if n == 0:
        return (Graph(0),)
    reps = []
    classes = {}
    for smaller in graphs_up_to_iso(n - 1):
        for r in range(n):
            for joined in itertools.combinations(range(n - 1), r):
                g = Graph(n, list(smaller.edges) + [(u, n - 1) for u in joined])
                nbrs = g.neighbor_sets()
                key = tuple(sorted((len(nb), tuple(sorted(len(nbrs[u]) for u in nb))) for nb in nbrs))
                same_key = classes.setdefault(key, [])
                if not any(is_isomorphic(g, h) for h in same_key):
                    same_key.append(g)
                    reps.append(g)
    return tuple(reps)


def min_elimination_cost_by_subsets(adj: dict, cost) -> int:
    """Minimum over elimination orders of adj's vertices of the largest
    cost(v, later), where later is v's fill neighbourhood among the vertices
    still to be eliminated: the exact minimum over every surviving-vertex set,
    memoized on frozensets, with a depth-first search per vertex per set for
    the fill neighbourhoods. A simplicial vertex is eliminated outright."""
    memo = {}

    def fill_neighbors(v, remaining):
        seen = {v}
        stack = [v]
        out = set()
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in seen:
                    continue
                seen.add(w)
                if w in remaining:
                    out.add(w)
                else:
                    stack.append(w)
        return out

    def solve(remaining: frozenset) -> int:
        if not remaining:
            return 0
        cached = memo.get(remaining)
        if cached is not None:
            return cached
        degrees = {v: fill_neighbors(v, remaining) for v in remaining}
        simplicial = None
        for v in sorted(remaining):
            nb = degrees[v]
            if all(b in degrees[a] for a, b in itertools.combinations(sorted(nb), 2)):
                simplicial = v
                break
        if simplicial is not None:
            value = max(cost(simplicial, degrees[simplicial]), solve(remaining - {simplicial}))
        else:
            value = min(
                max(cost(v, degrees[v]), solve(remaining - {v})) for v in sorted(remaining)
            )
        memo[remaining] = value
        return value

    return solve(frozenset(adj))


def treewidth_by_subsets(g: Graph) -> int:
    """Tree-width as the subset search with the bag cost len(later)."""
    adj = dict(enumerate(g.neighbor_sets()))
    return min_elimination_cost_by_subsets(adj, lambda v, later: len(later))


def degeneracy(nbrs: list) -> int:
    """The largest degree met while a vertex of least remaining degree is
    removed, one at a time, on neighbour masks: the largest minimum degree of
    a subgraph, a lower bound on tree-width."""
    remaining = (1 << len(nbrs)) - 1
    best = 0
    while remaining:
        left = [u for u in range(len(nbrs)) if remaining >> u & 1]
        v = min(left, key=lambda u: (nbrs[u] & remaining).bit_count())
        best = max(best, (nbrs[v] & remaining).bit_count())
        remaining &= ~(1 << v)
    return best


def min_fill_width_by_keys(nbrs: list) -> int:
    """The min-fill elimination width, picking each vertex by min() over the
    key (fill count, degree), lowest index first on ties: the reference for
    sdkit.width._min_fill_width."""
    fill = list(nbrs)
    remaining = (1 << len(nbrs)) - 1
    best = 0

    def fill_count(v):
        nb = fill[v]
        return sum((nb & ~fill[u] & ~(1 << u)).bit_count() for u in _bits(nb)) // 2

    while remaining:
        v = min(_bits(remaining), key=lambda u: (fill_count(u), fill[u].bit_count()))
        nb = fill[v]
        best = max(best, nb.bit_count())
        for u in _bits(nb):
            fill[u] = (fill[u] | nb) & ~(1 << u | 1 << v)
        remaining &= ~(1 << v)
    return best


def minor_min_width_by_keys(nbrs: list) -> int:
    """Minor-min-width, picking each vertex and its contraction partner by
    min() over degree, lowest index first on ties: the reference for
    sdkit.width._minor_min_width."""
    adj = list(nbrs)
    remaining = (1 << len(nbrs)) - 1
    best = 0
    while remaining:
        v = min(_bits(remaining), key=lambda u: adj[u].bit_count())
        nb = adj[v]
        best = max(best, nb.bit_count())
        remaining &= ~(1 << v)
        if nb:
            u = min(_bits(nb), key=lambda w: adj[w].bit_count())
            for w in _bits(nb):
                adj[w] = (adj[w] | 1 << u) & ~(1 << v | 1 << w)
            adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
    return best


def treewidth_by_all_orders(g: Graph) -> int:
    """Exhaustive elimination-order enumeration with bitmask adjacency."""
    n = g.vertices
    if n == 0:
        return 0
    base = [0] * n
    for u, v in g.edges:
        base[u] |= 1 << v
        base[v] |= 1 << u
    best = n
    for order in itertools.permutations(range(n)):
        adj = base[:]
        alive = (1 << n) - 1
        worst = 0
        for v in order:
            nb = adj[v] & alive & ~(1 << v)
            worst = max(worst, nb.bit_count())
            if worst >= best:
                break
            alive &= ~(1 << v)
            m = nb
            while m:
                low = m & -m
                u = low.bit_length() - 1
                adj[u] |= nb & ~low
                m ^= low
        else:
            best = min(best, worst)
    return best


@functools.cache
def _onto_levels(n: int) -> tuple:
    """Every level function on n vertices whose levels are 0..k-1, each used."""
    return tuple(
        level
        for level in itertools.product(range(n), repeat=n)
        if len(set(level)) == max(level) + 1
    )


def layered_treewidth_by_all_orders(g: Graph) -> int:
    """Layered tree-width from the bag families of all n! elimination orders,
    checked against every layering given as a level function whose levels
    are 0..k-1, each used, with no edge spanning more than one step. A
    family is kept as its inclusion-maximal bags, which bound the cost of
    the others, and no layering is tried once the width is 1."""
    n = g.vertices
    if n == 0:
        return 0
    base = [0] * n
    for u, v in g.edges:
        base[u] |= 1 << v
        base[v] |= 1 << u
    families = set()
    for order in itertools.permutations(range(n)):
        adj = base[:]
        alive = (1 << n) - 1
        bags = []
        for v in order:
            nb = adj[v] & alive & ~(1 << v)
            bags.append(nb | (1 << v))
            alive &= ~(1 << v)
            for u in range(n):
                if nb >> u & 1:
                    adj[u] |= nb & ~(1 << u)
        families.add(frozenset(bags))
    families = {
        frozenset(b for b in family if not any(b != c and b & c == b for c in family))
        for family in families
    }
    bags = set().union(*families)
    best = n
    for level in _onto_levels(n):
        if best == 1:
            break
        if any(abs(level[u] - level[v]) > 1 for u, v in g.edges):
            continue
        layers = [0] * (max(level) + 1)
        for v, i in enumerate(level):
            layers[i] |= 1 << v
        cost = {bag: max((bag & layer).bit_count() for layer in layers) for bag in bags}
        best = min(best, min(max(cost[bag] for bag in family) for family in families))
    return best


def all_subobjects(g: Graph):
    """Every (vertex subset, edge subset) pair of g."""
    edge_list = g.edge_list()
    for r in range(g.vertices + 1):
        for combo in itertools.combinations(range(g.vertices), r):
            vset = frozenset(combo)
            avail = [e for e in edge_list if e[0] in vset and e[1] in vset]
            for k in range(len(avail) + 1):
                for picked in itertools.combinations(avail, k):
                    yield Subobject(vset, frozenset(picked))


def subp_by_all_pairs(g: Graph, predicate) -> SubPTable:
    """Sub_P table by testing every (vertex subset, edge subset) pair."""
    entries = frozenset(sub for sub in all_subobjects(g) if predicate(sub))
    return SubPTable(g, predicate.name, entries)


def _is_single_path(sub: Subobject) -> bool:
    """A connected path (possibly a single vertex, not empty): a disjoint
    union of paths with one edge fewer than vertices."""
    return len(sub.edges) == len(sub.vertices) - 1 and predicate_paths(sub)


def longest_single_path(result):
    """longest_path picked from the family of a solve_on_decomposition
    result under PATHS, in its colimit's numbering: the single path with the
    most edges and then the smallest encoding, or None. Every accepted edge
    set is a linear forest, so it is one path exactly when it has one edge
    fewer than its ends; single vertices stand in when no edge set is."""
    paths = [Subobject(ends, edges) for edges, ends in result.family if len(edges) == len(ends) - 1]
    if result.family:
        paths += [Subobject(frozenset({v}), frozenset()) for v in range(result.ambient.vertices)]
    return min(paths, key=lambda sub: (-len(sub.edges), sub.encoding()), default=None)


def peo_by_max_scan(g: Graph):
    """sdkit.peo as a scan: maximum-cardinality search that takes the next
    vertex as the max of (weight, -label) over every unnumbered vertex,
    O(n^2), then the same check of the ordering."""
    n = g.vertices
    nbrs = g.neighbor_sets()
    weight = [0] * n
    numbered = [False] * n
    visit = []
    for _ in range(n):
        v = max((u for u in range(n) if not numbered[u]), key=lambda u: (weight[u], -u))
        visit.append(v)
        numbered[v] = True
        for u in nbrs[v]:
            if not numbered[u]:
                weight[u] += 1
    order = tuple(reversed(visit))
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in nbrs[v] if pos[u] > pos[v]]
        if any(b not in nbrs[a] for a, b in itertools.combinations(later, 2)):
            return None
    return order


def maximal_cliques_by_pairs(g: Graph) -> list:
    """sdkit.maximal_cliques_chordal by comparing every pair of candidate
    cliques C(v) = {v} + v's later neighbours along sdkit's PEO, O(n^2)."""
    order = peo(g)
    if order is None:
        raise NotChordal("maximal-clique extraction needs a chordal graph")
    nbrs = g.neighbor_sets()
    pos = {v: i for i, v in enumerate(order)}
    cands = {frozenset({v} | {u for u in nbrs[v] if pos[u] > pos[v]}) for v in order}
    maximal = [c for c in cands if not any(c < other for other in cands)]
    return sorted(tuple(sorted(c)) for c in maximal)


def clique_tree_by_pairs(h: Graph) -> StructuredDecomposition:
    """sdkit.decomposition_from_chordal weighing every pair of maximal
    cliques, O(k^2): Kruskal over (-shared, i, j)."""
    cliques = maximal_cliques_by_pairs(h)
    k = len(cliques)
    weighted = []
    for i, j in itertools.combinations(range(k), 2):
        shared = len(set(cliques[i]) & set(cliques[j]))
        if shared:
            weighted.append((-shared, i, j))
    component = list(range(k))  # each clique's component, relabelled on every union
    tree_edges = []
    for _, i, j in sorted(weighted):
        ci, cj = component[i], component[j]
        if ci != cj:
            component = [ci if c == cj else c for c in component]
            tree_edges.append((i, j))
    shape = Graph(k, tree_edges)
    bags = tuple(FinSet(len(c)) for c in cliques)
    index = [{v: i for i, v in enumerate(c)} for c in cliques]
    adhesions = []
    for u, v in sorted(shape.edges):
        pairs = [(index[u][w], index[v][w]) for w in set(cliques[u]) & set(cliques[v])]
        adhesions.append(_set_adhesion((u, v), pairs, bags[u], bags[v]))
    return StructuredDecomposition(shape, FINSET, bags, tuple(adhesions))


def is_chordal_dirac(g: Graph, _memo={}) -> bool:
    """Literal clique-gluing recursion: complete, or split by a clique separator
    into two smaller chordal pieces."""
    key = (g.vertices, tuple(sorted(g.edges)))
    if key in _memo:
        return _memo[key]
    n = g.vertices
    complete = len(g.edges) == n * (n - 1) // 2
    result = complete
    if not result:
        nbrs = g.neighbor_sets()
        verts = set(range(n))
        for r in range(n - 1):
            for sep in itertools.combinations(range(n), r):
                sep_set = set(sep)
                if not all(g.has_edge(a, b) for a, b in itertools.combinations(sep, 2)):
                    continue
                rest = sorted(verts - sep_set)
                if len(rest) < 2:
                    continue
                comps = _components_within(nbrs, rest)
                if len(comps) < 2:
                    continue
                left = comps[0] | sep_set
                right = (verts - comps[0]) | sep_set
                g1 = g.induced_subgraph(sorted(left))
                g2 = g.induced_subgraph(sorted(right))
                if is_chordal_dirac(g1) and is_chordal_dirac(g2):
                    result = True
                    break
            if result:
                break
    _memo[key] = result
    return result


def _components_within(nbrs, rest):
    rest_set = set(rest)
    seen = set()
    comps = []
    for start in rest:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in nbrs[v]:
                if u in rest_set and u not in seen:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def ordered_set_partitions(items):
    """All ways to split items into a sequence of non-empty blocks."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in ordered_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1 :]
        for i in range(len(sub) + 1):
            yield sub[:i] + ((first,),) + sub[i:]


@functools.cache
def _partition_layerings(n: int) -> tuple:
    """Every ordered set partition of range(n) as a Layering."""
    return tuple(Layering(blocks) for blocks in ordered_set_partitions(range(n)))


def layered_treewidth_by_partitions(g: Graph) -> int:
    """Layered tree-width with every ordered set partition of the vertices
    as a candidate layering: each one accepted by is_layering runs the shared
    elimination-order search, bounded above by the best width so far, until
    that width is 1."""
    if g.vertices == 0:
        return 0
    nbrs = [sum(1 << u for u in nb) for nb in g.neighbor_sets()]
    best = g.vertices
    for layering in _partition_layerings(g.vertices):
        if best == 1:
            break
        if not is_layering(g, layering):
            continue
        layer_masks = [sum(1 << v for v in layer) for layer in layering.layers]

        def bag_cost(bag):
            return max((bag & layer).bit_count() for layer in layer_masks)

        best = _min_elimination_cost(nbrs, bag_cost, 1, best)
    return best


def tree_decomposition_by_conditions(g: Graph, d: StructuredDecomposition, labeling=None):
    """Read d's bags as subgraphs of g, if d is a tree decomposition of g,
    checking each condition on its own: bag edges are edges of g, labels
    agree across adhesions, no bag repeats a label, every edge of g lies in
    some bag (T1), and each vertex's bags are connected in the shape (T2).
    The oracle for width.tree_decomposition_reading, which returns the same.

    Returns (labeling, colim_to_g) or None. labeling[i][b] is the g-vertex
    of local bag vertex b; colim_to_g translates evaluate_colimit(d) vertices
    into g vertices. With no supplied labeling the bags are read through the
    colimit, which must equal g or be isomorphic to it (brute-force search,
    so g must stay small in that case).
    """
    if d.value_kind != GRAPH or validate(d) or not is_forest(d.shape) or not is_tame(d):
        return None
    glued, cocone = evaluate_colimit(d)
    if labeling is None:
        if glued == g:
            iso = tuple(range(g.vertices))
        elif glued.vertices != g.vertices or len(glued.edges) != len(g.edges):
            return None
        else:
            if g.vertices > ISO_VERTEX_CAP:
                raise TooLarge(
                    "deriving a bag labeling needs an isomorphism search; "
                    f"supply a labeling for graphs over {ISO_VERTEX_CAP} vertices"
                )
            iso = find_isomorphism(glued, g)
            if iso is None:
                return None
        labeling = tuple(
            tuple(iso[leg(b)] for b in range(bag.vertices))
            for bag, leg in zip(d.bags, cocone)
        )
        colim_to_g = iso
    else:
        # a list (or tuple) of one list of g-vertices per bag
        if not isinstance(labeling, (list, tuple)) or not all(
            isinstance(lab, (list, tuple)) for lab in labeling
        ):
            return None
        labeling = tuple(tuple(lab) for lab in labeling)
        if len(labeling) != len(d.bags):
            return None
        # the labels must factor through the gluing as a bijection onto g
        if glued.vertices != g.vertices:
            return None
        translate = [-1] * glued.vertices
        for lab, bag, leg in zip(labeling, d.bags, cocone):
            if len(lab) != bag.vertices:
                return None
            for b in range(bag.vertices):
                x = lab[b]
                if not is_json_int(x) or not 0 <= x < g.vertices:
                    return None
                if translate[leg(b)] == -1:
                    translate[leg(b)] = x
                elif translate[leg(b)] != x:
                    return None
        if sorted(translate) != list(range(g.vertices)):
            return None
        colim_to_g = tuple(translate)
    for bag, lab in zip(d.bags, labeling):
        if len(set(lab)) != len(lab):
            return None
        for b, b2 in bag.edges:
            if not g.has_edge(lab[b], lab[b2]):
                return None
    for a in d.adhesions:
        u, v = a.edge
        for x in range(object_size(a.span.apex)):
            if labeling[u][a.span.left(x)] != labeling[v][a.span.right(x)]:
                return None
    # T1: every edge of g appears inside some bag
    covered = set()
    for bag, lab in zip(d.bags, labeling):
        for b, b2 in bag.edges:
            e = (lab[b], lab[b2])
            covered.add(e if e[0] < e[1] else (e[1], e[0]))
    if not set(g.edges) <= covered:
        return None
    # T2: each vertex's bag support is non-empty and connected in the shape
    support = [set() for _ in range(g.vertices)]
    for i, lab in enumerate(labeling):
        for x in lab:
            support[x].add(i)
    shape_nbrs = d.shape.neighbor_sets()
    for v in range(g.vertices):
        nodes = support[v]
        if not nodes:
            return None
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            t = stack.pop()
            for t2 in shape_nbrs[t]:
                if t2 in nodes and t2 not in seen:
                    seen.add(t2)
                    stack.append(t2)
        if seen != nodes:
            return None
    return labeling, colim_to_g


# The reference boundary summary that the summary route's keys encode: the
# tests count with it the distinct keys a leaf or a glue must ask the
# predicate about.
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


def summary_leaf_calls(d: StructuredDecomposition, predicate) -> int:
    """The predicate calls the summary route's leaves make on d, counted by
    brute force. Per bag with edge list L in the leaf's order, 1 when the
    predicate rejects the empty subobject, else 1 + the number of keys (j,
    _boundary_summary(S, ends of L[j])) over the bag's accepted edge sets S
    and the indices j past S's last index in L."""
    calls = 0
    for edge_list in _solvable_colimit(d)[2]:
        calls += 1
        if not predicate.evaluator(Subobject(frozenset(), frozenset())):
            continue
        keys = set()
        for size in range(len(edge_list) + 1):
            for chosen in itertools.combinations(range(len(edge_list)), size):
                edges = [edge_list[i] for i in chosen]
                if predicate.evaluator(Subobject(frozenset().union(*edges), frozenset(edges))):
                    for j in range(chosen[-1] + 1 if chosen else 0, len(edge_list)):
                        keys.add((j, _boundary_summary(edges, list(edge_list[j]))))
        calls += len(keys)
    return calls
