"""Chordality, clique trees, tree-width, and its complemented/layered/H variants.

Tree-width and layered tree-width share one exact search over elimination
orders, run on int bitmasks as a decision search: can every bag cost at most
k? It starts one below a known upper bound and lowers k until the answer is
no or k falls below a lower bound. States are surviving-vertex masks, and
the states that fail go into a dead set that every k shares, because a state
that fails at k fails at any smaller k. Tree-width costs a bag by its size
minus one; a minor-min-width lower bound and a min-fill upper bound, both
taken on the same neighbour masks, bound its search, which is capped at
TREEWIDTH_CAP vertices; co-tree-width runs the same on the complemented
masks. Layered tree-width costs a bag by the most of its
vertices in one layer. It works one block (2-connected piece) at a time and
runs the search once per layering of the block, generated directly as a
level function in which every edge spans at most one step (one of each
reversal pair, the BFS layering first). Each search is bounded above by
the best width found so far, and the layerings stop at a lower bound from
the clique number and odd cycles. Its cap is LAYERED_CAP vertices.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .core import (
    FinSet,
    Graph,
    GraphMorphism,
    is_json_int,
    is_json_int_list,
    find_isomorphism,
    object_size,
    ISO_VERTEX_CAP,
)
from .decomposition import (
    COMPLETE,
    FINSET,
    GRAPH,
    StructuredDecomposition,
    _require_tame_forest,
    _set_adhesion,
    evaluate_colimit,
    map_decomposition,
)
from .errors import (
    EmptyDecomposition,
    NotALayering,
    NotATreeDecomposition,
    NotChordal,
    TooLarge,
    ValidationError,
)

TREEWIDTH_CAP = 12
LAYERED_CAP = 12


def peo(g: Graph):
    """A perfect elimination ordering of g, or None if g is not chordal.

    Runs maximum-cardinality search (ties broken by smallest label) and
    verifies the resulting ordering; MCS yields a valid ordering exactly on
    chordal graphs. The next vertex comes off a heap of (-weight, label),
    where a raised weight pushes a new item and the stale one is skipped
    when it surfaces: O((n + m) log n).
    """
    n = g.vertices
    nbrs = g.neighbor_sets()
    weight = [0] * n
    numbered = [False] * n
    heap = [(0, u) for u in range(n)]
    visit = []
    while heap:
        w, v = heapq.heappop(heap)
        if numbered[v] or -w != weight[v]:
            continue
        visit.append(v)
        numbered[v] = True
        for u in nbrs[v]:
            if not numbered[u]:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    order = tuple(reversed(visit))
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in nbrs[v] if pos[u] > pos[v]]
        for a, b in itertools.combinations(later, 2):
            if b not in nbrs[a]:
                return None
    return order


def is_chordal(g: Graph) -> bool:
    return peo(g) is not None


def clique_number_chordal(g: Graph) -> int:
    """omega(g) for chordal g: the size of its largest maximal clique."""
    return max(map(len, maximal_cliques_chordal(g)), default=0)


def chordal_from_decomposition(d: StructuredDecomposition) -> Graph:
    """Complete every bag and glue: tree-shaped tame input yields a chordal graph."""
    _require_tame_forest(d, FINSET, "completion")
    glued, _ = evaluate_colimit(map_decomposition(COMPLETE, d))
    return glued


def maximal_cliques_chordal(g: Graph) -> list:
    """Maximal cliques of a chordal graph, as sorted tuples in sorted order.

    Along a perfect elimination order, C(v) = {v} + v's later neighbours is
    a clique, and every maximal clique is one of them. C(v) lies inside
    another exactly when some u has v as its first later neighbour and one
    more later neighbour than v: then C(u) holds C(v).
    """
    order = peo(g)
    if order is None:
        raise NotChordal("maximal-clique extraction needs a chordal graph")
    nbrs = g.neighbor_sets()
    pos = {v: i for i, v in enumerate(order)}
    later = {v: [u for u in nbrs[v] if pos[u] > pos[v]] for v in order}
    inside = set()
    for u in order:
        if later[u]:
            v = min(later[u], key=pos.__getitem__)
            if len(later[u]) == len(later[v]) + 1:
                inside.add(v)
    return sorted(tuple(sorted([v, *later[v]])) for v in order if v not in inside)


def decomposition_from_chordal(h: Graph) -> StructuredDecomposition:
    """A clique tree of a chordal graph as a finite-set-valued decomposition.

    Bags are the maximal cliques; the shape is a maximum-weight spanning
    forest of the clique intersection graph (Kruskal, ties broken by smallest
    clique index pair), which is exactly the classical clique-tree
    construction. Only the pairs of cliques that share a vertex are weighed,
    found through each vertex's cliques. Completing and gluing the result
    reproduces h up to isomorphism.
    """
    cliques = maximal_cliques_chordal(h)
    k = len(cliques)
    holding = {}  # vertex -> indices of the cliques that hold it
    for i, clique in enumerate(cliques):
        for v in clique:
            holding.setdefault(v, []).append(i)
    shared = {}
    for held in holding.values():
        for pair in itertools.combinations(held, 2):
            shared[pair] = shared.get(pair, 0) + 1
    parent = list(range(k))
    tree_edges = []
    for _, i, j in sorted((-count, i, j) for (i, j), count in shared.items()):
        a, b = i, j
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            tree_edges.append((i, j))
    shape = Graph(k, tree_edges)
    bags = tuple(FinSet(len(c)) for c in cliques)
    index = [{v: i for i, v in enumerate(c)} for c in cliques]
    adhesions = []
    for u, v in sorted(shape.edges):
        pairs = [(index[u][w], index[v][w]) for w in set(cliques[u]) & set(cliques[v])]
        adhesions.append(_set_adhesion((u, v), pairs, bags[u], bags[v]))
    return StructuredDecomposition(shape, FINSET, bags, adhesions)


def tree_decomposition_reading(g: Graph, d: StructuredDecomposition, labeling=None):
    """Read d's bags as subgraphs of g, if d is a tree decomposition of g:
    a tame, forest-shaped, graph-valued decomposition whose colimit is g,
    glued once by evaluate_colimit(d) and shared with a later solve of d.

    Returns (labeling, colim_to_g) or None. colim_to_g is a bijection from
    the vertices of evaluate_colimit(d) onto g's that sends edges onto edges,
    and labeling[i][b] is the g-vertex of local bag vertex b. Gluing a tame
    forest already keeps each bag's labels distinct and each vertex's bags
    connected in the shape. A supplied labeling is a list (or tuple) of one
    list per bag, and must give every colimit vertex one g-vertex; any other
    value is read as no tree decomposition. Without one, colim_to_g is the
    identity when the colimit equals g, and otherwise comes from an
    isomorphism search, which needs g to have at most ISO_VERTEX_CAP vertices.
    """
    if d.value_kind != GRAPH or not d._tame_forest:
        return None
    glued, cocone = evaluate_colimit(d)
    if glued.vertices != g.vertices or len(glued.edges) != len(g.edges):
        return None
    if labeling is not None:
        if not isinstance(labeling, (list, tuple)) or len(labeling) != len(d.bags):
            return None
        translate = [None] * glued.vertices
        for lab, bag, leg in zip(labeling, d.bags, cocone):
            if not isinstance(lab, (list, tuple)) or len(lab) != bag.vertices:
                return None
            for b, x in enumerate(lab):
                if not is_json_int(x) or translate[leg(b)] not in (None, x):
                    return None
                translate[leg(b)] = x
        colim_to_g = tuple(translate)
        # a supplied labeling must be a bijection that sends edges onto edges
        if sorted(colim_to_g) != list(range(g.vertices)):
            return None
        for u, v in glued.edges:
            if not g.has_edge(colim_to_g[u], colim_to_g[v]):
                return None
    elif glued == g:
        colim_to_g = tuple(range(g.vertices))
    else:
        if g.vertices > ISO_VERTEX_CAP:
            raise TooLarge(
                "deriving a bag labeling needs an isomorphism search; supply a labeling for graphs "
                f"over {ISO_VERTEX_CAP} vertices, or number the graph as `sdkit colim -d` prints it"
            )
        colim_to_g = find_isomorphism(glued, g)
        if colim_to_g is None:
            return None
    labeling = []
    for leg in cocone:
        labeling.append(tuple(map(colim_to_g.__getitem__, leg.mapping)))
    return tuple(labeling), colim_to_g


def is_tree_decomposition(g: Graph, d: StructuredDecomposition, labeling=None) -> bool:
    """Whether d is a tree decomposition of g: a tame, forest-shaped,
    graph-valued decomposition whose colimit, read through labeling (or
    through an isomorphism search when none is given), is g."""
    return tree_decomposition_reading(g, d, labeling) is not None


def width(d: StructuredDecomposition) -> int:
    """Largest bag size minus one."""
    if not d.bags:
        raise EmptyDecomposition("width is undefined without bags")
    return max(object_size(b) for b in d.bags) - 1


def _bits(mask: int):
    """The set bits of mask, lowest first, as bit indices."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _min_fill_width(nbrs: list) -> int:
    """Width attained by the min-fill elimination heuristic (an upper bound)
    on neighbour masks: each step eliminates the vertex of least fill, then
    least degree, then lowest index, so a simplicial vertex goes first.
    missing counts each fill pair twice, once from each end, and a vertex's
    count stops once it passes the least so far, which it cannot then beat."""
    fill = list(nbrs)
    remaining = (1 << len(nbrs)) - 1
    unreached = len(nbrs) ** 2  # above any doubled fill count
    best = 0
    while remaining:
        pick_missing, pick_degree = unreached, 0
        rest = remaining
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            nb = fill[u]
            missing = 0
            m = nb
            while m:
                w = m & -m
                m ^= w
                missing += (nb & ~(fill[w.bit_length() - 1] | w)).bit_count()
                if missing > pick_missing:
                    break
            else:
                degree = nb.bit_count()
                if missing < pick_missing or degree < pick_degree:
                    pick, pick_missing, pick_degree = low, missing, degree
        best = max(best, pick_degree)
        nb = m = fill[pick.bit_length() - 1]
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            fill[u] = (fill[u] | nb) & ~(low | pick)
        remaining ^= pick
    return best


def _minor_min_width(nbrs: list) -> int:
    """Max over the minimum-degree vertices met while each is contracted
    into its neighbour of least degree (Gogate & Dechter 2004), on neighbour
    masks: every graph met is a minor, so this is a lower bound. Ties go to
    the lowest index. It is never below the degeneracy: a subgraph H of
    minimum degree k survives until its first vertex is picked, and that
    vertex has degree at least k."""
    adj = list(nbrs)
    remaining = (1 << len(nbrs)) - 1
    best = 0
    while remaining:
        v = _least_degree(adj, remaining)
        nb = adj[v.bit_length() - 1]
        best = max(best, nb.bit_count())
        remaining ^= v
        if nb:
            u = _least_degree(adj, nb)
            m = nb
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                adj[w] = (adj[w] | u) & ~(v | low)
            w = u.bit_length() - 1
            adj[w] = (adj[w] | nb) & ~(u | v)
    return best


def _least_degree(adj: list, among: int) -> int:
    """The bit of the vertex of least degree in among, lowest index first."""
    pick, least = 0, len(adj)
    while among:
        low = among & -among
        among ^= low
        degree = adj[low.bit_length() - 1].bit_count()
        if degree < least:
            if not degree:
                return low
            pick, least = low, degree
    return pick


def _min_elimination_cost(nbrs: list, cost, lower: int, upper: int) -> int:
    """Minimum over elimination orders of the largest bag cost, searched
    downward from upper and clipped to [lower, upper].

    Vertex i is bit i, nbrs[i] is its neighbour mask, and cost(bag) takes the
    bag mask {v} | later, where later is v's fill neighbourhood among the
    vertices still to be eliminated. The fill graph of a set of surviving
    vertices does not depend on the order that eliminated the rest, so a
    state is its surviving mask; the search carries the fill graph down as a
    list of neighbour masks.

    feasible(k) asks whether some order keeps every bag cost at most k, by a
    depth-first search that tries only vertices whose bag costs at most k. A
    simplicial vertex of the fill graph is eliminated outright, and if its
    bag already costs more than k the state is dead. Both rules are exact for
    any cost monotone under inclusion: a clique lies inside some bag of every
    elimination order, and eliminating a simplicial vertex adds no fill, so
    every later bag shrinks or stays. States that fail go into one dead set
    shared by every k tried, since k only falls and a state that fails at k
    fails at every smaller k. The driver tries k = upper - 1, upper - 2, ...
    and stops at the first k that fails or below lower; it returns upper
    when no order beats it.
    """
    dead = set()

    def feasible(fill: list, remaining: int, k: int) -> bool:
        if not remaining:
            return True
        if remaining in dead:
            return False
        candidates = []
        rest = remaining
        while rest:
            v = rest & -rest
            rest ^= v
            nb = fill[v.bit_length() - 1]
            fits = cost(nb | v) <= k
            m = nb
            while m:
                low = m & -m
                if nb & ~(fill[low.bit_length() - 1] | low):
                    break
                m ^= low
            else:  # simplicial
                candidates = [v] if fits else []
                break
            if fits:
                candidates.append(v)
        for v in candidates:
            nb = fill[v.bit_length() - 1]
            after = fill[:]
            m = nb
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                after[u] = (after[u] | nb) & ~(v | low)
            if feasible(after, remaining ^ v, k):
                return True
        dead.add(remaining)
        return False

    full = (1 << len(nbrs)) - 1
    best = upper
    for k in range(upper - 1, lower - 1, -1):
        if not feasible(nbrs, full, k):
            break
        best = k
    return best


def _require_treewidth_cap(g: Graph) -> None:
    if g.vertices > TREEWIDTH_CAP:
        raise TooLarge(f"exact tree-width is limited to {TREEWIDTH_CAP} vertices")


def _neighbour_masks(g: Graph) -> list:
    nbrs = [0] * g.vertices
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


def _treewidth_of_masks(nbrs: list) -> int:
    lower, upper = _minor_min_width(nbrs), _min_fill_width(nbrs)
    if lower >= upper:
        return upper
    return _min_elimination_cost(nbrs, lambda bag: bag.bit_count() - 1, lower, upper)


def treewidth_exact(g: Graph) -> int:
    """Exact tree-width by elimination-ordering search, capped at TREEWIDTH_CAP
    vertices.

    The minor-min-width lower bound and the min-fill upper bound bound the
    shared elimination-order search, which costs a bag by its size minus one
    and eliminates simplicial vertices outright; when they meet there is no
    search.
    """
    _require_treewidth_cap(g)
    return _treewidth_of_masks(_neighbour_masks(g))


def complemented_treewidth(g: Graph) -> int:
    """Tree-width of the complement graph, by the same bounds and search as
    treewidth_exact on the complemented neighbour masks; no complement
    Graph is built. The cap is checked first."""
    _require_treewidth_cap(g)
    full = (1 << g.vertices) - 1
    return _treewidth_of_masks([full & ~(nb | 1 << v) for v, nb in enumerate(_neighbour_masks(g))])


@dataclass(frozen=True)
class Layering:
    """An ordered partition of a vertex set into layers."""

    layers: tuple

    def __init__(self, layers):
        object.__setattr__(self, "layers", tuple(tuple(sorted(l)) for l in layers))

    def to_json(self) -> dict:
        return {"layers": [list(l) for l in self.layers]}

    @classmethod
    def from_json(cls, data) -> "Layering":
        if not isinstance(data, dict) or not isinstance(data.get("layers"), list):
            raise ValidationError("layering JSON must be {'layers': [[v, ..], ..]}")
        for layer in data["layers"]:
            if not is_json_int_list(layer):
                raise ValidationError(f"layer must be an array of vertex ids, got {layer!r}")
        return cls(data["layers"])


def is_layering(g: Graph, layering: Layering) -> bool:
    """Layers must partition the vertices; edges may not skip a layer."""
    seen = []
    for layer in layering.layers:
        seen.extend(layer)
    if len(seen) != len(set(seen)) or set(seen) != set(range(g.vertices)):
        return False
    level = {}
    for i, layer in enumerate(layering.layers):
        for v in layer:
            level[v] = i
    return all(abs(level[u] - level[v]) <= 1 for u, v in g.edges)


def layered_width(g: Graph, layering: Layering, d: StructuredDecomposition, labeling=None) -> int:
    """Largest number of vertices shared by any bag with any layer."""
    if not is_layering(g, layering):
        raise NotALayering("the layer sequence does not partition the graph properly")
    reading = tree_decomposition_reading(g, d, labeling)
    if reading is None:
        raise NotATreeDecomposition("layered width needs a valid tree decomposition")
    lab = reading[0]
    best = 0
    for bag_lab in lab:
        bag_set = set(bag_lab)
        for layer in layering.layers:
            best = max(best, len(bag_set & set(layer)))
    return best


def layer_join(sequence) -> Graph:
    """Disjoint union of the sequence plus all edges between consecutive members."""
    offsets = []
    total = 0
    for g in sequence:
        offsets.append(total)
        total += g.vertices
    edges = []
    for g, off in zip(sequence, offsets):
        edges.extend((off + u, off + v) for u, v in g.edges)
    for i in range(len(sequence) - 1):
        a, b = sequence[i], sequence[i + 1]
        edges.extend(
            (offsets[i] + u, offsets[i + 1] + v)
            for u in range(a.vertices)
            for v in range(b.vertices)
        )
    return Graph(total, edges)


def layer_join_on_morphisms(morphisms) -> GraphMorphism:
    """The action of the layer join on a levelwise sequence of morphisms."""
    dom = layer_join([m.dom for m in morphisms])
    cod = layer_join([m.cod for m in morphisms])
    mapping = []
    offset = 0
    for m in morphisms:
        mapping.extend(offset + m(x) for x in range(m.dom.vertices))
        offset += m.cod.vertices
    return GraphMorphism(dom, cod, tuple(mapping))


def _clique_number(nbrs: list) -> int:
    """omega of a neighbour-mask list, by branching on the lowest candidate."""

    def grow(size: int, candidates: int) -> int:
        best = size
        while candidates and size + candidates.bit_count() > best:
            low = candidates & -candidates
            candidates ^= low
            best = max(best, grow(size + 1, candidates & nbrs[low.bit_length() - 1]))
        return best

    return grow(0, (1 << len(nbrs)) - 1)


def _level_functions(nbrs: list):
    """Every layering of a connected neighbour-mask list, one of each
    reversal pair, as its tuple of layer masks from the lowest level up.

    The vertices are visited in BFS order from vertex 0, which takes level
    0; each later vertex takes every level within one step of all its placed
    neighbours, highest first, so the first function yielded is the BFS
    layering. Its BFS parent is placed before it, so the levels used stay
    contiguous, and a vertex placed while every level so far is 0 may not
    go to -1: the first non-zero level is +1, which keeps one function of
    each pair l, -l.
    """
    order = [0]
    seen = 1
    for v in order:
        for u in _bits(nbrs[v] & ~seen):
            order.append(u)
        seen |= nbrs[v]
    position = {v: i for i, v in enumerate(order)}
    placed = [
        [position[u] for u in _bits(nbrs[v]) if position[u] < i] for i, v in enumerate(order)
    ]
    level = [0] * len(order)

    def extend(i: int, flat: bool):
        if i == len(order):
            low = min(level)
            layers = [0] * (max(level) - low + 1)
            for v, l in zip(order, level):
                layers[l - low] |= 1 << v
            yield tuple(layers)
            return
        around = [level[j] for j in placed[i]]
        top = min(around) + 1
        bottom = 0 if flat else max(around) - 1
        for l in range(top, bottom - 1, -1):
            level[i] = l
            yield from extend(i + 1, flat and l == 0)

    return extend(1, True)


def _block_layered_treewidth(nbrs: list, floor: int) -> int:
    """max(floor, layered tree-width) of a connected neighbour-mask list."""
    upper = (len(nbrs) + 1) // 2  # one bag over any two-layer split
    if upper <= floor:
        return floor
    layerings = _level_functions(nbrs)
    bfs = next(layerings)
    odd = any(nbrs[v] & layer for layer in bfs for v in _bits(layer))
    lower = max(floor, (_clique_number(nbrs) + 1) // 2, 2 if odd else 1)
    best = upper
    for layers in itertools.chain([bfs], layerings):
        if best <= lower:
            break

        def bag_cost(bag):
            return max((bag & layer).bit_count() for layer in layers)

        best = _min_elimination_cost(nbrs, bag_cost, lower, best)
    return best


def _blocks(nbrs) -> list:
    """The vertex lists of the blocks (maximal 2-connected subgraphs and
    bridges) of a graph given as vertex -> neighbour set, by depth-first
    search with low points (Hopcroft & Tarjan 1973), roots in the mapping's
    order and neighbours in sorted order. An isolated vertex is in no block."""
    depth, low = {}, {}
    blocks = []
    for root in nbrs:
        if root in depth:
            continue
        depth[root] = low[root] = 0
        trail = [root]  # visited vertices not yet assigned to a block
        stack = [(root, iter(sorted(nbrs[root])))]
        while stack:
            v, rest = stack[-1]
            for u in rest:
                if u not in depth:
                    depth[u] = low[u] = depth[v] + 1
                    trail.append(u)
                    stack.append((u, iter(sorted(nbrs[u]))))
                    break
                low[v] = min(low[v], depth[u])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= depth[p]:
                        # p separates v's subtree, which closes a block
                        block = [p]
                        while block[-1] != v:
                            block.append(trail.pop())
                        blocks.append(block)
    return blocks


def layered_treewidth_exact(g: Graph) -> int:
    """Minimum layered width over every layering and tree decomposition,
    capped at LAYERED_CAP vertices (Dujmovic, Morin & Wood, arXiv:1306.1595).

    The answer is the largest over the blocks (1 for a graph with no block
    of three vertices, 0 for the empty graph). A block is a connected
    subgraph, so a layering of g restricts to one of it; and the layerings
    of two pieces that share one vertex, or none, combine after a shift of
    levels, while their decompositions combine by one tree edge between
    bags holding that vertex. A block of n vertices has width at most
    ceil(n / 2), the width of a two-layer split with one bag, and at least
    ceil(omega / 2), because a clique lies in one bag and spans at most two
    adjacent layers, and at least 2 when it has an odd cycle, because some
    edge of it then stays within a layer and its two ends share a bag. A
    block that cannot beat the width found so far is skipped. Otherwise each
    of its layerings (level functions in which every edge spans at most one
    step, one per reversal pair, BFS layering first) runs the
    elimination-order search that computes tree-width with another bag
    cost: the largest number of vertices of the bag {v} | later that share
    one layer. This is exact because every tree decomposition has an
    elimination order whose bags each lie inside one of its bags. The search
    only asks whether a layering beats the best width so far, and the
    layerings stop once that width meets the lower bound.
    """
    if g.vertices > LAYERED_CAP:
        raise TooLarge(f"exact layered tree-width is limited to {LAYERED_CAP} vertices")
    if g.vertices == 0:
        return 0
    best = 1
    for block in _blocks(dict(enumerate(g.neighbor_sets()))):
        if len(block) > 2:
            best = _block_layered_treewidth(_neighbour_masks(g.induced_subgraph(block)), best)
    return best


def h_width(d: StructuredDecomposition, in_h) -> int:
    """Size of the largest bag outside the bag class; 0 when every bag is inside.

    in_h must be closed under subgraphs for the resulting measure to behave;
    that is the caller's promise.
    """
    _require_tame_forest(d, GRAPH, "h-width")
    sizes = [b.vertices for b in d.bags if not in_h(b)]
    return max(sizes) if sizes else 0
