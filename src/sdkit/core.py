"""Finite sets, finite simple graphs, their morphisms, and co/limits.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
SetFunction and GraphMorphism share one map body (_Map): lookup, identity,
composition in diagram order and monicity are written once for both
categories, and each class adds only its own checks. Every gluing (colimit,
pushout, a decomposition's colimit, connected components) is one union-find
on the disjoint union of the objects glued (_glue), renumbered canonically
(classes sorted by their smallest (object index, element) member) so
outputs are bit-stable across runs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import (
    CodomainMismatch,
    IllFormedDiagram,
    NonMonicSpan,
    TooLarge,
    ValidationError,
)

ISO_VERTEX_CAP = 8
# Most vertices or elements of a graph or finite set read from JSON, and of
# a decomposition's bags together: a few bytes name any count (README "Size caps").
JSON_SIZE_CAP = 1 << 19


def _require_json_size(n: int, what: str) -> None:
    if n > JSON_SIZE_CAP:
        raise TooLarge(f"{what} {n} read from JSON is past the cap of {JSON_SIZE_CAP}")


@dataclass(frozen=True)
class FinSet:
    """A finite set whose elements are the canonical labels 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValidationError(f"finite set size must be >= 0, got {self.size}")

    def to_json(self) -> dict:
        return {"size": self.size}

    @classmethod
    def from_json(cls, data) -> "FinSet":
        if not isinstance(data, dict) or not is_json_int(data.get("size")):
            raise ValidationError(f"finite set JSON must be {{'size': n}}, got {data!r}")
        _require_json_size(data["size"], "finite set size")
        return cls(data["size"])


@dataclass(frozen=True)
class _Map:
    """The body of a map in either category: a lookup tuple from dom's
    elements (or vertices) to cod's. Subclasses add their own checks."""

    dom: object
    cod: object
    mapping: tuple

    def __post_init__(self):
        if type(self.mapping) is not tuple:
            object.__setattr__(self, "mapping", tuple(self.mapping))

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @classmethod
    def identity(cls, obj):
        return cls(obj, obj, tuple(range(object_size(obj))))

    def then(self, other):
        """Composition in diagram order: (f.then(g))(x) = g(f(x))."""
        if self.cod != other.dom:
            raise CodomainMismatch("cannot compose: codomain differs from domain")
        return type(self)(self.dom, other.cod, tuple(other.mapping[y] for y in self.mapping))

    def is_mono(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)


@dataclass(frozen=True)
class SetFunction(_Map):
    """A total function between finite sets, stored as a lookup tuple."""

    dom: FinSet
    cod: FinSet

    def __post_init__(self):
        _Map.__post_init__(self)
        if len(self.mapping) != self.dom.size:
            raise ValidationError(
                f"mapping has {len(self.mapping)} entries for a domain of size {self.dom.size}"
            )
        for x, y in enumerate(self.mapping):
            if not isinstance(y, int) or not 0 <= y < self.cod.size:
                raise ValidationError(
                    f"mapping sends {x} to {y!r}, outside codomain 0..{self.cod.size - 1}"
                )


def is_json_int(x) -> bool:
    """An int that is not a bool: JSON true/false load as Python bools, which
    are ints, and must not pass as vertex ids or sizes."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_json_int_list(x) -> bool:
    """A list whose every item is_json_int, checked in one loop (true and
    false are the only bools)."""
    if not isinstance(x, list):
        return False
    for item in x:
        if not isinstance(item, int) or item is True or item is False:
            return False
    return True


def _normalize_edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..vertices-1."""

    vertices: int
    edges: frozenset

    def __init__(self, vertices: int, edges=()):
        if vertices < 0:
            raise ValidationError(f"vertex count must be >= 0, got {vertices}")
        normalized = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValidationError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValidationError(f"edge {(u, v)!r} has an endpoint outside 0..{vertices - 1}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(normalized))

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def edge_list(self) -> list:
        return sorted(self.edges)

    def neighbor_sets(self) -> list:
        nbrs = []
        for _ in range(self.vertices):
            nbrs.append(set())
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def induced_subgraph(self, vertex_set) -> "Graph":
        """Induced subgraph, renumbered along the sorted vertex list."""
        keep = sorted(vertex_set)
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        ]
        return Graph(len(keep), edges)

    def to_json(self) -> dict:
        return {"vertices": self.vertices, "edges": [list(e) for e in self.edge_list()]}

    @classmethod
    def from_json(cls, data) -> "Graph":
        if not isinstance(data, dict):
            raise ValidationError(f"graph JSON must be an object, got {data!r}")
        n = data.get("vertices")
        edges = data.get("edges")
        if not is_json_int(n) or not isinstance(edges, list):
            raise ValidationError(
                f"graph JSON must be {{'vertices': n, 'edges': [[u,v], ..]}}, got {data!r}"
            )
        _require_json_size(n, "vertex count")
        for e in edges:
            if not is_json_int_list(e) or len(e) != 2:
                raise ValidationError(f"graph edge must be a pair of vertex ids, got {e!r}")
        return cls(n, edges)


@dataclass(frozen=True)
class GraphMorphism(_Map):
    """A vertex map preserving edges (an edge may collapse onto a vertex)."""

    dom: Graph
    cod: Graph

    def __post_init__(self):
        _Map.__post_init__(self)
        mapping, n = self.mapping, self.cod.vertices
        if len(mapping) != self.dom.vertices:
            raise ValidationError(
                f"vertex map has {len(mapping)} entries for {self.dom.vertices} vertices"
            )
        for x, y in enumerate(mapping):
            if not isinstance(y, int) or not 0 <= y < n:
                raise ValidationError(f"vertex map sends {x} to {y!r}, outside 0..{n - 1}")
        cod_edges = self.cod.edges
        for u, v in self.dom.edges:
            fu, fv = mapping[u], mapping[v]
            if fu != fv and ((fu, fv) if fu < fv else (fv, fu)) not in cod_edges:
                raise ValidationError(
                    f"edge ({u},{v}) maps to non-edge ({fu},{fv}) of the codomain"
                )

    def image_vertices(self) -> frozenset:
        return frozenset(self.mapping)


Morphism = Union[SetFunction, GraphMorphism]
Object = Union[FinSet, Graph]


def object_size(obj: Object) -> int:
    return obj.size if isinstance(obj, FinSet) else obj.vertices


@dataclass(frozen=True)
class Span:
    """Two morphisms out of a common apex: left.dom == right.dom."""

    left: Morphism
    right: Morphism

    def __post_init__(self):
        if self.left.dom is not self.right.dom and self.left.dom != self.right.dom:
            raise ValidationError("span legs must share their domain (the apex)")

    @property
    def apex(self) -> Object:
        return self.left.dom

    def is_monic(self) -> bool:
        return self.left.is_mono() and self.right.is_mono()


@dataclass(frozen=True)
class Cospan:
    """Two morphisms into a common apex: left.cod == right.cod."""

    left: Morphism
    right: Morphism

    def __post_init__(self):
        if self.left.cod != self.right.cod:
            raise CodomainMismatch("cospan legs must share their codomain")

    @property
    def apex(self) -> Object:
        return self.left.cod


@dataclass(frozen=True)
class Diagram:
    """Objects plus arrows tagged with (source index, target index)."""

    objects: tuple
    arrows: tuple

    def __init__(self, objects, arrows):
        objects = tuple(objects)
        typed = []
        for s, t, f in arrows:
            typed.append((int(s), int(t), f))
        for o in objects:
            if type(o) is not type(objects[0]):
                raise IllFormedDiagram("diagram mixes finite-set and graph objects")
        for s, t, f in typed:
            if not 0 <= s < len(objects) or not 0 <= t < len(objects):
                raise IllFormedDiagram(f"arrow indices ({s},{t}) out of range")
            dom, cod = objects[s], objects[t]
            if (f.dom is not dom and f.dom != dom) or (f.cod is not cod and f.cod != cod):
                raise IllFormedDiagram(
                    f"arrow {s}->{t} does not type-check against the stored objects"
                )
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "arrows", tuple(typed))


def colimit(d: Diagram):
    """Glue a diagram's objects along its arrows.

    Returns (object, cocone) where the cocone is one morphism per diagram
    object. Vertices of the result are equivalence classes of the disjoint
    union, renumbered by their smallest (object index, element) member.
    """
    if not d.objects:
        raise IllFormedDiagram("colimit of an empty diagram has no canonical object here")
    return _glue(d.objects, [(s, range(len(f.mapping)), t, f.mapping) for s, t, f in d.arrows])


def _glue(objects, links):
    """The colimit of objects (all finite sets or all graphs, at least one)
    glued along links, with one cocone leg per object.

    A link (i, xs, j, ys) makes element xs[k] of object i the same as
    element ys[k] of object j. Element x of object i is the integer
    offsets[i] + x, which orders the disjoint union as the (i, x) pairs do;
    a class's root is its least member, and classes are numbered in the
    order of their least members.
    """
    graphs = isinstance(objects[0], Graph)
    offsets, total = [], 0
    for obj in objects:
        offsets.append(total)
        total += obj.vertices if graphs else obj.size
    parent = list(range(total))
    for i, xs, j, ys in links:
        source, target = offsets[i], offsets[j]
        for x, y in zip(xs, ys):
            a, b = source + x, target + y
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    # every parent is at most its child, so one ascending pass numbers each
    # class, in place, by the order of its least member
    count = 0
    for e in range(total):
        up = parent[e]
        if up == e:
            parent[e] = count
            count += 1
        else:
            parent[e] = parent[up]
    classof = parent
    offsets.append(total)
    if graphs:
        edges = set()
        for obj, offset in zip(objects, offsets):
            for u, v in obj.edges:
                cu, cv = classof[offset + u], classof[offset + v]
                if cu < cv:
                    edges.add((cu, cv))
                elif cv < cu:
                    edges.add((cv, cu))
        result, leg = Graph(count, edges), GraphMorphism
    else:
        result, leg = FinSet(count), SetFunction
    cocone = []
    for i, obj in enumerate(objects):
        cocone.append(leg(obj, result, tuple(classof[offsets[i] : offsets[i + 1]])))
    return result, tuple(cocone)


def pushout(s: Span):
    """Pushout of a monic span, returned with its cocone.

    Raises NonMonicSpan if a leg is not injective. Along monic legs the
    cocone legs are injective as well (adhesivity), which downstream
    algorithms rely on.
    """
    if not s.is_monic():
        raise NonMonicSpan("pushout requires both span legs to be injective")
    obj, cocone = _glue((s.left.cod, s.right.cod), ((0, s.left.mapping, 1, s.right.mapping),))
    return obj, Cospan(*cocone)


def pullback(c: Cospan):
    """Pullback of a cospan: pairs that agree in the apex, paired edges."""
    f, g = c.left, c.right
    pairs = [
        (a, b)
        for a in range(object_size(f.dom))
        for b in range(object_size(g.dom))
        if f(a) == g(b)
    ]
    index = {p: i for i, p in enumerate(pairs)}
    if isinstance(f.dom, Graph):
        edges = set()
        for (a, b), (a2, b2) in itertools.combinations(pairs, 2):
            if f.dom.has_edge(a, a2) and g.dom.has_edge(b, b2):
                edges.add(_normalize_edge(index[(a, b)], index[(a2, b2)]))
        obj = Graph(len(pairs), edges)
    else:
        obj = FinSet(len(pairs))
    leg = type(f)
    return obj, Span(
        leg(obj, f.dom, tuple(a for a, _ in pairs)), leg(obj, g.dom, tuple(b for _, b in pairs))
    )


def complete_graph(n_or_set) -> Graph:
    """K_n: every pair of distinct vertices is an edge."""
    n = n_or_set.size if isinstance(n_or_set, FinSet) else n_or_set
    return Graph(n, itertools.combinations(range(n), 2))


def complete_on_function(f: SetFunction) -> GraphMorphism:
    """The action of the complete-graph functor on a set function."""
    return GraphMorphism(complete_graph(f.dom.size), complete_graph(f.cod.size), f.mapping)


def discrete_graph(n_or_set) -> Graph:
    """The edgeless graph on n vertices."""
    n = n_or_set.size if isinstance(n_or_set, FinSet) else n_or_set
    return Graph(n, ())


def discrete_on_function(f: SetFunction) -> GraphMorphism:
    return GraphMorphism(discrete_graph(f.dom.size), discrete_graph(f.cod.size), f.mapping)


def complement(g: Graph) -> Graph:
    edges = [
        (u, v) for u, v in itertools.combinations(range(g.vertices), 2) if not g.has_edge(u, v)
    ]
    return Graph(g.vertices, edges)


def set_functions(dom: FinSet, cod: FinSet) -> Iterator[SetFunction]:
    """All total functions dom -> cod (cod.size ** dom.size of them)."""
    for mapping in itertools.product(range(cod.size), repeat=dom.size):
        yield SetFunction(dom, cod, mapping)


def graph_morphisms(dom: Graph, cod: Graph) -> Iterator[GraphMorphism]:
    """All edge-preserving vertex maps dom -> cod. Exponential; keep inputs tiny."""
    if dom.vertices == 0:
        yield GraphMorphism(dom, cod, ())
        return
    if cod.vertices == 0:
        return
    nbrs = cod.neighbor_sets()
    dom_edges = dom.edge_list()
    for mapping in itertools.product(range(cod.vertices), repeat=dom.vertices):
        ok = True
        for u, v in dom_edges:
            fu, fv = mapping[u], mapping[v]
            if fu != fv and fv not in nbrs[fu]:
                ok = False
                break
        if ok:
            yield GraphMorphism(dom, cod, mapping)


def connected_components(g: Graph) -> list:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    edges = list(g.edges)
    glued, (leg,) = _glue((FinSet(g.vertices),), [(0, [u for u, _ in edges], 0, [v for _, v in edges])])
    comps = [[] for _ in range(glued.size)]
    for v, c in enumerate(leg.mapping):
        comps[c].append(v)
    return comps


def is_forest(g: Graph) -> bool:
    parent = list(range(g.vertices))
    for u, v in g.edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[v] = u
    return True


def find_isomorphism(g: Graph, h: Graph):
    """An edge-preserving bijection g -> h as a tuple, or None.

    Backtracking over vertex assignments with degree pruning; capped at
    ISO_VERTEX_CAP vertices on either side.
    """
    if g.vertices > ISO_VERTEX_CAP or h.vertices > ISO_VERTEX_CAP:
        raise TooLarge(
            f"isomorphism search is limited to {ISO_VERTEX_CAP} vertices; "
            "compare canonical invariants instead"
        )
    if g.vertices != h.vertices or len(g.edges) != len(h.edges):
        return None
    n = g.vertices
    gn = g.neighbor_sets()
    hn = h.neighbor_sets()
    gdeg = list(map(len, gn))
    hdeg = list(map(len, hn))
    if sorted(gdeg) != sorted(hdeg):
        return None
    # depth-first over i = 0, 1, ..: assignment[i] is g-vertex i's image, and
    # the candidates for it are tried in increasing order from start[i]
    assignment = [-1] * n
    used = [False] * n
    start = [0] * (n + 1)
    i = 0
    while 0 <= i < n:
        if assignment[i] >= 0:  # back at i: free its image, try the next
            used[assignment[i]] = False
            assignment[i] = -1
        cand = start[i]
        while cand < n:
            if not used[cand] and gdeg[i] == hdeg[cand]:
                for j in range(i):
                    if (j in gn[i]) != (assignment[j] in hn[cand]):
                        break
                else:
                    break
            cand += 1
        if cand < n:
            assignment[i] = cand
            used[cand] = True
            start[i] = cand + 1
            i += 1
            start[i] = 0
        else:
            i -= 1
    return tuple(assignment) if i == n else None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Edge-preserving bijection existence, capped at ISO_VERTEX_CAP vertices."""
    return find_isomorphism(g, h) is not None
