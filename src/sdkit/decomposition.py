"""Structured decompositions: shape graph + bags + adhesion spans.

A decomposition assigns an object (its *bag*) to every shape vertex and a
span (its *adhesion*) to every shape edge; the two legs of each span point
into the bags at the edge's endpoints. The shape edge {u, v} with u < v
fixes leg naming: the left/source leg targets bag(u), the right/target leg
targets bag(v).
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .core import (
    FinSet,
    Graph,
    GraphMorphism,
    SetFunction,
    Span,
    _glue,
    _require_json_size,
    is_json_int_list,
    complete_graph,
    complete_on_function,
    discrete_graph,
    discrete_on_function,
    is_forest,
)
from .errors import (
    CodomainMismatch,
    NonFinSetValued,
    NonTreeShape,
    NotMono,
    NotTame,
    ValidationError,
)

FINSET = "finset"
GRAPH = "graph"


@dataclass(frozen=True)
class Adhesion:
    """The span attached to one shape edge (u, v), u < v."""

    edge: tuple
    span: Span

    def __post_init__(self):
        u, v = self.edge
        object.__setattr__(self, "edge", (int(u), int(v)))


@dataclass(frozen=True)
class StructuredDecomposition:
    """Well-formed by construction: the constructor raises require_valid's
    ValidationError otherwise, so no later operation checks again."""

    shape: Graph
    value_kind: str
    bags: tuple
    adhesions: tuple

    def __post_init__(self):
        if self.value_kind not in (FINSET, GRAPH):
            raise ValidationError(f"unknown value kind {self.value_kind!r}")
        object.__setattr__(self, "bags", tuple(self.bags))
        object.__setattr__(self, "adhesions", tuple(sorted(self.adhesions, key=attrgetter("edge"))))
        require_valid(self)

    def adhesion_at(self, u: int, v: int) -> Adhesion:
        key = (u, v) if u < v else (v, u)
        for a in self.adhesions:
            if a.edge == key:
                return a
        raise KeyError(key)

    # What is decided or glued on first use is kept in the instance __dict__
    # under "_tame" and "_colimit", outside the fields (functools.cached_property
    # takes a lock on each first use).

    @property
    def _tame_forest(self) -> bool:
        """Whether the shape is a forest and every adhesion leg injective,
        decided on first use for every reading and solve of self."""
        tame = self.__dict__.get("_tame")
        if tame is None:
            tame = self.__dict__["_tame"] = is_forest(self.shape) and is_tame(self)
        return tame


def validate(d: StructuredDecomposition) -> list:
    """Return a list of violation messages; empty iff d is well-formed, as
    every constructed decomposition is (the constructor checks)."""
    violations = []
    expected = FinSet if d.value_kind == FINSET else Graph
    if len(d.bags) != d.shape.vertices:
        violations.append(
            f"{len(d.bags)} bags for a shape with {d.shape.vertices} vertices"
        )
    for i, bag in enumerate(d.bags):
        if not isinstance(bag, expected):
            violations.append(f"bag {i} is not a {d.value_kind} object")
    edges_seen = set()
    for a in d.adhesions:
        edges_seen.add(a.edge)
    if len(edges_seen) != len(d.adhesions):
        violations.append("duplicate adhesions for a single shape edge")
    if edges_seen != d.shape.edges:
        violations.append("adhesion index set differs from the shape edge set")
        return violations
    for a in d.adhesions:
        u, v = a.edge
        if u >= len(d.bags) or v >= len(d.bags):
            continue
        left, right = a.span.left, a.span.right
        if not isinstance(left.dom, expected):
            violations.append(f"adhesion {a.edge} apex is not a {d.value_kind} object")
            continue
        if left.cod is not d.bags[u] and left.cod != d.bags[u]:
            violations.append(
                f"adhesion {a.edge}: source leg does not land in bag {u}"
            )
        if right.cod is not d.bags[v] and right.cod != d.bags[v]:
            violations.append(
                f"adhesion {a.edge}: target leg does not land in bag {v}"
            )
    return violations


def require_valid(d: StructuredDecomposition) -> None:
    violations = validate(d)
    if violations:
        raise ValidationError("; ".join(violations))


def is_tame(d: StructuredDecomposition) -> bool:
    """True iff every adhesion leg is injective."""
    for a in d.adhesions:
        left, right = a.span.left.mapping, a.span.right.mapping
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            return False
    return True


def _require_tame_forest(d: StructuredDecomposition, kind: str, task: str) -> None:
    """Raise unless d is kind-valued, forest-shaped and tame, each failure
    as "<task> needs ..."."""
    if d.value_kind != kind:
        wrong_kind = NonFinSetValued if kind == FINSET else ValidationError
        raise wrong_kind(f"{task} needs a {kind}-valued decomposition")
    if not d._tame_forest:
        if not is_forest(d.shape):
            raise NonTreeShape(f"{task} needs a forest-shaped decomposition")
        raise NotTame(f"{task} needs injective adhesion legs")


def evaluate_colimit(d: StructuredDecomposition):
    """Glue all bags along all adhesions; returns (object, per-bag cocone).
    Each adhesion makes its two leg images of every apex element the same,
    so the apexes themselves are not glued in. It is glued on the first
    call, and every later call shares that pair."""
    glued = d.__dict__.get("_colimit")
    if glued is None:
        if not d.bags:
            glued = (FinSet(0) if d.value_kind == FINSET else Graph(0)), ()
        else:
            glued = _glue(
                d.bags,
                [(a.edge[0], a.span.left.mapping, a.edge[1], a.span.right.mapping) for a in d.adhesions],
            )
        d.__dict__["_colimit"] = glued
    return glued


@dataclass(frozen=True)
class ValueFunctor:
    """A functor acting on bag/adhesion values: object map + morphism map."""

    name: str
    source_kind: str
    target_kind: str
    on_object: Callable
    on_morphism: Callable


COMPLETE = ValueFunctor("complete", FINSET, GRAPH, complete_graph, complete_on_function)
DISCRETE = ValueFunctor("discrete", FINSET, GRAPH, discrete_graph, discrete_on_function)


def identity_functor(kind: str) -> ValueFunctor:
    return ValueFunctor("identity", kind, kind, lambda x: x, lambda f: f)


def map_decomposition(phi: ValueFunctor, d: StructuredDecomposition) -> StructuredDecomposition:
    """Apply a functor to every bag and adhesion; the shape is untouched."""
    if phi.source_kind != d.value_kind:
        raise ValidationError(
            f"functor {phi.name} expects {phi.source_kind} values, got {d.value_kind}"
        )
    bags = tuple(phi.on_object(b) for b in d.bags)
    adhesions = tuple(
        Adhesion(a.edge, Span(phi.on_morphism(a.span.left), phi.on_morphism(a.span.right)))
        for a in d.adhesions
    )
    return StructuredDecomposition(d.shape, phi.target_kind, bags, adhesions)


def _set_adhesion(edge, pairs, bag_u: FinSet, bag_v: FinSet) -> Adhesion:
    """The finite-set adhesion at edge with one apex element per (left,
    right) pair of leg images, numbered in sorted pair order."""
    pairs = sorted(pairs)
    apex = FinSet(len(pairs))
    left = SetFunction(apex, bag_u, tuple(x for x, _ in pairs))
    return Adhesion(edge, Span(left, SetFunction(apex, bag_v, tuple(y for _, y in pairs))))


def canonical_form(d: StructuredDecomposition) -> StructuredDecomposition:
    """Renumber each adhesion apex so its leg-image pairs come out sorted.

    Finite-set-valued only. The result is equal to d up to the evident
    apex isomorphisms; it is the normal form produced by from_arrow.
    """
    if d.value_kind != FINSET:
        raise NonFinSetValued("canonical form is defined for finite-set-valued input")
    legs = [(a.edge, a.span.left, a.span.right) for a in d.adhesions]
    adhesions = [_set_adhesion(e, zip(f.mapping, g.mapping), f.cod, g.cod) for e, f, g in legs]
    return StructuredDecomposition(d.shape, d.value_kind, d.bags, adhesions)


@dataclass(frozen=True)
class ArrowPresentation:
    """A graph fibered over a base: the whole decomposition as one morphism."""

    total: Graph
    base: Graph
    projection: GraphMorphism

    def __post_init__(self):
        if self.projection.dom != self.total or self.projection.cod != self.base:
            raise ValidationError("projection must map the total graph onto the base")


def to_arrow(d: StructuredDecomposition) -> ArrowPresentation:
    """Bundle a finite-set-valued decomposition into a graph over its shape.

    Total vertices are the pairs (shape vertex, bag element) in lexicographic
    order; every apex element of the adhesion at {u, v} contributes the edge
    joining its two leg images.
    """
    if d.value_kind != FINSET:
        raise NonFinSetValued("to_arrow is defined for finite-set-valued input")
    verts = [(v, x) for v in range(d.shape.vertices) for x in range(d.bags[v].size)]
    index = {p: i for i, p in enumerate(verts)}
    edges = set()
    for a in d.adhesions:
        u, v = a.edge
        for g in range(a.span.apex.size):
            edges.add((index[(u, a.span.left(g))], index[(v, a.span.right(g))]))
    total = Graph(len(verts), edges)
    projection = GraphMorphism(total, d.shape, tuple(p[0] for p in verts))
    return ArrowPresentation(total, d.shape, projection)


def from_arrow(a: ArrowPresentation) -> StructuredDecomposition:
    """Recover a decomposition: bags are vertex fibers, adhesions edge fibers.

    Total edges whose endpoints project to the same base vertex have no
    finite-set counterpart and are ignored; to_arrow never produces them.
    """
    proj = a.projection
    fibers = [[] for _ in range(a.base.vertices)]
    for p in range(a.total.vertices):
        fibers[proj(p)].append(p)
    rank = {}
    for fiber in fibers:
        for i, p in enumerate(sorted(fiber)):
            rank[p] = i
    bags = tuple(FinSet(len(fiber)) for fiber in fibers)
    edge_pairs = {e: [] for e in a.base.edges}
    for p, q in a.total.edges:
        pu, qv = proj(p), proj(q)
        if pu == qv:
            continue
        if pu > qv:
            p, q = q, p
            pu, qv = qv, pu
        edge_pairs[(pu, qv)].append((rank[p], rank[q]))
    adhesions = [
        _set_adhesion((u, v), pairs, bags[u], bags[v]) for (u, v), pairs in edge_pairs.items()
    ]
    return StructuredDecomposition(a.base, FINSET, bags, adhesions)


@dataclass(frozen=True)
class DecompositionMorphism:
    """A shape morphism plus one component per domain bag and adhesion."""

    dom: StructuredDecomposition
    cod: StructuredDecomposition
    shape_map: GraphMorphism
    vertex_components: tuple
    edge_components: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertex_components", tuple(self.vertex_components))
        object.__setattr__(self, "edge_components", tuple(self.edge_components))


def identity_morphism(d: StructuredDecomposition) -> DecompositionMorphism:
    ident = SetFunction.identity if d.value_kind == FINSET else GraphMorphism.identity
    return DecompositionMorphism(
        d,
        d,
        GraphMorphism.identity(d.shape),
        tuple(ident(b) for b in d.bags),
        tuple(ident(a.span.apex) for a in d.adhesions),
    )


def check_morphism(m: DecompositionMorphism) -> bool:
    """True iff the data type-checks and every naturality square commutes.

    The shape map must send edges to edges (collapsing a shape edge onto a
    vertex has no adhesion to land in and is rejected).
    """
    d1, d2 = m.dom, m.cod
    f = m.shape_map
    if f.dom != d1.shape or f.cod != d2.shape:
        return False
    if len(m.vertex_components) != len(d1.bags):
        return False
    if len(m.edge_components) != len(d1.adhesions):
        return False
    for v in range(d1.shape.vertices):
        comp = m.vertex_components[v]
        if comp.dom != d1.bags[v] or comp.cod != d2.bags[f(v)]:
            return False
    for k, a1 in enumerate(d1.adhesions):
        u, v = a1.edge
        fu, fv = f(u), f(v)
        if fu == fv:
            return False
        try:
            a2 = d2.adhesion_at(fu, fv)
        except KeyError:
            return False
        leg2_u = a2.span.left if fu < fv else a2.span.right
        leg2_v = a2.span.right if fu < fv else a2.span.left
        comp = m.edge_components[k]
        if comp.dom != a1.span.apex or comp.cod != a2.span.apex:
            return False
        if comp.then(leg2_u) != a1.span.left.then(m.vertex_components[u]):
            return False
        if comp.then(leg2_v) != a1.span.right.then(m.vertex_components[v]):
            return False
    return True


def restrict_decomposition(d: StructuredDecomposition, delta: GraphMorphism):
    """Pull a tame graph-valued decomposition back along a subobject.

    delta must be an injective morphism into evaluate_colimit(d)'s object.
    Each bag of the result is the concrete preimage of delta's image under
    the corresponding cocone leg (renumbered along sorted kept vertices),
    keeping an edge only when its image is an edge of delta's domain; the
    adhesions restrict the same way. Returns (restricted decomposition,
    inclusion morphism into d).
    """
    if d.value_kind != GRAPH:
        raise ValidationError("restriction is defined for graph-valued decompositions")
    if not is_tame(d):
        raise NotTame("restriction requires every adhesion leg to be injective")
    if not delta.is_mono():
        raise NotMono("the subobject morphism must be injective")
    glued, cocone = evaluate_colimit(d)
    if delta.cod != glued:
        raise CodomainMismatch("the subobject must map into the decomposition's colimit")
    x = delta.dom
    inv = {delta(a): a for a in range(x.vertices)}

    def restrict_object(obj: Graph, to_colim) -> tuple:
        """to_colim: local element -> colimit vertex. Returns (graph, kept)."""
        kept = [b for b in range(obj.vertices) if to_colim(b) in inv]
        index = {b: j for j, b in enumerate(kept)}
        edges = []
        for b, b2 in obj.edges:
            if b in index and b2 in index:
                xa, xb = inv[to_colim(b)], inv[to_colim(b2)]
                if xa != xb and x.has_edge(xa, xb):
                    edges.append((index[b], index[b2]))
        return Graph(len(kept), edges), kept

    new_bags = []
    bag_inclusions = []
    bag_index = []
    for i, bag in enumerate(d.bags):
        leg = cocone[i]
        nb, kept = restrict_object(bag, leg)
        new_bags.append(nb)
        bag_inclusions.append(GraphMorphism(nb, bag, tuple(kept)))
        bag_index.append({b: j for j, b in enumerate(kept)})
    new_adhesions = []
    apex_inclusions = []
    for a in d.adhesions:
        u, v = a.edge
        legs, legt = a.span.left, a.span.right
        to_colim = lambda g: cocone[u](legs(g))
        napex, kept = restrict_object(a.span.apex, to_colim)
        nleft = GraphMorphism(napex, new_bags[u], tuple(bag_index[u][legs(g)] for g in kept))
        nright = GraphMorphism(napex, new_bags[v], tuple(bag_index[v][legt(g)] for g in kept))
        new_adhesions.append(Adhesion(a.edge, Span(nleft, nright)))
        apex_inclusions.append(GraphMorphism(napex, a.span.apex, tuple(kept)))
    d_x = StructuredDecomposition(d.shape, GRAPH, new_bags, new_adhesions)
    eta = DecompositionMorphism(
        d_x, d, GraphMorphism.identity(d.shape), bag_inclusions, apex_inclusions
    )
    return d_x, eta


def decomposition_from_vertex_bags(g: Graph, shape: Graph, bag_sets):
    """Read vertex subsets of g as bags (induced subgraphs, intersections as
    adhesions). Returns (decomposition, labeling) where labeling[i] lists the
    g-vertex of each local bag vertex."""
    if len(bag_sets) != shape.vertices:
        raise ValidationError("one bag vertex set is required per shape vertex")
    labeling = [tuple(sorted(set(s))) for s in bag_sets]
    for lab in labeling:
        for v in lab:
            if not 0 <= v < g.vertices:
                raise ValidationError(f"bag vertex {v} is not a vertex of the graph")
    bags = [g.induced_subgraph(lab) for lab in labeling]
    index = [{v: i for i, v in enumerate(lab)} for lab in labeling]
    adhesions = []
    for u, v in sorted(shape.edges):
        shared = sorted(set(labeling[u]) & set(labeling[v]))
        apex = g.induced_subgraph(shared)
        left = GraphMorphism(apex, bags[u], tuple(index[u][w] for w in shared))
        right = GraphMorphism(apex, bags[v], tuple(index[v][w] for w in shared))
        adhesions.append(Adhesion((u, v), Span(left, right)))
    return StructuredDecomposition(shape, GRAPH, bags, adhesions), tuple(labeling)


def _object_from_json(kind: str, data):
    return FinSet.from_json(data) if kind == FINSET else Graph.from_json(data)


def _leg_from_json(kind, apex, bag, data, label):
    if not is_json_int_list(data):
        raise ValidationError(f"{label} must be an array of element indices")
    if kind == FINSET:
        return SetFunction(apex, bag, tuple(data))
    return GraphMorphism(apex, bag, tuple(data))


def decomposition_to_json(d: StructuredDecomposition) -> dict:
    return {
        "valueKind": d.value_kind,
        "shape": d.shape.to_json(),
        "bags": [b.to_json() for b in d.bags],
        "adhesions": [
            {
                "edge": list(a.edge),
                "apex": a.span.apex.to_json(),
                "legSource": list(a.span.left.mapping),
                "legTarget": list(a.span.right.mapping),
            }
            for a in d.adhesions
        ],
    }


def decomposition_from_json(data) -> StructuredDecomposition:
    if not isinstance(data, dict):
        raise ValidationError("decomposition JSON must be an object")
    kind = data.get("valueKind")
    if kind not in (FINSET, GRAPH):
        raise ValidationError(f"valueKind must be 'finset' or 'graph', got {kind!r}")
    shape = Graph.from_json(data.get("shape"))
    raw_bags = data.get("bags")
    raw_adhesions = data.get("adhesions")
    if not isinstance(raw_bags, list) or not isinstance(raw_adhesions, list):
        raise ValidationError("decomposition JSON needs 'bags' and 'adhesions' arrays")
    bags, total = [], 0
    for raw in raw_bags:
        bag = _object_from_json(kind, raw)
        bags.append(bag)
        total += bag.size if kind == FINSET else bag.vertices
    _require_json_size(total, "total bag size")
    if len(bags) != shape.vertices:
        raise ValidationError(
            f"{len(bags)} bags for a shape with {shape.vertices} vertices"
        )
    adhesions = []
    for entry in raw_adhesions:
        if not isinstance(entry, dict):
            raise ValidationError("each adhesion must be a JSON object")
        edge = entry.get("edge")
        if not is_json_int_list(edge) or len(edge) != 2:
            raise ValidationError(f"adhesion edge must be [u, v], got {edge!r}")
        u, v = edge if edge[0] < edge[1] else (edge[1], edge[0])
        if not (0 <= u < shape.vertices and 0 <= v < shape.vertices) or u == v:
            raise ValidationError(f"adhesion edge {edge!r} is not a shape edge")
        apex = _object_from_json(kind, entry.get("apex"))
        left = _leg_from_json(kind, apex, bags[u], entry.get("legSource"), "legSource")
        right = _leg_from_json(kind, apex, bags[v], entry.get("legTarget"), "legTarget")
        adhesions.append(Adhesion((u, v), Span(left, right)))
    return StructuredDecomposition(shape, kind, bags, adhesions)


def arrow_to_json(a: ArrowPresentation) -> dict:
    return {
        "total": a.total.to_json(),
        "base": a.base.to_json(),
        "projection": list(a.projection.mapping),
    }


def arrow_from_json(data) -> ArrowPresentation:
    if not isinstance(data, dict):
        raise ValidationError("arrow presentation JSON must be an object")
    total = Graph.from_json(data.get("total"))
    base = Graph.from_json(data.get("base"))
    proj = data.get("projection")
    if not is_json_int_list(proj):
        raise ValidationError("projection must be an array of base vertices")
    return ArrowPresentation(total, base, GraphMorphism(total, base, tuple(proj)))
