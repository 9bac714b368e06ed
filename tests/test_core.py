import itertools
import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdkit import (
    CodomainMismatch,
    Cospan,
    Diagram,
    FinSet,
    Graph,
    GraphMorphism,
    IllFormedDiagram,
    NonMonicSpan,
    SetFunction,
    Span,
    TooLarge,
    ValidationError,
    colimit,
    complement,
    complete_graph,
    complete_on_function,
    connected_components,
    discrete_graph,
    discrete_on_function,
    find_isomorphism,
    graph_morphisms,
    is_forest,
    is_isomorphic,
    pullback,
    pushout,
    set_functions,
)
from sdkit.core import object_size
from util import (
    colimit_reference,
    components_by_search,
    random_diagram,
    random_finset_decomposition,
    random_graph,
    random_graph_decomposition,
    random_monic_graph_span,
    random_subgraph_mono,
    underlying_diagram,
)

K1, K2, K3 = complete_graph(1), complete_graph(2), complete_graph(3)


def strict_morphisms(dom, cod):
    """Morphisms that never collapse an edge."""
    return [
        m
        for m in graph_morphisms(dom, cod)
        if all(m(u) != m(v) for u, v in dom.edges)
    ]


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


small_graphs = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.builds(
        Graph,
        st.just(n),
        st.lists(
            st.sampled_from(list(itertools.combinations(range(n), 2)) or [(0, 0)]),
            max_size=10,
        )
        if n >= 2
        else st.just([]),
    )
)


class TestGraphBasics:
    def test_rejects_self_loops(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 2)])

    def test_edges_normalized(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edge_list() == [(0, 1), (0, 2)]

    @settings(max_examples=60, derandomize=True)
    @given(small_graphs)
    def test_json_round_trip(self, g):
        assert Graph.from_json(g.to_json()) == g

    def test_morphism_must_preserve_edges(self):
        with pytest.raises(ValidationError):
            GraphMorphism(K2, discrete_graph(2), (0, 1))

    def test_morphism_may_collapse_an_edge(self):
        m = GraphMorphism(K2, K1, (0, 0))
        assert not m.is_mono()

    def test_set_function_totality(self):
        with pytest.raises(ValidationError):
            SetFunction(FinSet(3), FinSet(2), (0, 1))
        with pytest.raises(ValidationError):
            SetFunction(FinSet(2), FinSet(2), (0, 2))

    def test_json_booleans_are_not_integers(self):
        for bad in (
            lambda: Graph.from_json({"vertices": 2, "edges": [[0, True]]}),
            lambda: Graph.from_json({"vertices": True, "edges": []}),
            lambda: FinSet.from_json({"size": False}),
        ):
            with pytest.raises(ValidationError):
                bad()


class TestComposition:
    def test_then_raises_on_a_codomain_that_is_not_the_next_domain(self):
        cases = (
            (SetFunction(FinSet(1), FinSet(2), (1,)), SetFunction.identity(FinSet(3))),
            (GraphMorphism(K1, K2, (0,)), GraphMorphism.identity(K3)),
        )
        for first, second in cases:
            with pytest.raises(CodomainMismatch, match="codomain differs from domain"):
                first.then(second)

    def test_a_mapping_given_as_a_list_is_kept_as_a_tuple(self):
        for cls, dom, cod, mapping in (
            (SetFunction, FinSet(3), FinSet(2), [1, 0, 1]),
            (GraphMorphism, K3, K3, [2, 0, 1]),
        ):
            from_list = cls(dom, cod, mapping)
            assert type(from_list.mapping) is tuple
            from_tuple = cls(dom, cod, tuple(mapping))
            assert from_list == from_tuple and hash(from_list) == hash(from_tuple)


class TestPushout:
    def test_two_triangles_over_a_vertex(self):
        span = Span(GraphMorphism(K1, K3, (1,)), GraphMorphism(K1, K3, (0,)))
        g, cocone = pushout(span)
        assert g.vertices == 5
        assert len(g.edges) == 6
        assert cocone.left.is_mono() and cocone.right.is_mono()

    def test_identity_span(self):
        g = cycle(4)
        span = Span(GraphMorphism.identity(g), GraphMorphism.identity(g))
        out, cocone = pushout(span)
        assert out == g
        assert cocone.left.mapping == tuple(range(4))
        assert cocone.right.mapping == tuple(range(4))

    def test_empty_apex_is_disjoint_union(self):
        span = Span(GraphMorphism(Graph(0), K2, ()), GraphMorphism(Graph(0), K2, ()))
        g, _ = pushout(span)
        assert g.vertices == 4
        assert len(g.edges) == 2

    def test_rejects_non_monic_span(self):
        collapse = GraphMorphism(discrete_graph(2), K1, (0, 0))
        with pytest.raises(NonMonicSpan):
            pushout(Span(collapse, collapse))

    def test_universal_property_on_random_spans(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(12):
            span = random_monic_graph_span(rng, 3)
            result, cocone = pushout(span)
            if result.vertices > 4:
                continue
            test_obj = random_graph(rng, 3, p=0.7)
            lefts = list(graph_morphisms(span.left.cod, test_obj))
            rights = list(graph_morphisms(span.right.cod, test_obj))
            for jl in lefts:
                for jr in rights:
                    if span.left.then(jl) != span.right.then(jr):
                        continue
                    mediating = [
                        u
                        for u in graph_morphisms(result, test_obj)
                        if cocone.left.then(u) == jl and cocone.right.then(u) == jr
                    ]
                    assert len(mediating) == 1
                    checked += 1
        assert checked > 0

    def test_adhesivity_cocone_legs_monic(self):
        rng = random.Random(11)
        for _ in range(40):
            span = random_monic_graph_span(rng, 4)
            _, cocone = pushout(span)
            assert cocone.left.is_mono()
            assert cocone.right.is_mono()


class TestPullback:
    def test_intersection_of_subgraph_inclusions(self):
        x = Graph(4, [(0, 1), (1, 2), (2, 3)])
        a = GraphMorphism(x.induced_subgraph([0, 1, 2]), x, (0, 1, 2))
        b = GraphMorphism(x.induced_subgraph([1, 2, 3]), x, (1, 2, 3))
        p, span = pullback(Cospan(a, b))
        got = sorted(span.left(v) for v in range(p.vertices))
        assert [a(i) for i in got] == [1, 2]
        assert len(p.edges) == 1

    def test_product_over_the_point(self):
        # Over a non-monic cospan the pullback is universal against cones
        # whose legs never collapse an edge (the strict homomorphisms); a
        # collapsing cone would need the loop edges only reflexive graphs
        # carry. Monic cospans, the main use, are covered below.
        g, h = K2, path(3)
        c = Cospan(GraphMorphism(g, K1, (0, 0)), GraphMorphism(h, K1, (0, 0, 0)))
        p, span = pullback(c)
        assert p.vertices == g.vertices * h.vertices
        for n in range(4):
            for test_obj in (discrete_graph(n), path(n) if n else Graph(0), complete_graph(n)):
                for ql in strict_morphisms(test_obj, g):
                    for qr in strict_morphisms(test_obj, h):
                        mediating = [
                            u
                            for u in graph_morphisms(test_obj, p)
                            if u.then(span.left) == ql and u.then(span.right) == qr
                        ]
                        assert len(mediating) == 1

    def test_universal_property_on_monic_cospans(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(15):
            ambient = random_graph(rng, 4, p=0.6)
            first = random_subgraph_mono(rng, ambient)
            second = random_subgraph_mono(rng, ambient)
            p, span = pullback(Cospan(first, second))
            test_obj = random_graph(rng, 3, p=0.7)
            for ql in graph_morphisms(test_obj, first.dom):
                for qr in graph_morphisms(test_obj, second.dom):
                    if ql.then(first) != qr.then(second):
                        continue
                    mediating = [
                        u
                        for u in graph_morphisms(test_obj, p)
                        if u.then(span.left) == ql and u.then(span.right) == qr
                    ]
                    assert len(mediating) == 1
                    checked += 1
        assert checked > 0

    def test_identity_cospan(self):
        g = cycle(5)
        c = Cospan(GraphMorphism.identity(g), GraphMorphism.identity(g))
        p, span = pullback(c)
        assert p == g
        assert span.left.mapping == span.right.mapping == tuple(range(5))

    def test_codomain_mismatch(self):
        with pytest.raises(CodomainMismatch):
            Cospan(GraphMorphism(K1, K2, (0,)), GraphMorphism(K1, K3, (0,)))

    def test_set_functions_pair_the_elements_that_agree_in_the_apex(self):
        f = SetFunction(FinSet(4), FinSet(3), (0, 2, 2, 1))
        g = SetFunction(FinSet(3), FinSet(3), (2, 0, 2))
        p, span = pullback(Cospan(f, g))
        pairs = [(a, b) for a in range(4) for b in range(3) if f(a) == g(b)]
        assert p == FinSet(len(pairs))
        assert isinstance(span.left, SetFunction) and isinstance(span.right, SetFunction)
        assert list(zip(span.left.mapping, span.right.mapping)) == pairs
        assert span.left.then(f) == span.right.then(g)

    def test_pullback_of_mono_is_mono(self):
        rng = random.Random(3)
        for _ in range(40):
            ambient = random_graph(rng, 4, p=0.6)
            keep = sorted(v for v in range(ambient.vertices) if rng.random() < 0.7)
            sub = ambient.induced_subgraph(keep)
            mono = GraphMorphism(sub, ambient, tuple(keep))
            other_src = random_graph(rng, 3, p=0.6)
            candidates = list(graph_morphisms(other_src, ambient))
            if not candidates:
                continue
            other = rng.choice(candidates)
            _, span = pullback(Cospan(mono, other))
            assert span.right.is_mono()

    def test_two_pullback_pasting(self):
        rng = random.Random(19)
        for _ in range(25):
            b = random_graph(rng, 3, p=0.6)
            a = random_graph(rng, 3, p=0.6)
            c = random_graph(rng, 3, p=0.6)
            e = random_graph(rng, 3, p=0.6)
            us = list(graph_morphisms(a, b))
            vs = list(graph_morphisms(c, b))
            if not us or not vs:
                continue
            u, v = rng.choice(us), rng.choice(vs)
            q1, span1 = pullback(Cospan(u, v))
            ws = list(graph_morphisms(e, a))
            if not ws:
                continue
            w = rng.choice(ws)
            q2, span2 = pullback(Cospan(w, span1.left))
            direct, span3 = pullback(Cospan(w.then(u), v))
            # canonical comparison: (e-part, c-part) coordinates must coincide
            paste = sorted(
                (span2.left(i), span1.right(span2.right(i)))
                for i in range(q2.vertices)
            )
            straight = sorted(
                (span3.left(i), span3.right(i)) for i in range(direct.vertices)
            )
            assert paste == straight
            assert len(q2.edges) == len(direct.edges)


class TestColimit:
    def test_single_object(self):
        g = cycle(4)
        obj, cocone = colimit(Diagram((g,), ()))
        assert obj == g
        assert cocone[0].mapping == tuple(range(4))

    def test_finset_tree_gluing_matches_hand_count(self, five_bag_tree):
        from sdkit import evaluate_colimit

        obj, _ = evaluate_colimit(five_bag_tree)
        assert obj.size == 9

    def test_span_diagram_equals_pushout(self):
        rng = random.Random(23)
        for _ in range(30):
            span = random_monic_graph_span(rng, 4)
            feet_and_apex = (span.left.cod, span.right.cod, span.apex)
            via_diagram, _ = colimit(Diagram(feet_and_apex, ((2, 0, span.left), (2, 1, span.right))))
            via_pushout, _ = pushout(span)
            assert via_diagram == via_pushout

    def test_ill_formed_diagram(self):
        with pytest.raises(IllFormedDiagram):
            Diagram((K2, K3), ((0, 1, GraphMorphism.identity(K2)),))

    @pytest.mark.parametrize("graphs", [False, True], ids=["finset", "graph"])
    def test_agrees_with_the_pair_keyed_reference(self, graphs):
        rng = random.Random(2113 + graphs)
        shapes = set()
        for _ in range(400):
            d = random_diagram(rng, graphs)
            assert colimit(d) == colimit_reference(d)
            monic = all(f.is_mono() for _, _, f in d.arrows)
            shapes.add((bool(d.arrows), monic, any(object_size(o) == 0 for o in d.objects)))
        # arrowless, non-monic and empty-object diagrams all came up
        assert shapes >= {(False, True, False), (True, False, False), (True, True, True), (True, False, True)}

    def test_agrees_with_the_reference_on_every_fixture_and_pool_decomposition(self):
        from sdkit import evaluate_colimit, is_tame
        from sdkit.decomposition import decomposition_from_json

        root = pathlib.Path(__file__).resolve().parent.parent
        pool = json.loads((root / "perfbench" / "data" / "pool.json").read_text())
        ds = [decomposition_from_json(dec) for _, dec in sorted(pool["decompositions"].items())]
        ds += [decomposition_from_json(json.loads(p.read_text())) for p in sorted((root / "fixtures").glob("*.dec.json"))]
        rng = random.Random(59)
        ds += [random_graph_decomposition(rng, 5, 5) for _ in range(100)]
        ds += [random_graph_decomposition(rng, 5, 5, tree=False) for _ in range(100)]
        ds += [random_finset_decomposition(rng, 5, 5, tree=False, tame=False) for _ in range(100)]
        shapes = set()
        for d in ds:
            if not d.bags:
                continue
            diagram = underlying_diagram(d)
            reference = colimit_reference(diagram)
            assert colimit(diagram) == reference
            obj, cocone = evaluate_colimit(d)
            # the apexes are not glued in, and change neither the classes
            # of the bags nor their numbering
            assert (obj, cocone) == (reference[0], reference[1][: len(d.bags)])
            if d._tame_forest:  # a tame forest embeds every bag in its colimit
                assert all(leg.is_mono() for leg in cocone)
            empty_apex = any(object_size(a.span.apex) == 0 for a in d.adhesions)
            shapes.add((d.value_kind, is_forest(d.shape), is_tame(d), empty_apex))
        # cyclic shapes and empty apexes of both kinds, non-injective finset legs
        assert {("graph", False), ("finset", False)} <= {(k, f) for k, f, _, _ in shapes}
        assert {"graph", "finset"} <= {k for k, _, _, empty in shapes if empty}
        assert ("finset", False) in {(k, t) for k, _, t, _ in shapes}


class TestFunctors:
    def test_complete_graph_values(self):
        assert complete_graph(0) == Graph(0)
        assert complete_graph(3) == Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert len(complete_graph(5).edges) == 10

    def test_discrete_graph_values(self):
        assert discrete_graph(0) == Graph(0)
        assert discrete_graph(4) == Graph(4)
        assert complement(discrete_graph(4)) == complete_graph(4)

    def test_complete_preserves_monos(self):
        f = SetFunction(FinSet(2), FinSet(4), (1, 3))
        assert complete_on_function(f).is_mono()

    def test_functor_laws_on_sampled_compositions(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c = (FinSet(rng.randint(0, 3)) for _ in range(3))
            fs = list(set_functions(a, b))
            gs = list(set_functions(b, c))
            if not fs or not gs:
                continue
            f, g = rng.choice(fs), rng.choice(gs)
            for functor in (complete_on_function, discrete_on_function):
                assert functor(f.then(g)) == functor(f).then(functor(g))
                assert functor(SetFunction.identity(b)).mapping == tuple(range(b.size))


class TestComplementAndIso:
    def test_complement_of_k4(self):
        assert complement(complete_graph(4)) == discrete_graph(4)

    @settings(max_examples=60, derandomize=True)
    @given(small_graphs)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    def test_c5_is_self_complementary(self):
        assert is_isomorphic(complement(cycle(5)), cycle(5))

    def test_triangle_equals_c3(self):
        assert is_isomorphic(K3, cycle(3))

    def test_path_differs_from_triangle(self):
        assert not is_isomorphic(path(3), K3)

    def test_relabelled_bowtie(self):
        span = Span(GraphMorphism(K1, K3, (1,)), GraphMorphism(K1, K3, (0,)))
        bowtie, _ = pushout(span)
        perm = (4, 2, 0, 3, 1)
        relabeled = Graph(5, [(perm[u], perm[v]) for u, v in bowtie.edges])
        assert is_isomorphic(bowtie, relabeled)

    def test_cap_is_enforced(self):
        with pytest.raises(TooLarge):
            is_isomorphic(discrete_graph(9), discrete_graph(9))


class TestUtilities:
    def test_connected_components(self):
        g = Graph(5, [(0, 1), (3, 4)])
        assert connected_components(g) == [[0, 1], [2], [3, 4]]

    def test_connected_components_agree_with_breadth_first_search(self):
        rng = random.Random(31)
        graphs = [Graph(0), Graph(1), discrete_graph(6)]
        graphs += [random_graph(rng, 9, p) for p in (0.0, 0.1, 0.25, 0.5) for _ in range(50)]
        for g in graphs:
            assert connected_components(g) == components_by_search(g)

    def test_is_forest(self):
        assert is_forest(path(4))
        assert not is_forest(cycle(3))


class TestValidationPaths:
    """Each constructor and operation refuses input it cannot stand for."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: FinSet(-1), ValidationError, "finite set size must be >= 0, got -1"),
            (lambda: Graph(-1), ValidationError, "vertex count must be >= 0, got -1"),
            (lambda: GraphMorphism(K1, K2, (2,)), ValidationError, "vertex map sends 0 to 2, outside 0..1"),
            (
                lambda: Span(GraphMorphism(K1, K2, (0,)), GraphMorphism.identity(K2)),
                ValidationError,
                "span legs must share their domain (the apex)",
            ),
            (lambda: Diagram((K1, FinSet(1)), ()), IllFormedDiagram, "diagram mixes finite-set and graph objects"),
            (
                lambda: Diagram((K1,), ((0, 1, GraphMorphism.identity(K1)),)),
                IllFormedDiagram,
                "arrow indices (0,1) out of range",
            ),
            (
                lambda: colimit(Diagram((), ())),
                IllFormedDiagram,
                "colimit of an empty diagram has no canonical object here",
            ),
            # a cospan across the two categories is refused when it is built,
            # so pullback never sees one
            (
                lambda: pullback(Cospan(SetFunction.identity(FinSet(1)), GraphMorphism.identity(K1))),
                CodomainMismatch,
                "cospan legs must share their codomain",
            ),
        ],
    )
    def test_refused_with_its_message(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_cospan_apex_is_the_shared_codomain(self):
        assert Cospan(GraphMorphism(K1, K3, (0,)), GraphMorphism(K2, K3, (1, 2))).apex == K3

    def test_equal_counts_with_other_degrees_are_not_isomorphic(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert (star.vertices, len(star.edges)) == (path(4).vertices, len(path(4).edges))
        assert find_isomorphism(star, path(4)) is None
