import random
import re
from dataclasses import replace

import pytest

from sdkit import (
    Adhesion,
    ArrowPresentation,
    COMPLETE,
    CodomainMismatch,
    DISCRETE,
    DecompositionMorphism,
    FINSET,
    FinSet,
    GRAPH,
    Graph,
    GraphMorphism,
    NonFinSetValued,
    NonTreeShape,
    NotMono,
    NotTame,
    PATHS,
    MAX_EDGES,
    SetFunction,
    Span,
    StructuredDecomposition,
    ValidationError,
    ValueFunctor,
    canonical_form,
    check_morphism,
    chordal_from_decomposition,
    complement,
    complete_graph,
    decomposition_from_json,
    decomposition_from_vertex_bags,
    decomposition_to_json,
    evaluate_colimit,
    from_arrow,
    h_width,
    identity_functor,
    identity_morphism,
    is_isomorphic,
    is_tame,
    map_decomposition,
    restrict_decomposition,
    solve_on_decomposition,
    to_arrow,
    tree_decomposition_reading,
    validate,
)
from sdkit.decomposition import _require_tame_forest
from sdkit.solver import _solve_at_boundary
from util import (
    fs_adhesion,
    random_finset_decomposition,
    random_graph_decomposition,
    random_subgraph_mono,
)


def single_bag(obj, kind):
    return StructuredDecomposition(Graph(1), kind, (obj,), ())


class TestValidate:
    def test_fixture_is_clean(self, five_bag_tree):
        assert validate(five_bag_tree) == []

    def test_leg_missing_its_bag_is_one_violation(self):
        # leg entries run past the bag: its codomain cannot be the bag object
        shape = Graph(2, [(0, 1)])
        bags = (FinSet(3), FinSet(2))
        oversized = FinSet(5)
        apex = FinSet(1)
        adh = Adhesion(
            (0, 1),
            Span(SetFunction(apex, oversized, (4,)), SetFunction(apex, bags[1], (0,))),
        )
        # require_valid's message, one violation (no "; ")
        message = "adhesion (0, 1): source leg does not land in bag 0"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            StructuredDecomposition(shape, FINSET, bags, (adh,))

    def test_empty_shape(self):
        d = StructuredDecomposition(Graph(0), FINSET, (), ())
        assert validate(d) == []

    def test_adhesion_edge_set_must_match_shape(self):
        with pytest.raises(ValidationError, match="^adhesion index set differs from the shape edge set$"):
            StructuredDecomposition(Graph(2, [(0, 1)]), FINSET, (FinSet(1), FinSet(1)), ())

    def test_bag_count_must_match_shape(self):
        with pytest.raises(ValidationError, match="^1 bags for a shape with 2 vertices$"):
            StructuredDecomposition(Graph(2), FINSET, (FinSet(1),), ())

    def test_adhesion_past_the_bags_is_left_to_the_bag_count(self):
        bags = (complete_graph(2), complete_graph(2))
        leg = lambda bag: GraphMorphism(Graph(1), bag, (0,))
        adhesion = Adhesion((1, 2), Span(leg(bags[1]), leg(bags[0])))
        with pytest.raises(ValidationError, match="^2 bags for a shape with 3 vertices$"):
            StructuredDecomposition(Graph(3, [(1, 2)]), GRAPH, bags, (adhesion,))


class TestTameness:
    def test_fixture_is_tame(self, five_bag_tree):
        assert is_tame(five_bag_tree)

    def test_collapsing_leg_is_wild(self):
        bags = (FinSet(1), FinSet(2))
        d = StructuredDecomposition(
            Graph(2, [(0, 1)]),
            FINSET,
            bags,
            (fs_adhesion((0, 1), [(0, 0), (0, 1)], bags[0], bags[1]),),
        )
        assert validate(d) == []
        assert not is_tame(d)

    def test_edgeless_shape_is_vacuously_tame(self):
        d = StructuredDecomposition(Graph(3), FINSET, (FinSet(1), FinSet(0), FinSet(2)), ())
        assert is_tame(d)


class TestEvaluateColimit:
    def test_five_bag_tree_glues_to_nine_elements(self, five_bag_tree):
        obj, cocone = evaluate_colimit(five_bag_tree)
        assert obj == FinSet(9)
        assert len(cocone) == 5

    def test_single_bag(self):
        g = complete_graph(3)
        obj, cocone = evaluate_colimit(single_bag(g, GRAPH))
        assert obj == g
        assert cocone[0].mapping == (0, 1, 2)

    def test_completed_decomposition_builds_the_completion(self, completion_dh, completion_h):
        glued, _ = evaluate_colimit(map_decomposition(COMPLETE, completion_dh))
        assert is_isomorphic(glued, completion_h)


class TestMapDecomposition:
    def test_complete_functor_bag_sizes(self, five_bag_tree):
        completed = map_decomposition(COMPLETE, five_bag_tree)
        assert [b.vertices for b in completed.bags] == [4, 3, 5, 3, 3]
        assert [len(b.edges) for b in completed.bags] == [6, 3, 10, 3, 3]

    def test_identity_functor(self, five_bag_tree):
        assert map_decomposition(identity_functor(FINSET), five_bag_tree) == five_bag_tree

    def test_discrete_then_complement_is_complete(self, five_bag_tree):
        graph_complement = ValueFunctor(
            "complement",
            GRAPH,
            GRAPH,
            complement,
            lambda m: GraphMorphism(complement(m.dom), complement(m.cod), m.mapping),
        )
        left = map_decomposition(graph_complement, map_decomposition(DISCRETE, five_bag_tree))
        right = map_decomposition(COMPLETE, five_bag_tree)
        assert left.bags == right.bags
        assert left.adhesions == right.adhesions

    def test_respects_composition_on_sampled_inputs(self):
        rng = random.Random(2)
        for _ in range(20):
            d = random_finset_decomposition(rng, 4, 3)
            once = map_decomposition(DISCRETE, d)
            assert once.value_kind == GRAPH
            assert [b.vertices for b in once.bags] == [b.size for b in d.bags]
            assert map_decomposition(identity_functor(GRAPH), once) == once

    def test_vertex_sets_survive_completion(self):
        # completing bags never changes what the gluing identifies
        rng = random.Random(9)
        for _ in range(30):
            d = random_finset_decomposition(rng, 4, 3, tree=False)
            base, _ = evaluate_colimit(d)
            completed, _ = evaluate_colimit(map_decomposition(COMPLETE, d))
            assert completed.vertices == base.size

    def test_tameness_preserved_by_mono_preserving_functors(self):
        rng = random.Random(14)
        for _ in range(20):
            d = random_finset_decomposition(rng, 4, 3)
            assert is_tame(d)
            assert is_tame(map_decomposition(COMPLETE, d))
            assert is_tame(map_decomposition(DISCRETE, d))


class TestArrowPresentation:
    def test_three_bag_path_with_two_fibred_edges_each(self):
        # bags {1,2},{3,4},{5,6} over a path; two total edges over each base edge
        shape = Graph(3, [(0, 1), (1, 2)])
        bags = (FinSet(2), FinSet(2), FinSet(2))
        d = StructuredDecomposition(
            shape,
            FINSET,
            bags,
            (
                fs_adhesion((0, 1), [(0, 1), (1, 0)], bags[0], bags[1]),
                fs_adhesion((1, 2), [(0, 0), (1, 1)], bags[1], bags[2]),
            ),
        )
        arrow = to_arrow(d)
        assert arrow.total.vertices == 6
        assert len(arrow.total.edges) == 4
        assert arrow.base == shape
        assert arrow.projection.mapping == (0, 0, 1, 1, 2, 2)
        assert from_arrow(arrow) == canonical_form(d)

    def test_empty_decomposition(self):
        d = StructuredDecomposition(Graph(0), FINSET, (), ())
        arrow = to_arrow(d)
        assert arrow.total == Graph(0)
        assert from_arrow(arrow) == d

    def test_round_trip_on_generated_instances(self):
        rng = random.Random(21)
        for _ in range(150):
            d = random_finset_decomposition(rng, 4, 3, tree=False)
            normal = canonical_form(d)
            assert from_arrow(to_arrow(normal)) == normal

    def test_graph_valued_input_rejected(self):
        d = single_bag(complete_graph(2), GRAPH)
        with pytest.raises(NonFinSetValued):
            to_arrow(d)

    def test_edge_against_base_order_is_read_forwards_and_fiber_edges_ignored(self):
        # total edge (0, 2) runs from fiber 1 to fiber 0; (1, 2) lies in fiber 0
        base = Graph(2, [(0, 1)])
        total = Graph(4, [(0, 2), (1, 3), (1, 2)])
        arrow = ArrowPresentation(total, base, GraphMorphism(total, base, (1, 0, 0, 1)))
        bags = (FinSet(2), FinSet(2))
        expected = StructuredDecomposition(
            base, FINSET, bags, (fs_adhesion((0, 1), [(0, 1), (1, 0)], bags[0], bags[1]),)
        )
        assert from_arrow(arrow) == expected


class TestMorphisms:
    def test_identity_morphism_checks(self, five_bag_tree, completion_dh):
        assert check_morphism(identity_morphism(five_bag_tree))
        assert check_morphism(identity_morphism(completion_dh))

    def test_restriction_morphism_checks(self, completion_dh, completion_g):
        completed = map_decomposition(COMPLETE, completion_dh)
        glued, _ = evaluate_colimit(completed)
        delta = GraphMorphism(completion_g, glued, (0, 1, 3, 2, 4, 5, 7, 6))
        _, eta = restrict_decomposition(completed, delta)
        assert check_morphism(eta)

    def test_violated_square_fails(self, five_bag_tree):
        m = identity_morphism(five_bag_tree)
        bad_components = list(m.edge_components)
        apex = bad_components[0].dom
        if apex.size >= 2:
            twisted = tuple(reversed(range(apex.size)))
            bad_components[0] = SetFunction(apex, bad_components[0].cod, twisted)
            bad = DecompositionMorphism(
                m.dom, m.cod, m.shape_map, m.vertex_components, tuple(bad_components)
            )
            assert not check_morphism(bad)

    def test_shape_edge_collapse_rejected(self):
        bags = (FinSet(1), FinSet(1))
        d2 = StructuredDecomposition(
            Graph(2, [(0, 1)]),
            FINSET,
            bags,
            (fs_adhesion((0, 1), [(0, 0)], bags[0], bags[1]),),
        )
        d1 = single_bag(FinSet(1), FINSET)
        collapse = GraphMorphism(d2.shape, d1.shape, (0, 0))
        m = DecompositionMorphism(
            d2,
            d1,
            collapse,
            (SetFunction.identity(FinSet(1)), SetFunction.identity(FinSet(1))),
            (SetFunction.identity(FinSet(1)),),
        )
        assert not check_morphism(m)


def unchecked_shape_map(dom, cod, mapping):
    """A vertex map between shapes built without GraphMorphism's checks, so
    it can send a shape edge onto a non-edge."""
    f = object.__new__(GraphMorphism)
    for name, value in (("dom", dom), ("cod", cod), ("mapping", tuple(mapping))):
        object.__setattr__(f, name, value)
    return f


class TestCheckMorphismRejects:
    """Each way check_morphism can answer False, one at a time, starting
    from a morphism it accepts."""

    @pytest.fixture
    def path3(self):
        bags = (FinSet(1), FinSet(1), FinSet(1))
        adhesions = (
            fs_adhesion((0, 1), [(0, 0)], bags[0], bags[1]),
            fs_adhesion((1, 2), [(0, 0)], bags[1], bags[2]),
        )
        return StructuredDecomposition(Graph(3, [(0, 1), (1, 2)]), FINSET, bags, adhesions)

    def test_the_starting_morphism_is_accepted(self, path3):
        assert check_morphism(identity_morphism(path3))

    def test_invalid_domain_or_codomain(self, path3):
        # an invalid decomposition cannot be built, so no morphism has one
        # as its domain or codomain
        with pytest.raises(ValidationError, match="^adhesion index set differs from the shape edge set$"):
            StructuredDecomposition(path3.shape, FINSET, path3.bags, path3.adhesions[:1])

    def test_shape_map_between_other_shapes(self, path3):
        m = identity_morphism(path3)
        other = GraphMorphism.identity(Graph(3))
        assert not check_morphism(replace(m, shape_map=other))

    def test_missing_vertex_component(self, path3):
        m = identity_morphism(path3)
        assert not check_morphism(replace(m, vertex_components=m.vertex_components[:2]))

    def test_missing_edge_component(self, path3):
        m = identity_morphism(path3)
        assert not check_morphism(replace(m, edge_components=m.edge_components[:1]))

    def test_vertex_component_between_other_bags(self, path3):
        m = identity_morphism(path3)
        wrong = SetFunction(FinSet(1), FinSet(2), (0,))
        components = (wrong,) + m.vertex_components[1:]
        assert not check_morphism(replace(m, vertex_components=components))

    def test_shape_edge_sent_to_a_non_edge(self, path3):
        # (0, 1) goes to (0, 2), which has no adhesion in the codomain
        m = identity_morphism(path3)
        f = unchecked_shape_map(path3.shape, path3.shape, (0, 2, 1))
        assert not check_morphism(replace(m, shape_map=f))

    def test_edge_component_between_other_apexes(self, path3):
        m = identity_morphism(path3)
        wrong = SetFunction(FinSet(1), FinSet(2), (1,))
        components = (wrong,) + m.edge_components[1:]
        assert not check_morphism(replace(m, edge_components=components))

    def test_target_side_square_fails(self):
        # the source-side square commutes; swapping bag 1 breaks the other
        bags = (FinSet(2), FinSet(2))
        d = StructuredDecomposition(
            Graph(2, [(0, 1)]), FINSET, bags, (fs_adhesion((0, 1), [(0, 0)], bags[0], bags[1]),)
        )
        m = identity_morphism(d)
        swap = SetFunction(bags[1], bags[1], (1, 0))
        m = replace(m, vertex_components=(m.vertex_components[0], swap))
        assert not check_morphism(m)


class TestRestrict:
    def test_completion_pipeline(self, completion_dh, completion_g):
        completed = map_decomposition(COMPLETE, completion_dh)
        glued, _ = evaluate_colimit(completed)
        delta = GraphMorphism(completion_g, glued, (0, 1, 3, 2, 4, 5, 7, 6))
        restricted, eta = restrict_decomposition(completed, delta)
        assert restricted.shape == completed.shape
        assert is_tame(restricted)
        assert [b.vertices for b in restricted.bags] == [3, 3, 2, 3, 3]
        back, _ = evaluate_colimit(restricted)
        assert is_isomorphic(back, completion_g)
        assert check_morphism(eta)

    def test_identity_subobject_restricts_to_itself(self):
        rng = random.Random(4)
        for _ in range(20):
            d = random_graph_decomposition(rng, 4, 4)
            glued, _ = evaluate_colimit(d)
            restricted, _ = restrict_decomposition(d, GraphMorphism.identity(glued))
            assert restricted == d

    def test_random_subgraphs_recover_their_colimit(self):
        rng = random.Random(8)
        count = 0
        for _ in range(60):
            d = random_graph_decomposition(rng, 4, 4, tree=rng.random() < 0.7)
            glued, _ = evaluate_colimit(d)
            if glued.vertices > 8:
                continue
            delta = random_subgraph_mono(rng, glued)
            restricted, eta = restrict_decomposition(d, delta)
            assert restricted.shape == d.shape
            assert is_tame(restricted)
            back, _ = evaluate_colimit(restricted)
            assert is_isomorphic(back, delta.dom)
            assert check_morphism(eta)
            count += 1
        assert count >= 30

    def test_non_mono_rejected(self):
        d = single_bag(complete_graph(2), GRAPH)
        glued, _ = evaluate_colimit(d)
        with pytest.raises(NotMono):
            restrict_decomposition(d, GraphMorphism(complete_graph(2), glued, (0, 0)))

    def test_wild_decomposition_rejected(self):
        bags = (complete_graph(1), complete_graph(2))
        wild = StructuredDecomposition(
            Graph(2, [(0, 1)]),
            GRAPH,
            bags,
            (
                Adhesion(
                    (0, 1),
                    Span(
                        GraphMorphism(Graph(2), bags[0], (0, 0)),
                        GraphMorphism(Graph(2), bags[1], (0, 1)),
                    ),
                ),
            ),
        )
        glued, _ = evaluate_colimit(wild)
        with pytest.raises(NotTame):
            restrict_decomposition(wild, GraphMorphism.identity(glued))

    def test_finset_valued_decomposition_rejected(self):
        d = single_bag(FinSet(2), FINSET)
        with pytest.raises(ValidationError, match="^restriction is defined for graph-valued decompositions$"):
            restrict_decomposition(d, GraphMorphism.identity(complete_graph(2)))

    def test_wrong_codomain_rejected(self):
        d = single_bag(complete_graph(2), GRAPH)
        with pytest.raises(CodomainMismatch):
            restrict_decomposition(
                d, GraphMorphism(complete_graph(1), complete_graph(4), (0,))
            )


class TestJson:
    def test_decomposition_round_trip(self, five_bag_tree, completion_dh, bowtie_decomposition):
        for d in (five_bag_tree, completion_dh, bowtie_decomposition):
            assert decomposition_from_json(decomposition_to_json(d)) == d

    def test_vertex_bag_helper_builds_valid_decompositions(self, td_example_g, td_example_bags):
        shape, bag_sets = td_example_bags
        d, labeling = decomposition_from_vertex_bags(td_example_g, shape, bag_sets)
        assert validate(d) == []
        assert is_tame(d)
        assert [list(lab) for lab in labeling] == [sorted(b) for b in bag_sets]


class TestValidationPaths:
    """Each constructor and operation refuses input it cannot stand for."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: StructuredDecomposition(Graph(0), "poset", (), ()), ValidationError, "unknown value kind 'poset'"),
            (lambda: single_bag(FinSet(1), GRAPH), ValidationError, "bag 0 is not a graph object"),
            (
                lambda: StructuredDecomposition(
                    Graph(2, [(0, 1)]), GRAPH, (Graph(1), Graph(1)), (fs_adhesion((0, 1), [], FinSet(1), FinSet(1)),)
                ),
                ValidationError,
                "adhesion (0, 1) apex is not a graph object",
            ),
            (
                lambda: StructuredDecomposition(
                    Graph(2, [(0, 1)]), FINSET, (FinSet(1), FinSet(2)), (fs_adhesion((0, 1), [(0, 0)], FinSet(1), FinSet(1)),)
                ),
                ValidationError,
                "adhesion (0, 1): target leg does not land in bag 1",
            ),
            (
                lambda: map_decomposition(COMPLETE, single_bag(complete_graph(1), GRAPH)),
                ValidationError,
                "functor complete expects finset values, got graph",
            ),
            (
                lambda: canonical_form(single_bag(complete_graph(1), GRAPH)),
                NonFinSetValued,
                "canonical form is defined for finite-set-valued input",
            ),
            (
                lambda: ArrowPresentation(Graph(2), Graph(1), GraphMorphism.identity(Graph(1))),
                ValidationError,
                "projection must map the total graph onto the base",
            ),
            (
                lambda: decomposition_from_vertex_bags(Graph(2), Graph(2), [[0]]),
                ValidationError,
                "one bag vertex set is required per shape vertex",
            ),
            (
                lambda: decomposition_from_vertex_bags(Graph(2), Graph(1), [[0, 5]]),
                ValidationError,
                "bag vertex 5 is not a vertex of the graph",
            ),
        ],
    )
    def test_refused_with_its_message(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


def precondition_faults(kind):
    """(decomposition, error, message less its task) for each fault
    _require_tame_forest refuses when kind is asked for: a value kind other
    than kind, a shape with a cycle and a leg that is not injective."""
    ones = (FinSet(1), FinSet(1), FinSet(1))
    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    cyclic = StructuredDecomposition(
        triangle, FINSET, ones, [fs_adhesion(e, [], ones[e[0]], ones[e[1]]) for e in triangle.edge_list()]
    )
    bags = (FinSet(1), FinSet(2))
    wild = StructuredDecomposition(Graph(2, [(0, 1)]), FINSET, bags, (fs_adhesion((0, 1), [(0, 0), (0, 1)], *bags),))
    other = single_bag(FinSet(1), FINSET)
    if kind == GRAPH:
        cyclic, wild = map_decomposition(DISCRETE, cyclic), map_decomposition(DISCRETE, wild)
    else:
        other = map_decomposition(DISCRETE, other)
    return [
        (other, NonFinSetValued if kind == FINSET else ValidationError, f"needs a {kind}-valued decomposition"),
        (cyclic, NonTreeShape, "needs a forest-shaped decomposition"),
        (wild, NotTame, "needs injective adhesion legs"),
    ]


class TestTameForestPrecondition:
    """Solving, completion and h-width share one precondition: a
    decomposition of their value kind, forest-shaped and tame. Each fault
    raises its own error as "<task> needs ..."."""

    @pytest.mark.parametrize("kind", [FINSET, GRAPH])
    def test_each_condition_raises(self, kind):
        for d, error, message in precondition_faults(kind):
            with pytest.raises(error, match=f"^task {re.escape(message)}$"):
                _require_tame_forest(d, kind, "task")

    def test_a_tame_forest_passes(self, five_bag_tree, bowtie_decomposition):
        assert _require_tame_forest(five_bag_tree, FINSET, "task") is None
        assert _require_tame_forest(bowtie_decomposition, GRAPH, "task") is None

    @pytest.mark.parametrize(
        "task, kind, call",
        [
            ("solving", GRAPH, lambda d: solve_on_decomposition(d, PATHS, MAX_EDGES)),
            ("solving", GRAPH, lambda d: _solve_at_boundary(d, PATHS, MAX_EDGES)),
            ("completion", FINSET, chordal_from_decomposition),
            ("h-width", GRAPH, lambda d: h_width(d, lambda bag: True)),
        ],
    )
    def test_every_caller_raises_it(self, task, kind, call):
        for d, error, message in precondition_faults(kind):
            with pytest.raises(error, match=f"^{re.escape(task)} {re.escape(message)}$"):
                call(d)

    def test_tree_decomposition_reading_reads_no_tree_decomposition(self):
        for d, _, _ in precondition_faults(GRAPH):
            assert tree_decomposition_reading(Graph(1), d) is None
