import importlib
import itertools
import json
import random
import subprocess
import sys
import time
from collections import Counter

import networkx as nx
import pytest

from sdkit import (
    COMPLETE,
    EmptyDecomposition,
    FINSET,
    FinSet,
    GRAPH,
    Graph,
    GraphMorphism,
    Layering,
    NonTreeShape,
    NotALayering,
    NotATreeDecomposition,
    NotChordal,
    NotTame,
    Span,
    StructuredDecomposition,
    TooLarge,
    chordal_from_decomposition,
    clique_number_chordal,
    complement,
    complemented_treewidth,
    complete_graph,
    connected_components,
    decomposition_from_chordal,
    decomposition_from_vertex_bags,
    decomposition_to_json,
    discrete_graph,
    evaluate_colimit,
    h_width,
    is_chordal,
    is_isomorphic,
    is_layering,
    is_tree_decomposition,
    layer_join,
    layer_join_on_morphisms,
    layered_treewidth_exact,
    layered_width,
    map_decomposition,
    maximal_cliques_chordal,
    peo,
    pushout,
    restrict_decomposition,
    treewidth_exact,
    width,
)
from sdkit.core import is_json_int
from sdkit.decomposition import Adhesion
from sdkit.width import (
    LAYERED_CAP,
    TREEWIDTH_CAP,
    _clique_number,
    _level_functions,
    _min_elimination_cost,
    _min_fill_width,
    _minor_min_width,
    tree_decomposition_reading,
)
from util import (
    all_graphs_labeled,
    clique_tree_by_pairs,
    degeneracy,
    fs_adhesion,
    graphs_up_to_iso,
    grid,
    grid_path_decomposition,
    is_chordal_dirac,
    ladder,
    layered_treewidth_by_all_orders,
    layered_treewidth_by_partitions,
    maximal_cliques_by_pairs,
    min_fill_width_by_keys,
    minor_min_width_by_keys,
    ordered_set_partitions,
    peo_by_max_scan,
    random_chordal_graph,
    random_finset_decomposition,
    random_graph,
    random_tree_shape,
    tree_decomposition_by_conditions,
    treewidth_by_all_orders,
    treewidth_by_subsets,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def bound_graphs():
    """Every graph up to isomorphism with at most 7 vertices (n = 0 and 1
    included), their complements, and 3,000 seeded random graphs with 2-12
    vertices."""
    graphs = [h for n in range(8) for g in graphs_up_to_iso(n) for h in (g, complement(g))]
    rng = random.Random(67)
    return graphs + [random_graph(rng, 12, rng.random(), min_n=2) for _ in range(3000)]


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def disjoint_union(a, b):
    shifted = [(a.vertices + u, a.vertices + v) for u, v in b.edges]
    return Graph(a.vertices + b.vertices, list(a.edges) + shifted)


def _masks(g):
    return [sum(1 << u for u in nb) for nb in g.neighbor_sets()]


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.vertices))
    out.add_edges_from(g.edges)
    return out


class TestChordality:
    def test_complete_graphs_are_chordal(self):
        for n in range(7):
            assert is_chordal(complete_graph(n))

    def test_four_cycle_is_not(self):
        assert not is_chordal(cycle(4))
        assert peo(cycle(4)) is None

    def test_completion_fixture_is_chordal(self, completion_h):
        assert is_chordal(completion_h)

    def test_agrees_with_clique_gluing_recursion_up_to_four_vertices(self):
        for n in range(5):
            for g in all_graphs_labeled(n):
                assert is_chordal(g) == is_chordal_dirac(g)

    def test_agrees_with_networkx_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(1, 8)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph(n, edges)
            assert is_chordal(g) == nx.is_chordal(to_nx(g))

    def test_peo_is_a_perfect_elimination_ordering(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_chordal_graph(rng, 8)
            order = peo(g)
            assert order is not None
            nbrs = g.neighbor_sets()
            pos = {v: i for i, v in enumerate(order)}
            for v in order:
                later = [u for u in nbrs[v] if pos[u] > pos[v]]
                assert all(g.has_edge(a, b) for a, b in itertools.combinations(later, 2))

    def test_heap_search_gives_the_order_of_the_scan(self):
        rng = random.Random(29)
        graphs = [random_chordal_graph(rng, 12) for _ in range(80)]
        graphs += [random_graph(rng, 12, p) for p in (0.1, 0.3, 0.6, 0.9) for _ in range(40)]
        graphs += [Graph(n) for n in range(4)] + [cycle(5), path(6), complete_graph(6)]
        assert sum(peo(g) is not None for g in graphs) > 100
        for g in graphs:
            assert peo(g) == peo_by_max_scan(g), g

    def test_chordal_on_8000_isolated_vertices_in_a_child_process(self, tmp_path):
        # the O(n^2) scan (peo_by_max_scan) took about 8.4 s on this input
        # in a child process on 2 cores; the heap is O((n + m) log n)
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps({"vertices": 8000, "edges": []}))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sdkit", "chordal", "-g", str(graph_file)], capture_output=True, text=True
        )
        wall = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"chordal": True, "peo": list(range(7999, -1, -1))}
        assert wall < 1.0, wall


class TestCliqueNumber:
    def test_complete(self):
        for n in range(1, 7):
            assert clique_number_chordal(complete_graph(n)) == n

    def test_completion_fixture(self, completion_h):
        assert clique_number_chordal(completion_h) == 3

    def test_tree_with_an_edge(self):
        assert clique_number_chordal(path(5)) == 2

    def test_not_chordal_rejected(self):
        with pytest.raises(NotChordal):
            clique_number_chordal(cycle(5))

    def test_bitmask_clique_number_matches_networkx(self):
        rng = random.Random(12)
        for _ in range(60):
            g = random_graph(rng, 12, rng.choice((0.3, 0.5, 0.8)))
            omega = max((len(c) for c in nx.find_cliques(to_nx(g))), default=0)
            assert _clique_number(_masks(g)) == omega, g


class TestChordalFromDecomposition:
    def test_completion_fixture(self, completion_dh, completion_h):
        assert is_isomorphic(chordal_from_decomposition(completion_dh), completion_h)

    def test_single_bag_gives_complete_graph(self):
        d = StructuredDecomposition(Graph(1), FINSET, (FinSet(4),), ())
        assert chordal_from_decomposition(d) == complete_graph(4)

    def test_random_outputs_are_chordal(self):
        rng = random.Random(29)
        for _ in range(60):
            d = random_finset_decomposition(rng, 5, 4)
            glued = chordal_from_decomposition(d)
            assert is_chordal(glued)
            if d.bags:
                assert clique_number_chordal(glued) <= max(b.size for b in d.bags)

    def test_cyclic_shape_rejected(self):
        bags = tuple(FinSet(1) for _ in range(3))
        d = StructuredDecomposition(
            cycle(3),
            FINSET,
            bags,
            tuple(fs_adhesion(e, [], bags[e[0]], bags[e[1]]) for e in sorted(cycle(3).edges)),
        )
        with pytest.raises(NonTreeShape):
            chordal_from_decomposition(d)

    def test_wild_decomposition_rejected(self):
        bags = (FinSet(1), FinSet(2))
        d = StructuredDecomposition(
            Graph(2, [(0, 1)]),
            FINSET,
            bags,
            (fs_adhesion((0, 1), [(0, 0), (0, 1)], bags[0], bags[1]),),
        )
        with pytest.raises(NotTame):
            chordal_from_decomposition(d)


class TestDecompositionFromChordal:
    def test_complete_graph_is_a_single_bag(self):
        d = decomposition_from_chordal(complete_graph(5))
        assert len(d.bags) == 1
        assert d.bags[0] == FinSet(5)

    def test_completion_fixture_clique_tree(self, completion_h):
        d = decomposition_from_chordal(completion_h)
        assert len(d.bags) == 5
        assert sorted(b.size for b in d.bags) == [2, 3, 3, 3, 3]
        assert width(d) == 2
        assert is_isomorphic(chordal_from_decomposition(d), completion_h)

    def test_round_trip_on_generated_chordal_graphs(self):
        rng = random.Random(37)
        for _ in range(60):
            h = random_chordal_graph(rng, 8)
            d = decomposition_from_chordal(h)
            assert is_isomorphic(chordal_from_decomposition(d), h)
            if h.vertices:
                assert max(b.size for b in d.bags) == clique_number_chordal(h)

    def test_disconnected_input_yields_forest(self):
        h = Graph(5, [(0, 1), (1, 2), (0, 2)])  # triangle plus two isolated vertices
        d = decomposition_from_chordal(h)
        assert len(d.bags) == 3
        assert is_isomorphic(chordal_from_decomposition(d), h)

    def test_not_chordal_rejected(self):
        with pytest.raises(NotChordal):
            decomposition_from_chordal(cycle(4))

    def test_maximal_cliques(self, completion_h):
        assert maximal_cliques_chordal(completion_h) == [
            (0, 1, 3),
            (1, 2, 3),
            (3, 4),
            (4, 5, 7),
            (5, 6, 7),
        ]

    def test_cliques_and_tree_equal_the_pairwise_oracle(self, completion_h):
        rng = random.Random(53)
        graphs = [random_chordal_graph(rng, 12) for _ in range(120)]
        graphs += [g for g in (random_graph(rng, 9, p) for p in (0.1, 0.2, 0.8) for _ in range(60)) if is_chordal(g)]
        graphs += [Graph(n) for n in range(4)] + [path(7), complete_graph(6), completion_h]
        graphs += [Graph(7, [(0, v) for v in range(1, 7)]), disjoint_union(complete_graph(4), path(3))]
        assert sum(len(maximal_cliques_chordal(g)) > 2 for g in graphs) > 100
        for g in graphs:
            assert maximal_cliques_chordal(g) == maximal_cliques_by_pairs(g), g
            got, expected = decomposition_from_chordal(g), clique_tree_by_pairs(g)
            assert decomposition_to_json(got) == decomposition_to_json(expected), g

    def test_clique_tree_on_8000_isolated_vertices_in_a_child_process(self, tmp_path):
        # comparing every pair of the 8000 one-vertex cliques
        # (clique_tree_by_pairs) took about 15 s on this input in a child
        # process on 2 cores
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps({"vertices": 8000, "edges": []}))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sdkit", "clique-tree", "-g", str(graph_file)], capture_output=True, text=True
        )
        wall = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["bags"] == [{"size": 1}] * 8000 and out["adhesions"] == []
        assert wall < 1.0, wall


class TestTreeDecompositionCheck:
    def test_fixture_decomposition(self, td_example_g, td_example):
        assert is_tree_decomposition(td_example_g, td_example)

    def test_fixture_with_supplied_labeling(self, td_example_g, td_example_bags):
        shape, bag_sets = td_example_bags
        d, labeling = decomposition_from_vertex_bags(td_example_g, shape, bag_sets)
        assert is_tree_decomposition(td_example_g, d, labeling)

    def test_dropping_a_bag_vertex_breaks_connectivity(self, td_example_g, td_example_bags):
        shape, bag_sets = td_example_bags
        damaged = [list(b) for b in bag_sets]
        damaged[3] = [4, 6]  # remove vertex 3 from the {3,4,6} bag
        d, labeling = decomposition_from_vertex_bags(td_example_g, shape, damaged)
        assert not is_tree_decomposition(td_example_g, d, labeling)
        assert not is_tree_decomposition(td_example_g, d)

    def test_whole_graph_as_single_bag(self):
        g = cycle(5)
        d = StructuredDecomposition(Graph(1), GRAPH, (g,), ())
        assert is_tree_decomposition(g, d)

    def test_uncovered_edge_fails(self):
        g = complete_graph(3)
        d, labeling = decomposition_from_vertex_bags(g, Graph(2, [(0, 1)]), [[0, 1], [1, 2]])
        assert not is_tree_decomposition(g, d, labeling)

    def test_under_identified_adhesion_fails(self):
        g = path(3)
        bags = (g.induced_subgraph([0, 1]), g.induced_subgraph([1, 2]))
        empty_adh = Adhesion(
            (0, 1),
            Span(GraphMorphism(Graph(0), bags[0], ()), GraphMorphism(Graph(0), bags[1], ())),
        )
        d = StructuredDecomposition(Graph(2, [(0, 1)]), GRAPH, bags, (empty_adh,))
        assert not is_tree_decomposition(g, d, ((0, 1), (1, 2)))

    def test_a_labeling_that_is_not_a_list_of_lists_reads_as_none(self):
        g, d, labeling = ladder(3)
        assert is_tree_decomposition(g, d, labeling)
        for bad in ([labeling[0], 5], 5, "ab", [labeling[0], "ab"], {0: labeling[0]}):
            assert tree_decomposition_reading(g, d, bad) is None, bad
            assert tree_decomposition_by_conditions(g, d, bad) is None, bad

    def test_reading_equals_the_condition_by_condition_oracle(self):
        rng = random.Random(20260901)
        outcomes = Counter()
        for _ in range(2400):
            g, d, labeling = _reading_case(rng)
            for supplied in (labeling, None):
                reading = tree_decomposition_reading(g, d, supplied)
                assert reading == tree_decomposition_by_conditions(g, d, supplied), (g, d, supplied)
                outcomes[supplied is None, reading is not None] += 1
        # with a labeling and through the colimit, both accepted and rejected
        assert min(outcomes.values()) > 500 and len(outcomes) == 4, outcomes

    def test_a_labeling_that_sends_an_edge_to_a_non_edge_fails(self):
        # a bijection between graphs of equal counts, sending 0-1 to 0-2
        from sdkit.solver import MAX_EDGES, PATHS, solve_on_graph

        g = path(3)
        d = StructuredDecomposition(Graph(1), GRAPH, (g,), ())
        assert not is_tree_decomposition(g, d, [[0, 2, 1]])
        with pytest.raises(NotATreeDecomposition):
            solve_on_graph(g, d, PATHS, MAX_EDGES, [[0, 2, 1]])

    def test_a_colimit_not_isomorphic_to_g_fails(self):
        # C6 read against two disjoint triangles: six vertices and six edges
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        d = StructuredDecomposition(Graph(1), GRAPH, (cycle(6),), ())
        assert is_tree_decomposition(cycle(6), d)
        assert not is_tree_decomposition(two_triangles, d)

    def test_relabeled_graph_over_the_isomorphism_cap_is_too_large(self):
        d, _, relabeled = grid_path_decomposition()
        with pytest.raises(TooLarge, match="supply a labeling"):
            is_tree_decomposition(relabeled, d)

    def test_colimit_numbering_needs_no_search(self, monkeypatch):
        d, glued, _ = grid_path_decomposition()

        def no_search(*args):
            raise AssertionError("an isomorphism search ran")

        # sdkit.width names the width() function, so patch through sys.modules
        monkeypatch.setattr(sys.modules["sdkit.width"], "find_isomorphism", no_search)
        assert is_tree_decomposition(glued, d)


def _elimination_bags(rng, g):
    """(shape, bag vertex sets) of a tree decomposition of g, read off a
    random elimination order: bag v holds v and its later neighbours in the
    filled graph, and hangs below the bag of the first of them."""
    order = list(range(g.vertices))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    nbrs = g.neighbor_sets()
    bag_sets, shape_edges = [], []
    for v in order:
        later = {u for u in nbrs[v] if pos[u] > pos[v]}
        bag_sets.append(sorted({v} | later))
        for a, b in itertools.combinations(later, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
        if later:
            shape_edges.append((pos[v], min(pos[u] for u in later)))
    return Graph(g.vertices, shape_edges), bag_sets


def _without_bag_edge(d, i, e):
    """d with edge e deleted from bag i and from every adhesion apex it
    no longer lies under in both bags."""
    bags = list(d.bags)
    bags[i] = Graph(bags[i].vertices, bags[i].edges - {e})
    adhesions = []
    for a in d.adhesions:
        (u, v), left, right = a.edge, a.span.left, a.span.right
        kept = [
            (x, y)
            for x, y in left.dom.edges
            if bags[u].has_edge(left(x), left(y)) and bags[v].has_edge(right(x), right(y))
        ]
        apex = Graph(left.dom.vertices, kept)
        adhesions.append(Adhesion(a.edge, Span(
            GraphMorphism(apex, bags[u], left.mapping), GraphMorphism(apex, bags[v], right.mapping)
        )))
    return StructuredDecomposition(d.shape, GRAPH, tuple(bags), tuple(adhesions))


MUTATIONS = (
    "none", "extra_g_edge", "drop_bag_vertex", "add_bag_vertex", "random_bags",
    "cyclic_shape", "drop_bag_edge", "relabel_entry", "swap_entries", "bool_entry",
    "short_bag_label", "missing_bag_label", "int_bag_label", "int_labeling",
)


def _reading_case(rng):
    """(g, d, labeling): a random graph on at most 8 vertices with
    a tree decomposition of it, broken in one way or left intact, and then
    relabeled half the time."""
    g = random_graph(rng, 8, p=rng.choice((0.2, 0.4, 0.7)))
    n = g.vertices
    shape, bag_sets = _elimination_bags(rng, g)
    mutation = rng.choice(MUTATIONS)
    if mutation == "random_bags":
        shape = random_tree_shape(rng, 5)
        bag_sets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(shape.vertices)]
    elif mutation == "cyclic_shape" and shape.vertices > 2:
        missing = [e for e in itertools.combinations(range(shape.vertices), 2) if e not in shape.edges]
        shape = Graph(shape.vertices, list(shape.edges) + [rng.choice(missing)])
    elif mutation == "drop_bag_vertex" and shape.vertices:
        i = rng.randrange(shape.vertices)
        bag_sets[i] = bag_sets[i][1:] if rng.random() < 0.5 else bag_sets[i][:-1]
    elif mutation == "add_bag_vertex" and shape.vertices:
        rng.choice(bag_sets).append(rng.randrange(n))
    d, labeling = decomposition_from_vertex_bags(g, shape, bag_sets)
    labeling = [list(lab) for lab in labeling]
    located = [(i, b) for i, lab in enumerate(labeling) for b in range(len(lab))]
    if mutation == "extra_g_edge" and len(g.edges) < n * (n - 1) // 2:
        missing = [e for e in itertools.combinations(range(n), 2) if e not in g.edges]
        g = Graph(n, list(g.edges) + [rng.choice(missing)])
    elif mutation == "drop_bag_edge":
        bag_edges = [(i, e) for i, bag in enumerate(d.bags) for e in sorted(bag.edges)]
        if bag_edges:
            d = _without_bag_edge(d, *rng.choice(bag_edges))
    elif mutation == "relabel_entry" and located:
        i, b = rng.choice(located)
        labeling[i][b] = rng.randrange(-1, n + 1)
    elif mutation == "swap_entries":
        long_bags = [lab for lab in labeling if len(lab) > 1]
        if long_bags:
            lab = rng.choice(long_bags)
            b, b2 = rng.sample(range(len(lab)), 2)
            lab[b], lab[b2] = lab[b2], lab[b]
    elif mutation == "bool_entry" and located:
        i, b = rng.choice(located)
        labeling[i][b] = bool(labeling[i][b])
    elif mutation == "short_bag_label" and located:
        rng.choice([lab for lab in labeling if lab]).pop()
    elif mutation == "missing_bag_label" and labeling:
        labeling.pop()
    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        labeling = [[perm[x] if is_json_int(x) and 0 <= x < n else x for x in lab] for lab in labeling]
    # labelings that are not a list of lists
    if mutation == "int_bag_label" and labeling:
        labeling[rng.randrange(len(labeling))] = 5
    elif mutation == "int_labeling":
        labeling = 5
    return g, d, labeling


class TestWidth:
    def test_fixture_width(self, td_example):
        assert width(td_example) == 2

    def test_single_point_bag(self):
        assert width(StructuredDecomposition(Graph(1), GRAPH, (complete_graph(1),), ())) == 0

    def test_finset_decomposition_width(self, completion_dh):
        assert width(completion_dh) == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyDecomposition):
            width(StructuredDecomposition(Graph(0), FINSET, (), ()))


class TestTreewidth:
    def test_edgeless(self):
        for n in (1, 5, 12):
            assert treewidth_exact(Graph(n)) == 0

    def test_trees(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(2, 12)
            tree = Graph(n, [(rng.randrange(i), i) for i in range(1, n)])
            assert treewidth_exact(tree) == 1

    def test_cycles(self):
        for n in range(3, 11):
            assert treewidth_exact(cycle(n)) == 2

    def test_complete(self):
        for n in range(2, 9):
            assert treewidth_exact(complete_graph(n)) == n - 1

    def test_fixture_graph(self, td_example_g):
        assert treewidth_exact(td_example_g) == 2

    def test_grid_matches_exhaustive_order_enumeration(self):
        g = grid(3, 3)
        assert treewidth_exact(g) == 3
        assert treewidth_by_all_orders(g) == 3

    def test_matches_exhaustive_enumeration_on_small_graphs(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 6)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph(n, edges)
            assert treewidth_exact(g) == treewidth_by_all_orders(g)

    def test_matches_subset_search_on_every_graph_up_to_six_vertices(self):
        for n in range(7):
            for g in graphs_up_to_iso(n):
                for h in (g, complement(g)):
                    assert treewidth_exact(h) == treewidth_by_subsets(h), h

    def test_matches_subset_search_on_random_graphs(self):
        rng = random.Random(44)
        for density in (0.3, 0.5, 0.7):
            for _ in range(20):
                g = random_graph(rng, 12, density, min_n=7)
                assert treewidth_exact(g) == treewidth_by_subsets(g), g

    def test_search_below_the_min_fill_bound(self):
        # Found by a random.Random(0) search over n = 5..10. Neither graph
        # has a simplicial vertex, so the bounds below are the search's own:
        # the min-fill bound is beaten once and the next width fails.
        graphs = (
            Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (0, 8), (1, 2), (1, 3), (1, 5),
                      (1, 6), (1, 7), (1, 8), (2, 3), (2, 5), (2, 8), (3, 4), (3, 5), (3, 7),
                      (4, 5), (4, 6), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8)]),
            Graph(10, [(0, 1), (0, 3), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 3), (1, 8),
                       (2, 3), (2, 7), (2, 8), (3, 4), (3, 5), (3, 7), (3, 8), (4, 6), (4, 8),
                       (4, 9), (5, 6), (5, 9), (6, 8), (7, 9)]),
        )
        for g in graphs:
            adj = dict(enumerate(g.neighbor_sets()))
            assert not any(
                all(b in adj[a] for a, b in itertools.combinations(sorted(adj[v]), 2)) for v in adj
            )
            tw = treewidth_by_subsets(g)
            nbrs = [sum(1 << u for u in adj[v]) for v in range(g.vertices)]
            assert degeneracy(nbrs) < tw < _min_fill_width(nbrs)
            assert treewidth_exact(g) == tw
            # from the trivial bounds the search steps down n - 1 - tw times
            assert _min_elimination_cost(nbrs, lambda bag: bag.bit_count() - 1, 0, g.vertices) == tw

    def test_minor_min_width_is_a_lower_bound(self):
        graphs = [h for n in range(7) for g in graphs_up_to_iso(n) for h in (g, complement(g))]
        rng = random.Random(59)
        graphs += [random_graph(rng, 11, density, min_n=6) for density in (0.2, 0.4, 0.6, 0.8) for _ in range(15)]
        raised = 0
        for g in graphs:
            nbrs = [sum(1 << u for u in nb) for nb in g.neighbor_sets()]
            assert _minor_min_width(nbrs) <= treewidth_by_subsets(g), g
            raised += _minor_min_width(nbrs) > degeneracy(nbrs)
        assert raised > 10

    def test_bounds_equal_their_references(self):
        for g in bound_graphs():
            nbrs = [sum(1 << u for u in nb) for nb in g.neighbor_sets()]
            assert _min_fill_width(nbrs) == min_fill_width_by_keys(nbrs), g
            assert _minor_min_width(nbrs) == minor_min_width_by_keys(nbrs), g

    def test_minor_min_width_is_never_below_the_degeneracy(self):
        # why treewidth_exact needs no degeneracy bound of its own
        graphs = [h for n in range(8) for g in graphs_up_to_iso(n) for h in (g, complement(g))]
        rng = random.Random(61)
        graphs += [random_graph(rng, 16, rng.random(), min_n=2) for _ in range(3000)]
        for g in graphs:
            nbrs = [sum(1 << u for u in nb) for nb in g.neighbor_sets()]
            assert _minor_min_width(nbrs) >= degeneracy(nbrs), g

    def test_grids_meet_the_min_fill_bound_without_a_search(self, monkeypatch):
        for (rows, cols), tw in {(3, 3): 3, (3, 4): 3, (4, 4): 4, (4, 5): 4}.items():
            nbrs = [sum(1 << u for u in nb) for nb in grid(rows, cols).neighbor_sets()]
            assert degeneracy(nbrs) == 2
            assert _minor_min_width(nbrs) == _min_fill_width(nbrs) == tw
        def refuse(*args):
            raise AssertionError("searched elimination orders")

        # sdkit.width, the module (the package exports a width() function)
        monkeypatch.setattr(sys.modules["sdkit.width"], "_min_elimination_cost", refuse)
        assert treewidth_exact(grid(3, 4)) == 3 and treewidth_exact(grid(3, 3)) == 3

    def test_cap(self):
        with pytest.raises(TooLarge):
            treewidth_exact(Graph(13))

    def test_chordal_supergraph_equation_up_to_four_vertices(self):
        for n in range(1, 5):
            for g in all_graphs_labeled(n):
                missing = [e for e in itertools.combinations(range(n), 2) if e not in g.edges]
                best = None
                for extra in itertools.chain.from_iterable(
                    itertools.combinations(missing, r) for r in range(len(missing) + 1)
                ):
                    h = Graph(n, list(g.edges) + list(extra))
                    if is_chordal(h):
                        omega = clique_number_chordal(h)
                        best = omega if best is None else min(best, omega)
                assert treewidth_exact(g) + 1 == best


class TestComplementedTreewidth:
    def test_discrete(self):
        for n in range(1, 8):
            assert complemented_treewidth(discrete_graph(n)) == n - 1

    def test_complete(self):
        for n in range(1, 8):
            assert complemented_treewidth(complete_graph(n)) == 0

    def test_five_cycle(self):
        assert complemented_treewidth(cycle(5)) == 2

    def test_equals_the_tree_width_of_the_complement(self):
        for g in bound_graphs():
            assert complemented_treewidth(g) == treewidth_exact(complement(g)), g

    def test_cap_is_checked_before_the_neighbour_masks_are_built(self, monkeypatch):
        def fail(g):
            raise AssertionError("neighbour masks built past the cap")

        # the module, not the sdkit.width function the package exports
        monkeypatch.setattr(importlib.import_module("sdkit.width"), "_neighbour_masks", fail)
        with pytest.raises(TooLarge, match=f"limited to {TREEWIDTH_CAP} vertices"):
            complemented_treewidth(Graph(TREEWIDTH_CAP + 1))


class TestCompletionYieldsDecomposition:
    def test_restricted_clique_tree_is_a_tree_decomposition(self):
        rng = random.Random(47)
        for _ in range(25):
            h = random_chordal_graph(rng, 8)
            d = decomposition_from_chordal(h)
            completed = map_decomposition(COMPLETE, d)
            glued, _ = evaluate_colimit(completed)
            keep = sorted(v for v in range(glued.vertices) if rng.random() < 0.8)
            index = {v: i for i, v in enumerate(keep)}
            sub_edges = [
                (index[u], index[v])
                for u, v in glued.edges
                if u in index and v in index and rng.random() < 0.8
            ]
            sub = Graph(len(keep), sub_edges)
            delta = GraphMorphism(sub, glued, tuple(keep))
            restricted, _ = restrict_decomposition(completed, delta)
            assert is_tree_decomposition(sub, restricted)
            if restricted.bags:
                assert width(restricted) <= width(d)


class TestLayering:
    def test_layer_join_two_points(self):
        assert layer_join([complete_graph(1)] * 2) == complete_graph(2)

    def test_layer_join_three_points_is_a_path(self):
        assert layer_join([complete_graph(1)] * 3) == path(3)

    def test_layer_join_two_edges_is_k4(self):
        assert layer_join([complete_graph(2)] * 2) == complete_graph(4)

    def test_layer_join_does_not_preserve_general_pushouts(self):
        # Minimal witness: gluing (K1, empty) and (empty, K1) over the empty
        # sequence gives levelwise (K1, K1), whose join is K2; joining first
        # gives two single-vertex graphs whose pushout stays edgeless. The
        # cross-level join edge between vertices private to different feet
        # exists on one side only, so the join functor is not cocontinuous.
        left = (complete_graph(1), Graph(0))
        right = (Graph(0), complete_graph(1))
        apex = (Graph(0), Graph(0))
        spans = [
            Span(
                GraphMorphism(apex[i], left[i], ()),
                GraphMorphism(apex[i], right[i], ()),
            )
            for i in range(2)
        ]
        joined_span = Span(
            layer_join_on_morphisms([s.left for s in spans]),
            layer_join_on_morphisms([s.right for s in spans]),
        )
        joined_then_pushed, _ = pushout(joined_span)
        pushed_then_joined = layer_join([pushout(s)[0] for s in spans])
        assert pushed_then_joined == complete_graph(2)
        assert joined_then_pushed == discrete_graph(2)

    def test_layer_join_preserves_pushouts_of_aligned_spans(self):
        # When the apex spans the left foot's vertices at every level, no
        # vertex is private to one foot on a level boundary and the join
        # commutes with gluing.
        rng = random.Random(53)
        for _ in range(40):
            length = rng.randint(1, 2)
            spans = []
            for _ in range(length):
                n = rng.randint(0, 2)
                apex_edges = [
                    e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5
                ]
                apex = Graph(n, apex_edges)
                left_foot = Graph(
                    n,
                    apex_edges
                    + [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5],
                )
                m = rng.randint(n, n + 2)
                into_right = sorted(rng.sample(range(m), n))
                right_edges = [
                    (into_right[u], into_right[v]) for u, v in apex_edges
                ] + [e for e in itertools.combinations(range(m), 2) if rng.random() < 0.4]
                right_foot = Graph(m, right_edges)
                spans.append(
                    Span(
                        GraphMorphism(apex, left_foot, tuple(range(n))),
                        GraphMorphism(apex, right_foot, tuple(into_right)),
                    )
                )
            joined_span = Span(
                layer_join_on_morphisms([s.left for s in spans]),
                layer_join_on_morphisms([s.right for s in spans]),
            )
            joined_then_pushed, _ = pushout(joined_span)
            pushed_then_joined = layer_join([pushout(s)[0] for s in spans])
            assert is_isomorphic(joined_then_pushed, pushed_then_joined)

    def test_json_round_trip(self):
        layering = Layering([[3, 0], [], [2, 1]])
        data = json.loads(json.dumps(layering.to_json()))
        assert data == {"layers": [[0, 3], [], [1, 2]]}
        assert Layering.from_json(data) == layering

    def test_is_layering(self):
        g = path(3)
        assert is_layering(g, Layering([[0], [1], [2]]))
        assert not is_layering(g, Layering([[0], [1]]))
        assert not is_layering(g, Layering([[0], [2], [1]]))
        assert not is_layering(g, Layering([[0, 1], [1, 2]]))

    def test_layered_width_of_path_with_singleton_layers(self):
        g = path(3)
        d, _ = decomposition_from_vertex_bags(g, Graph(2, [(0, 1)]), [[0, 1], [1, 2]])
        assert layered_width(g, Layering([[0], [1], [2]]), d) == 1

    def test_single_layer_degenerates_to_max_bag_size(self):
        g = path(3)
        d, _ = decomposition_from_vertex_bags(g, Graph(2, [(0, 1)]), [[0, 1], [1, 2]])
        assert layered_width(g, Layering([[0, 1, 2]]), d) == 2

    def test_layered_width_rejects_bad_inputs(self):
        g = path(3)
        d, _ = decomposition_from_vertex_bags(g, Graph(2, [(0, 1)]), [[0, 1], [1, 2]])
        with pytest.raises(NotALayering):
            layered_width(g, Layering([[0], [1]]), d)
        k3 = complete_graph(3)
        d_bad, lab = decomposition_from_vertex_bags(k3, Graph(2, [(0, 1)]), [[0, 1], [1, 2]])
        with pytest.raises(NotATreeDecomposition):
            layered_width(k3, Layering([[0, 1, 2]]), d_bad, lab)

    def test_exact_layered_treewidth_small_values(self):
        assert layered_treewidth_exact(complete_graph(1)) == 1
        assert layered_treewidth_exact(complete_graph(3)) == 2
        assert layered_treewidth_exact(complete_graph(4)) == 2
        assert layered_treewidth_exact(path(4)) == 1

    def test_exact_layered_treewidth_matches_all_orders_up_to_five_vertices(self):
        for n in range(6):
            for g in graphs_up_to_iso(n):
                expected = layered_treewidth_by_all_orders(g)
                assert layered_treewidth_exact(g) == expected, g
                assert layered_treewidth_by_partitions(g) == expected, g

    def test_exact_layered_treewidth_on_six_vertices(self):
        assert layered_treewidth_exact(path(6)) == 1
        assert layered_treewidth_exact(complete_graph(6)) == 3
        for g in graphs_up_to_iso(6):
            expected = layered_treewidth_by_partitions(g)
            assert layered_treewidth_exact(g) == expected, g
            assert layered_treewidth_by_all_orders(g) == expected, g

    def test_exact_layered_treewidth_matches_partitions_on_seven_vertices(self):
        rng = random.Random(47)
        for density in (0.3, 0.5, 0.7):
            g = random_graph(rng, 7, density, min_n=7)
            assert layered_treewidth_exact(g) == layered_treewidth_by_partitions(g), g

    def test_a_pendant_path_costs_no_search(self):
        # a bipartite core of width 2 with 37,544 level functions as a whole
        # graph; its blocks are the core and bridges
        core = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4)]
        g = Graph(12, core + [(5, 6)] + [(i, i + 1) for i in range(6, 11)])
        started = time.perf_counter()
        assert layered_treewidth_exact(g) == 2
        assert time.perf_counter() - started < 0.5

    def test_blocks_combine_at_cut_vertices(self):
        # a triangle and a K4 that share vertex 2, and a pendant edge off the
        # K4, against the partition oracle on the whole graph
        k4 = [(u, v) for u, v in itertools.combinations((2, 3, 4, 5), 2)]
        g = Graph(7, [(0, 1), (1, 2), (0, 2)] + k4 + [(5, 6)])
        assert layered_treewidth_exact(g) == layered_treewidth_by_partitions(g) == 2

    def test_exact_layered_treewidth_cap(self):
        assert layered_treewidth_exact(Graph(LAYERED_CAP)) == 1
        with pytest.raises(TooLarge):
            layered_treewidth_exact(Graph(LAYERED_CAP + 1))

    def test_odd_cycles_need_two_vertices_of_a_layer_in_a_bag(self):
        for n in (5, 7, 9):
            assert layered_treewidth_exact(cycle(n)) == 2, n
        assert layered_treewidth_by_all_orders(cycle(5)) == 2
        assert layered_treewidth_by_partitions(cycle(7)) == 2

    def test_even_cycles_have_layered_treewidth_one(self):
        for n in (4, 6, 8, 10):
            assert layered_treewidth_exact(cycle(n)) == 1, n
        assert layered_treewidth_by_all_orders(cycle(4)) == 1
        assert layered_treewidth_by_all_orders(cycle(6)) == 1

    def test_disjoint_union_takes_the_larger_component(self):
        p3_k4 = disjoint_union(path(3), complete_graph(4))
        assert layered_treewidth_exact(p3_k4) == layered_treewidth_by_partitions(p3_k4) == 2
        assert layered_treewidth_by_all_orders(complete_graph(5)) == 3
        assert layered_treewidth_exact(disjoint_union(complete_graph(5), cycle(7))) == 3
        assert layered_treewidth_exact(disjoint_union(cycle(7), complete_graph(5))) == 3


def _bfs_layers(g):
    depth = {0: 0}
    queue = [0]
    for v in queue:
        for u in sorted(g.neighbor_sets()[v]):
            if u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    layers = [0] * (max(depth.values()) + 1)
    for v, d in depth.items():
        layers[d] |= 1 << v
    return tuple(layers)


def _connected_pieces(g):
    return [g.induced_subgraph(c) for c in connected_components(g)]


class TestLevelFunctions:
    def test_paths_have_one_function_per_reversal_pair_of_three_choices(self):
        for n in range(1, 9):
            assert sum(1 for _ in _level_functions(_masks(path(n)))) == (3 ** (n - 1) + 1) // 2

    def test_complete_graphs_split_into_two_adjacent_levels(self):
        for n in range(1, 8):
            assert sum(1 for _ in _level_functions(_masks(complete_graph(n)))) == 2 ** (n - 1)

    def test_first_function_is_the_bfs_layering(self):
        graphs = [g for n in range(1, 6) for g in graphs_up_to_iso(n)] + [grid(3, 4), cycle(9)]
        for g in graphs:
            for piece in _connected_pieces(g):
                assert next(_level_functions(_masks(piece))) == _bfs_layers(piece), piece

    def test_yields_the_accepted_partitions_up_to_reversal(self):
        for n in range(1, 6):
            for g in graphs_up_to_iso(n):
                for piece in _connected_pieces(g):
                    found = list(_level_functions(_masks(piece)))
                    canonical = {min(layers, layers[::-1]) for layers in found}
                    assert len(canonical) == len(found), piece
                    accepted = set()
                    for blocks in ordered_set_partitions(range(piece.vertices)):
                        if is_layering(piece, Layering(blocks)):
                            layers = tuple(sum(1 << v for v in b) for b in blocks)
                            accepted.add(min(layers, layers[::-1]))
                    assert canonical == accepted, piece


class TestHWidth:
    def _decomposition_with_triangle_bag(self):
        bags = (complete_graph(3), path(2))
        apex = complete_graph(1)
        adh = Adhesion(
            (0, 1),
            Span(GraphMorphism(apex, bags[0], (0,)), GraphMorphism(apex, bags[1], (0,))),
        )
        return StructuredDecomposition(Graph(2, [(0, 1)]), GRAPH, bags, (adh,))

    def test_everything_in_class_costs_nothing(self):
        d = self._decomposition_with_triangle_bag()
        assert h_width(d, lambda bag: True) == 0

    def test_triangle_bag_outside_bipartite_class(self):
        from sdkit import Subobject, predicate_bipartite

        d = self._decomposition_with_triangle_bag()
        in_bipartite = lambda bag: predicate_bipartite(
            Subobject(frozenset(range(bag.vertices)), bag.edges)
        )
        assert h_width(d, in_bipartite) == 3

    def test_nothing_in_class_recovers_max_bag_size(self):
        d = self._decomposition_with_triangle_bag()
        assert h_width(d, lambda bag: False) == 3
