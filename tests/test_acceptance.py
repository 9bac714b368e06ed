"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every check is exact; each criterion also carries a wall-clock
budget that is asserted after the content checks succeed.
"""
import contextlib
import itertools
import random
import time

from sdkit import (
    COMPLETE,
    FINSET,
    FinSet,
    GRAPH,
    Graph,
    GraphMorphism,
    Layering,
    MAX_EDGES,
    PATHS,
    BIPARTITE,
    PLANAR,
    Span,
    StructuredDecomposition,
    canonical_form,
    check_morphism,
    chordal_from_decomposition,
    clique_number_chordal,
    complete_graph,
    compose,
    decomposition_from_chordal,
    enumerate_subp_bruteforce,
    evaluate_colimit,
    from_arrow,
    is_chordal,
    is_isomorphic,
    is_tame,
    is_tree_decomposition,
    layer_join,
    layered_width,
    longest_path,
    map_decomposition,
    pushout,
    restrict_decomposition,
    solve_on_decomposition,
    to_arrow,
    treewidth_exact,
    width,
)
from sdkit.decomposition import Adhesion
from sdkit.solver import best_entry
from util import (
    _is_single_path,
    fs_adhesion,
    graphs_up_to_iso,
    random_chordal_graph,
    random_finset_decomposition,
    random_graph_decomposition,
    random_monic_graph_span,
    random_subgraph_mono,
)


@contextlib.contextmanager
def criterion(num: int, budget: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num:02d}] FAIL ({elapsed:.2f}s / budget {budget:.0f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num:02d}] PASS ({elapsed:.2f}s / budget {budget:.0f}s): {description}")
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_bowtie_longest_path(bowtie, bowtie_decomposition):
    with criterion(1, 1.0, "longest path on two glued triangles has exactly 4 edges"):
        value, witness, _ = longest_path(bowtie, bowtie_decomposition)
        assert value == 4
        assert _is_single_path(witness)
        assert witness.vertices == frozenset(range(5))
        assert all(e in bowtie.edges for e in witness.edges)


def test_criterion_02_completion_pipeline(completion_dh, completion_g, completion_h):
    with criterion(
        2, 1.0, "completing the 5-bag decomposition glues to the chordal completion; "
        "restriction yields a width-2 tree decomposition"
    ):
        completed = map_decomposition(COMPLETE, completion_dh)
        glued, _ = evaluate_colimit(completed)
        assert is_isomorphic(glued, completion_h)
        assert is_chordal(glued)
        delta = GraphMorphism(completion_g, glued, (0, 1, 3, 2, 4, 5, 7, 6))
        restricted, eta = restrict_decomposition(completed, delta)
        assert check_morphism(eta)
        assert is_tree_decomposition(completion_g, restricted)
        assert width(restricted) == 2


def test_criterion_03_treewidth_anchors():
    with criterion(3, 5.0, "tree-width anchors: edgeless 0, trees 1, cycles 2, cliques n-1"):
        for n in range(1, 13):
            assert treewidth_exact(Graph(n)) == 0
        rng = random.Random(303)
        for _ in range(8):
            n = rng.randint(2, 12)
            tree = Graph(n, [(rng.randrange(i), i) for i in range(1, n)])
            assert treewidth_exact(tree) == 1
        assert treewidth_exact(Graph(12, [(i, i + 1) for i in range(11)])) == 1
        for n in range(3, 11):
            cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
            assert treewidth_exact(cycle) == 2
        for n in range(2, 9):
            assert treewidth_exact(complete_graph(n)) == n - 1


def test_criterion_04_treewidth_equation_cross_check():
    with criterion(
        4, 60.0, "tree-width + 1 equals the least clique number over chordal "
        "supergraphs, exhaustively for |V| <= 5"
    ):
        for n in range(1, 6):
            for g in graphs_up_to_iso(n):
                missing = [
                    e for e in itertools.combinations(range(n), 2) if e not in g.edges
                ]
                best = None
                for r in range(len(missing) + 1):
                    for extra in itertools.combinations(missing, r):
                        h = Graph(n, list(g.edges) + list(extra))
                        if is_chordal(h):
                            omega = clique_number_chordal(h)
                            if best is None or omega < best:
                                best = omega
                assert treewidth_exact(g) + 1 == best


def test_criterion_05_compose_oracle_equivalence():
    with criterion(
        5, 120.0, "table composition equals brute force over the pushout for "
        "200 monic spans x 3 predicates, with exact pair counts"
    ):
        rng = random.Random(505)
        spans = [random_monic_graph_span(rng, 4) for _ in range(200)]
        for predicate in (PATHS, BIPARTITE, PLANAR):
            for span in spans:
                left = enumerate_subp_bruteforce(span.left.cod, predicate)
                right = enumerate_subp_bruteforce(span.right.cod, predicate)
                table = compose(span, left, right, predicate)
                glued, _ = pushout(span)
                oracle = enumerate_subp_bruteforce(glued, predicate)
                assert table.entries == oracle.entries
                assert table.op_counter == len(left.entries) * len(right.entries)


def test_criterion_06_fold_equivalence_and_rerooting():
    with criterion(
        6, 120.0, "decomposition folds match brute-force optima for 100 "
        "instances x 3 predicates and are root-independent"
    ):
        rng = random.Random(606)
        instances = []
        while len(instances) < 100:
            d = random_graph_decomposition(rng, 4, 4)
            glued, _ = evaluate_colimit(d)
            if glued.vertices > 7 or len(glued.edges) > 10:
                continue
            instances.append((d, glued))
        for predicate in (PATHS, BIPARTITE, PLANAR):
            for d, glued in instances:
                result = solve_on_decomposition(d, predicate, MAX_EDGES)
                oracle = enumerate_subp_bruteforce(glued, predicate)
                assert result.value == len(best_entry(oracle, MAX_EDGES).edges)
                assert result.table.entries == oracle.entries
                for root in range(d.shape.vertices):
                    rerooted = solve_on_decomposition(d, predicate, MAX_EDGES, root=root)
                    assert rerooted.table == result.table
                    assert rerooted.value == result.value


def test_criterion_07_chordal_correspondence():
    with criterion(
        7, 60.0, "200 completed tree decompositions glue to chordal graphs; "
        "100 chordal graphs round-trip through their clique trees"
    ):
        rng = random.Random(707)
        for _ in range(200):
            d = random_finset_decomposition(rng, 5, 4)
            glued = chordal_from_decomposition(d)
            assert is_chordal(glued)
        for _ in range(100):
            h = random_chordal_graph(rng, 8)
            d = decomposition_from_chordal(h)
            back = chordal_from_decomposition(d)
            assert is_isomorphic(back, h)
            if h.vertices:
                assert max(b.size for b in d.bags) == clique_number_chordal(h)


def test_criterion_08_restriction_suite():
    with criterion(
        8, 60.0, "100 restrictions along random subgraph inclusions return "
        "tame same-shape decompositions gluing back to the subgraph"
    ):
        rng = random.Random(808)
        done = 0
        while done < 100:
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
            done += 1


def _exhaustive_round_trip_family():
    """Shapes on <= 3 vertices; bag sizes <= 3 (<= 2 once a shape has more
    than one edge); adhesions range over all sets of distinct leg-image
    pairs (<= 2 per multi-edge shape)."""
    shapes = [Graph(0), Graph(1), Graph(2), Graph(2, [(0, 1)]), Graph(3)]
    shapes += [Graph(3, edges) for edges in (
        [(0, 1)], [(0, 2)], [(1, 2)],
        [(0, 1), (0, 2)], [(0, 1), (1, 2)], [(0, 2), (1, 2)],
        [(0, 1), (0, 2), (1, 2)],
    )]
    for shape in shapes:
        edges = sorted(shape.edges)
        max_size = 3 if len(edges) <= 1 else 2
        for sizes in itertools.product(range(max_size + 1), repeat=shape.vertices):
            bags = tuple(FinSet(s) for s in sizes)
            per_edge = []
            for u, v in edges:
                pairs = list(itertools.product(range(sizes[u]), range(sizes[v])))
                options = []
                for r in range(len(pairs) + 1):
                    options.extend(itertools.combinations(pairs, r))
                per_edge.append(options)
            for choice in itertools.product(*per_edge):
                adhesions = tuple(
                    fs_adhesion(edges[i], list(choice[i]), bags[edges[i][0]], bags[edges[i][1]])
                    for i in range(len(edges))
                )
                yield StructuredDecomposition(shape, FINSET, bags, adhesions)


def test_criterion_09_arrow_round_trip():
    with criterion(
        9, 10.0, "to_arrow/from_arrow is the identity on an exhaustive family "
        "of small finite-set decompositions"
    ):
        count = 0
        for d in _exhaustive_round_trip_family():
            assert from_arrow(to_arrow(d)) == canonical_form(d)
            count += 1
        assert count > 10000


def test_criterion_10_layered_width():
    with criterion(
        10, 1.0, "layer join of two points is an edge; singleton layers give "
        "width 1 on the path; one layer recovers max bag size"
    ):
        assert layer_join([complete_graph(1), complete_graph(1)]) == complete_graph(2)
        p3 = Graph(3, [(0, 1), (1, 2)])
        bags = (p3.induced_subgraph([0, 1]), p3.induced_subgraph([1, 2]))
        apex = Graph(1)
        adh = Adhesion(
            (0, 1),
            Span(GraphMorphism(apex, bags[0], (1,)), GraphMorphism(apex, bags[1], (0,))),
        )
        d = StructuredDecomposition(Graph(2, [(0, 1)]), GRAPH, bags, (adh,))
        assert layered_width(p3, Layering([[0], [1], [2]]), d) == 1
        assert layered_width(p3, Layering([[0, 1, 2]]), d) == 2
        assert layered_width(p3, Layering([[0, 1, 2]]), d) == max(
            b.vertices for b in d.bags
        )
