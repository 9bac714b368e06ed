import collections
import dataclasses
import itertools
import json
import pathlib
import random
import subprocess
import sys
import time

import networkx as nx
import pytest

from sdkit import (
    BIPARTITE,
    BoundaryRule,
    GRAPH,
    Graph,
    GraphMorphism,
    MAX_EDGES,
    MAX_VERTICES,
    MIN_EDGES,
    NonMonicSpan,
    NonTreeShape,
    NotATreeDecomposition,
    Objective,
    PATHS,
    PLANAR,
    PropertyPredicate,
    Span,
    StructuredDecomposition,
    SubPTable,
    Subobject,
    TooLarge,
    ValidationError,
    complete_graph,
    compose,
    compose_optimize,
    decomposition_from_vertex_bags,
    decomposition_to_json,
    enumerate_subp_bruteforce,
    evaluate_colimit,
    longest_path,
    max_bipartite_subgraph,
    max_planar_subgraph,
    predicate_bipartite,
    predicate_paths,
    predicate_planar,
    pushout,
    solve,
    solve_on_decomposition,
)
from sdkit.decomposition import Adhesion
from sdkit.solver import (
    EMPTY_SUBOBJECT,
    _LONGEST_PATH,
    _PowerSet,
    _accepted_edge_sets,
    _best_in_family,
    _compose_entries,
    _entry_count,
    _listed,
    _solvable_colimit,
    _solve_at_boundary,
    best_entry,
    translate_subobject,
)
from util import (
    BUDGET_MIB,
    BUDGET_S,
    CHILD,
    _boundary_summary,
    _is_single_path,
    all_subobjects,
    block_chain,
    child_peak_mib,
    graphs_up_to_iso,
    grid,
    ladder,
    longest_single_path,
    random_graph,
    random_graph_decomposition,
    random_monic_graph_span,
    subp_by_all_pairs,
    summary_leaf_calls,
)

K1, K3, K5 = complete_graph(1), complete_graph(3), complete_graph(5)


def bowtie_span():
    return Span(GraphMorphism(K1, K3, (1,)), GraphMorphism(K1, K3, (0,)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def whole(g):
    return Subobject(frozenset(range(g.vertices)), g.edges)


def random_subobject(rng, g):
    verts = frozenset(v for v in range(g.vertices) if rng.random() < 0.7)
    edges = frozenset(
        e for e in g.edges if e[0] in verts and e[1] in verts and rng.random() < 0.7
    )
    return Subobject(verts, edges)


def nx_planar(sub):
    h = nx.Graph()
    h.add_nodes_from(sub.vertices)
    h.add_edges_from(sub.edges)
    return nx.check_planarity(h)[0]


def kuratowski_gluings():
    """K5 and K3,3, whole or less one edge, plain or with every edge
    subdivided, each with planar blocks hung off it at cut vertices: a
    triangle at 0, a K4 at 1 with a 4-cycle off the K4, a pendant path at 2
    and a second copy of the core at 3."""
    out = []
    for core in (K5.edge_list(), [(i, 3 + j) for i in range(3) for j in range(3)]):
        for edges in (core, core[1:]):
            for subdivided in (False, True):
                n = 6 if len(core) == 9 else 5
                if subdivided:
                    split = []
                    for u, v in edges:
                        split += [(u, n), (v, n)]
                        n += 1
                    edges = split
                base = n
                blocks = [(0, n), (0, n + 1), (n, n + 1)]
                blocks += itertools.combinations([1, n + 2, n + 3, n + 4], 2)
                blocks += [(n + 4, n + 5), (n + 5, n + 6), (n + 6, n + 7), (n + 7, n + 4)]
                blocks += [(2, n + 8), (n + 8, n + 9)]
                n += 10
                copy = {v: n + v - 1 for v in range(1, base)} | {0: 3}
                blocks += [(copy[u], copy[v]) for u, v in edges]
                n += base - 1
                out.append(Graph(n, list(edges) + blocks))
    return out


PLANARITY_FAMILIES = {
    "up to iso, n <= 7": lambda: [g for n in range(8) for g in graphs_up_to_iso(n)],
    "Kuratowski gluings": kuratowski_gluings,
    "3 x k grids": lambda: [grid(3, k) for k in range(1, 11)] + [grid(3, 8, diagonals=True)],
}


class TestPredicates:
    def test_single_vertex_satisfies_everything(self):
        sub = Subobject(frozenset({0}), frozenset())
        assert predicate_paths(sub)
        assert predicate_bipartite(sub)
        assert predicate_planar(sub)

    def test_empty_satisfies_everything(self):
        assert predicate_paths(EMPTY_SUBOBJECT)
        assert predicate_bipartite(EMPTY_SUBOBJECT)
        assert predicate_planar(EMPTY_SUBOBJECT)

    def test_triangle(self):
        sub = whole(K3)
        assert not predicate_paths(sub)
        assert not predicate_bipartite(sub)
        assert predicate_planar(sub)

    def test_k5_and_k33_are_not_planar(self):
        assert not predicate_planar(whole(K5))
        k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        assert not predicate_planar(whole(k33))

    def test_k5_minus_an_edge_is_planar(self):
        edges = set(K5.edges) - {(0, 1)}
        assert predicate_planar(Subobject(frozenset(range(5)), frozenset(edges)))

    def test_subdivided_k5_is_caught(self):
        # split each edge of K5 with a midpoint: 15 vertices, Euler bound passes
        edges = []
        mid = 5
        for u, v in sorted(K5.edges):
            edges.append((u, mid))
            edges.append((v, mid))
            mid += 1
        sub = Subobject(frozenset(range(mid)), frozenset(edges))
        assert not predicate_planar(sub)

    def test_petersen_graph_is_not_planar(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        petersen = Graph(10, outer + inner + spokes)
        assert not predicate_planar(whole(petersen))

    def test_agrees_with_networkx_on_random_subobjects(self):
        rng = random.Random(61)
        for _ in range(300):
            g = random_graph(rng, 7, p=0.5)
            sub = random_subobject(rng, g)
            h = nx.Graph()
            h.add_nodes_from(sub.vertices)
            h.add_edges_from(sub.edges)
            assert predicate_bipartite(sub) == nx.is_bipartite(h)
            assert predicate_planar(sub) == nx.check_planarity(h)[0]
            expected_paths = nx.is_forest(h) if h.nodes else True
            expected_paths = expected_paths and all(d <= 2 for _, d in h.degree)
            assert predicate_paths(sub) == expected_paths

    @pytest.mark.parametrize("family", sorted(PLANARITY_FAMILIES))
    def test_planar_agrees_with_networkx(self, family):
        for g in PLANARITY_FAMILIES[family]():
            sub = whole(g)
            start = time.perf_counter()
            verdict = predicate_planar(sub)
            assert time.perf_counter() - start < 0.05, g
            assert verdict == nx_planar(sub), g

    def test_planar_agrees_with_networkx_just_under_the_cap(self):
        """Chains of K4 and K5-less-an-edge blocks at cut vertices, reduced
        to within three vertices of PLANAR_CAP, alone or with one K5 or
        K3,3 block at a random place."""
        from sdkit.solver import PLANAR_CAP

        rng = random.Random(31)
        k5_less_one = Graph(5, sorted(K5.edges - {(0, 1)}))
        k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        for bad in (None, K5, k33):
            blocks, size = [], 1 + (bad.vertices - 1 if bad else 0)
            while True:
                block = rng.choice((complete_graph(4), k5_less_one))
                if size + block.vertices - 1 > PLANAR_CAP:
                    break
                blocks.append(block)
                size += block.vertices - 1
            if bad:
                blocks.insert(rng.randrange(len(blocks) + 1), bad)
            g = block_chain(blocks)
            assert PLANAR_CAP - 3 <= g.vertices <= PLANAR_CAP
            assert predicate_planar(whole(g)) == nx_planar(whole(g)) == (bad is None)

    def test_predicates_absorb_subobjects(self):
        rng = random.Random(67)
        for predicate in (PATHS, BIPARTITE, PLANAR):
            table = enumerate_subp_bruteforce(random_graph(rng, 4, p=0.8, min_n=3), predicate)
            for sub in list(table.sorted_entries())[:40]:
                for _ in range(3):
                    verts = frozenset(v for v in sub.vertices if rng.random() < 0.6)
                    edges = frozenset(
                        e
                        for e in sub.edges
                        if e[0] in verts and e[1] in verts and rng.random() < 0.6
                    )
                    assert predicate(Subobject(verts, edges))


class TestPlanarByBlocks:
    """predicate_planar runs the path-addition test on each block of the
    reduced graph, so every graph the test sees is 2-connected."""

    @staticmethod
    def two_connected_only(monkeypatch) -> list:
        """Check every graph handed to the path-addition test; the list
        returned collects their vertex counts."""
        from sdkit import solver

        test, sizes = solver._planar, []

        def checked(adj):
            h = nx.Graph()
            h.add_edges_from((u, v) for u in adj for v in adj[u])
            assert nx.is_biconnected(h) and h.number_of_nodes() == len(adj) > 4
            sizes.append(len(adj))
            return test(adj)

        monkeypatch.setattr(solver, "_planar", checked)
        return sizes

    def test_random_graphs_reach_the_test_two_connected(self, monkeypatch):
        sizes = self.two_connected_only(monkeypatch)
        rng = random.Random(29)
        for _ in range(400):
            g = random_graph(rng, 16, p=rng.uniform(0.1, 0.5), min_n=5)
            assert predicate_planar(whole(g)) == nx_planar(whole(g)), g
        assert len(sizes) > 50, len(sizes)

    def test_block_chains_ending_in_a_kuratowski_block(self, monkeypatch):
        sizes = self.two_connected_only(monkeypatch)
        rng = random.Random(41)
        k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        for last in (None, K5, k33):
            for _ in range(40):
                blocks = []
                for _ in range(rng.randint(1, 6)):
                    k = rng.randint(3, 7)
                    blocks.append(random_graph(rng, k, p=rng.uniform(0.5, 1.0), min_n=k))
                g = block_chain(blocks + ([last] if last else []))
                verdict = predicate_planar(whole(g))
                assert verdict == nx_planar(whole(g)), g
                if last:
                    assert not verdict
        assert len(sizes) > 50, len(sizes)

    def test_a_chain_of_k4_blocks_at_the_cap_takes_little_memory(self):
        # 299 K4 blocks reduce to 898 vertices, PLANAR_CAP; testing each
        # fragment at a cut vertex on a copy of its adjacency peaked at 63 MiB
        import tracemalloc

        g = block_chain([complete_graph(4)] * 299)
        tracemalloc.start()
        try:
            assert predicate_planar(whole(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak


class TestBruteForce:
    def test_point_has_two_path_subobjects(self):
        assert len(enumerate_subp_bruteforce(K1, PATHS).entries) == 2

    def test_edge_has_five_path_subobjects(self):
        assert len(enumerate_subp_bruteforce(complete_graph(2), PATHS).entries) == 5

    def test_triangle_bipartite_excludes_only_the_full_triangle(self):
        table = enumerate_subp_bruteforce(K3, BIPARTITE)
        assert len(table.entries) == 17
        assert whole(K3) not in table.entries

    def test_cap_enforced(self):
        with pytest.raises(TooLarge):
            enumerate_subp_bruteforce(Graph(11), PATHS)

    def test_matches_all_pairs_on_every_graph_up_to_five_vertices(self):
        for n in range(6):
            for g in graphs_up_to_iso(n):
                for predicate in (PATHS, BIPARTITE, PLANAR):
                    assert enumerate_subp_bruteforce(g, predicate) == subp_by_all_pairs(g, predicate)

    def test_matches_all_pairs_on_random_graphs(self):
        rng = random.Random(97)
        for _ in range(30):
            g = random_graph(rng, 8, p=0.35, min_n=6)
            for predicate in (PATHS, BIPARTITE, PLANAR):
                assert enumerate_subp_bruteforce(g, predicate) == subp_by_all_pairs(g, predicate)


def ends(edges) -> frozenset:
    return frozenset(v for e in edges for v in e)


class TestPredicateContract:
    """The contract the leaf enumeration rests on: every built-in predicate
    ignores isolated vertices and is subgraph-closed."""

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE, PLANAR], ids=lambda p: p.name)
    def test_isolated_vertices_are_ignored_and_subobjects_accepted(self, predicate):
        for n in range(5):
            for g in graphs_up_to_iso(n):
                for sub in all_subobjects(g):
                    verdict = predicate(sub)
                    assert verdict == predicate(Subobject(ends(sub.edges), sub.edges))
                    if not verdict:
                        continue
                    for e in sub.edges:
                        assert predicate(Subobject(sub.vertices, sub.edges - {e}))
                    for v in sub.vertices:
                        kept = frozenset(e for e in sub.edges if v not in e)
                        assert predicate(Subobject(sub.vertices - {v}, kept))


class TestLeafPredicateCalls:
    @staticmethod
    def calls(g, predicate=PATHS) -> int:
        """Predicate calls of one leaf enumeration, counted through a wrapped
        evaluator as a tracer would wrap it."""
        made = []

        def evaluator(sub):
            made.append(sub)
            return predicate.evaluator(sub)

        enumerate_subp_bruteforce(g, dataclasses.replace(predicate, evaluator=evaluator))
        return len(made)

    @staticmethod
    def expected_calls(g, predicate=PATHS) -> int:
        """1 (the empty subobject), + 1 (the whole edge set, asked with two
        edges or more), + when the whole is rejected, non-empty accepted
        edge sets + minimal rejected edge sets."""
        edge_sets = [
            frozenset(c) for r in range(len(g.edges) + 1) for c in itertools.combinations(g.edges, r)
        ]
        accepted = {s for s in edge_sets if predicate(Subobject(ends(s), s))}
        if not accepted:
            return 1
        probe = int(len(g.edges) > 1)
        if probe and g.edges in accepted:
            return 2
        minimal_rejected = [
            s for s in edge_sets if s not in accepted and all(s - {e} in accepted for e in s)
        ]
        return 1 + probe + (len(accepted) - 1) + len(minimal_rejected)

    def test_k4_paths(self):
        k4 = complete_graph(4)
        # the whole K4 is rejected; 33 non-empty linear forests; 4
        # triangles, 4 stars and 3 four-cycles
        assert self.calls(k4) == self.expected_calls(k4) == 1 + 1 + 33 + 11

    def test_count_does_not_depend_on_vertex_labels(self):
        rng = random.Random(101)
        g = random_graph(rng, 7, p=0.5, min_n=7)
        perm = list(range(g.vertices))
        rng.shuffle(perm)
        relabeled = Graph(g.vertices, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges])
        for predicate in (PATHS, BIPARTITE, PLANAR):
            expected = self.expected_calls(g, predicate)
            assert self.calls(g, predicate) == expected
            assert self.calls(relabeled, predicate) == expected

    def test_a_predicate_rejecting_the_empty_subobject_gives_an_empty_table(self):
        never = dataclasses.replace(PATHS, evaluator=lambda sub: False)
        assert enumerate_subp_bruteforce(K3, never).entries == frozenset()


class TestTableCap:
    """MAX_TABLE_ENTRIES bounds the tables that are built entry by entry.
    The bowtie's leaf tables (paths in K3) have 17 entries each and the
    glued table 156; the fold that solve runs builds none of them."""

    @pytest.mark.parametrize("cap", [16, 17, 155])
    def test_a_table_past_the_cap_is_too_large(self, monkeypatch, cap):
        from sdkit import solver

        monkeypatch.setattr(solver, "MAX_TABLE_ENTRIES", cap)
        if cap < 17:
            with pytest.raises(TooLarge, match=str(cap)):
                enumerate_subp_bruteforce(K3, PATHS)
        else:
            leaf = enumerate_subp_bruteforce(K3, PATHS)
            with pytest.raises(TooLarge, match=str(cap)):
                compose(bowtie_span(), leaf, leaf, PATHS)
        result = solve_on_decomposition(two_bag_bowtie_decomposition(), PATHS, MAX_EDGES)
        assert result.value == 4
        with pytest.raises(TooLarge, match=str(cap)):
            result.table

    def test_a_table_at_the_cap_is_kept(self, monkeypatch):
        from sdkit import solver

        monkeypatch.setattr(solver, "MAX_TABLE_ENTRIES", 156)
        result = solve_on_decomposition(two_bag_bowtie_decomposition(), PATHS, MAX_EDGES)
        assert result.value == 4 and len(result.table.entries) == 156


class TestEdgeSetCap:
    """MAX_EDGE_SETS bounds every table of the fold. The bowtie's leaf
    tables hold 7 accepted edge sets each and the glued table 40."""

    @pytest.mark.parametrize("cap", [6, 39])
    def test_a_table_past_the_cap_is_too_large(self, monkeypatch, capsys, fixtures_dir, cap):
        from sdkit import solver
        from sdkit.cli import run

        monkeypatch.setattr(solver, "MAX_EDGE_SETS", cap)
        with pytest.raises(TooLarge):
            solve_on_decomposition(two_bag_bowtie_decomposition(), PATHS, MAX_EDGES)
        assert run(["solve", "-d", str(fixtures_dir / "bowtie.dec.json")]) == 3
        assert str(cap) in json.loads(capsys.readouterr().out)["error"]

    def test_a_table_at_the_cap_is_kept(self, monkeypatch):
        from sdkit import solver

        monkeypatch.setattr(solver, "MAX_EDGE_SETS", 40)
        result = solve_on_decomposition(two_bag_bowtie_decomposition(), PATHS, MAX_EDGES)
        assert result.value == 4 and result.stats.edge_sets == (7, 7, 40)


def one_bag(g):
    return StructuredDecomposition(Graph(1), GRAPH, (g,), ())


def bipyramid(k):
    """The cycle C_k on 0..k-1 and two hubs k, k + 1 joined to each of its
    vertices: planar, with 3k edges."""
    rim = [tuple(sorted((i, (i + 1) % k))) for i in range(k)]
    return Graph(k + 2, rim + [(v, h) for v in range(k) for h in (k, k + 1)])


EDGE_SET_CAP_ERROR = "a Sub_P table grew past 262144 accepted edge sets"


class TestCapsInAChildProcess:
    """Every known worst input of a cap ends in its answer or in exit 3
    within the budget. value is the answer, or the exact error of exit 3
    where one is pinned (None otherwise); peak bounds the child's peak RSS
    in MiB where it is pinned."""

    @pytest.mark.parametrize(
        "d, prop, value, peak",
        [
            # MAX_EDGE_SETS at a one-bag leaf: K7 under planar (edge-set
            # fold) is the slowest, about 3.0 s for its first 2^18 accepted
            # edge sets. The summary leaf counts the first 2^18 of K8 under
            # bipartite and of K10 under paths or bipartite in about 0.6-1.6 s
            # each (about 4.5 s each when the edge-set leaf held them). It
            # walks them depth-first and holds one branch of them, so those
            # children peak at about 17 MiB (83-102 MiB when it held a level)
            pytest.param(one_bag(complete_graph(8)), "bipartite", None, 48, id="K8-bipartite"),
            pytest.param(one_bag(complete_graph(7)), "planar", None, None, id="K7-planar"),
            pytest.param(one_bag(complete_graph(10)), "paths", None, 48, id="K10-paths"),
            pytest.param(one_bag(complete_graph(10)), "bipartite", None, 48, id="K10-bipartite"),
            # MAX_EDGE_SETS at a leaf accepted whole: the C8 bipyramid is
            # planar, so its 2^24 edge sets are refused at once (about
            # 0.1 s); Apriori took about 2.0 s and 345 MiB to count 2^18
            pytest.param(one_bag(bipyramid(8)), "planar", EDGE_SET_CAP_ERROR, None, id="bipyramid-8-planar"),
            # MAX_EDGE_SETS at a glue: ladder-7 paths counts 154,594 edge
            # sets at most and is solved in about 0.1 s; bipartite would
            # count all 2^19 and is refused in about 0.1 s. The edge-set
            # fold held them and took about 1.5 s and 2.3 s (about 3.3 s
            # and 4.5 s when the glue asked the predicate once per pair)
            pytest.param(ladder(7)[1], "paths", 13, None, id="ladder-7-paths"),
            pytest.param(ladder(7)[1], "bipartite", None, None, id="ladder-7-bipartite"),
            # BRUTE_CAP: a bag one vertex past it is refused before any work
            pytest.param(one_bag(complete_graph(11)), "paths", None, None, id="K11-paths"),
        ],
    )
    def test_ends_within_the_budget(self, tmp_path, d, prop, value, peak):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(decomposition_to_json(d)))
        argv = [str(2 * BUDGET_MIB << 20), "solve", "-d", str(path), "--property", prop]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True)
        wall = time.perf_counter() - start
        assert proc.returncode == (0 if isinstance(value, int) else 3), proc.stderr
        if isinstance(value, int):
            assert json.loads(proc.stdout)["value"] == value
        elif value is not None:
            assert json.loads(proc.stdout) == {"error": value}
        assert wall < 2 * BUDGET_S, wall
        if peak is not None:
            assert child_peak_mib(proc.stderr) < peak


class TestCompose:
    def test_bowtie_table_contains_the_four_edge_path(self):
        span = bowtie_span()
        table = compose(
            span,
            enumerate_subp_bruteforce(K3, PATHS),
            enumerate_subp_bruteforce(K3, PATHS),
            PATHS,
        )
        long_path = Subobject(
            frozenset(range(5)), frozenset({(0, 2), (1, 2), (1, 4), (3, 4)})
        )
        assert long_path in table.entries

    def test_table_missing_a_trace_on_the_apex_is_rejected(self):
        span = bowtie_span()
        full = enumerate_subp_bruteforce(K3, PATHS)

        def without_apex_vertex(leg):
            apex = leg.image_vertices()
            return SubPTable(
                K3, PATHS.name, frozenset(s for s in full.entries if s.vertices != apex)
            )

        with pytest.raises(ValidationError):
            compose(span, without_apex_vertex(span.left), full, PATHS)
        with pytest.raises(ValidationError):
            compose(span, full, without_apex_vertex(span.right), PATHS)

    def test_table_missing_a_vertex_set_of_an_edge_set_is_rejected(self):
        # the traces on the apex are all there, but ({0, 1, 2}, {}) is not
        full = enumerate_subp_bruteforce(K3, PATHS)
        gap = SubPTable(K3, PATHS.name, full.entries - {Subobject(frozenset(range(3)), frozenset())})
        with pytest.raises(ValidationError):
            compose(bowtie_span(), gap, full, PATHS)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("kept", ["every subobject", "no edge"])
    def test_table_that_is_not_the_sub_p_table_is_rejected(self, kept, side):
        # every subobject of K3, the triangle included, is a full table for
        # a predicate that accepts everything; the entries with no edge are
        # full for one that accepts no edge. Neither is the table of paths.
        full = enumerate_subp_bruteforce(K3, PATHS)
        if kept == "every subobject":
            entries = frozenset(all_subobjects(K3))
            assert len(entries) == 18
        else:
            entries = frozenset(sub for sub in full.entries if not sub.edges)
        table = SubPTable(K3, PATHS.name, entries)
        tables = (table, full) if side == "left" else (full, table)
        with pytest.raises(ValidationError, match="full Sub_P tables"):
            compose(bowtie_span(), *tables, PATHS)

    def test_degenerate_identity_span(self):
        span = Span(GraphMorphism.identity(K1), GraphMorphism.identity(K1))
        base = enumerate_subp_bruteforce(K1, PATHS)
        table = compose(span, base, base, PATHS)
        assert table.entries == base.entries

    def test_op_counter_is_exactly_the_pair_count(self):
        rng = random.Random(71)
        for _ in range(10):
            span = random_monic_graph_span(rng, 3)
            left = enumerate_subp_bruteforce(span.left.cod, PATHS)
            right = enumerate_subp_bruteforce(span.right.cod, PATHS)
            table = compose(span, left, right, PATHS)
            assert table.op_counter == len(left.entries) * len(right.entries)

    def test_oracle_equivalence_on_random_spans(self):
        rng = random.Random(73)
        for predicate in (PATHS, BIPARTITE, PLANAR):
            for _ in range(12):
                span = random_monic_graph_span(rng, 4)
                left = enumerate_subp_bruteforce(span.left.cod, predicate)
                right = enumerate_subp_bruteforce(span.right.cod, predicate)
                table = compose(span, left, right, predicate)
                glued, _ = pushout(span)
                assert table.ambient == glued
                assert table.entries == enumerate_subp_bruteforce(glued, predicate).entries

    def test_monotonicity_images_always_present(self):
        rng = random.Random(79)
        for _ in range(10):
            span = random_monic_graph_span(rng, 4)
            left = enumerate_subp_bruteforce(span.left.cod, BIPARTITE)
            right = enumerate_subp_bruteforce(span.right.cod, BIPARTITE)
            table = compose(span, left, right, BIPARTITE)
            _, cocone = pushout(span)
            for sub in left.entries:
                assert translate_subobject(sub, cocone.left.mapping) in table.entries
            for sub in right.entries:
                assert translate_subobject(sub, cocone.right.mapping) in table.entries

    @pytest.mark.parametrize(
        "left, right, message",
        [
            ((K1, PATHS), (K3, PATHS), "tables do not match the span feet"),
            ((K3, PATHS), (K3, BIPARTITE), "tables were built for a different predicate"),
        ],
    )
    def test_tables_of_other_feet_or_another_predicate_are_rejected(self, left, right, message):
        tables = [enumerate_subp_bruteforce(g, predicate) for g, predicate in (left, right)]
        with pytest.raises(ValidationError, match=f"^{message}$"):
            compose(bowtie_span(), *tables, PATHS)

    def test_non_monic_span_rejected(self):
        collapse = GraphMorphism(Graph(2), K1, (0, 0))
        base = enumerate_subp_bruteforce(K1, PATHS)
        with pytest.raises(NonMonicSpan):
            compose(Span(collapse, collapse), base, base, PATHS)


class TestComposeOptimize:
    def test_bowtie_longest_path_value(self):
        span = bowtie_span()
        left = enumerate_subp_bruteforce(K3, PATHS)
        right = enumerate_subp_bruteforce(K3, PATHS)
        best = compose_optimize(span, left, right, PATHS, MAX_EDGES)
        assert len(best.edges) == 4

    def test_min_vertices_is_the_empty_subobject(self):
        from sdkit import Objective

        span = bowtie_span()
        left = enumerate_subp_bruteforce(K3, PATHS)
        right = enumerate_subp_bruteforce(K3, PATHS)
        min_vertices = Objective("min-vertices", "vertices", "min")
        smallest = compose_optimize(span, left, right, PATHS, min_vertices)
        assert smallest == EMPTY_SUBOBJECT

    def test_bipartite_over_bowtie_drops_one_edge_per_triangle(self):
        span = bowtie_span()
        left = enumerate_subp_bruteforce(K3, BIPARTITE)
        right = enumerate_subp_bruteforce(K3, BIPARTITE)
        best = compose_optimize(span, left, right, BIPARTITE, MAX_EDGES)
        assert len(best.edges) == 4

    def test_tie_break_is_lexicographic(self):
        table = enumerate_subp_bruteforce(Graph(2), PATHS)
        best = best_entry(table, MIN_EDGES)
        assert best == EMPTY_SUBOBJECT


def two_bag_bowtie_decomposition():
    adh = Adhesion(
        (0, 1), Span(GraphMorphism(K1, K3, (1,)), GraphMorphism(K1, K3, (0,)))
    )
    return StructuredDecomposition(Graph(2, [(0, 1)]), GRAPH, (K3, K3), (adh,))


class TestSolveOnDecomposition:
    def test_two_bag_bowtie(self):
        result = solve_on_decomposition(two_bag_bowtie_decomposition(), PATHS, MAX_EDGES)
        assert result.value == 4
        assert result.stats.pair_compositions == 289
        oracle = enumerate_subp_bruteforce(result.table.ambient, PATHS)
        assert result.table.entries == oracle.entries

    def test_single_bag_is_brute_force(self):
        d = StructuredDecomposition(Graph(1), GRAPH, (cycle(4),), ())
        result = solve_on_decomposition(d, BIPARTITE, MAX_EDGES)
        assert result.table.entries == enumerate_subp_bruteforce(cycle(4), BIPARTITE).entries
        assert result.value == 4

    def test_oracle_equivalence_and_rerooting(self):
        from sdkit import evaluate_colimit

        rng = random.Random(83)
        for predicate in (PATHS, BIPARTITE, PLANAR):
            done = 0
            while done < 6:
                d = random_graph_decomposition(rng, 4, 4)
                glued, _ = evaluate_colimit(d)
                if glued.vertices > 7 or len(glued.edges) > 10:
                    continue
                result = solve_on_decomposition(d, predicate, MAX_EDGES)
                oracle = enumerate_subp_bruteforce(glued, predicate)
                assert result.table.entries == oracle.entries
                for root in range(d.shape.vertices):
                    rerooted = solve_on_decomposition(d, predicate, MAX_EDGES, root=root)
                    assert rerooted.table == result.table
                    assert rerooted.witness == result.witness
                done += 1

    def test_forest_shapes_fold_componentwise(self):
        from sdkit import evaluate_colimit

        d = StructuredDecomposition(Graph(2), GRAPH, (K3, path(2)), ())
        result = solve_on_decomposition(d, PATHS, MAX_EDGES)
        glued, _ = evaluate_colimit(d)
        assert result.table.entries == enumerate_subp_bruteforce(glued, PATHS).entries

    @pytest.mark.parametrize("route", [solve_on_decomposition, _solve_at_boundary])
    @pytest.mark.parametrize("root", [-1, 2])
    def test_a_root_outside_the_shape_is_rejected(self, route, root):
        with pytest.raises(ValidationError, match=f"^root {root} is not a shape vertex$"):
            route(two_bag_bowtie_decomposition(), PATHS, MAX_EDGES, root=root)

    def test_an_objective_counts_vertices_or_edges(self):
        with pytest.raises(ValidationError, match="^an objective counts vertices or edges, not 'degrees'$"):
            Objective("max-degree", "degrees", "max")

    @pytest.mark.parametrize("direction", ["sideways", "Max", ""])
    def test_an_objective_maximizes_or_minimizes(self, direction):
        with pytest.raises(ValidationError, match=f"^an objective's direction is max or min, not {direction!r}$"):
            Objective("x", "edges", direction)

    def test_cyclic_shape_rejected(self):
        bags = (K1, K1, K1)
        adhesions = tuple(
            Adhesion(
                e,
                Span(
                    GraphMorphism(Graph(0), K1, ()), GraphMorphism(Graph(0), K1, ())
                ),
            )
            for e in sorted(cycle(3).edges)
        )
        d = StructuredDecomposition(cycle(3), GRAPH, bags, adhesions)
        with pytest.raises(NonTreeShape):
            solve_on_decomposition(d, PATHS, MAX_EDGES)

    def test_oversized_bag_rejected(self):
        d = StructuredDecomposition(Graph(1), GRAPH, (Graph(11),), ())
        with pytest.raises(TooLarge):
            solve_on_decomposition(d, PATHS, MAX_EDGES)

    def test_determinism_of_serialized_output(self):
        d = two_bag_bowtie_decomposition()
        runs = []
        for _ in range(2):
            result = solve_on_decomposition(d, PATHS, MAX_EDGES)
            runs.append(
                json.dumps(
                    {
                        "value": result.value,
                        "witness": result.witness.to_json(),
                        "entries": [s.to_json() for s in result.table.sorted_entries()],
                    },
                    sort_keys=True,
                )
            )
        assert runs[0] == runs[1]


class TestNamedProblems:
    def test_longest_path_on_the_bowtie(self, bowtie, bowtie_decomposition):
        value, witness, _ = longest_path(bowtie, bowtie_decomposition)
        assert value == 4
        assert _is_single_path(witness)
        assert all(e in bowtie.edges for e in witness.edges)

    def test_longest_path_filters_to_connected_paths(self):
        # two disjoint edges beat any single path here as a raw union
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        d = StructuredDecomposition(Graph(1), GRAPH, (g,), ())
        value, witness, _ = longest_path(g, d)
        assert value == 2
        assert witness.vertices == frozenset({2, 3, 4})

    def test_max_bipartite_on_c4_is_everything(self):
        g = cycle(4)
        d = StructuredDecomposition(Graph(1), GRAPH, (g,), ())
        value, witness, _ = max_bipartite_subgraph(g, d)
        assert value == 4
        assert witness == whole(g)

    def test_max_planar_on_k5_hits_the_euler_bound(self):
        d = StructuredDecomposition(Graph(1), GRAPH, (K5,), ())
        value, witness, _ = max_planar_subgraph(K5, d)
        assert value == 9

    def test_mismatched_graph_rejected(self, bowtie_decomposition):
        with pytest.raises(NotATreeDecomposition):
            longest_path(complete_graph(4), bowtie_decomposition)


def forest_decomposition():
    """Three components, interleaved in shape numbering: two triangles glued
    along an edge by an edgeless apex (0-3), a three-bag chain of edges
    (1-2-4) and a lone point (5)."""
    shared_pair = Graph(2)  # both bags have the edge 0-1; the apex does not
    point = lambda bag, v: GraphMorphism(K1, bag, (v,))
    edge = path(2)
    adhesions = (
        Adhesion(
            (0, 3),
            Span(GraphMorphism(shared_pair, K3, (0, 1)), GraphMorphism(shared_pair, K3, (1, 0))),
        ),
        Adhesion((1, 2), Span(point(edge, 1), point(edge, 0))),
        Adhesion((2, 4), Span(point(edge, 1), point(edge, 0))),
    )
    shape = Graph(6, [(0, 3), (1, 2), (2, 4)])
    return StructuredDecomposition(shape, GRAPH, (K3, edge, edge, K3, edge, K1), adhesions)


class TestForestFold:
    def test_every_root_matches_brute_force_on_the_colimit(self):
        from sdkit import evaluate_colimit

        d = forest_decomposition()
        glued, _ = evaluate_colimit(d)
        assert glued.vertices == 9 and len(glued.edges) == 8
        for predicate in (PATHS, BIPARTITE, PLANAR):
            oracle = enumerate_subp_bruteforce(glued, predicate).entries
            witnesses = set()
            for root in [None, *range(d.shape.vertices)]:
                result = solve_on_decomposition(d, predicate, MAX_EDGES, root=root)
                assert result.table.entries == oracle
                witnesses.add(result.witness)
            assert len(witnesses) == 1


class TestPendantTriangle:
    def test_exact_solve_extends_the_triangle_path_by_the_pendant_edge(self):
        # Root bag is the edge m-p, child bag is a triangle met at m. The
        # three 2-edge triangle paths share the trace ({m}, {}), but only
        # the two ending at m extend by m-p to the 3-edge optimum, so a
        # table with one entry per trace cannot be exact here.
        from sdkit import evaluate_colimit

        parent = Graph(2, [(0, 1)])  # m=0, p=1
        adh = Adhesion(
            (0, 1), Span(GraphMorphism(K1, parent, (0,)), GraphMorphism(K1, K3, (0,)))
        )
        d = StructuredDecomposition(Graph(2, [(0, 1)]), GRAPH, (parent, K3), (adh,))
        result = solve_on_decomposition(d, PATHS, MAX_EDGES)
        glued, _ = evaluate_colimit(d)
        assert result.value == 3
        assert result.table.entries == enumerate_subp_bruteforce(glued, PATHS).entries


class TestSolveCounters:
    """stats.predicate_calls and stats.edge_sets against what the fold did."""

    @staticmethod
    def counted_solve(d, predicate):
        made = []

        def evaluator(sub):
            made.append(sub)
            return predicate.evaluator(sub)

        result = solve_on_decomposition(d, dataclasses.replace(predicate, evaluator=evaluator), MAX_EDGES)
        return result, len(made)

    def test_bowtie_paths(self):
        # two K3 leaves of 9 calls each (the rejected whole triangle, then 8);
        # the glue asks the whole bowtie, rejected, then no edge is shared,
        # so each of the 6 x 6 pairs of non-empty edge sets is glued, one
        # call each, and 9 of them give the shared vertex degree 3 or 4
        result, made = self.counted_solve(two_bag_bowtie_decomposition(), PATHS)
        assert result.stats.predicate_calls == (18, 1 + 36) and made == 55
        assert result.stats.edge_sets == (7, 7, 7 + 6 + 36 - 9)

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE, PLANAR], ids=lambda p: p.name)
    def test_calls_and_edge_sets_on_the_bowtie_and_ladder_4(self, predicate):
        for d in (two_bag_bowtie_decomposition(), ladder(4)[1]):
            result, made = self.counted_solve(d, predicate)
            leaf, glue = result.stats.predicate_calls
            assert leaf + glue == made
            assert leaf == sum(TestLeafPredicateCalls.calls(bag, predicate) for bag in d.bags)
            sizes, edge_sets = result.stats.table_sizes, result.stats.edge_sets
            assert len(edge_sets) == len(sizes)
            leaves = [enumerate_subp_bruteforce(bag, predicate) for bag in d.bags]
            assert [edge_sets[i] for i in (0, 1, 3) if i < len(sizes)] == [
                len({sub.edges for sub in table.entries}) for table in leaves
            ]
            assert edge_sets[-1] == len({sub.edges for sub in result.table.entries})
            assert sizes[-1] == len(result.table.entries)


GOLDEN_SOLVES = json.loads((pathlib.Path(__file__).resolve().parent / "golden" / "solve.json").read_text())


class TestNoFullTableIsBuilt:
    def test_solve_and_longest_path_answer_from_the_edge_sets(self, monkeypatch, capsys, fixtures_dir):
        from sdkit import solver
        from sdkit.cli import run

        def refuse(*args):
            raise AssertionError("a full Sub_P table was built")

        g, d, labeling = ladder(4)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_expand", refuse)
            for case, expected in sorted(GOLDEN_SOLVES.items()):
                fixture, prop, objective = case.split()
                argv = ["solve", "-d", str(fixtures_dir / fixture), "--property", prop, "--objective", objective]
                assert run(argv) == 0
                assert json.loads(capsys.readouterr().out) == expected
            value, witness, _ = longest_path(g, d, labeling)
            result = solve_on_decomposition(d, PATHS, MAX_EDGES)
        assert value == 7 and _is_single_path(witness) and witness.edges <= g.edges
        glued, _ = evaluate_colimit(d)
        assert result.table.entries == enumerate_subp_bruteforce(glued, PATHS).entries
        assert result.table.op_counter == result.stats.pair_compositions == 22080

    def test_longest_path_never_holds_an_edge_set(self, monkeypatch):
        from sdkit import solver

        def refuse(*args):
            raise AssertionError("the edge-set fold was run")

        g, d, labeling = ladder(4)
        monkeypatch.setattr(solver, "_compose_entries", refuse)
        monkeypatch.setattr(solver, "_accepted_edge_sets", refuse)
        value, witness, _ = longest_path(g, d, labeling)
        assert value == 7 and _is_single_path(witness) and witness.edges <= g.edges


def oracle_instances(count=200):
    """Seeded tame decompositions whose colimits the brute force lists fast:
    the empty decomposition, then random ones, edgeless bags among them."""
    rng = random.Random(137)
    out = [StructuredDecomposition(Graph(0), GRAPH, (), ())]
    while len(out) < count:
        d = random_graph_decomposition(rng, 4, 4, edge_p=rng.choice((0.0, 0.5, 0.8)))
        glued, _ = evaluate_colimit(d)
        if glued.vertices <= 7 and len(glued.edges) <= 9:
            out.append(d)
    return out


ORACLE_INSTANCES = oracle_instances()
MIN_VERTICES = Objective("min-vertices", "vertices", "min")


class TestRandomOracle:
    def test_the_instances_include_edgeless_bags(self):
        bags = [bag for d in ORACLE_INSTANCES for bag in d.bags]
        assert any(not bag.edges and bag.vertices > 1 for bag in bags)
        assert not ORACLE_INSTANCES[0].bags

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE, PLANAR], ids=lambda p: p.name)
    def test_value_and_witness_are_the_best_entry_of_the_colimit_table(self, predicate):
        for d in ORACLE_INSTANCES:
            glued, _ = evaluate_colimit(d)
            table = enumerate_subp_bruteforce(glued, predicate)
            for objective in (MAX_EDGES, MAX_VERTICES, MIN_EDGES, MIN_VERTICES):
                best = best_entry(table, objective)
                for root in [None, *range(d.shape.vertices)]:
                    result = solve_on_decomposition(d, predicate, objective, root=root)
                    assert result.witness == best
                    assert result.value == objective.weight(best)

    @pytest.mark.parametrize(
        "solve, predicate, keep",
        [
            (longest_path, PATHS, _is_single_path),
            (max_bipartite_subgraph, BIPARTITE, lambda sub: True),
            (max_planar_subgraph, PLANAR, lambda sub: True),
        ],
        ids=["longest_path", "max_bipartite_subgraph", "max_planar_subgraph"],
    )
    def test_named_problems_pick_from_the_colimit_table(self, solve, predicate, keep):
        for d in ORACLE_INSTANCES:
            glued, _ = evaluate_colimit(d)
            table = enumerate_subp_bruteforce(glued, predicate)
            kept = SubPTable(glued, predicate.name, frozenset(filter(keep, table.entries)))
            best = best_entry(kept, MAX_EDGES) or EMPTY_SUBOBJECT
            assert solve(glued, d)[:2] == (len(best.edges), best)


def forest_instances(count=40):
    """Seeded tame decompositions over forest shapes: random trees with some
    shape edges, and their adhesions, dropped."""
    rng = random.Random(211)
    out = [forest_decomposition()]
    while len(out) < count:
        d = random_graph_decomposition(rng, 5, 4, edge_p=rng.choice((0.5, 0.8)))
        kept = tuple(adh for adh in d.adhesions if rng.random() < 0.5)
        if len(kept) < len(d.adhesions):
            shape = Graph(d.shape.vertices, [adh.edge for adh in kept])
            out.append(StructuredDecomposition(shape, GRAPH, d.bags, kept))
    return out


def glues_of(monkeypatch, d, predicate, root=None):
    """The (left, right) tables of every glue of the fold over d."""
    from sdkit import solver

    glues = []
    compose_entries = solver._compose_entries

    def recording(left, right, glue_predicate):
        glues.append((left, right))
        return compose_entries(left, right, glue_predicate)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_compose_entries", recording)
        solve_on_decomposition(d, predicate, MAX_EDGES, root=root)
    return glues


def verdicts_by_key(left, right, predicate):
    """(trace, left summary, right summary) -> the predicate's verdicts on
    the unions of every trace-matched pair with that key that the glue
    decides (neither side inside the shared edges)."""
    shared = left.edges & right.edges
    iface = sorted(left.vertices & right.vertices)
    by_trace = {}
    for other, other_ends in _listed(right.family):
        by_trace.setdefault(other & shared, []).append((other, other_ends))
    out = {}
    for edges, ends in _listed(left.family):
        trace = edges & shared
        for other, other_ends in by_trace.get(trace, ()):
            if trace in (edges, other):
                continue
            key = (trace, _boundary_summary(edges - trace, iface), _boundary_summary(other - trace, iface))
            union = Subobject(ends | other_ends, edges | other)
            out.setdefault(key, []).append(predicate.evaluator(union))
    return out


class TestEdgeSetGlue:
    """Each union of a glue comes from one trace-matched pair, since
    (L | R) & left edges = L when the traces match: the glued family is the
    accepted unions of those pairs, none twice. The glue first asks the
    whole union when both sides hold an edge set and it has two edges or
    more; accepted, that is its one call and the family is the power set."""

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE, PLANAR], ids=lambda p: p.name)
    def test_every_glue_is_the_accepted_unions_of_its_matched_pairs(self, monkeypatch, predicate):
        instances = ORACLE_INSTANCES + forest_instances() + [ladder(k)[1] for k in (3, 4, 5)]
        glues = accepted_whole = 0
        for d in instances:
            for left, right in glues_of(monkeypatch, d, predicate):
                shared = left.edges & right.edges
                unions, asked = set(), 0
                for edges, ends in _listed(left.family):
                    trace = edges & shared
                    for other, other_ends in _listed(right.family):
                        if other & shared != trace:
                            continue
                        if predicate(Subobject(ends | other_ends, edges | other)):
                            unions.add((edges | other, ends | other_ends))
                        asked += trace not in (edges, other)
                table, calls = _compose_entries(left, right, predicate)
                family = _listed(table.family)
                assert len({edges for edges, _ in family}) == len(family)
                assert set(family) == unions
                whole = left.edges | right.edges
                probed = bool(left.family and right.family) and len(whole) > 1
                if probed and predicate(Subobject(frozenset().union(*whole), whole)):
                    assert calls == 1 and len(unions) == 1 << len(whole)
                    accepted_whole += 1
                else:
                    assert calls == probed + asked
                glues += 1
        assert glues > 300 and accepted_whole > 30


def random_planar_graphs():
    """Seeded planar graphs (by networkx) on 7-8 vertices with 12-18 edges,
    a triangulation of 7 and one of 8 vertices among them; each is redrawn
    until planar."""
    rng = random.Random(409)
    out = []
    for n, m in [(7, 12), (7, 13), (7, 14), (7, 15), (8, 12), (8, 14), (8, 16), (8, 18)]:
        pairs = list(itertools.combinations(range(n), 2))
        while True:
            edges = sorted(rng.sample(pairs, m))
            if nx.check_planarity(nx.Graph(edges))[0]:
                out.append(Graph(n, edges))
                break
    return out


class TestWholePartProbe:
    """A part the predicate accepts whole is not asked about its subsets:
    the leaf asks the empty set and the whole edge set and then lists the
    power set, and a glue whose union is accepted asks once."""

    @staticmethod
    def family_by_all_pairs(g, predicate) -> set:
        """The accepted edge sets of the brute-force table."""
        return {sub.edges for sub in subp_by_all_pairs(g, predicate).entries}

    @staticmethod
    def edge_sets(family) -> set:
        """The edge sets of a family of (edge set, ends), each checked to
        come once and with its own ends."""
        assert all(ends == frozenset().union(*edges) for edges, ends in family)
        found = {edges for edges, _ in family}
        assert len(found) == len(family)
        return found

    def leaf_family(self, g, predicate) -> set:
        return self.edge_sets(_listed(_accepted_edge_sets(g.edge_list(), predicate)[0]))

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE, PLANAR], ids=lambda p: p.name)
    def test_leaf_family_is_the_all_pairs_family_up_to_six_vertices(self, predicate):
        accepted_whole = 0
        for n in range(7):
            for g in graphs_up_to_iso(n):
                assert self.leaf_family(g, predicate) == self.family_by_all_pairs(g, predicate)
                accepted_whole += len(g.edges) > 1 and predicate(whole(g))
        assert accepted_whole > 10

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE, PLANAR], ids=lambda p: p.name)
    def test_leaf_family_is_the_all_pairs_family_on_random_planar_graphs(self, predicate):
        for g in random_planar_graphs():
            assert self.leaf_family(g, predicate) == self.family_by_all_pairs(g, predicate)

    def test_a_bag_accepted_whole_makes_two_calls(self):
        accepted = [(complete_graph(4), PLANAR), (bipyramid(4), PLANAR), (cycle(6), BIPARTITE), (path(5), PATHS)]
        for g, predicate in accepted:
            assert TestLeafPredicateCalls.calls(g, predicate) == 2
            result = solve_on_decomposition(one_bag(g), predicate, MAX_EDGES)
            assert result.stats.predicate_calls == (2, 0)
            assert result.stats.edge_sets == (1 << len(g.edges),)
        # one edge: the whole is the only non-empty candidate, asked once
        assert TestLeafPredicateCalls.calls(complete_graph(2), PLANAR) == 2

    def test_a_glue_whose_union_is_accepted_makes_one_call(self):
        # the bowtie's two triangles; ladder-4's three 4-cycles
        for d, leaves, glues in [(two_bag_bowtie_decomposition(), 2, 1), (ladder(4)[1], 3, 2)]:
            result, made = TestSolveCounters.counted_solve(d, PLANAR)
            assert result.stats.predicate_calls == (2 * leaves, glues) and made == 2 * leaves + glues
            glued, _ = evaluate_colimit(d)
            assert result.stats.edge_sets[-1] == 1 << len(glued.edges)
            assert self.edge_sets(result.family) == self.family_by_all_pairs(glued, PLANAR)

    def test_a_whole_past_the_cap_is_refused_before_any_subset_is_asked(self, monkeypatch):
        from sdkit import solver

        monkeypatch.setattr(solver, "MAX_EDGE_SETS", 32)
        for d in (one_bag(complete_graph(4)), two_bag_bowtie_decomposition()):
            made = []

            def evaluator(sub):
                made.append(sub)
                return True

            with pytest.raises(TooLarge, match="past 32 accepted edge sets"):
                solve_on_decomposition(d, dataclasses.replace(PLANAR, evaluator=evaluator), MAX_EDGES)
            assert all(len(sub.edges) in (0, 3, 6) for sub in made)


class _Unread(list):
    """A family that fails when it is read."""

    def __iter__(self):
        raise AssertionError("the family was read")


class TestWitnessReadOffTheDownSet:
    """Sub_P is a down-set: a non-empty family holds the empty edge set, so
    the best entry under min-edges, min-vertices and max-vertices is known
    without reading the family."""

    def test_three_objectives_leave_the_family_unread(self):
        only_empty = _Unread([(frozenset(), frozenset())])
        two_edges = _Unread(_listed(_PowerSet([(0, 1), (1, 2)])))
        for family, n in ((only_empty, 0), (two_edges, 4)):
            assert _best_in_family(family, n, MIN_EDGES) == EMPTY_SUBOBJECT
            assert _best_in_family(family, n, MIN_VERTICES) == EMPTY_SUBOBJECT
            assert _best_in_family(family, n, MAX_VERTICES) == Subobject(frozenset(range(n)), frozenset())
            for objective in (MAX_EDGES, _LONGEST_PATH):
                with pytest.raises(AssertionError, match="the family was read"):
                    _best_in_family(family, n, objective)
        for objective in (MAX_EDGES, MAX_VERTICES, MIN_EDGES, MIN_VERTICES, _LONGEST_PATH):
            assert _best_in_family(_Unread(), n, objective) is None

    def test_one_bag_k6_planar_witnesses_are_the_best_entries_of_its_table(self):
        # K6 is not planar, so its 32,071 accepted edge sets are listed
        d = StructuredDecomposition(Graph(1), GRAPH, (complete_graph(6),), ())
        result = solve_on_decomposition(d, PLANAR, MAX_VERTICES)
        assert not isinstance(result.kept_family, _PowerSet) and len(result.kept_family) == 32071
        assert result.witness == best_entry(result.table, MAX_VERTICES) == whole(Graph(6))
        for objective in (MAX_EDGES, MIN_EDGES, MIN_VERTICES):
            witness = _best_in_family(result.kept_family, 6, objective)
            assert witness == best_entry(result.table, objective)


class TestPowerSetKeptAsEdges:
    """A part accepted whole keeps its family as a _PowerSet, its sorted
    edges. Its entry count, edge-set count and witness are read off those
    edges without listing them, and must equal what the listed power set
    gives."""

    @staticmethod
    def assert_alike(g, shift):
        """g's edges moved up by shift, on shift + g.vertices + 2 vertices,
        so that vertices no edge touches lie below and above the ends."""
        edges = _PowerSet(sorted((u + shift, v + shift) for u, v in g.edges))
        n = shift + g.vertices + 2
        listed = _listed(edges)
        assert len(listed) == 1 << len(edges) and listed[0] == (frozenset(), frozenset())
        assert _entry_count(edges, n) == _entry_count(listed, n)
        for objective in (MAX_EDGES, MAX_VERTICES, MIN_EDGES, MIN_VERTICES, _LONGEST_PATH):
            assert _best_in_family(edges, n, objective) == _best_in_family(listed, n, objective)

    def test_equals_the_listing_up_to_six_vertices(self):
        sparse = dense = 0
        for n in range(7):
            for g in graphs_up_to_iso(n):
                for shift in (0, 2):
                    self.assert_alike(g, shift)
                ends = len(frozenset().union(*g.edges))
                sparse += ends > len(g.edges)
                dense += 0 < ends <= len(g.edges)
        # both sums of _entry_count are taken: by edge set and by vertex set
        assert sparse > 20 and dense > 20

    def test_equals_the_listing_on_random_planar_graphs(self):
        # up to 16 edges: listing the 2^18 sets of the last one would hold
        # about 300 MiB
        for g in random_planar_graphs():
            if len(g.edges) <= 16:
                self.assert_alike(g, 1)

    def test_an_accepted_part_is_kept_as_its_edges(self):
        g = bipyramid(4)
        family, calls = _accepted_edge_sets(g.edge_list(), PLANAR)
        assert isinstance(family, _PowerSet) and family == tuple(sorted(g.edges)) and calls == 2
        result = solve_on_decomposition(one_bag(g), PLANAR, MAX_EDGES)
        assert result.family == tuple(_listed(family))
        assert result.stats.table_sizes == (_entry_count(_listed(family), g.vertices),)


def three_star_k33():
    """K3,3 (a1, a2, a3 = 0, 1, 2 and b1, b2, b3 = 3, 4, 5) on the path
    decomposition with bags {a1, a2, a3, b_i}: each bag is a star K1,3."""
    g = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    return decomposition_from_vertex_bags(g, path(3), [[0, 1, 2, b] for b in range(3, 6)])[0]


def crossed_ladder():
    """(g, d): the 2 x 5 ladder (top j = j, bottom j = 5 + j) whose last
    three rungs carry the crossing diagonals t2-b4 and b2-t4, with the path
    decomposition whose bags are the first two squares and those three
    rungs. The last bag is K3,3, so g is not planar; the two squares, and
    their glue, are accepted whole."""
    g = ladder(5)[0]
    g = Graph(10, sorted(g.edges | {(2, 9), (4, 7)}))
    return g, decomposition_from_vertex_bags(g, path(3), [[0, 1, 5, 6], [1, 2, 6, 7], [2, 3, 4, 7, 8, 9]])[0]


class TestRejectedUnionOverWholeParts:
    """A glue whose union is rejected lists the power sets of the sides that
    were accepted whole and glues them pair by pair."""

    def test_k33_over_three_stars(self):
        d = three_star_k33()
        result = solve_on_decomposition(d, PLANAR, MAX_EDGES)
        assert result.value == 8
        assert result.stats.table_sizes == (35, 35, 187, 35, 1192)
        assert result.stats.edge_sets == (8, 8, 64, 8, 511)
        assert result.stats.predicate_calls == (6, 443)
        assert len(result.family) == 511 and len(result.table.entries) == 1192
        glued, _ = evaluate_colimit(d)
        assert result.table == subp_by_all_pairs(glued, PLANAR)

    def test_crossed_ladder_equals_the_colimit_table(self, monkeypatch):
        from sdkit import solver

        g, d = crossed_ladder()
        glued, _ = evaluate_colimit(d)
        assert not predicate_planar(whole(glued))
        table = subp_by_all_pairs(glued, PLANAR)
        kept = []  # per glue side: kept as a _PowerSet
        compose_entries = solver._compose_entries

        def recording(left, right, predicate):
            kept.extend(isinstance(side.family, _PowerSet) for side in (left, right))
            return compose_entries(left, right, predicate)

        monkeypatch.setattr(solver, "_compose_entries", recording)
        # rooted at the middle bag or the K3,3 bag, the two squares glue
        # whole first, and that 7-edge power set is listed at the rejected glue
        for root, sides in [(None, "FTFT"), (1, "TTFT"), (2, "TTTF")]:
            for objective in (MAX_EDGES, MAX_VERTICES, MIN_EDGES):
                kept.clear()
                result = solve_on_decomposition(d, PLANAR, objective, root=root)
                best = best_entry(table, objective)
                assert (result.value, result.witness) == (objective.weight(best), best)
                assert kept == [flag == "T" for flag in sides]
            assert result.stats.table_sizes[-1] == len(table.entries)


class TestCapPointsDoNotMove:
    """Keeping a power set as its edges moves no refusal: a planar ladder,
    accepted whole at every step, is refused at the first fold step past
    MAX_EDGE_SETS, with the message it always had, and its table past
    MAX_TABLE_ENTRIES when it is read."""

    # ladder-5's fold order is leaf, leaf, glue, leaf, glue, leaf, glue
    EDGE_SETS = (16, 16, 128, 16, 1024, 16, 8192)

    @pytest.mark.parametrize("cap", [15, 16, 127, 128, 1023, 1024, 8191, 8192])
    def test_the_edge_set_cap(self, monkeypatch, capsys, tmp_path, cap):
        from sdkit import solver
        from sdkit.cli import run

        d = ladder(5)[1]
        steps = []
        for name in ("_accepted_edge_sets", "_compose_entries"):
            original = getattr(solver, name)
            recording = lambda *args, _f=original, _n=name: steps.append(_n) or _f(*args)
            monkeypatch.setattr(solver, name, recording)
        monkeypatch.setattr(solver, "MAX_EDGE_SETS", cap)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(decomposition_to_json(d)))
        code = run(["solve", "-d", str(path), "--property", "planar"])
        out = json.loads(capsys.readouterr().out)
        past = [i for i, held in enumerate(self.EDGE_SETS) if held > cap]
        if not past:
            assert code == 0 and out["value"] == 13 and tuple(out["stats"]["edgeSets"]) == self.EDGE_SETS
            return
        message = f"a Sub_P table grew past {cap} accepted edge sets"
        assert code == 3 and out == {"error": message}
        assert len(steps) == past[0] + 1
        steps.clear()
        with pytest.raises(TooLarge) as refused:
            solve_on_decomposition(d, PLANAR, MAX_EDGES)
        assert str(refused.value) == message and len(steps) == past[0] + 1

    def test_the_table_cap(self, monkeypatch, capsys, tmp_path):
        from sdkit import solver
        from sdkit.cli import run

        d = ladder(5)[1]
        entries = solve_on_decomposition(d, PLANAR, MAX_EDGES).stats.table_sizes[-1]
        monkeypatch.setattr(solver, "MAX_TABLE_ENTRIES", entries - 1)
        result = solve_on_decomposition(d, PLANAR, MAX_EDGES)
        assert result.value == 13
        with pytest.raises(TooLarge) as refused:
            result.table
        assert str(refused.value) == f"a Sub_P table of {entries} entries is past the cap of {entries - 1}"
        # solve builds no table, so the cap leaves it as it is
        path = tmp_path / "d.json"
        path.write_text(json.dumps(decomposition_to_json(d)))
        assert run(["solve", "-d", str(path), "--property", "planar"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["tableSizes"][-1] == entries


class TestBoundaryKeyedGlue:
    """PATHS and BIPARTITE carry a boundary_rule: the glue decides once per
    (trace, boundary summaries) key and reuses the verdict for every pair
    with that key."""

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE], ids=lambda p: p.name)
    def test_every_pair_with_one_key_gets_one_verdict(self, monkeypatch, td_example, predicate):
        instances = ORACLE_INSTANCES + forest_instances()
        instances += [ladder(k)[1] for k in (3, 4, 5)] + [two_bag_bowtie_decomposition(), td_example]
        pairs = keys = 0
        for d in instances:
            for left, right in glues_of(monkeypatch, d, predicate):
                for key, verdicts in verdicts_by_key(left, right, predicate).items():
                    assert len(set(verdicts)) == 1, key
                    pairs += len(verdicts)
                    keys += 1
        assert pairs > 10 * keys

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE], ids=lambda p: p.name)
    def test_ladder_5_family_is_the_sub_p_family_of_the_colimit(self, predicate):
        d = ladder(5)[1]
        glued, _ = evaluate_colimit(d)
        family = _listed(_accepted_edge_sets(glued.edge_list(), predicate)[0])
        result = solve_on_decomposition(d, predicate, MAX_EDGES)
        assert len(result.family) == len(family) and set(result.family) == set(family)

    def test_the_claim_belongs_to_the_predicate(self):
        assert PATHS.boundary_rule is not None and BIPARTITE.boundary_rule is not None
        assert PLANAR.boundary_rule is None
        assert PropertyPredicate("user", predicate_paths).boundary_rule is None
        assert dataclasses.replace(BIPARTITE, evaluator=predicate_bipartite).boundary_rule is not None


def summary_route_instances():
    """The decompositions the summary route is checked on against the
    edge-set fold, besides ORACLE_INSTANCES (which are also rerooted)."""
    from sdkit import decomposition_from_json

    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    pool = json.loads((fixtures.parent / "perfbench" / "data" / "pool.json").read_text())
    out = forest_instances() + [ladder(k)[1] for k in range(2, 7)] + [two_bag_bowtie_decomposition()]
    out += [decomposition_from_json(dec) for _, dec in sorted(pool["decompositions"].items())]
    out += [decomposition_from_json(json.loads(path.read_text())) for path in sorted(fixtures.glob("*.dec.json"))]
    rng = random.Random(307)
    out += [random_graph_decomposition(rng, 5, 5) for _ in range(300)]
    return [d for d in out if d.value_kind == GRAPH]


OBJECTIVES = (MAX_EDGES, MAX_VERTICES, MIN_EDGES, MIN_VERTICES)


class TestSummaryRoute:
    """_solve_at_boundary gives what solve_on_decomposition gives: value,
    witness and every counter but the predicate calls. Its glue asks once
    per (trace, left summary, right summary) key."""

    @staticmethod
    def assert_alike(monkeypatch, d, predicate, root=None):
        from sdkit.solver import _best_in_family

        full = solve_on_decomposition(d, predicate, MAX_EDGES, root=root)
        glues = glues_of(monkeypatch, d, predicate, root)
        keys = sum(len(verdicts_by_key(left, right, predicate)) for left, right in glues)
        for objective in OBJECTIVES:
            witness = _best_in_family(full.family, full.ambient.vertices, objective)
            result = _solve_at_boundary(d, predicate, objective, root=root) if d.bags else solve(d, predicate, objective)
            assert (result.witness, result.value) == (witness, witness and objective.weight(witness))
            assert result.ambient == full.ambient
            new, old = result.stats, full.stats
            counters = lambda stats: (stats.table_sizes, stats.edge_sets, stats.compositions)
            assert counters(new) == counters(old)
            assert new.predicate_calls[1] == keys

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE], ids=lambda p: p.name)
    def test_equals_the_edge_set_fold(self, monkeypatch, predicate):
        for d in ORACLE_INSTANCES:
            for root in [None, *range(d.shape.vertices)]:
                self.assert_alike(monkeypatch, d, predicate, root)
        for d in summary_route_instances():
            self.assert_alike(monkeypatch, d, predicate)

    def test_a_predicate_rejecting_everything_gives_the_same_empty_result(self, td_example):
        never = dataclasses.replace(PATHS, evaluator=lambda sub: False)
        assert never.boundary_rule is not None
        for d in (ORACLE_INSTANCES[0], two_bag_bowtie_decomposition(), ladder(4)[1], td_example):
            result = _solve_at_boundary(d, never, MAX_EDGES) if d.bags else solve(d, never, MAX_EDGES)
            full = solve_on_decomposition(d, never, MAX_EDGES)
            assert result.witness is result.value is None is full.witness
            assert result.stats == full.stats

    @pytest.mark.parametrize("cap", [6, 7, 39, 40, 603, 604, 3834, 3835])
    def test_both_routes_meet_the_edge_set_cap_alike(self, monkeypatch, capsys, tmp_path, cap):
        from sdkit import solver
        from sdkit.cli import run

        monkeypatch.setattr(solver, "MAX_EDGE_SETS", cap)
        for d in (two_bag_bowtie_decomposition(), ladder(5)[1]):
            outcomes = []
            for route in (solve_on_decomposition, _solve_at_boundary):
                try:
                    outcomes.append(route(d, PATHS, MAX_EDGES).witness)
                except TooLarge as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            path = tmp_path / "d.json"
            path.write_text(json.dumps(decomposition_to_json(d)))
            code = run(["solve", "-d", str(path)])
            out = json.loads(capsys.readouterr().out)
            if isinstance(outcomes[0], str):
                assert code == 3 and out["error"] == outcomes[0] and str(cap) in out["error"]
            else:
                assert code == 0 and out["value"] == len(outcomes[0].edges)

    def test_k4_leaf_asks_once_per_edge_and_summary(self):
        k4 = complete_graph(4)
        edge_list = k4.edge_list()
        subsets = [frozenset(c) for r in range(7) for c in itertools.combinations(edge_list, r)]
        accepted = [edges for edges in subsets if predicate_paths(Subobject(ends(edges), edges))]
        keys = {
            (j, _boundary_summary(edges, list(edge_list[j])))
            for edges in accepted
            for j in range(1 + max((edge_list.index(e) for e in edges), default=-1), len(edge_list))
        }
        made = []
        counted = dataclasses.replace(PATHS, evaluator=lambda sub: made.append(sub) or predicate_paths(sub))
        result = _solve_at_boundary(one_bag(k4), counted, MAX_EDGES)
        # 34 accepted edge sets: 1 + 33 in TestLeafPredicateCalls.test_k4_paths
        assert len(accepted) == result.stats.edge_sets[0] == 34
        # the count is of verdicts: the rule decides the keys, the evaluator the empty subobject
        assert result.stats.predicate_calls == (1 + len(keys), 0) == (29, 0)
        assert made == [EMPTY_SUBOBJECT]

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE], ids=lambda p: p.name)
    def test_leaves_ask_once_per_edge_and_summary(self, predicate):
        """The leaf count of predicateCalls equals the brute-force key count
        (util.summary_leaf_calls) on every instance, as on K4 above."""
        for d in summary_route_instances():
            assert _solve_at_boundary(d, predicate, MAX_EDGES).stats.predicate_calls[0] == summary_leaf_calls(d, predicate)

    def test_a_one_bag_leaf_holds_one_branch_of_its_sets(self):
        # the leaf walks its 12,412 accepted edge sets depth-first, holding at
        # most 21 * 22 / 2 of them at once; keeping a whole level of them
        # peaked at about 2 MiB
        import tracemalloc

        tracemalloc.start()
        try:
            result = _solve_at_boundary(one_bag(complete_graph(7)), PATHS, MAX_EDGES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.value == 6 and result.stats.edge_sets == (12412,)
        assert peak < 256 << 10, peak

    def test_solve_and_bench_take_the_summary_route(self, capsys, tmp_path):
        from sdkit.cli import run

        d = ladder(4)[1]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(decomposition_to_json(d)))
        for predicate in (PATHS, BIPARTITE, PLANAR):
            assert run(["solve", "-d", str(path), "--property", predicate.name]) == 0
            calls = json.loads(capsys.readouterr().out)["stats"]["predicateCalls"]
            route = _solve_at_boundary if predicate.boundary_rule is not None else solve_on_decomposition
            assert tuple(calls.values()) == route(d, predicate, MAX_EDGES).stats.predicate_calls[::-1]
        assert run(["bench", "--config", str(self.bench_config(tmp_path, path))]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].split(",")[:7] == ["ladder-4", "8", "10", "3", "paths", "7", "22080"]

    @staticmethod
    def bench_config(tmp_path, path):
        config = tmp_path / "bench.json"
        instances = [{"id": "ladder-4", "decomposition": str(path)}]
        config.write_text(json.dumps({"predicates": ["paths"], "instances": instances}))
        return config

    def test_named_problems_take_their_routes(self, monkeypatch):
        from sdkit import solver

        g, d, labeling = ladder(4)
        routes = []
        for name in ("solve_on_decomposition", "_solve_at_boundary"):
            original = getattr(solver, name)
            recording = lambda *args, _f=original, _n=name: routes.append(_n) or _f(*args)
            monkeypatch.setattr(solver, name, recording)
        assert max_bipartite_subgraph(g, d, labeling)[0] == 10
        assert longest_path(g, d, labeling)[0] == 7
        assert max_planar_subgraph(g, d, labeling)[0] == 10
        assert routes == ["_solve_at_boundary", "_solve_at_boundary", "solve_on_decomposition"]


def matching(sub: Subobject) -> bool:
    return all(degree <= 1 for degree in collections.Counter(v for edge in sub.edges for v in edge).values())


def even_cycles_and_paths(sub: Subobject) -> bool:
    degrees = collections.Counter(v for edge in sub.edges for v in edge)
    return all(degree <= 2 for degree in degrees.values()) and predicate_bipartite(sub)


def forest(sub: Subobject) -> bool:
    return nx.is_forest(nx.Graph(list(sub.edges))) if sub.edges else True


class TestBoundaryRule:
    """The summary route reads every verdict off its keys by the predicate's
    BoundaryRule (summaries._judge) and asks the evaluator only about the
    empty subobject, once per bag."""

    @staticmethod
    def unions(monkeypatch, d, predicate, root):
        """(arguments of the route's judge, the evaluator's verdict) for
        every union the route decides by a key: S | {e} for each accepted
        edge set S of a bag and each edge e of the bag past S's last, with e
        on the virtual vertices 0 and 1; and each trace-matched pair of a
        glue with no side inside the shared edges (verdicts_by_key). The
        arguments are (interface, trace mask, then the packed degrees and
        the components of each side less the trace), as summaries._judge
        takes them after the interface."""
        glued, _, bag_edges = _solvable_colimit(d)
        width = glued.vertices.bit_length()
        bits = {pair: 1 << len(glued.edges) - 1 - r for r, pair in enumerate(glued.edge_list())}
        pack = lambda degrees: sum(k << width * x for x, k in enumerate(degrees))
        for edge_list in bag_edges:
            for size in range(len(edge_list) + 1):
                for chosen in itertools.combinations(range(len(edge_list)), size):
                    edges = frozenset(edge_list[i] for i in chosen)
                    if not predicate.evaluator(Subobject(ends(edges), edges)):
                        continue
                    for e in edge_list[chosen[-1] + 1 if chosen else 0 :]:
                        degrees, components = _boundary_summary(edges, list(e))
                        arguments = ((0, 1), 0, pack(degrees), components, pack((1, 1)), (0, 1))
                        yield arguments, predicate.evaluator(Subobject(ends(edges | {e}), edges | {e}))
        for left, right in glues_of(monkeypatch, d, predicate, root):
            iface = tuple(sorted(left.vertices & right.vertices))
            for (trace, *summaries), verdicts in verdicts_by_key(left, right, predicate).items():
                arguments = [iface, sum(bits[e] for e in trace)]
                for degrees, components in summaries:
                    arguments += [sum(k << width * x for x, k in zip(iface, degrees)), components]
                for accepted in verdicts:
                    yield tuple(arguments), accepted

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE], ids=lambda p: p.name)
    def test_every_verdict_the_route_decides_is_the_evaluators(self, monkeypatch, td_example, predicate):
        """At every leaf key and glue key pair the route decides, the rule's
        verdict (summaries._judge) is the evaluator's on every union with
        that key, the union of the samples among them; and every verdict the
        route decides is one of those."""
        from sdkit import summaries

        decided, judge_of = {}, summaries._judge

        def recording(rule, iface, width, edges_of):
            judge = judge_of(rule, iface, width, edges_of)

            def recorded(*arguments):
                accepted = decided[(tuple(iface), *arguments)] = judge(*arguments)
                return accepted

            return recorded

        monkeypatch.setattr(summaries, "_judge", recording)
        runs = [(d, root) for d in ORACLE_INSTANCES if d.bags for root in [None, *range(d.shape.vertices)]]
        runs += [(d, None) for d in summary_route_instances() + [td_example]]
        seen = set()
        for d, root in runs:
            decided.clear()
            _solve_at_boundary(d, predicate, MAX_EDGES, root=root)
            read = set()
            for arguments, accepted in self.unions(monkeypatch, d, predicate, root):
                assert decided[arguments] == accepted, arguments
                read.add(arguments)
                seen.add(accepted)
            assert read == set(decided)
        assert seen == {True, False}

    @pytest.mark.parametrize("predicate", [PATHS, BIPARTITE], ids=lambda p: p.name)
    def test_the_evaluator_is_asked_once_per_bag(self, bowtie_decomposition, td_example, predicate):
        """A counting copy of the predicate sees one call per bag, on the
        empty subobject, and predicateCalls is what tests/golden/solve.json
        pins: it counts the verdicts decided."""
        import sdkit

        golden = json.loads((pathlib.Path(__file__).resolve().parent / "golden" / "solve.json").read_text())
        made = []
        counting = dataclasses.replace(predicate, evaluator=lambda sub: made.append(sub) or predicate.evaluator(sub))
        instances = {
            "bowtie.dec.json": bowtie_decomposition,
            "ladder-4": ladder(4)[1],
            "td_example.dec.json": td_example,
        }
        pinned = 0
        for name, d in instances.items():
            for objective in (MAX_EDGES, MAX_VERTICES, MIN_EDGES):
                made.clear()
                result = sdkit.solve(d, counting, objective)
                assert made == [EMPTY_SUBOBJECT] * d.shape.vertices
                case = golden.get(f"{name} {predicate.name} {objective.name}")
                if case is not None:
                    pinned += 1
                    assert dict(zip(("leaf", "glue"), result.stats.predicate_calls)) == case["stats"]["predicateCalls"]
        assert pinned == 6

    @pytest.mark.parametrize(
        "evaluator, rule",
        [(matching, BoundaryRule(1, "none")), (even_cycles_and_paths, BoundaryRule(2, "even")), (forest, BoundaryRule(None, "none"))],
        ids=["matching", "even-cycles-and-paths", "forest"],
    )
    def test_a_user_predicate_with_a_rule_takes_the_summary_route(self, monkeypatch, td_example, evaluator, rule):
        predicate = PropertyPredicate("user", evaluator, rule)
        instances = ORACLE_INSTANCES + [ladder(k)[1] for k in (3, 4)] + [two_bag_bowtie_decomposition(), td_example]
        for d in instances:
            TestSummaryRoute.assert_alike(monkeypatch, d, predicate)

    @pytest.mark.parametrize("max_degree, cycles", [(2, "odd"), (2, "any"), (-1, "none"), (True, "none"), (2.0, "even")])
    def test_a_rule_outside_its_range_is_refused(self, max_degree, cycles):
        with pytest.raises(ValidationError):
            BoundaryRule(max_degree, cycles)


class TestOneDoor:
    """sdkit.solve is the one public solve and the only caller of the
    summary route; its route rule reads predicate.boundary_rule and d.bags
    alone."""

    @staticmethod
    def k5_decompositions():
        k5 = complete_graph(5)
        one = decomposition_from_vertex_bags(k5, Graph(1), [range(5)])[0]
        two = decomposition_from_vertex_bags(k5, Graph(2, [(0, 1)]), [range(5), range(1, 5)])[0]
        return one, two

    @pytest.mark.parametrize(
        "objective, value", [(MAX_EDGES, 9), (MAX_VERTICES, 5), (MIN_EDGES, 0)], ids=["max-edges", "max-vertices", "min-edges"]
    )
    def test_planar_k5_gets_a_planar_witness(self, objective, value):
        """The summary route, asked about planar, answered 10 with K5 itself
        on both decompositions."""
        import sdkit

        for d in self.k5_decompositions():
            result = sdkit.solve(d, PLANAR, objective)
            assert result.value == value
            assert predicate_planar(result.witness)
            assert result.witness.edges <= result.ambient.edges

    def test_sdkit_exports_solve_and_not_the_summary_route(self):
        import sdkit
        from sdkit import solver

        assert sdkit.solve is solver.solve
        assert not hasattr(sdkit, "solve_at_boundary")

    def test_the_route_reads_the_predicate_and_the_bags_alone(self, monkeypatch):
        from sdkit import solver

        routes = []
        for name in ("solve_on_decomposition", "_solve_at_boundary"):
            original = getattr(solver, name)
            recording = lambda *args, _f=original, _n=name: routes.append(_n) or _f(*args)
            monkeypatch.setattr(solver, name, recording)
        undecided = dataclasses.replace(PATHS, boundary_rule=None)
        empty, bowtie = ORACLE_INSTANCES[0], two_bag_bowtie_decomposition()
        assert not empty.bags
        for d, predicate, route in [
            (empty, PATHS, "solve_on_decomposition"),
            (empty, BIPARTITE, "solve_on_decomposition"),
            (empty, PLANAR, "solve_on_decomposition"),
            (bowtie, undecided, "solve_on_decomposition"),
            (bowtie, PLANAR, "solve_on_decomposition"),
            (bowtie, PATHS, "_solve_at_boundary"),
            (bowtie, BIPARTITE, "_solve_at_boundary"),
        ]:
            routes.clear()
            result = solve(d, predicate, MAX_EDGES)
            assert routes == [route]
            assert result.value == solve_on_decomposition(d, predicate, MAX_EDGES).value


class TestLongestPath:
    """longest_path on the summary route equals the pick of the longest
    single path out of the edge-set fold's family (longest_single_path)."""

    @staticmethod
    def answer(best):
        return (len(best.edges), best) if best is not None else (0, EMPTY_SUBOBJECT)

    def test_equals_the_family_pick(self):
        from sdkit.solver import _LONGEST_PATH, _best_in_family

        for d in ORACLE_INSTANCES + summary_route_instances():
            glued, _ = evaluate_colimit(d)
            full = solve_on_decomposition(d, PATHS, MAX_EDGES)
            best = longest_single_path(full)
            assert longest_path(glued, d)[:2] == self.answer(best)
            # the one witness rule, on the edge-set fold's whole family
            assert _best_in_family(full.family, glued.vertices, _LONGEST_PATH) == best
        for d in ORACLE_INSTANCES:
            for root in range(d.shape.vertices):
                best = longest_single_path(solve_on_decomposition(d, PATHS, MAX_EDGES, root=root))
                assert _solve_at_boundary(d, PATHS, _LONGEST_PATH, root=root).witness == best

    @pytest.mark.parametrize("k", range(2, 8))
    def test_ladder_k_has_a_path_through_every_vertex(self, k):
        g, d, labeling = ladder(k)
        glued, _ = evaluate_colimit(d)
        best = longest_single_path(solve_on_decomposition(d, PATHS, MAX_EDGES))
        assert longest_path(glued, d)[:2] == self.answer(best)
        value, witness, _ = longest_path(g, d, labeling)
        assert value == 2 * k - 1 and _is_single_path(witness) and witness.edges <= g.edges

    def test_ladder_8_is_refused_as_solve_refuses_it(self, capsys, tmp_path):
        from sdkit.cli import run

        g, d, labeling = ladder(8)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(decomposition_to_json(d)))
        assert run(["solve", "-d", str(path), "--property", "paths"]) == 3
        message = json.loads(capsys.readouterr().out)["error"]
        with pytest.raises(TooLarge) as refused:
            longest_path(g, d, labeling)
        assert str(refused.value) == message


def graphs_with_their_decompositions():
    """(g, d) for the fixtures and the pool's `solve -g` queries whose
    colimit numbers its vertices otherwise than g: each g as given and
    relabeled by a seeded permutation, kept when the bijection from the
    colimit onto g is not the identity."""
    from sdkit import decomposition_from_json, tree_decomposition_reading

    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    pool = json.loads((fixtures.parent / "perfbench" / "data" / "pool.json").read_text())
    read = lambda name: json.loads((fixtures / name).read_text())
    named = [(read(f"{stem}.json"), read(f"{stem}.dec.json")) for stem in ("bowtie", "p3")]
    named.append((read("td_example_g.json"), read("td_example.dec.json")))
    queries = [q for qs in pool["queries"].values() for q in qs if q["verb"] == "solve" and "graph" in q]
    for g, d in sorted({(q["graph"], q["decomposition"]) for q in queries}):
        named.append((pool["graphs"][g], pool["decompositions"][d]))
    rng = random.Random(271)
    out = []
    for g_json, d_json in named:
        g, d = Graph.from_json(g_json), decomposition_from_json(d_json)
        perm = list(range(g.vertices))
        rng.shuffle(perm)
        for h in (g, Graph(g.vertices, [(perm[u], perm[v]) for u, v in g.edges])):
            if tuple(tree_decomposition_reading(h, d)[1]) != tuple(range(h.vertices)):
                out.append((h, d))
    return out


class TestSolveOnGraph:
    """solve_on_graph answers on g: a Solved whose witness is in g's
    numbering and whose ambient is g, as `sdkit solve -g` prints it."""

    def test_the_witness_lies_in_g(self, capsys, tmp_path):
        from sdkit import predicate_by_name
        from sdkit.cli import run
        from sdkit.solver import Solved, solve_on_graph

        instances = graphs_with_their_decompositions()
        assert len(instances) > 40
        g_path, d_path = tmp_path / "g.json", tmp_path / "d.json"
        for g, d in instances:
            g_path.write_text(json.dumps(g.to_json()))
            d_path.write_text(json.dumps(decomposition_to_json(d)))
            for prop in ("paths", "bipartite", "planar"):
                predicate = predicate_by_name(prop)
                answer = solve_on_graph(g, d, predicate, MAX_EDGES)
                assert type(answer) is Solved and answer.ambient is g
                assert answer.witness.edges <= g.edges and predicate(answer.witness)
                assert answer.witness.vertices <= frozenset(range(g.vertices))
                on_colimit = solve(d, predicate, MAX_EDGES)
                assert (answer.value, answer.stats) == (on_colimit.value, on_colimit.stats)
                assert run(["solve", "-g", str(g_path), "-d", str(d_path), "--property", prop]) == 0
                printed = json.loads(capsys.readouterr().out)
                assert (printed["value"], printed["witness"]) == (answer.value, answer.witness.to_json())

    def test_longest_path_on_the_empty_graph(self):
        from sdkit.solver import solve_on_graph

        g = Graph(0)
        d = StructuredDecomposition(Graph(0), GRAPH, (), ())
        value, witness, stats = longest_path(g, d)
        assert (value, witness) == (0, EMPTY_SUBOBJECT)
        assert solve_on_graph(g, d, PATHS, _LONGEST_PATH) == (None, None, stats, g)
