import collections
import contextlib
import enum
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from sdkit import FinSet, Graph, TooLarge, decomposition_from_json, decomposition_to_json
from sdkit import cli
from sdkit.core import JSON_SIZE_CAP
from sdkit.cli import FLAGS, VERBS, build_parser, run
from sdkit.width import LAYERED_CAP
from util import BUDGET_MIB, BUDGET_S, CHILD, grid, grid_path_decomposition


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestVerbs:
    def test_solve_reports_the_four_edge_path(self, capsys, fixtures_dir):
        code, out = invoke(
            capsys,
            "solve",
            "--property",
            "paths",
            "--objective",
            "max-edges",
            "-g",
            fx(fixtures_dir, "bowtie.json"),
            "-d",
            fx(fixtures_dir, "bowtie.dec.json"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 4
        assert payload["stats"]["pairCompositions"] == 289
        witness = payload["witness"]
        assert sorted(witness) == ["edges", "vertices"]
        assert len(witness["edges"]) == 4
        assert all(u < v and {u, v} <= set(witness["vertices"]) for u, v in witness["edges"])

    def test_treewidth_of_k5(self, capsys, fixtures_dir):
        code, out = invoke(capsys, "treewidth", "-g", fx(fixtures_dir, "k5.json"))
        assert code == 0
        assert json.loads(out) == {"treewidth": 4}

    def test_colim_lists_nine_elements(self, capsys, fixtures_dir):
        code, out = invoke(capsys, "colim", "-d", fx(fixtures_dir, "five_bag_tree.dec.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["valueKind"] == "finset"
        assert FinSet.from_json(payload["object"]) == FinSet(9)
        assert len(payload["cocone"]) == 5

    def test_check_clean_decomposition(self, capsys, fixtures_dir):
        code, out = invoke(capsys, "check", "-d", fx(fixtures_dir, "completion_dh.dec.json"))
        assert code == 0
        assert json.loads(out) == {"violations": []}

    def test_check_reports_violations(self, capsys, tmp_path, fixtures_dir):
        data = json.load(open(fx(fixtures_dir, "five_bag_tree.dec.json")))
        data["bags"] = data["bags"][:-1]
        bad = tmp_path / "bad.dec.json"
        bad.write_text(json.dumps(data))
        code, out = invoke(capsys, "check", "-d", str(bad))
        assert code == 2
        assert json.loads(out)["violations"]

    def test_to_arrow_and_back(self, capsys, tmp_path, fixtures_dir):
        code, out = invoke(capsys, "to-arrow", "-d", fx(fixtures_dir, "five_bag_tree.dec.json"))
        assert code == 0
        arrow_file = tmp_path / "arrow.json"
        arrow_file.write_text(out)
        code, out2 = invoke(capsys, "from-arrow", "--arrow", str(arrow_file))
        assert code == 0
        recovered = decomposition_from_json(json.loads(out2))
        assert FinSet(9) == __import__("sdkit").evaluate_colimit(recovered)[0]

    def test_restrict_outputs_a_decomposition(self, capsys, tmp_path, fixtures_dir):
        # complete the finite-set fixture by hand: the graph-valued bowtie
        # decomposition restricted along a 4-edge subgraph of its colimit
        sub = Graph(5, [(0, 2), (1, 2), (1, 4), (3, 4)])
        sub_file = tmp_path / "sub.json"
        sub_file.write_text(json.dumps(sub.to_json()))
        code, out = invoke(
            capsys,
            "restrict",
            "-d",
            fx(fixtures_dir, "bowtie.dec.json"),
            "-g",
            str(sub_file),
        )
        assert code == 0
        restricted = decomposition_from_json(json.loads(out))
        assert [b.vertices for b in restricted.bags] == [3, 3]
        # the same subgraph as a morphism file: its identity embedding
        morphism = tmp_path / "m.json"
        morphism.write_text(json.dumps({"dom": sub.to_json(), "map": list(range(5))}))
        code, out_morphism = invoke(
            capsys, "restrict", "-d", fx(fixtures_dir, "bowtie.dec.json"), "--morphism", str(morphism)
        )
        assert (code, out_morphism) == (0, out)

    def test_chordal_and_clique_tree(self, capsys, fixtures_dir):
        code, out = invoke(capsys, "chordal", "-g", fx(fixtures_dir, "completion_h.json"))
        assert code == 0
        assert json.loads(out)["chordal"] is True
        code, out = invoke(capsys, "clique-tree", "-g", fx(fixtures_dir, "completion_h.json"))
        assert code == 0
        d = decomposition_from_json(json.loads(out))
        assert len(d.bags) == 5

    def test_clique_tree_rejects_non_chordal(self, capsys, tmp_path):
        c4 = tmp_path / "c4.json"
        c4.write_text(json.dumps(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).to_json()))
        code, out = invoke(capsys, "clique-tree", "-g", str(c4))
        assert code == 2
        assert "chordal" in json.loads(out)["error"]

    def test_co_treewidth(self, capsys, tmp_path):
        edgeless = tmp_path / "d5.json"
        edgeless.write_text(json.dumps(Graph(5).to_json()))
        code, out = invoke(capsys, "co-treewidth", "-g", str(edgeless))
        assert code == 0
        assert json.loads(out) == {"coTreewidth": 4}

    def test_layered_width(self, capsys, fixtures_dir):
        code, out = invoke(
            capsys,
            "layered-width",
            "-g",
            fx(fixtures_dir, "p3.json"),
            "-l",
            fx(fixtures_dir, "p3_layering.json"),
            "-d",
            fx(fixtures_dir, "p3.dec.json"),
        )
        assert code == 0
        assert json.loads(out) == {"layeredWidth": 1}

    def test_layered_width_exact(self, capsys, fixtures_dir):
        code, out = invoke(
            capsys, "layered-width", "-g", fx(fixtures_dir, "p3.json"), "--exact"
        )
        assert code == 0
        assert json.loads(out) == {"layeredTreewidth": 1}

    def test_h_width(self, capsys, fixtures_dir):
        code, out = invoke(
            capsys,
            "h-width",
            "-d",
            fx(fixtures_dir, "bowtie.dec.json"),
            "--property",
            "bipartite",
        )
        assert code == 0
        assert json.loads(out) == {"hWidth": 3}

    def test_h_width_planar_on_a_one_bag_grid(self, capsys, tmp_path):
        one_bag = tmp_path / "grid.dec.json"
        one_bag.write_text(json.dumps({
            "shape": {"vertices": 1, "edges": []},
            "valueKind": "graph",
            "bags": [grid(3, 7).to_json()],
            "adhesions": [],
        }))
        code, out = invoke(capsys, "h-width", "-d", str(one_bag), "--property", "planar")
        assert code == 0
        assert json.loads(out) == {"hWidth": 0}

    def test_removed_solver_flags_are_rejected(self, capsys, fixtures_dir):
        code, out = invoke(
            capsys, "solve", "-d", fx(fixtures_dir, "bowtie.dec.json"), "--property", "paths"
        )
        assert code == 0 and json.loads(out)["value"] == 4
        bowtie = fx(fixtures_dir, "bowtie.dec.json")
        for argv in (
            ["solve", "-d", bowtie, "--threads", "3"],
            ["solve", "-d", bowtie, "--prune"],
            ["bench", "--prune"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                run(argv)
            assert excinfo.value.code == 2


class TestErrorHandling:
    def test_json_booleans_are_not_vertex_ids(self, capsys, tmp_path, fixtures_dir):
        graph = tmp_path / "g.json"
        graph.write_text('{"vertices": 2, "edges": [[0, true]]}')
        code, out = invoke(capsys, "treewidth", "-g", str(graph))
        assert code == 2 and "error" in json.loads(out)
        morphism = tmp_path / "m.json"
        morphism.write_text('{"dom": {"vertices": 1, "edges": []}, "map": [false]}')
        code, out = invoke(
            capsys, "restrict", "-d", fx(fixtures_dir, "bowtie.dec.json"), "--morphism", str(morphism)
        )
        assert code == 2 and "error" in json.loads(out)

    def test_restrict_rejects_a_finset_valued_decomposition(self, capsys, tmp_path, fixtures_dir):
        morphism = tmp_path / "m.json"
        morphism.write_text(json.dumps({"dom": Graph(3).to_json(), "map": [0, 1, 2]}))
        finset = fx(fixtures_dir, "completion_dh.dec.json")
        for flag, path in (("-g", fx(fixtures_dir, "p3.json")), ("--morphism", str(morphism))):
            code, out = invoke(capsys, "restrict", "-d", finset, flag, path)
            assert code == 2
            assert json.loads(out) == {"error": "restriction is defined for graph-valued decompositions"}

    # a graph-valued decomposition whose source leg sends both apex vertices
    # to the one vertex of bag 0
    WILD = {
        "valueKind": "graph",
        "shape": {"vertices": 2, "edges": [[0, 1]]},
        "bags": [{"vertices": 1, "edges": []}, {"vertices": 2, "edges": []}],
        "adhesions": [
            {"edge": [0, 1], "apex": {"vertices": 2, "edges": []}, "legSource": [0, 0], "legTarget": [0, 1]}
        ],
    }

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            (["solve", "-d", "w"], {"w": WILD}, "solving needs injective adhesion legs"),
            (["h-width", "-d", "w"], {"w": WILD}, "h-width needs injective adhesion legs"),
            (
                ["restrict", "-d", "fx:bowtie.dec.json", "--morphism", "m"],
                {"m": [0, 1]},
                "morphism JSON must be {'dom': <graph>, 'map': [..]}",
            ),
            (["restrict", "-d", "fx:bowtie.dec.json"], {}, "restrict needs --morphism or -g/--graph"),
            (
                ["layered-width", "-g", "fx:p3.json"],
                {},
                "layered-width needs -l/--layering and -d/--decomposition (or --exact)",
            ),
            (
                ["layered-width", "-g", "fx:p3.json", "-l", "fx:p3_layering.json"],
                {},
                "layered-width needs -l/--layering and -d/--decomposition (or --exact)",
            ),
            (
                ["solve", "-d", "fx:bowtie.dec.json", "--property", "nope"],
                {},
                "unknown property 'nope'; choose from ['bipartite', 'paths', 'planar']",
            ),
            (
                ["solve", "-d", "fx:bowtie.dec.json", "--objective", "nope"],
                {},
                "unknown objective 'nope'; choose from ['max-edges', 'max-vertices', 'min-edges']",
            ),
            (
                ["layered-width", "-g", "fx:p3.json", "-l", "l", "-d", "fx:p3.dec.json"],
                {"l": [[0], [1], [2]]},
                "layering JSON must be {'layers': [[v, ..], ..]}",
            ),
            (
                ["layered-width", "-g", "fx:p3.json", "-l", "l", "-d", "fx:p3.dec.json"],
                {"l": {"layers": [[0], [1, "2"]]}},
                "layer must be an array of vertex ids, got [1, '2']",
            ),
            (["from-arrow", "--arrow", "a"], {"a": [1]}, "arrow presentation JSON must be an object"),
            (
                ["from-arrow", "--arrow", "a"],
                {"a": {"total": {"vertices": 1, "edges": []}, "base": {"vertices": 1, "edges": []}, "projection": [0.5]}},
                "projection must be an array of base vertices",
            ),
        ],
    )
    def test_bad_input_exits_two_with_its_message(self, capsys, tmp_path, fixtures_dir, argv, files, message):
        """fx:NAME names a fixture; any other file word is written from files."""
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        words = [
            fx(fixtures_dir, word[3:]) if word.startswith("fx:") else str(tmp_path / word) if word in files else word
            for word in argv
        ]
        assert invoke(capsys, *words) == (2, json.dumps({"error": message}, sort_keys=True, indent=2) + "\n")

    def test_malformed_json_exits_two_with_position(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"vertices": 3, "edges": [[0, 1]')
        code, out = invoke(capsys, "treewidth", "-g", str(broken))
        assert code == 2
        message = json.loads(out)["error"]
        assert "line 1" in message and "column" in message

    # bytes no JSON reader gets through: nesting past the decoder's recursion
    # limit, text that is not UTF-8, and an integer past Python's 4,300-digit
    # limit for reading one
    UNREADABLE = {
        "deep": b"[" * 100000 + b"]" * 100000,
        "not-utf-8": b"\x9c\xe2\xff",
        "long-integer": b'{"vertices": ' + b"9" * 5000 + b', "edges": []}',
    }

    @pytest.mark.parametrize("content", sorted(UNREADABLE))
    @pytest.mark.parametrize("verb, flag", [("treewidth", "-g"), ("colim", "-d"), ("bench", "--config")])
    def test_unreadable_json_exits_two(self, capsys, tmp_path, content, verb, flag):
        path = tmp_path / "unreadable.json"
        path.write_bytes(self.UNREADABLE[content])
        code, out = invoke(capsys, verb, flag, str(path))
        assert code == 2
        assert str(path) in json.loads(out)["error"]

    # files whose bytes a reader could take in more than one way, each with
    # the message sdkit check -g gives: line breaks count as a text-mode read
    # counts them (a lone CR and CRLF are each one), a BOM is kept as text, and
    # a byte that is not UTF-8 is reported at its offset in the whole file
    ODD_BYTES = {
        "lone-cr": (
            b'{"vertices": 2,\r"edges": [[0, 1]\r, oops]}',
            "{path}: malformed JSON at line 3 column 3: Expecting value",
        ),
        "crlf": (
            b'{"vertices": 2,\r\n"edges": [[0, 1]\r\n, oops]}',
            "{path}: malformed JSON at line 3 column 3: Expecting value",
        ),
        "cr-in-a-string": (
            b'{"vertices": 2, "edges": [[0, 1]], "a\rb": 1\r\n,}',
            "{path}: malformed JSON at line 1 column 38: Invalid control character at",
        ),
        "utf-8-bom": (
            b'\xef\xbb\xbf{"vertices": 2, "edges": [[0, 1]]}',
            "{path}: malformed JSON at line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)",
        ),
        "bad-byte-past-8-kb": (
            b'{"vertices": 2,\r\n"edges": [[0, 1]], "pad": "' + b"x" * 20980 + b'\xff"}',
            "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 21024: invalid start byte",
        ),
        "utf-16": (
            '{"vertices": 2, "edges": [[0, 1]]}'.encode("utf-16"),
            "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
    }

    @pytest.mark.parametrize("name", sorted(ODD_BYTES))
    def test_odd_bytes_keep_their_message(self, capsys, tmp_path, name):
        content, message = self.ODD_BYTES[name]
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        code, out = invoke(capsys, "check", "-g", str(path))
        assert (code, json.loads(out)) == (2, {"violations": [message.format(path=path)]})

    def test_json_value_reads_as_json_loads(self):
        """cli._json_value gives json.loads's value, or its error with the
        same message and position, on texts around every whitespace, BOM,
        extra-data and truncation case."""
        rng = random.Random(21)
        pieces = ['{"a": [1, 2]}', "[]", "7", '"s"', "null", "{", "]", "1 2", "[1,]", "-", '"\\ud800"', "1e5", "nul"]
        blanks = ["", " ", "\n", "\t\r\n ", "\x0b", "\xa0", "\ufeff"]
        texts = [b + p + a for p in pieces for b in blanks for a in blanks]
        texts += ["".join(rng.choice(pieces + blanks) for _ in range(rng.randint(0, 4))) for _ in range(500)]

        def read(reader, text):
            try:
                return "value", reader(text)
            except json.JSONDecodeError as exc:
                return "error", exc.msg, exc.pos, exc.lineno, exc.colno

        for text in texts:
            assert read(cli._json_value, text) == read(json.loads, text), repr(text)

    def test_unwritable_output_exits_two(self, capsys, tmp_path, fixtures_dir):
        target = tmp_path / "no-such-dir" / "x.json"
        code, out = invoke(capsys, "treewidth", "-g", fx(fixtures_dir, "k5.json"), "-o", str(target))
        assert code == 2
        assert json.loads(out)["error"].startswith(f"cannot write {target}: ")
        assert not target.parent.exists()

    def test_too_large_exits_three(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(Graph(13).to_json()))
        code, out = invoke(capsys, "treewidth", "-g", str(big))
        assert code == 3

    def test_layered_width_exact_answers_eight_vertices(self, capsys, tmp_path):
        for name, edges, expected in (
            ("c8", [(i, (i + 1) % 8) for i in range(8)], 1),
            ("k8", [(i, j) for i in range(8) for j in range(i + 1, 8)], 4),
        ):
            graph = tmp_path / f"{name}.json"
            graph.write_text(json.dumps(Graph(8, edges).to_json()))
            code, out = invoke(capsys, "layered-width", "-g", str(graph), "--exact")
            assert code == 0
            assert json.loads(out) == {"layeredTreewidth": expected}
        big = tmp_path / "big.json"
        big.write_text(json.dumps(Graph(LAYERED_CAP + 1).to_json()))
        code, out = invoke(capsys, "layered-width", "-g", str(big), "--exact")
        assert code == 3

    def test_solve_on_a_relabeled_graph_over_the_isomorphism_cap_exits_three(self, capsys, tmp_path):
        d, _, relabeled = grid_path_decomposition()
        dec = tmp_path / "d.json"
        dec.write_text(json.dumps(decomposition_to_json(d)))
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(relabeled.to_json()))
        code, out = invoke(capsys, "solve", "-g", str(graph), "-d", str(dec))
        assert code == 3
        assert "supply a labeling" in json.loads(out)["error"]

    def test_solve_against_a_graph_the_decomposition_does_not_glue_to(self, capsys, fixtures_dir):
        code, out = invoke(
            capsys, "solve", "-g", fx(fixtures_dir, "k5.json"), "-d", fx(fixtures_dir, "bowtie.dec.json")
        )
        assert code == 2
        assert json.loads(out) == {
            "error": "the decomposition is not a tree decomposition of the graph"
        }

    def test_unknown_flag_rejected(self, fixtures_dir):
        with pytest.raises(SystemExit) as excinfo:
            run(["treewidth", "-g", fx(fixtures_dir, "k5.json"), "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_file_exits_two(self, capsys):
        code, out = invoke(capsys, "treewidth", "-g", "no-such-file.json")
        assert code == 2


def same_bags_json(kind, bag, count=1):
    """Decomposition JSON of count copies of one bag on an edgeless shape."""
    return {"valueKind": kind, "shape": {"vertices": count, "edges": []}, "bags": [bag] * count, "adhesions": []}


def run_in_child(tmp_path, verb, **files):
    """(finished process, wall seconds) of one CLI verb in a child process
    limited to twice the budget's memory; files maps a one-letter flag to
    its file's JSON."""
    argv = [str(2 * BUDGET_MIB << 20), verb]
    for flag, data in files.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(json.dumps(data))
        argv += [f"-{flag}", str(path)]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True)
    return proc, time.perf_counter() - start


class TestJsonSizeCap:
    """A count read from JSON (vertices, a finite set's size, the bag
    elements of a decomposition in all) past JSON_SIZE_CAP is TooLarge
    before any work: a 34-byte file could otherwise name ten million
    vertices and gigabytes of work."""

    def test_the_cap_is_inclusive(self):
        assert Graph.from_json({"vertices": JSON_SIZE_CAP, "edges": []}) == Graph(JSON_SIZE_CAP)
        assert FinSet.from_json({"size": JSON_SIZE_CAP}) == FinSet(JSON_SIZE_CAP)
        with pytest.raises(TooLarge, match="vertex count"):
            Graph.from_json({"vertices": JSON_SIZE_CAP + 1, "edges": []})
        with pytest.raises(TooLarge, match="finite set size"):
            FinSet.from_json({"size": JSON_SIZE_CAP + 1})
        half = {"size": JSON_SIZE_CAP // 2}
        decomposition_from_json(same_bags_json("finset", half, count=2))
        with pytest.raises(TooLarge, match="total bag size"):
            decomposition_from_json(same_bags_json("finset", half, count=3))

    # ten million: about 4.5 GiB of work without the cap, so these end in a
    # MemoryError under the child's address-space limit instead of exit 3
    @pytest.mark.parametrize(
        "verb, files",
        [
            pytest.param("chordal", {"g": {"vertices": 10**7, "edges": []}}, id="chordal"),
            pytest.param("clique-tree", {"g": {"vertices": 10**7, "edges": []}}, id="clique-tree"),
            pytest.param("colim", {"d": same_bags_json("finset", {"size": 10**7})}, id="colim"),
            pytest.param("to-arrow", {"d": same_bags_json("finset", {"size": 10**7})}, id="to-arrow"),
            pytest.param(
                "restrict",
                {"d": same_bags_json("graph", {"vertices": 10**7, "edges": []}), "g": {"vertices": 1, "edges": []}},
                id="restrict",
            ),
            # each bag is within the cap, twenty of them are not
            pytest.param("colim", {"d": same_bags_json("finset", {"size": JSON_SIZE_CAP}, count=20)}, id="colim-20-bags"),
        ],
    )
    def test_past_the_cap_exits_three_at_once(self, tmp_path, verb, files):
        proc, wall = run_in_child(tmp_path, verb, **files)
        assert proc.returncode == 3, proc.stderr
        assert f"past the cap of {JSON_SIZE_CAP}" in json.loads(proc.stdout)["error"]
        assert wall < 2 * BUDGET_S, wall

    def test_clique_tree_at_the_cap_ends_within_the_budget(self, tmp_path):
        # the slowest of colim, to-arrow, chordal, clique-tree and restrict at
        # the cap: about 3.7 s and 364 MiB
        proc, wall = run_in_child(tmp_path, "clique-tree", g={"vertices": JSON_SIZE_CAP, "edges": []})
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["bags"]) == JSON_SIZE_CAP
        assert wall < 2 * BUDGET_S, wall


class TestDeterminismAndRoundTrip:
    def test_identical_bytes_across_runs(self, capsys, fixtures_dir):
        outputs = []
        for _ in range(2):
            code, out = invoke(
                capsys,
                "solve",
                "--property",
                "planar",
                "-g",
                fx(fixtures_dir, "bowtie.json"),
                "-d",
                fx(fixtures_dir, "bowtie.dec.json"),
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        for verb, flag, name in (
            ("colim", "-d", "five_bag_tree.dec.json"),
            ("treewidth", "-g", "k5.json"),
        ):
            first = invoke(capsys, verb, flag, fx(fixtures_dir, name))
            second = invoke(capsys, verb, flag, fx(fixtures_dir, name))
            assert first == second

    def test_outputs_reparse_under_module_schemas(self, capsys, tmp_path, fixtures_dir):
        code, out = invoke(capsys, "colim", "-d", fx(fixtures_dir, "bowtie.dec.json"))
        payload = json.loads(out)
        Graph.from_json(payload["object"])
        sub = Graph(5, [(0, 1)])
        sub_file = tmp_path / "sub.json"
        sub_file.write_text(json.dumps(sub.to_json()))
        code, out = invoke(
            capsys, "restrict", "-d", fx(fixtures_dir, "bowtie.dec.json"), "-g", str(sub_file)
        )
        assert code == 0
        decomposition_from_json(json.loads(out))

    def test_output_file_flag(self, capsys, tmp_path, fixtures_dir):
        target = tmp_path / "out.json"
        code, out = invoke(
            capsys, "treewidth", "-g", fx(fixtures_dir, "k5.json"), "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {"treewidth": 4}


class TestJsonWriter:
    """_emit_json writes json.dumps(data, sort_keys=True, indent=2) plus a
    newline, byte for byte, and refuses what json.dumps refuses."""

    SHAPES = [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {"f": []}}},
        [(0, 1), (2, -3), (), [(4,)]],
        {"big": 10**30, "negative": -(10**30), "zero": 0, "minus": -7},
        {"t": True, "f": False, "n": None, "list": [True, False, None]},
        "caf\u00e9 \U0001d11e \u2028",
        ['say "hi"', "back\\slash", "\x00\x01\x1f\x7f", "\n\r\t\b\f", "/"],
        {"\u00e9": 1, 'a"b': 2, "": 3, "b\\": [4], "A": 5, "a": 6},
        {"value": 4, "witness": None, "stats": {"edgeSets": [3, 5], "predicateCalls": {"glue": 0, "leaf": 12}}},
        # not emitted by any verb, so written by json.dumps inside the writer
        {"x": [1.5, float("inf"), -0.0], "keys": {1: "a", 2: [None], 3.5: {}}},
        [collections.OrderedDict([("b", 1), ("a", [2])]), type("Text", (str,), {})("s"), enum.IntEnum("E", "A")(1)],
    ]

    @pytest.mark.parametrize("value", SHAPES)
    def test_text_equals_json_dumps(self, capsys, value):
        cli._emit_json(value, None)
        assert capsys.readouterr().out == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_every_fixture_output_is_json_dumps_text(self, capsys, fixtures_dir):
        for argv in (
            ["colim", "-d", "five_bag_tree.dec.json"],
            ["colim", "-d", "bowtie.dec.json"],
            ["to-arrow", "-d", "five_bag_tree.dec.json"],
            ["check", "-d", "completion_dh.dec.json"],
            ["chordal", "-g", "bowtie.json"],
            ["clique-tree", "-g", "completion_h.json"],
            ["solve", "--property", "paths", "-g", "bowtie.json", "-d", "bowtie.dec.json"],
        ):
            code, out = invoke(capsys, *[fx(fixtures_dir, a) if a.endswith(".json") else a for a in argv])
            assert code == 0, argv
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv

    @pytest.mark.parametrize(
        "value", [{"a": object()}, [1, {2, 3}], {"k": [b"bytes"]}, {(1, 2): 3}, {1: "a", "b": 2}]
    )
    def test_refused_values_raise_type_error(self, value):
        with pytest.raises(TypeError) as refused:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as raised:
            cli._emit_json(value, None)
        assert str(raised.value) == str(refused.value)

    def test_missing_file_error_escapes_non_ascii(self, capsys, tmp_path):
        path = str(tmp_path / "caf\u00e9.json")
        code, out = invoke(capsys, "treewidth", "-g", path)
        assert code == 2
        message = f"cannot read {path}: [Errno 2] No such file or directory: {path!r}"
        assert out == json.dumps({"error": message}, sort_keys=True, indent=2) + "\n"
        assert "caf\\u00e9.json" in out and out.isascii()


class TestCheckedAndGluedOnce:
    """A decomposition is validated once, when it is built, and its colimit
    glued once, on first use: solve -g reads it as a tree decomposition and
    then solves it on that one colimit."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of sdkit.decomposition.validate and sdkit.core._glue calls,
        wrapped under every sdkit module name that binds them."""
        from sdkit import core, decomposition

        made = {"validate": 0, "glue": 0}
        for name, original in (("validate", decomposition.validate), ("glue", core._glue)):

            def wrapper(*args, name=name, original=original):
                made[name] += 1
                return original(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "sdkit":
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, wrapper)
        return made

    @pytest.mark.parametrize("prop", ["paths", "bipartite", "planar"])
    @pytest.mark.parametrize(
        "graph, dec", [("bowtie.json", "bowtie.dec.json"), ("td_example_g.json", "td_example.dec.json")]
    )
    def test_solve_on_a_graph(self, capsys, fixtures_dir, calls, prop, graph, dec):
        argv = ["solve", "--property", prop, "-g", fx(fixtures_dir, graph), "-d", fx(fixtures_dir, dec)]
        assert invoke(capsys, *argv)[0] == 0
        assert calls == {"validate": 1, "glue": 1}

    @pytest.mark.parametrize("prop", ["paths", "bipartite", "planar"])
    def test_solve_on_a_decomposition(self, capsys, fixtures_dir, calls, prop):
        argv = ["solve", "--property", prop, "-d", fx(fixtures_dir, "bowtie.dec.json")]
        assert invoke(capsys, *argv)[0] == 0
        assert calls == {"validate": 1, "glue": 1}

    def test_evaluate_colimit_returns_one_object(self, fixtures_dir, calls):
        from sdkit import evaluate_colimit

        d = decomposition_from_json(json.loads((fixtures_dir / "five_bag_tree.dec.json").read_text()))
        assert evaluate_colimit(d) is evaluate_colimit(d)
        assert calls == {"validate": 1, "glue": 1}

    @pytest.mark.parametrize("prop", ["paths", "bipartite", "planar"])
    def test_solve_on_a_graph_glues_the_bags_alone(self, capsys, fixtures_dir, monkeypatch, prop):
        from sdkit import core, decomposition

        glued = []

        def glue(objects, links):
            glued.append(len(objects))
            return core._glue(objects, links)

        def no_diagram(*args):
            raise AssertionError("a Diagram was built")

        monkeypatch.setattr(decomposition, "_glue", glue)
        monkeypatch.setattr(core.Diagram, "__init__", no_diagram)
        argv = ["solve", "--property", prop, "-g", fx(fixtures_dir, "td_example_g.json")]
        assert invoke(capsys, *argv, "-d", fx(fixtures_dir, "td_example.dec.json"))[0] == 0
        # one cocone leg per bag, none for an apex
        bags = json.loads((fixtures_dir / "td_example.dec.json").read_text())["bags"]
        assert glued == [len(bags)]


class TestBench:
    def test_empty_config_yields_header_only(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [], "predicates": ["paths"]}))
        code, out = invoke(capsys, "bench", "--config", str(cfg))
        assert code == 0
        assert out == "instance,vertices,edges,width,predicate,value,pairCompositions,ms\n"

    def test_bowtie_row(self, capsys, tmp_path, fixtures_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "instances": [
                        {"id": "bowtie", "decomposition": fx(fixtures_dir, "bowtie.dec.json")}
                    ],
                    "predicates": ["paths"],
                }
            )
        )
        code, out = invoke(capsys, "bench", "--config", str(cfg))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[:7] == ["bowtie", "5", "6", "2", "paths", "4", "289"]

    def test_generated_suite_pair_counts_match_recomputation(self, capsys):
        from sdkit import MAX_EDGES, predicate_by_name, solve_on_decomposition
        from sdkit.cli import _random_instance
        import random

        code, out = invoke(capsys, "bench", "--generate", "5", "--seed", "0")
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 5
        rng = random.Random(0)
        for line in lines:
            fields = line.split(",")
            name, d = _random_instance(rng, int(fields[0][3:]))
            assert name == fields[0]
            result = solve_on_decomposition(d, predicate_by_name(fields[4]), MAX_EDGES)
            recomputed = sum(l * r for l, r in result.stats.compositions)
            assert recomputed == result.stats.pair_compositions == int(fields[6])
            assert str(result.value) == fields[5]

    def test_instance_without_decomposition_is_a_validation_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [{"id": "x"}], "predicates": ["paths"]}))
        code, out = invoke(capsys, "bench", "--config", str(cfg))
        assert code == 2
        assert "decomposition" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "config, complaint",
        [
            ({"instances": 5}, "'instances' must be an array"),
            ({"instances": None}, "'instances' must be an array"),
            ({"instances": [], "predicates": [["paths"]]}, "'predicates' must be an array of names"),
            ({"instances": [], "predicates": [3]}, "'predicates' must be an array of names"),
            ({"instances": [{"id": {"a": 1}, "decomposition": "bowtie.dec.json"}]}, "string 'id'"),
            ({"instances": [{"id": 7, "decomposition": "bowtie.dec.json"}]}, "string 'id'"),
        ],
    )
    def test_malformed_config_is_a_validation_error(self, capsys, tmp_path, config, complaint):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = invoke(capsys, "bench", "--config", str(cfg))
        assert code == 2
        assert complaint in json.loads(out)["error"]

    def test_negative_generate_count_is_a_validation_error(self, capsys):
        code, out = invoke(capsys, "bench", "--generate", "-3")
        assert code == 2
        assert "--generate" in json.loads(out)["error"]

    def test_generate_one_past_the_cap_is_too_large(self, capsys):
        code, out = invoke(capsys, "bench", "--generate", "2001")
        assert code == 3
        assert json.loads(out) == {"error": "bench --generate 2001 is past the cap of 2000"}

    def test_generate_past_the_cap_exits_three_before_generating(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(2 * BUDGET_MIB << 20), "bench", "--generate", "100000000"],
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - start
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout) == {
            "error": f"bench --generate 100000000 is past the cap of {cli.MAX_GENERATE}"
        }
        assert wall < 2 * BUDGET_S, wall

    def test_generate_at_the_cap_ends_within_the_budget(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-c", CHILD, str(2 * BUDGET_MIB << 20),
                "bench", "--generate", str(cli.MAX_GENERATE), "--property", "paths,bipartite,planar",
            ],
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 3 * cli.MAX_GENERATE
        assert wall < 2 * BUDGET_S, wall

    def test_repeated_property_exits_two_before_solving(self):
        start = time.perf_counter()
        names = ",".join(["paths"] * 200)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(2 * BUDGET_MIB << 20), "bench", "--generate", "500", "--property", names],
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - start
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout) == {"error": "bench property 'paths' is named more than once"}
        assert wall < 2 * BUDGET_S, wall

    @pytest.mark.parametrize(
        "predicates, complaint",
        [
            (["paths", "planar", "paths"], "bench property 'paths' is named more than once"),
            (["paths", "colour"], "unknown property 'colour'"),
        ],
    )
    def test_config_predicates_are_checked_before_any_instance_is_read(self, capsys, tmp_path, predicates, complaint):
        cfg = tmp_path / "cfg.json"
        missing = str(tmp_path / "missing.dec.json")
        cfg.write_text(json.dumps({"instances": [{"decomposition": missing}], "predicates": predicates}))
        code, out = invoke(capsys, "bench", "--config", str(cfg))
        assert code == 2
        assert complaint in json.loads(out)["error"]

    def test_same_seed_same_instances(self, capsys):
        first = invoke(capsys, "bench", "--generate", "3", "--seed", "7")[1]
        second = invoke(capsys, "bench", "--generate", "3", "--seed", "7")[1]
        strip_ms = lambda text: [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]
        assert strip_ms(first) == strip_ms(second)


# `solve -d FIXTURE --property P --objective O` output per "FIXTURE P O"
with open(pathlib.Path(__file__).resolve().parent / "golden" / "solve.json", encoding="utf-8") as handle:
    GOLDEN_CASES = json.load(handle)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_solve_output_matches_golden(capsys, fixtures_dir, case):
    # byte for byte: value, witness, pairCompositions and tableSizes
    fixture, prop, objective = case.split()
    code, out = invoke(
        capsys, "solve", "-d", fx(fixtures_dir, fixture), "--property", prop, "--objective", objective
    )
    assert code == 0
    assert out == json.dumps(GOLDEN_CASES[case], sort_keys=True, indent=2) + "\n"


def valid_call(verb, fixtures_dir, tmp_path):
    """An argv that parses for verb and runs on the fixtures."""
    if verb == "from-arrow":
        arrow = tmp_path / "arrow.json"
        run(["to-arrow", "-d", fx(fixtures_dir, "five_bag_tree.dec.json"), "-o", str(arrow)])
        return [verb, "--arrow", str(arrow)]
    flags = {
        "colim": ["-d", "five_bag_tree.dec.json"],
        "check": ["-d", "completion_dh.dec.json"],
        "to-arrow": ["-d", "five_bag_tree.dec.json"],
        "restrict": ["-d", "bowtie.dec.json", "-g", "p3.json"],
        "chordal": ["-g", "completion_h.json"],
        "clique-tree": ["-g", "completion_h.json"],
        "treewidth": ["-g", "k5.json"],
        "co-treewidth": ["-g", "k5.json"],
        "layered-width": ["-g", "p3.json", "--exact"],
        "h-width": ["-d", "bowtie.dec.json"],
        "solve": ["-d", "bowtie.dec.json", "-g", "bowtie.json"],
        "bench": ["--generate", "0"],
    }[verb]
    return [verb] + [fx(fixtures_dir, f) if f.endswith(".json") else f for f in flags]


def outcome(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_parser_answers_as_the_full_parser(capsys, monkeypatch, tmp_path, fixtures_dir):
    cases, well_formed = [[], ["-h"], ["bogus"], ["SOLVE"]], []
    for verb in VERBS:
        valid = valid_call(verb, fixtures_dir, tmp_path)
        well_formed.append(valid)
        if not any(required for *_, required in FLAGS[verb]):
            well_formed.append([verb])
        cases += [valid, [verb, "-h"], [verb], valid + ["--bogus"]]
    capsys.readouterr()
    built = []

    def recording_build_parser():
        built.append(True)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    table = [outcome(capsys, argv) for argv in cases]
    # a well-formed line builds no parser at all
    assert len(built) == len([argv for argv in cases if argv not in well_formed])
    monkeypatch.setattr(cli, "_parse_from_table", lambda argv: None)
    full = [outcome(capsys, argv) for argv in cases]
    for argv, got, expected in zip(cases, table, full):
        assert got == expected, argv
    assert {code for code, _, _ in full} == {0, 2}


# words a command line is drawn from: option strings, malformed spellings of
# them, and values argparse reads in its own ways
OPTION_WORDS = sorted({option for flags in FLAGS.values() for flag in flags for option in flag[0]})
ODD_WORDS = ["-h", "--help", "--graph=x", "-gx", "--grap", "--gen", "--", "-", "--bogus", "", "x"]
VALUE_WORDS = [
    "", "a b", "x", "fixtures/k5.json", "-1", "--", "-", "-h", "--graph=x", "-gx", "--grap",
    "5_000", "7", " 3 ", "0x10", "1" * 5000, "solve", "--exact",
]


def random_command_line(rng):
    """A verb (now and then a non-verb) and a random run of flags, each
    given a value about two times in three."""
    verb = rng.choice(list(VERBS)) if rng.random() < 0.95 else rng.choice(["", "-h", "SOLVE", "bogus"])
    own = [option for flag in FLAGS.get(verb, ()) for option in flag[0]] or OPTION_WORDS
    argv = [verb]
    for _ in range(rng.randint(0, 5)):
        argv.append(rng.choice(own) if rng.random() < 0.8 else rng.choice(OPTION_WORDS + ODD_WORDS))
        if rng.random() < 0.7:
            argv.append(rng.choice(VALUE_WORDS) if rng.random() < 0.3 else f"v{rng.randrange(10)}")
    return argv


def test_table_parser_agrees_with_argparse_on_random_command_lines():
    rng = random.Random(20261018)
    read_from_table = fell_back = 0
    for _ in range(2500):
        argv = random_command_line(rng)
        if rng.random() < 0.05:  # a repeated flag
            argv += argv[1:3]
        args = cli._parse_from_table(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                expected = build_parser().parse_args(argv)
        except SystemExit:
            expected = None
        if args is not None:
            # the table's plain namespace holds what argparse's Namespace holds
            assert expected is not None and vars(args) == vars(expected), argv
            read_from_table += 1
        elif expected is not None:
            fell_back += 1
    # the table reads many lines, and leaves argparse some that it accepts
    assert read_from_table > 250 and fell_back > 20, (read_from_table, fell_back)


def test_python_dash_m_sdkit_runs_the_cli(fixtures_dir):
    outputs = []
    for module in ("sdkit", "sdkit.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "treewidth", "-g", fx(fixtures_dir, "k5.json")],
            capture_output=True,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert json.loads(outputs[0]) == {"treewidth": 4}
    assert outputs[0] == outputs[1]


def test_the_cli_needs_only_the_standard_library(fixtures_dir):
    """In a child with no site-packages (python -S) and only src/ on its
    path, solve under each property and treewidth exit 0, and every module
    that `import sdkit.cli` loads is in the standard library or in sdkit."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    runs = [["solve", "-d", fx(fixtures_dir, "bowtie.dec.json"), "--property", p] for p in ("paths", "bipartite", "planar")]
    for argv in runs + [["treewidth", "-g", fx(fixtures_dir, "k5.json")]]:
        proc = subprocess.run([sys.executable, "-S", "-m", "sdkit", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (argv, proc.stderr)
    script = (
        "import json, sys; before = set(sys.modules); import sdkit.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "sdkit.cli" in loaded
    outside = [name for name in loaded if name.split(".")[0] not in sys.stdlib_module_names | {"sdkit"}]
    assert outside == []


def test_console_entry_point(fixtures_dir):
    """The sdkit console script: the "module:function" that pyproject.toml
    declares under [project.scripts], read as plain text (Python 3.10 has no
    tomllib) and run in a child as an installed script runs it."""
    pyproject = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    declared = [line.split("=", 1) for line in scripts.splitlines() if line.strip()]
    targets = {name.strip(): value.strip().strip('"') for name, value in declared}
    module, function = targets["sdkit"].split(":")
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    proc = subprocess.run(
        [sys.executable, "-c", script, "treewidth", "-g", fx(fixtures_dir, "k5.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"treewidth": 4}
