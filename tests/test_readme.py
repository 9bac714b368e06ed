"""The README's examples run as written: the library quick tour gives the
results its comments state, and every CLI line that names only files in
fixtures/ exits 0."""
import ast
import pathlib
import shlex

from sdkit.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# the CLI lines that name files the README leaves to the reader
PLACEHOLDERS = {"subgraph.json", "arrow.json", "graph.json", "bench.json"}


def code_block(heading):
    """The first fenced block after the line heading."""
    after = README.split(f"\n{heading}\n", 1)[1]
    return after.split("```", 2)[1].split("\n", 1)[1]


def test_the_quick_tour_gives_its_commented_results():
    block = code_block("## Library quick tour")
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not (code and comment):
            continue
        if "==" in comment:  # a claim about the names the line binds
            assert eval(comment, namespace), line
        else:  # the value of the line's expression
            assert eval(code, namespace) == ast.literal_eval(comment), line
        checked.append(comment)
    assert checked == ["2", "value == 4", "6"]


def test_every_cli_line_exits_zero(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    ran, skipped = 0, set()
    for line in code_block("## CLI").splitlines():
        argv = shlex.split(line.partition("#")[0])
        if argv[:1] != ["sdkit"]:
            continue
        named = PLACEHOLDERS.intersection(argv)
        if named:
            skipped |= named
            continue
        assert run(argv[1:]) == 0, line
        capsys.readouterr()
        ran += 1
    assert skipped == PLACEHOLDERS
    assert ran == 10
