"""Mutated fixture JSON never breaks the CLI's contract: every verb that reads
a file exits 0, 2 or 3, prints JSON (bench prints its CSV on exit 0), and
lets no exception escape."""
import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdkit import decomposition_from_json, to_arrow
from sdkit.decomposition import arrow_to_json
from sdkit.cli import BENCH_HEADER, run
from conftest import FIXTURES, load_fixture

GRAPHS = ["bowtie.json", "completion_g.json", "k5.json", "p3.json", "td_example_g.json"]
DECOMPOSITIONS = [
    "bowtie.dec.json",
    "completion_dh.dec.json",
    "five_bag_tree.dec.json",
    "p3.dec.json",
    "td_example.dec.json",
]
ARROW = "five_bag_tree.arrow.json"
# bench configs naming fixture decompositions; the finset one cannot be solved
BENCH_CONFIGS = {
    "graphs.bench.json": {
        "instances": [{"id": "bowtie", "decomposition": "bowtie.dec.json"}, {"decomposition": "p3.dec.json"}],
        "predicates": ["paths", "planar"],
    },
    "finset.bench.json": {
        "instances": [{"id": "p3", "decomposition": "p3.dec.json"}, {"decomposition": "completion_dh.dec.json"}],
        "predicates": ["bipartite"],
    },
}

# (verb and flags, [(file flag, fixture the file starts from), ...])
CASES = (
    [(["colim"], [("-d", name)]) for name in DECOMPOSITIONS]
    + [(["check"], [("-d", name)]) for name in DECOMPOSITIONS]
    + [(["check"], [("-g", name)]) for name in GRAPHS]
    + [(["to-arrow"], [("-d", name)]) for name in DECOMPOSITIONS]
    + [([verb], [("-g", name)]) for verb in ("chordal", "clique-tree", "treewidth", "co-treewidth") for name in GRAPHS]
    + [(["layered-width"], [("-g", "p3.json"), ("-l", "p3_layering.json"), ("-d", "p3.dec.json")])]
    + [(["layered-width", "--exact"], [("-g", name)]) for name in ("p3.json", "bowtie.json")]
    + [(["h-width"], [("-d", name)]) for name in DECOMPOSITIONS]
    + [(["solve", "--property", prop], [("-d", name)]) for prop in ("paths", "bipartite", "planar") for name in DECOMPOSITIONS]
    + [(["solve"], [("-g", "bowtie.json"), ("-d", "bowtie.dec.json")])]
    + [(["restrict"], [("-d", "bowtie.dec.json"), ("-g", "bowtie.json")])]
    + [(["restrict"], [("-d", "completion_dh.dec.json"), ("-g", "p3.json")])]
    + [(["from-arrow", "--arrow"], [("", ARROW)])]
    + [(["bench", "--config"], [("", name)]) for name in BENCH_CONFIGS]
)

# a mutation replaces a node of the JSON tree with an integer, with a value of
# another type, or with the node wrapped in a list; deletes it; or
# duplicates it in its list
OPS = ("int", "other", "wrap", "delete", "duplicate")
OTHER_VALUES = (None, True, False, "0", 1.5, -1, [], {}, [[]], {"vertices": 0, "edges": []})


def _source(name):
    if name == ARROW:
        return arrow_to_json(to_arrow(decomposition_from_json(load_fixture("five_bag_tree.dec.json"))))
    if name in BENCH_CONFIGS:
        config = copy.deepcopy(BENCH_CONFIGS[name])
        for entry in config["instances"]:
            entry["decomposition"] = str(FIXTURES / entry["decomposition"])
        return config
    return load_fixture(name)


def _nodes(doc, path=()):
    """Every (path to node) of a JSON tree, root first, in a fixed order."""
    yield path
    items = sorted(doc.items()) if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(doc, selector, op, number):
    paths = list(_nodes(doc))
    path = paths[selector % len(paths)]
    other = copy.deepcopy(OTHER_VALUES[number % len(OTHER_VALUES)])
    if not path:
        return number if op == "int" else other
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "int":
        parent[key] = number
    elif op == "other":
        parent[key] = other
    elif op == "wrap":
        parent[key] = [parent[key]]
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    case=st.sampled_from(CASES),
    target=st.integers(0, 2),
    mutations=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.sampled_from(OPS), st.integers(-2, 50)),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_inputs_keep_the_exit_code_and_json_contract(tmp_path, case, target, mutations):
    verb, files = case
    argv = list(verb)
    victim = target % len(files)
    for i, (flag, name) in enumerate(files):
        doc = _source(name)
        if i == victim:
            for selector, op, number in mutations:
                doc = _mutate(doc, selector, op, number)
        path = tmp_path / f"{i}-{name}"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv += [flag, str(path)] if flag else [str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code in (0, 2, 3), (argv, code)
    text = out.getvalue()
    if verb[0] != "bench":
        json.loads(text)
    elif code == 0:
        assert text.split("\n", 1)[0] == ",".join(BENCH_HEADER)
    else:
        assert list(json.loads(text)) == ["error"]
