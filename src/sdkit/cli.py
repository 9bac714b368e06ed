"""Batch front door: parse JSON inputs, dispatch, emit deterministic output.

Exit codes: 0 success, 2 validation failure (including malformed JSON, with
a position-annotated message, and a file that cannot be read or written),
3 instance over a documented size cap.
Output is byte-for-byte deterministic for identical inputs, except for the
wall-time column of `bench`.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
import types
from json.encoder import encode_basestring_ascii

from .core import Graph, GraphMorphism, Span, is_json_int_list
from .decomposition import (
    Adhesion,
    GRAPH,
    StructuredDecomposition,
    arrow_from_json,
    arrow_to_json,
    decomposition_from_json,
    decomposition_to_json,
    evaluate_colimit,
    restrict_decomposition,
    from_arrow,
    to_arrow,
)
from .errors import CodomainMismatch, SdkitError, TooLarge, ValidationError
from .solver import (
    MAX_EDGES,
    Subobject,
    objective_by_name,
    predicate_by_name,
    solve,
    solve_on_graph,
)
from .width import (
    Layering,
    complemented_treewidth,
    decomposition_from_chordal,
    h_width,
    layered_treewidth_exact,
    layered_width,
    peo,
    treewidth_exact,
    width,
)

BENCH_HEADER = ["instance", "vertices", "edges", "width", "predicate", "value", "pairCompositions", "ms"]
# Most instances `bench --generate` makes. They are all built before any is
# solved; at the cap, solving them under all three predicates takes about
# 2 s and 110 MiB (README "Size caps").
MAX_GENERATE = 2000


# the scanner behind json.loads, and the whitespace JSON allows around a value
_JSON = json.JSONDecoder()
_BLANK = " \t\n\r"


def _json_value(text: str):
    """json.loads(text), with its values and errors, but with the whitespace
    around the value skipped by str.lstrip rather than json's regex: in a
    freshly forked process the regex's first match took longer than
    scanning a small decomposition."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    start = len(text) - len(text.lstrip(_BLANK))
    try:
        value, end = _JSON.scan_once(text, start)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", text, err.value) from None
    rest = text[end:].lstrip(_BLANK)
    if rest:
        raise json.JSONDecodeError("Extra data", text, len(text) - len(rest))
    return value


def _load_json(path: str):
    """The JSON value in the file at path, read as text-mode UTF-8 reads it:
    a decoding error at its offset in the whole file, a BOM kept, and CRLF
    and a lone CR each one line break. The bytes are read unbuffered and
    decoded once, without the text-mode reader stack."""
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return _json_value(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply to read")
    except ValueError as exc:  # an integer past Python's digit limit
        raise ValidationError(f"{path}: unreadable JSON: {exc}")


def _load_graph(path: str) -> Graph:
    return Graph.from_json(_load_json(path))


def _load_decomposition(path: str) -> StructuredDecomposition:
    return decomposition_from_json(_load_json(path))


def _load_layering(path: str) -> Layering:
    return Layering.from_json(_load_json(path))


def _load_morphism(path: str, cod: Graph) -> GraphMorphism:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValidationError("morphism JSON must be {'dom': <graph>, 'map': [..]}")
    dom = Graph.from_json(data.get("dom"))
    mapping = data.get("map")
    if not is_json_int_list(mapping):
        raise ValidationError("morphism 'map' must be an array of vertex ids")
    return GraphMorphism(dom, cod, tuple(mapping))


def _emit(payload: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise ValidationError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(payload)


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte; newline is
    the line break and indent that start value's inner lines. With indent
    set, the stdlib runs its pure-Python encoder. Here str, int, list, tuple,
    and dict with str keys, of exactly those types, and bool and None are
    written directly; any other value (a float, a subclass, a non-string
    key, or one json refuses) goes to json.dumps, indented to fit."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    items = []
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        for v in value:
            items.append(_json_text(v, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) == {str}:
            for k in sorted(value):
                items.append(encode_basestring_ascii(k) + ": " + _json_text(value[k], inner))
            return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)


def _emit_json(data, out_path) -> None:
    _emit(_json_text(data) + "\n", out_path)


# Each _cmd_* handler returns (exit code, answer) and writes nothing; run
# writes the answer, a JSON value or bench's CSV text, to stdout or -o.
def _cmd_colim(args) -> tuple:
    d = _load_decomposition(args.decomposition)
    obj, cocone = evaluate_colimit(d)
    return 0, {
        "valueKind": d.value_kind,
        "object": obj.to_json(),
        "cocone": [list(leg.mapping) for leg in cocone],
    }


def _cmd_check(args) -> tuple:
    if not args.decomposition and not args.graph:
        raise ValidationError("check needs -d/--decomposition or -g/--graph")
    violations = []
    if args.graph:
        try:
            _load_graph(args.graph)
        except ValidationError as exc:
            violations.append(str(exc))
    if args.decomposition:
        try:
            decomposition_from_json(_load_json(args.decomposition))
        except ValidationError as exc:
            violations.append(str(exc))
    return 2 if violations else 0, {"violations": violations}


def _cmd_to_arrow(args) -> tuple:
    return 0, arrow_to_json(to_arrow(_load_decomposition(args.decomposition)))


def _cmd_from_arrow(args) -> tuple:
    return 0, decomposition_to_json(from_arrow(arrow_from_json(_load_json(args.arrow))))


def _cmd_restrict(args) -> tuple:
    d = _load_decomposition(args.decomposition)
    if not args.morphism and not args.graph:
        raise ValidationError("restrict needs --morphism or -g/--graph")
    if d.value_kind != GRAPH:  # before any morphism into its colimit is built
        raise ValidationError("restriction is defined for graph-valued decompositions")
    glued, _ = evaluate_colimit(d)
    if args.morphism:
        delta = _load_morphism(args.morphism, glued)
    else:
        # subgraph given in colimit coordinates; embed by vertex identity
        sub = _load_graph(args.graph)
        if sub.vertices > glued.vertices:
            raise CodomainMismatch(
                f"-g graph has {sub.vertices} vertices, more than the colimit's {glued.vertices}"
            )
        stray = min(sub.edges - glued.edges, default=None)
        if stray is not None:
            raise CodomainMismatch(f"-g graph edge {stray} is not an edge of the colimit")
        delta = GraphMorphism(sub, glued, tuple(range(sub.vertices)))
    restricted, _ = restrict_decomposition(d, delta)
    return 0, decomposition_to_json(restricted)


def _cmd_chordal(args) -> tuple:
    order = peo(_load_graph(args.graph))
    return 0, {"chordal": order is not None, "peo": list(order) if order is not None else None}


def _cmd_clique_tree(args) -> tuple:
    return 0, decomposition_to_json(decomposition_from_chordal(_load_graph(args.graph)))


def _cmd_treewidth(args) -> tuple:
    return 0, {"treewidth": treewidth_exact(_load_graph(args.graph))}


def _cmd_co_treewidth(args) -> tuple:
    return 0, {"coTreewidth": complemented_treewidth(_load_graph(args.graph))}


def _cmd_layered_width(args) -> tuple:
    g = _load_graph(args.graph)
    if args.exact:
        return 0, {"layeredTreewidth": layered_treewidth_exact(g)}
    if not args.layering or not args.decomposition:
        raise ValidationError("layered-width needs -l/--layering and -d/--decomposition (or --exact)")
    layering = _load_layering(args.layering)
    d = _load_decomposition(args.decomposition)
    return 0, {"layeredWidth": layered_width(g, layering, d)}


def _cmd_h_width(args) -> tuple:
    d = _load_decomposition(args.decomposition)
    predicate = predicate_by_name(args.property)

    def bag_in_class(bag: Graph) -> bool:
        return predicate(Subobject(frozenset(range(bag.vertices)), bag.edges))

    return 0, {"hWidth": h_width(d, bag_in_class)}


def _cmd_solve(args) -> tuple:
    d = _load_decomposition(args.decomposition)
    predicate = predicate_by_name(args.property)
    objective = objective_by_name(args.objective)
    if args.graph:
        result = solve_on_graph(_load_graph(args.graph), d, predicate, objective)
    else:
        result = solve(d, predicate, objective)
    witness, stats = result.witness, result.stats
    return 0, {
        "value": result.value,
        "witness": witness.to_json() if witness is not None else None,
        "stats": {
            "edgeSets": list(stats.edge_sets),
            "pairCompositions": stats.pair_compositions,
            "predicateCalls": dict(zip(("leaf", "glue"), stats.predicate_calls)),
            "tableSizes": list(stats.table_sizes),
        },
    }


def _random_instance(rng: random.Random, index: int):
    """A small random tame tree-shaped graph-valued decomposition."""
    bag_count = rng.randint(1, 4)
    edges = [(rng.randrange(i), i) for i in range(1, bag_count)]
    shape = Graph(bag_count, edges)
    bags = []
    for _ in range(bag_count):
        n = rng.randint(1, 4)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = [e for e in pool if rng.random() < 0.6]
        bags.append(Graph(n, chosen))
    adhesions = []
    for u, v in sorted(shape.edges):
        k = rng.randint(0, min(bags[u].vertices, bags[v].vertices))
        into_u = rng.sample(range(bags[u].vertices), k)
        into_v = rng.sample(range(bags[v].vertices), k)
        apex_edges = [
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if bags[u].has_edge(into_u[i], into_u[j]) and bags[v].has_edge(into_v[i], into_v[j])
        ]
        apex = Graph(k, apex_edges)
        adhesions.append(
            Adhesion(
                (u, v),
                Span(
                    GraphMorphism(apex, bags[u], tuple(into_u)),
                    GraphMorphism(apex, bags[v], tuple(into_v)),
                ),
            )
        )
    d = StructuredDecomposition(shape, GRAPH, tuple(bags), tuple(adhesions))
    return f"gen{index}", d


def _cmd_bench(args) -> tuple:
    if args.generate < 0:
        raise ValidationError("bench --generate must be a non-negative count")
    if args.generate > MAX_GENERATE:
        raise TooLarge(f"bench --generate {args.generate} is past the cap of {MAX_GENERATE}")
    instances = []
    names = args.property.split(",") if args.property else ["paths"]
    if args.config:
        config = _load_json(args.config)
        if not isinstance(config, dict):
            raise ValidationError("bench config must be a JSON object")
        if args.property and "predicates" in config:
            raise ValidationError("bench takes --property or a config with 'predicates', not both")
        names = config.get("predicates", names)
        if not isinstance(names, list) or not all(isinstance(p, str) for p in names):
            raise ValidationError("bench config 'predicates' must be an array of names")
    # each name at most once, so an instance is solved at most once per predicate
    predicates = {}
    for name in names:
        if name in predicates:
            raise ValidationError(f"bench property {name!r} is named more than once")
        predicates[name] = predicate_by_name(name)
    if args.config:
        entries = config.get("instances", [])
        if not isinstance(entries, list):
            raise ValidationError("bench config 'instances' must be an array")
        for entry in entries:
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("decomposition"), str)
                or not isinstance(entry.get("id", ""), str)
            ):
                raise ValidationError(
                    "bench config instances must be objects with a 'decomposition' path"
                    " and an optional string 'id'"
                )
            d = _load_decomposition(entry["decomposition"])
            instances.append((entry.get("id", entry["decomposition"]), d))
    if args.generate:
        rng = random.Random(args.seed)
        for i in range(args.generate):
            instances.append(_random_instance(rng, i))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(BENCH_HEADER)
    for name, d in instances:
        for pred_name, predicate in predicates.items():
            started = time.perf_counter()
            result = solve(d, predicate, MAX_EDGES)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            writer.writerow(
                [
                    name,
                    result.ambient.vertices,
                    len(result.ambient.edges),
                    width(d),
                    pred_name,
                    result.value,
                    result.stats.pair_compositions,
                    f"{elapsed_ms:.3f}",
                ]
            )
    return 0, buffer.getvalue()


# A flag is (option strings, dest, kind, default, required); kind is VALUE
# (the next word), INT (the next word through int()) or SWITCH (store_true).
VALUE, INT, SWITCH = "value", "int", "switch"
NEEDS_GRAPH = (("-g", "--graph"), "graph", VALUE, None, True)
OPTIONAL_GRAPH = (("-g", "--graph"), "graph", VALUE, None, False)
NEEDS_DECOMPOSITION = (("-d", "--decomposition"), "decomposition", VALUE, None, True)
OPTIONAL_DECOMPOSITION = (("-d", "--decomposition"), "decomposition", VALUE, None, False)
OUTPUT = (("-o", "--output"), "output", VALUE, None, False)


def _property(default):
    return (("--property",), "property", VALUE, default, False)


# Every verb with its handler and its flags, verbs in the order of `sdkit -h`
# and flags in the order of `VERB -h`.
VERBS = {
    "colim": (_cmd_colim, (NEEDS_DECOMPOSITION, OUTPUT)),
    "check": (_cmd_check, (OPTIONAL_GRAPH, OPTIONAL_DECOMPOSITION, OUTPUT)),
    "to-arrow": (_cmd_to_arrow, (NEEDS_DECOMPOSITION, OUTPUT)),
    "from-arrow": (_cmd_from_arrow, ((("--arrow",), "arrow", VALUE, None, True), OUTPUT)),
    "restrict": (
        _cmd_restrict,
        (OPTIONAL_GRAPH, NEEDS_DECOMPOSITION, (("--morphism",), "morphism", VALUE, None, False), OUTPUT),
    ),
    "chordal": (_cmd_chordal, (NEEDS_GRAPH, OUTPUT)),
    "clique-tree": (_cmd_clique_tree, (NEEDS_GRAPH, OUTPUT)),
    "treewidth": (_cmd_treewidth, (NEEDS_GRAPH, OUTPUT)),
    "co-treewidth": (_cmd_co_treewidth, (NEEDS_GRAPH, OUTPUT)),
    "layered-width": (
        _cmd_layered_width,
        (
            NEEDS_GRAPH,
            OPTIONAL_DECOMPOSITION,
            (("-l", "--layering"), "layering", VALUE, None, False),
            (("--exact",), "exact", SWITCH, False, False),
            OUTPUT,
        ),
    ),
    "h-width": (_cmd_h_width, (NEEDS_DECOMPOSITION, _property("bipartite"), OUTPUT)),
    "solve": (
        _cmd_solve,
        (
            OPTIONAL_GRAPH,
            NEEDS_DECOMPOSITION,
            _property("paths"),
            (("--objective",), "objective", VALUE, "max-edges", False),
            OUTPUT,
        ),
    ),
    "bench": (
        _cmd_bench,
        (
            (("--config",), "config", VALUE, None, False),
            (("--generate",), "generate", INT, 0, False),
            (("--seed",), "seed", INT, 0, False),
            OUTPUT,
            _property(None),  # bench's help lists --property after -o
        ),
    ),
}
FLAGS = {name: flags for name, (_, flags) in VERBS.items()}
# per verb: every option string -> its flag
_OPTIONS = {name: {option: flag for flag in flags for option in flag[0]} for name, flags in FLAGS.items()}


def _parse_from_table(argv):
    """The attributes argparse sets for a well-formed argv, on a plain
    namespace, else None.

    Well-formed: a verb, then only its flags spelled exactly as declared,
    each value in the next word and not starting with "-", every INT value
    accepted by int(), and every required flag present. Anything else (-h,
    abbreviations, --flag=value, -gX, a missing value) is for argparse,
    which alone writes help and error text.
    """
    if not argv or argv[0] not in VERBS:
        return None
    verb = argv[0]
    options = _OPTIONS[verb]
    values = {}
    i, n = 1, len(argv)
    while i < n:
        flag = options.get(argv[i])
        if flag is None:
            return None
        _, dest, kind, _, _ = flag
        if kind == SWITCH:
            values[dest] = True
            i += 1
            continue
        if i + 1 == n or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if kind == INT:
            try:
                value = int(value)
            except ValueError:
                return None
        values[dest] = value
        i += 2
    for _, dest, _, default, required in FLAGS[verb]:
        if dest not in values:
            if required:
                return None
            values[dest] = default
    return types.SimpleNamespace(verb=verb, func=VERBS[verb][0], **values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser with every verb's subparser, for the command
    lines _parse_from_table leaves: it writes help and error text."""
    parser = argparse.ArgumentParser(
        prog="sdkit",
        description="structured decompositions: gluing, width measures, compositional solving",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in VERBS:
        p = sub.add_parser(name)
        for options, _, kind, default, required in FLAGS[name]:
            if kind == SWITCH:
                p.add_argument(*options, action="store_true")
            else:
                p.add_argument(*options, type=int if kind == INT else None, default=default, required=required)
        p.set_defaults(func=VERBS[name][0])
    return parser


def run(argv) -> int:
    args = _parse_from_table(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code, answer = args.func(args)
        _emit(answer if type(answer) is str else _json_text(answer) + "\n", args.output)
        return code
    except SdkitError as exc:
        _emit_json({"error": str(exc)}, None)
        return exc.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
