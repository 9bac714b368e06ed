import json
import os
import pathlib

import pytest

from sdkit import Graph, decomposition_from_json
from sdkit.width import Layering

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
# pytest puts src/ on its own path (pyproject.toml); the CLI runs in child
# processes import sdkit from the same checkout
SRC = str(FIXTURES.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def load_fixture(name: str):
    with open(FIXTURES / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def bowtie() -> Graph:
    return Graph.from_json(load_fixture("bowtie.json"))


@pytest.fixture
def bowtie_decomposition():
    return decomposition_from_json(load_fixture("bowtie.dec.json"))


@pytest.fixture
def five_bag_tree():
    return decomposition_from_json(load_fixture("five_bag_tree.dec.json"))


@pytest.fixture
def completion_g() -> Graph:
    return Graph.from_json(load_fixture("completion_g.json"))


@pytest.fixture
def completion_h() -> Graph:
    return Graph.from_json(load_fixture("completion_h.json"))


@pytest.fixture
def completion_dh():
    return decomposition_from_json(load_fixture("completion_dh.dec.json"))


@pytest.fixture
def td_example_g() -> Graph:
    return Graph.from_json(load_fixture("td_example_g.json"))


@pytest.fixture
def td_example():
    return decomposition_from_json(load_fixture("td_example.dec.json"))


@pytest.fixture
def td_example_bags():
    data = load_fixture("td_example.bags.json")
    return Graph.from_json(data["shape"]), data["bags"]


@pytest.fixture
def p3_layering() -> Layering:
    return Layering.from_json(load_fixture("p3_layering.json"))
