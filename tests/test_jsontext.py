"""The package's JSON writer, and the graph JSON it writes, against
json.dumps(indent=2, sort_keys=True)."""

import io
import json

import pytest

from tautilt.algebra import parse_algebra
from tautilt.jsontext import Fragment, dumps
from tautilt import sttilt as st

from conftest import read_algebra, top_and_bottom

DOCUMENTS = [
    {},
    [],
    "",
    0,
    -17,
    True,
    None,
    {"a": [], "b": {}, "c": [[], {}], "d": [{}]},
    {"yes": True, "no": False, "none": None, "list": [True, False, None]},
    {"neg": [-1, -2, 0, 3], "big": -(10 ** 30), "tuple": (1, (2, 3))},
    {"café": "naïve → \U0001d11e", "ü": ["ß"]},
    {"esc": "quote \" backslash \\ slash / tab \t nl \n cr \r",
     "ctl": "\x00\x01\x1f\x7f", "\n": "key with a newline"},
    {"z": 1, "a": 2, "m": {"y": [1, [2, [3, [4, []]]]], "b": [[[]]]}},
    [[["deep"]], [[1, 2], [3]], [], [{"k": [[]]}]],
]


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_dumps_is_byte_identical_to_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_fragments_splice_at_any_depth(doc):
    spliced = {"top": Fragment(doc),
               "nested": [[Fragment(doc), {"x": Fragment(doc)}]]}
    plain = {"top": doc, "nested": [[doc, {"x": doc}]]}
    assert dumps(spliced) == json.dumps(plain, indent=2, sort_keys=True)


def test_non_str_keys_and_unknown_types_are_rejected():
    with pytest.raises(TypeError):
        dumps({1: "a"})
    with pytest.raises(TypeError):
        dumps({"a": 1.5})


def test_a_fragment_spliced_at_two_depths_is_re_indented_at_each():
    doc = {"m": [[1, 0], [0, 1]], "dims": [1, 2]}
    frag = Fragment(doc)
    for _ in range(2):  # the second pass reads the kept texts
        spliced = dumps({"a": frag, "b": [[frag]], "c": [frag]})
        assert spliced == json.dumps({"a": doc, "b": [[doc]], "c": [doc]},
                                     indent=2, sort_keys=True)
    assert frag.at("\n  ") == frag.text.replace("\n", "\n  ")
    assert frag.at("\n      ") == frag.text.replace("\n", "\n      ")


def test_dicts_of_one_shape_at_several_depths():
    rows = [{"src": i, "dst": i + 1, "index": -i} for i in range(3)]
    doc = {"rows": rows, "nested": [{"rows": rows, "src": {"dst": 0}}]}
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _one_vertex():
    return parse_algebra('field = "Q"\nvertices = ["1"]\n')


graph_cases = pytest.mark.parametrize("make, max_nodes, complete", [
    (lambda: read_algebra("kronecker.alg"), 12, False),
    (lambda: read_algebra("preproj_a3.alg"), 10 ** 6, True),
    (lambda: read_algebra("loop2.alg"), 10 ** 6, True),
    (lambda: read_algebra("three_paths.alg"), 60, None),
    (_one_vertex, 10 ** 6, True),
    (lambda: read_algebra("a3.alg"), 1, False),
], ids=["kronecker-12", "preproj_a3", "loop2", "three_paths-60",
        "one-vertex", "edge-free"])


@graph_cases
def test_graph_json_is_the_standard_layout(make, max_nodes, complete):
    graph = st.enumerate_sttilt(make(), max_nodes=max_nodes)
    if complete is not None:
        assert graph.complete is complete
    if graph.complete:
        # the bottom pair (0, A) has no module summand
        min_node = top_and_bottom(graph)[1]
        assert not graph.nodes[min_node].module_summands()
    assert bool(graph.edges) is (max_nodes > 1)
    text = graph.to_json()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
    # the streamed text is to_json's, written one edge or node at a time
    stream = io.StringIO()
    writes = []

    def write(piece):
        writes.append(piece)
        stream.write(piece)

    graph.write_json(write)
    assert stream.getvalue() == text
    assert len(writes) > graph.node_count() + len(graph.edges)


@graph_cases
def test_graph_dot_is_streamed_line_by_line(make, max_nodes, complete):
    # the streamed text is to_dot's, one line per write: the header, a
    # node or an edge, and the closing brace
    graph = st.enumerate_sttilt(make(), max_nodes=max_nodes)
    writes = []
    graph.write_dot(writes.append)
    assert "".join(writes) == graph.to_dot()
    assert all(w.count("\n") == 1 and w.endswith("\n") for w in writes)
    assert len(writes) == graph.node_count() + len(graph.edges) + 2
