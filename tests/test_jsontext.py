"""The package's JSON writer against json.dumps(indent=2, sort_keys=True)."""

import json

import pytest

from tautilt.jsontext import Fragment, dumps

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
