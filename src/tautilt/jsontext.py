"""JSON text in the package's one output layout: indent 2, sorted keys.

`dumps(obj)` writes exactly the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` for documents built from
dicts with str keys, lists, tuples, str, int, bool and None.  A
`Fragment` holds the text of a value already written by `dumps`; the
writer splices it in, re-indented to its depth, and the fragment keeps
that text for each depth, so a value that repeats across a document is
encoded once and re-indented once per depth.  The Hasse graph writes its
own skeleton around such texts (`sttilt.HasseGraph.write_json`).
"""

from json.encoder import encode_basestring_ascii as _string


class Fragment:
    """The JSON text of one value, written once and spliced where used."""

    __slots__ = ("text", "_at")

    def __init__(self, obj):
        self.text = dumps(obj)
        self._at = {}

    def at(self, nl):
        """The text spliced where nl, the newline plus the indent of
        the value's depth, starts its lines."""
        text = self._at.get(nl)
        if text is None:
            text = self._at[nl] = self.text.replace("\n", nl)
        return text


def dumps(obj):
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out, nl):
    """Append the text of obj to out; nl is the newline plus the indent
    of obj's own depth."""
    if isinstance(obj, Fragment):
        out.append(obj.at(nl))
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {key!r}")
            out.append(sep + _string(key) + ": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
