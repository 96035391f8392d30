"""JSON text in the package's one output layout: indent 2, sorted keys.

`dumps(obj)` writes exactly the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` for documents built from
dicts with str keys, lists, tuples, str, int, bool and None.  Such a
text re-indented to a depth, by putting that depth's indent after each
newline, is the value's text at that depth; the Hasse graph writes its
own skeleton around such texts, each value once per call
(`sttilt.HasseGraph.write_json`).
"""

from json.encoder import encode_basestring_ascii as _string


def dumps(obj):
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out, nl):
    """Append the text of obj to out; nl is the newline plus the indent
    of obj's own depth."""
    if isinstance(obj, str):
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
