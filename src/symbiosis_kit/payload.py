"""The one writer of indented JSON payloads.

`dumps(obj)` returns exactly `json.dumps(obj, indent=2, sort_keys=True)`
followed by a newline: the text of every JSON payload the package prints
(reports, `eval`, diagnostics, the graph, impact and `canonical_dump`).
CPython's C encoder cannot indent, so `json.dumps` with `indent` runs its
pure-Python encoder, a chain of generators over every container. Here one
recursive function appends strings to one list, which is joined once, and
each scalar inside a container is written in the same step as its key or
separator. The payloads hold only `str` keys; a key of any other type raises
`TypeError`, where `json.dumps` would convert it.
"""

from json.encoder import encode_basestring_ascii as _string

# float.__repr__ spells these "nan", "inf" and "-inf".
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


# The writer of each scalar type, keyed by exact type, so a bool is never
# written as the int it also is.
_SCALARS = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, for `str` keys only.

    Writes dicts, lists, tuples, strings, ints, floats, bools and None, and
    subclasses of each; anything else raises `TypeError`.
    """
    chunks: list[str] = []
    _write(obj, chunks, "\n")
    chunks.append("\n")
    return "".join(chunks)


def _write(value, chunks: list[str], newline: str) -> None:
    """Append the JSON text of `value`; `newline` ends the line it starts on."""
    if isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                chunks.append(f"{separator}{_string(key)}: ")
                _write(item, chunks, inner)
            else:
                chunks.append(f"{separator}{_string(key)}: {scalar(item)}")
            separator = "," + inner
        chunks.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                chunks.append(separator)
                _write(item, chunks, inner)
            else:
                chunks.append(separator + scalar(item))
            separator = "," + inner
        chunks.append(newline + "]")
    else:
        scalar = _SCALARS.get(type(value))
        if scalar is None:  # a subclass, tested in json's order, or no JSON type
            base = next((base for base in (str, int, float) if isinstance(value, base)), None)
            if base is None:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            scalar = _SCALARS[base]
        chunks.append(scalar(value))
