"""The one writer of indented JSON payloads.

`dumps(obj)` returns exactly `json.dumps(obj, indent=2, sort_keys=True)`
followed by a newline: the text of every JSON payload the package prints
(reports, `eval`, diagnostics, the graph, impact and `canonical_dump`).
CPython's C encoder cannot indent, so `json.dumps` with `indent` runs its
pure-Python encoder, a chain of generators over every container. Here one
recursive function appends strings to one list, which is joined once, and
each scalar inside a container is written in the same step as its key or
separator; a `str` is written before any other type is looked up. A dict's
keys are sorted, not its items, and its values read by key; a dict subclass
is read through its `items()`, as json reads it. The payloads hold only
`str` keys; a key of any other type raises `TypeError`, where `json.dumps`
would convert it.

Each call keeps one memo, dropped when it returns: the `,<newline>"key": `
text of each key at each depth, so a key is encoded once per depth.
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
    _write(obj, chunks, "\n", {})
    chunks.append("\n")
    return "".join(chunks)


def _write(value, chunks: list[str], newline: str, labels: dict) -> None:
    """Append the JSON text of `value`; `newline` ends the line it starts on.

    `labels` maps the newline of each depth to the `,<newline>"key": ` text
    of each key met there.
    """
    if isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        if type(value) is not dict:  # json reads a subclass through its items()
            value = dict(value.items())
        inner = newline + "  "
        here = labels.get(inner)
        if here is None:
            here = labels[inner] = {}
        first = len(chunks)
        for key in sorted(value):
            item = value[key]
            label = here.get(key)
            if label is None:
                label = here[key] = "," + inner + _string(key) + ": "
            if type(item) is str:
                chunks.append(label + _string(item))
            else:
                scalar = _SCALARS.get(type(item))
                if scalar is None:
                    chunks.append(label)
                    _write(item, chunks, inner, labels)
                else:
                    chunks.append(label + scalar(item))
        chunks[first] = "{" + chunks[first][1:]  # the first key follows the brace, not a comma
        chunks.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            if type(item) is str:
                chunks.append(separator + _string(item))
            else:
                scalar = _SCALARS.get(type(item))
                if scalar is None:
                    chunks.append(separator)
                    _write(item, chunks, inner, labels)
                else:
                    chunks.append(separator + scalar(item))
            separator = comma
        chunks.append(newline + "]")
    else:
        scalar = _SCALARS.get(type(value))
        if scalar is None:  # a subclass, tested in json's order, or no JSON type
            base = next((base for base in (str, int, float) if isinstance(value, base)), None)
            if base is None:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            scalar = _SCALARS[base]
        chunks.append(scalar(value))
