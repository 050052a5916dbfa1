"""`payload.dumps` writes the bytes the standard library's indented JSON
encoder writes (`oracles.payload_as_stdlib`), for every value a payload can
hold and for subclasses of each container and scalar type, and for payloads
that place one tuple object at several positions and depths."""

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import payload_as_stdlib
from symbiosis_kit.payload import dumps


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


# Non-ASCII text, lone surrogates, control characters, quotes and backslashes.
_characters = st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff", "\U0001f600"]
)
_strings = st.text(_characters, max_size=8)
_ints = st.integers() | st.sampled_from([2**70, -(2**70), 0, -1]) | st.booleans()
_floats = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 1e16, 1e-5])
_scalars = (
    st.none()
    | _strings
    | _ints
    | _floats
    | _strings.map(_Str)
    | st.integers().map(_Int)
    | st.floats().map(_Float)
)
_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=4).map(_List)
        | st.dictionaries(_strings, children, max_size=4)
        | st.dictionaries(_strings, children, max_size=4).map(_Dict)
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_dumps_writes_what_the_standard_library_writes(value):
    assert dumps(value) == payload_as_stdlib(value)


@pytest.mark.parametrize("value", [{}, [], (), "", 0, None, True, False, {"a": {}}, {"a": []}, [[], {}]])
def test_empty_containers_and_bare_scalars(value):
    assert dumps(value) == payload_as_stdlib(value)


@pytest.mark.parametrize("value", [{"a": {1, 2}}, [b"bytes"], object(), {"a": [1, 2j]}])
def test_a_value_json_cannot_write_is_a_type_error(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dumps(value)


def test_a_key_that_is_not_a_string_is_a_type_error():
    with pytest.raises(TypeError):
        dumps({1: "one"})


# -- tuples shared across positions and depths ------------------------------------------


class _Entry(NamedTuple):
    name: str
    items: list


# Equal tuples that json writes differently, beside equal ones it writes alike.
_LOOK_ALIKES = ((1,), (True,), (1.0,), (0.0,), (-0.0,), ("a",), (_Str("a"),))


@st.composite
def _sharing_payloads(draw):
    """A payload in which each of a few tuple objects sits at several positions and depths.

    The look-alikes sit side by side at one depth, and one drawn tuple at depths 1
    and 3, so a writer that keeps what it wrote by value, or without the depth, writes
    something else; the rest of the payload places the shared tuples at random.
    """
    shared = [
        *_LOOK_ALIKES,
        draw(st.tuples(st.dictionaries(_strings, _values, max_size=3), st.lists(_values, max_size=3))),
        draw(st.lists(_values, min_size=1, max_size=3).map(tuple)),
        _Entry(draw(_strings), draw(st.lists(_values, max_size=3))),
    ]
    tree = draw(
        st.recursive(
            st.sampled_from(shared) | _scalars,
            lambda children: (
                st.lists(children, max_size=4)
                | st.lists(children, max_size=4).map(tuple)
                | st.dictionaries(_strings, children, max_size=4)
                | st.dictionaries(_strings, children, max_size=4).map(_Dict)
            ),
            max_leaves=24,
        )
    )
    one = draw(st.sampled_from(shared))
    return {"look-alikes": list(draw(st.permutations(_LOOK_ALIKES))), "one": one, "deep": [[one, tree]], "tree": tree}


@settings(max_examples=200, deadline=None)
@given(_sharing_payloads())
def test_a_shared_tuple_is_written_as_the_standard_library_writes_it_at_each_place(value):
    assert dumps(value) == payload_as_stdlib(value)
