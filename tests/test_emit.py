"""
The CLI's JSON writer against the standard library.

``minuscule.cli._dumps`` must give the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` for every tree the CLI could
print.  The pinned cases are the ones where an empty container, a tuple or a
non-str key could put a false seam into the one-call path for lists of
lists; the property draws random trees of every JSON type, with strings that
look like seams.
"""

import json

import pytest

from minuscule.cli import _dumps

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        [[[], []]],
        [[1], [(), []]],
        {"k": [[], {}]},
        {2: [1, {"a": [[1]]}], 10: "x", 1.5: None},
        [{"a": {3: [2], True: [[]], 0.5: 1}}],
        [{1: 2, 0: 3}, {"b": [1]}],
        [[1, 2], [3]],
        [[], [1]],
        [{"b": 1, "a": "],\n["}, {"c": None}],
        [[1], {"a": 1}],
        ((1, (2, 3)), ("],\n  [",)),
        [float("nan"), float("inf"), -float("inf"), 2**70, True, None, 'é"\\'],
        [],
        {},
        0,
        "],\n[",
    ],
)
def test_pinned_cases(obj):
    assert _dumps(obj) == stdlib(obj)


SEAMS = st.sampled_from(['"],\\n["', "],\n[", "},\n{", '"', "\\", "é", "ß∂ƒ", " ", "{", "]"])
SCALARS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80) | st.integers(min_value=-(2**80), max_value=-(2**64)),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    SEAMS,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3) | SEAMS, children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
        # lists of scalar-only members, the shape the writer encodes in one
        # call when no member is empty
        st.lists(st.lists(SCALARS, max_size=3), min_size=1, max_size=3),
        st.lists(
            st.dictionaries(st.text(max_size=2), SCALARS, max_size=3)
            | st.dictionaries(st.integers(-3, 3), SCALARS, max_size=3),
            min_size=1,
            max_size=3,
        ),
    )


TREES = st.recursive(SCALARS, containers, max_leaves=24)


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None)
@hypothesis.given(TREES)
def test_writer_equals_the_stdlib(obj):
    assert _dumps(obj) == stdlib(obj)
