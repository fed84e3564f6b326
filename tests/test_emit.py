"""
The CLI's JSON writer against the standard library.

``minuscule.cli._dumps`` must give the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` for every tree the CLI could
print.  The pinned cases are the ones where an empty container, a tuple or a
non-str key could put a false seam into the one-call path for lists of
lists; the first property draws random trees of every JSON type, with strings
that look like seams.  The second draws lists of dicts that share their keys,
as `represent --weights` and the axiom reports print them, whose values a
key at a time are scalars, scalar-only lists or dicts (empty ones included),
a mix of these, or whole trees.  A list of one record, such as classify's
`components` for a connected input, takes the plain path.
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
        [{"ideal": [], "weight": {"a": 1}}, {"ideal": [3, 5], "weight": {"a": -1}}],
        [{"%s": [1], "{": {}}, {"%s": [], "{": {"}": "},\n{"}}],
        [{"a": 1, "b": [2]}, {"a": [1], "b": [3]}],
        [{"a": [[1]]}, {"a": []}],
        [{"a": {"x": [1]}}, {"a": {"y": 2}}],
        [{"a": 1}, {"b": [1]}],
        [{"a": [1], "b": {"c": None}}],
        # one record, as classify prints the components of a connected input
        {
            "components": [
                {
                    "elements": [4],
                    "family": "A_standard(1)",
                    "matches": ["A_standard(1)"],
                    "minuscule": True,
                    "witness": {"colors": {"c1": "1"}, "elements": {"4": 1}},
                }
            ]
        },
        [{1: [2]}, {1: [3]}],
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


# keys with braces, quotes, backslashes and the template's % sign
RECORD_KEYS = st.text(alphabet='ab{}[]"\\%:, \n', max_size=4)
LEAVES = [
    st.lists(SCALARS, max_size=3),
    st.lists(SCALARS, max_size=3).map(tuple),
    st.dictionaries(RECORD_KEYS, SCALARS, max_size=3),
]
# what one key holds in every record: one kind of value, or a mix
COLUMNS = st.sampled_from([SCALARS, *LEAVES, st.one_of(SCALARS, *LEAVES), TREES])


@st.composite
def record_lists(draw):
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(1, 5))
    columns = [draw(st.lists(draw(COLUMNS), min_size=count, max_size=count)) for _ in keys]
    records = [dict(zip(keys, row)) for row in zip(*columns)]
    return draw(st.sampled_from([records, {"records": records}, [records]]))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(record_lists())
def test_records_equal_the_stdlib(obj):
    assert _dumps(obj) == stdlib(obj)
