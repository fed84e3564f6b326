"""
The exit-code contract under malformed input: random mutations of valid
poset and window documents through `verify`, `classify`, `represent` and
`window`, and malformed `coroots`, `extend` and `catalog` argv.  Every run
exits 0, 1 or 2 and raises nothing, and every refusal is one `error:` or
argparse `usage:` message.  A document whose pairing table the
`DynkinDiagram` constructor refuses, a bool or float cell included, exits 2,
and when only the table was mutated, with exactly the constructor's message;
the constructor names the same fault as `validate_oracle`.  Hypothesis runs
derandomized, with no example database.
"""

import contextlib
import copy
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from minuscule.catalog import FamilyId, build  # noqa: E402
from minuscule.cli import run  # noqa: E402
from minuscule.dynkin import DiagramError, DynkinDiagram  # noqa: E402
from minuscule.heapwindow import cyclic_chain_window, window_of  # noqa: E402

from helpers import validate_oracle  # noqa: E402

PROBE = settings(derandomize=True, database=None, max_examples=150, deadline=None)

DOCUMENTS = [
    build(FamilyId("B", 3)).to_json(),
    build(FamilyId("A_exterior", 4, 2)).to_json(),
    build(FamilyId("D_standard", 4)).to_json(),
    cyclic_chain_window(3, 2).to_json(),
    window_of(build(FamilyId("C", 3))).to_json(),
]
DOCUMENT_VERBS = (
    ["verify"],
    ["classify"],
    ["represent", "--relations", "--full-sweep"],
    ["represent", "--weights", "--matrices"],
    ["window"],
)
# the mutations that leave everything outside the diagram as it was
TABLE_KINDS = ("cell", "one-sided zero", "diagonal", "ragged", "duplicate color")
KINDS = TABLE_KINDS + ("unknown color", "cover id", "duplicate id", "boundary")


def capture(argv, stdin=""):
    out, err, kept = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = kept
    return code, out.getvalue(), err.getvalue()


def meets_the_contract(code, out, err):
    return code in (0, 1) or (code == 2 and err.startswith(("error: ", "usage: ")))


def mutate(draw, doc: dict, kind: str) -> None:
    diagram = doc["diagram"]
    theta, colors = diagram["theta"], diagram["colors"]
    n = len(theta)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "cell":
        values = [True, False, -1.0, 2.0, 0.5, 1, 2, 3, -1, 0]
        theta[i][j] = draw(st.sampled_from(values))
    elif kind == "one-sided zero":
        if isinstance(theta[i][j], int) and theta[i][j] < 0:
            theta[i][j] = 0
        elif i != j:
            theta[i][j] = -1
    elif kind == "diagonal":
        theta[i][i] = draw(st.integers(-3, 5).filter(lambda v: v != 2))
    elif kind == "ragged":
        theta[i] = theta[i][:-1] if draw(st.booleans()) else theta[i] + [0]
    elif kind == "duplicate color":
        if n >= 2:
            colors[i] = colors[(i + 1) % n]
    elif kind == "unknown color":
        doc["elements"][j % len(doc["elements"])]["color"] = "nowhere"
    elif kind == "cover id":
        doc["covers"].append([doc["elements"][0]["id"], draw(st.sampled_from([-1, 999]))])
    elif kind == "duplicate id":
        elements = doc["elements"]
        elements[-1] = dict(elements[-1], id=elements[0]["id"])
    else:
        ids = [e["id"] for e in doc["elements"]]
        doc["boundary"] = draw(st.sampled_from([[999], [-1], ids[:1] * 2, "12", [True]]))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    # a ragged row comes last, so that every other mutation finds a square table
    for kind in sorted(kinds, key=lambda kind: kind == "ragged"):
        mutate(draw, doc, kind)
    return doc, set(kinds) <= set(TABLE_KINDS)


@PROBE
@given(mutated_documents())
def test_mutated_documents_keep_the_exit_contract(case):
    doc, table_only = case
    theta, colors = doc["diagram"]["theta"], doc["diagram"]["colors"]
    refusal = oracle = None
    try:
        DynkinDiagram(colors, theta)
    except DiagramError as exc:
        refusal = type(exc), str(exc)
    try:
        validate_oracle(colors, theta)
    except DiagramError as exc:
        oracle = type(exc), str(exc)
    assert refusal == oracle, theta
    text = json.dumps(doc)
    for verb in DOCUMENT_VERBS:
        code, out, err = capture(verb + ["-"], text)
        assert meets_the_contract(code, out, err), (verb, code, err)
        if refusal is not None:
            assert code == 2 and out == "", (verb, refusal)
            if table_only:
                assert err == f"error: {refusal[1]}\n", (verb, err)


NUMBERS = ["-1", "0", "1", "2", "3", "4", "6", "7", "8", "x", "", "2.5"]
SHAPE_PARTS = ["-1", "0", "1", "2", "3", "5", "x", ""]
FAMILIES = ["a-standard", "a-exterior", "b", "c", "d-standard", "d-spin", "e6", "e7", "bogus"]


def option(name, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


def joined(parts, most):
    return st.lists(st.sampled_from(parts), max_size=most).map(",".join)


MALFORMED_ARGV = st.one_of(
    st.tuples(
        st.just(["coroots"]),
        option("--type", ["A", "b", "C", "D", "E", "F", ""]),
        option("--n", NUMBERS),
        option("--j", NUMBERS),
        option("--psi", ["/nonexistent/poset.json"]),
        option("--dot", [None]),
    ),
    st.tuples(
        st.just(["extend"]),
        st.just([]) | joined(SHAPE_PARTS, 4).map(lambda s: ["--shape", s]),
        option("--trace", [None]),
    ),
    st.tuples(
        st.just(["catalog"]),
        option("--family", FAMILIES),
        st.just([]) | st.tuples(
            st.sampled_from(["A", "b", "D", "E", "Z", ""]), joined(NUMBERS[:9], 2)
        ).map(lambda t: ["--index", ",".join(filter(None, t))]),
        option("--n", NUMBERS),
        option("--j", NUMBERS),
        option("--dot", [None]),
    ),
).map(lambda parts: [a for part in parts for a in part if a is not None])


@PROBE
@given(MALFORMED_ARGV)
def test_malformed_argv_keeps_the_exit_contract(argv):
    code, out, err = capture(argv)
    assert meets_the_contract(code, out, err), (argv, code, err)
