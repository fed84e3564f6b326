import contextlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest

import minuscule
from minuscule import cli, coroots, representation
from minuscule.catalog import FamilyId, all_family_ids, build
from minuscule.cli import run
from minuscule.dynkin import DynkinDiagram
from minuscule.heapwindow import cyclic_chain_window
from minuscule.poset import ColoredPoset

from helpers import build_operators_oracle


def capture(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, buf.getvalue(), err.getvalue()


def argv_id(value) -> str:
    """A parameter id: an argv list joined by blanks, a string as it is."""
    return " ".join(value) if isinstance(value, list) else value


def family_args(fam: FamilyId) -> list[str]:
    kind = {
        "A_standard": "a-standard",
        "A_exterior": "a-exterior",
        "B": "b",
        "C": "c",
        "D_standard": "d-standard",
        "D_spin": "d-spin",
        "E6": "e6",
        "E7": "e7",
    }[fam.kind]
    args = ["catalog", "--family", kind]
    if fam.kind not in ("E6", "E7"):
        args += ["--n", str(fam.n)]
    if fam.kind == "A_exterior":
        args += ["--j", str(fam.j)]
    return args


def test_catalog_classify_round_trip(tmp_path):
    for fam in all_family_ids(5) + [FamilyId("E6", 6), FamilyId("E7", 7)]:
        code, out, _ = capture(family_args(fam))
        assert code == 0
        path = tmp_path / "poset.json"
        path.write_text(out)
        code, out, _ = capture(["classify", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["minuscule"] is True
        assert data["components"][0]["family"] is not None
        matches = set(data["components"][0]["matches"])
        assert str(fam) in matches, (str(fam), matches)


def test_catalog_family_takes_only_the_n_and_j_that_fit():
    firsts = {}
    for fam in all_family_ids(8):
        firsts.setdefault(fam.kind, fam)
    assert len(firsts) == 8
    for fam in firsts.values():
        args = family_args(fam)
        assert capture(args)[0] == 0, args
        if fam.kind in ("E6", "E7"):
            assert capture(args + ["--n", str(fam.n)])[0] == 0, args
        wrong = [args + ["--n", str(fam.n - 1)], args + ["--j", str(fam.n)]]
        if fam.kind != "A_exterior":
            wrong.append(args + ["--j", "2"])
        for argv in wrong:
            code, out, err = capture(argv)
            assert code == 2 and out == "" and "bad parameters" in err, argv
    for argv in (["catalog", "--family", "b"], ["catalog", "--family", "a-exterior", "--j", "2"]):
        code, out, err = capture(argv)
        assert code == 2 and out == "" and "--n is required" in err
    code, out, err = capture(["catalog", "--family", "a-exterior", "--n", "5"])
    assert code == 2 and out == "" and "bad parameters for A_exterior: n=5, j=0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catalog"], "one of the arguments --family --index is required"),
        (["catalog", "--family", "b", "--n", "3", "--index", "B,3,3"], "not allowed with"),
        (["catalog", "--index", "B,3,3", "--family", "b", "--n", "3"], "not allowed with"),
        (["window"], "one of the arguments file --chain is required"),
        (["window", "--chain", "3,2", "WINDOW"], "not allowed with"),
        (["window", "WINDOW", "--chain", "3,2"], "not allowed with"),
        (["verify", "POSET", "--property", "UCB(1"], "UCB(1"),
        (["verify", "POSET", "--property", "LCB1)"], "LCB1)"),
        (
            ["verify", "POSET", "--property", "XYZ"],
            "error: unknown property 'XYZ'; expected EC, NA, AC, ICE2, S1-S4, UCBk/UCB(k) or LCBk/LCB(k)",
        ),
        (["verify", "POSET", "--property", " "], "error: unknown property ' '; expected EC,"),
    ],
    ids=argv_id,
)
def test_one_input_source_and_exact_property_names(tmp_path, argv, message):
    window, poset = tmp_path / "window.json", tmp_path / "poset.json"
    window.write_text(json.dumps(cyclic_chain_window(3, 2).to_json()))
    poset.write_text(json.dumps(build(FamilyId("B", 3)).to_json()))
    argv = [{"WINDOW": str(window), "POSET": str(poset)}.get(a, a) for a in argv]
    code, out, err = capture(argv)
    assert code == 2 and out == ""
    assert message in err


NOT_APPLICABLE = [
    (["catalog", "--index", "A,3,1", "--n", "7"], "argument --n: not allowed with argument --index"),
    (["catalog", "--index", "A,3,1", "--j", "5"], "argument --j: not allowed with argument --index"),
    (["catalog", "--index", "A,3,1", "--n", "7", "--j", "5"], "argument --n: not allowed"),
    (["coroots", "--type", "A", "--n", "3", "--dot"], "--dot needs --j"),
    (["represent", "POSET", "--full-sweep"], "--full-sweep needs --relations"),
    (["represent", "POSET", "--full-sweep", "--weights"], "--full-sweep needs --relations"),
]


@pytest.mark.parametrize("argv, message", NOT_APPLICABLE, ids=[" ".join(a) for a, _ in NOT_APPLICABLE])
def test_options_that_do_not_apply_exit_two(tmp_path, argv, message):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(build(FamilyId("B", 3)).to_json()))
    code, out, err = capture([str(poset) if a == "POSET" else a for a in argv])
    assert code == 2 and out == ""
    assert message in err


def test_verify_verb(tmp_path):
    code, out, _ = capture(["catalog", "--family", "b", "--n", "3"])
    path = tmp_path / "b3.json"
    path.write_text(out)
    code, out, _ = capture(["verify", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert {r["property"] for r in data["reports"]} == {
        "EC", "NA", "AC", "ICE2", "UCB1", "LCB1",
    }
    code, out, _ = capture(["verify", str(path), "--property", "S2", "--property", "S3"])
    assert code == 0


def test_verify_negative_exit(tmp_path):
    code, out, _ = capture(["extend", "--shape", "2,2,2"])
    assert code == 1
    data = json.loads(out)
    path = tmp_path / "blocked.json"
    path.write_text(json.dumps(data["poset"]))
    code, out, _ = capture(["verify", str(path)])
    assert code == 1
    reports = {r["property"]: r for r in json.loads(out)["reports"]}
    assert reports["LCB1"]["holds"] is False


def test_extend_verbs():
    code, out, _ = capture(["extend", "--shape", "3,1,2", "--trace"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "minuscule"
    assert data["stages"][0]["extension_set"] == ["3"]
    assert len(data["poset"]["elements"]) == 16

    code, out, _ = capture(["extend", "--shape", "5,1,2", "--trace"])
    assert code == 1
    data = json.loads(out)
    assert data["reason"]["census"] == 3
    assert data["assessments"] == 9


def test_extend_matches_fig_extension_sets():
    # seed ids: 1..5 down the top chain (5 = splitting element), 6 the short
    # arm, 7..8 the long arm
    code, out, _ = capture(["extend", "--shape", "5,1,2", "--trace"])
    data = json.loads(out)
    sets = [tuple(stage["extension_set"]) for stage in data["stages"]]
    assert sets == [
        ("5",),
        ("4", "7"),
        ("3", "5"),
        ("2", "4", "6"),
        ("1", "3", "5"),
        ("2", "4", "7"),
        ("3", "5", "8"),
        ("4", "6", "7"),
    ]


def test_represent_verb(tmp_path):
    code, out, _ = capture(["catalog", "--index", "A,4,2"])
    path = tmp_path / "a42.json"
    path.write_text(out)
    code, out, _ = capture(["represent", str(path), "--relations", "--weights"])
    assert code == 0
    data = json.loads(out)
    assert data["splits"] == 10
    assert data["relations"]["all_pass"] is True
    assert len(data["weights"]) == 10
    for entry in data["weights"]:
        assert set(entry["weight"].values()) <= {-1, 0, 1}


def test_represent_builds_the_operator_maps_once(tmp_path, monkeypatch):
    calls = []
    original = representation.operator_maps

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "operator_maps", counted)
    monkeypatch.setattr(representation, "operator_maps", counted)
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(build(FamilyId("B", 3)).to_json()))
    code, out, _ = capture(["represent", str(path), "--relations", "--weights", "--matrices"])
    assert (code, sorted(json.loads(out))) == (0, ["operators", "relations", "splits", "version", "weights"])
    assert len(calls) == 1
    # without a flag no maps are built, so a file that fails EC still counts its splits
    anti = ColoredPoset(DynkinDiagram(["a"], [[2]]), {1: "a", 2: "a"}, [])
    path.write_text(json.dumps(anti.to_json()))
    code, out, _ = capture(["represent", str(path)])
    assert (code, json.loads(out)["splits"], len(calls)) == (0, 4, 1)


def test_matrices_equal_the_operator_oracle_on_the_catalog(tmp_path):
    path = tmp_path / "family.json"
    for fam in all_family_ids(8):
        p = build(fam)
        path.write_text(json.dumps(p.to_json()))
        code, out, _ = capture(["represent", str(path), "--matrices"])
        _, ops = build_operators_oracle(p)
        want = {
            str(a): {"raising": x.coordinates, "lowering": y.coordinates, "diagonal": h.coordinates}
            for a, (x, y, h) in ops.items()
        }
        assert (code, json.loads(out)["operators"]) == (0, want), str(fam)


def test_every_verb_accepts_the_empty_poset(tmp_path):
    path = tmp_path / "empty.json"
    empty = {"version": 1, "diagram": {"colors": [], "theta": []}, "elements": [], "covers": []}
    path.write_text(json.dumps(empty))
    for verb in (["verify"], ["classify"], ["window"], ["represent", "--weights", "--matrices"]):
        assert capture(verb + [str(path)])[0] == 0, verb
    # one split, the empty ideal, of empty weight
    code, out, _ = capture(["represent", str(path), "--weights"])
    assert (code, json.loads(out)["weights"]) == (0, [{"ideal": [], "weight": {}}])
    code, out, err = capture(["represent", str(path), "--relations"])
    assert (code, err) == (0, "")
    assert json.loads(out)["relations"] == {"all_pass": True, "checks": [], "eigenvalues_in_range": True}


@pytest.mark.parametrize("theta", [-1000, -10**20])
def test_represent_relations_at_a_large_pairing_gives_a_verdict(tmp_path, theta):
    d = DynkinDiagram(["a", "b"], [[2, theta], [-1, 2]])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(ColoredPoset(d, {1: "a", 2: "b"}, [(1, 2)]).to_json()))
    code, out, err = capture(["represent", str(path), "--relations"])
    assert (code, err) == (1, "")
    assert json.loads(out)["relations"]["all_pass"] is False


def test_coroots_verb():
    code, out, _ = capture(["coroots", "--type", "A", "--n", "4", "--j", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["highest"] == [1, 1, 1, 1]
    assert data["colors_in_order"] == ["2", "1", "3", "2", "4", "3"]
    assert len(data["filter"]) == 6


def test_coroots_j_out_of_range_exits_two(monkeypatch):
    """The range of --j is checked before any coroot is enumerated."""
    calls = []
    enumerate_coroots = coroots.CorootSystem.positive_coroots
    monkeypatch.setattr(
        coroots.CorootSystem,
        "positive_coroots",
        lambda system: calls.append(system) or enumerate_coroots(system),
    )
    for j in ("0", "7"):
        code, out, err = capture(["coroots", "--type", "A", "--n", "3", "--j", j])
        assert code == 2
        assert "--j" in err and out == ""
    assert calls == []


def test_coroots_dot_on_non_minuscule_index_exits_one():
    code, out, _ = capture(["coroots", "--type", "B", "--n", "3", "--j", "1"])
    assert code == 1 and "colors_in_order" not in json.loads(out)
    code, out, err = capture(["coroots", "--type", "B", "--n", "3", "--j", "1", "--dot"])
    assert code == 1
    assert out == "" and "not a minuscule weight" in err


def test_coroots_dot_draws_the_realized_file(tmp_path):
    code, out, _ = capture(["catalog", "--index", "A,4,2"])
    path = tmp_path / "a42.json"
    path.write_text(out)
    code, drawn, _ = capture(
        ["coroots", "--type", "A", "--n", "4", "--j", "2", "--psi", str(path), "--dot"]
    )
    assert code == 0
    assert drawn == capture(["coroots", "--type", "A", "--n", "4", "--j", "2", "--dot"])[1]


def test_coroots_psi_on_file(tmp_path):
    code, out, _ = capture(["catalog", "--index", "A,4,2"])
    path = tmp_path / "a42.json"
    path.write_text(out)
    code, out, _ = capture(
        ["coroots", "--type", "A", "--n", "4", "--j", "2", "--psi", str(path)]
    )
    assert code == 0
    data = json.loads(out)
    assert data["psi"]["j"] == 2
    assert data["psi"]["colors_in_order"] == ["2", "1", "3", "2", "4", "3"]


def test_coroots_psi_refuses_a_file_of_another_system(tmp_path):
    code, out, _ = capture(["catalog", "--index", "D,4,1"])
    path = tmp_path / "d4.json"
    path.write_text(out)
    for argv in (
        ["--type", "A", "--n", "3", "--j", "2"],  # another type and rank
        ["--type", "D", "--n", "4", "--j", "3"],  # the right type, another j
    ):
        code, out, err = capture(["coroots", *argv, "--psi", str(path)])
        assert code == 2, argv
        assert out == "" and "D4, j=1" in err
    code, out, _ = capture(["coroots", "--type", "D", "--n", "4", "--j", "1", "--psi", str(path)])
    assert code == 0 and json.loads(out)["psi"]["j"] == 1


def test_coroots_psi_needs_j(tmp_path):
    code, out, _ = capture(["catalog", "--index", "A,4,2"])
    path = tmp_path / "a42.json"
    path.write_text(out)
    code, out, err = capture(["coroots", "--type", "A", "--n", "4", "--psi", str(path)])
    assert code == 2
    assert out == "" and "--psi needs --j" in err


@pytest.mark.parametrize(
    "letter, n, message",
    [
        ("E", 4, "type E needs 6 <= n <= 7, got n=4"),
        ("E", 5, "type E needs 6 <= n <= 7, got n=5"),
        ("E", 8, "type E needs 6 <= n <= 7, got n=8"),
        ("D", 3, "type D needs n >= 4, got n=3"),
        ("C", 2, "type C needs n >= 3, got n=2"),
        ("B", 1, "type B needs n >= 2, got n=1"),
        ("A", 0, "type A needs n >= 1, got n=0"),
    ],
    ids=["E4", "E5", "E8", "D3", "C2", "B1", "A0"],
)
def test_coroots_refuses_a_rank_outside_its_type(letter, n, message):
    code, out, err = capture(["coroots", "--type", letter, "--n", str(n)])
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, form",
    [
        (["extend", "--shape", "1,2"], "i,j,k"),
        (["extend", "--shape", "1,2,3,4"], "i,j,k"),
        (["extend", "--shape", "a,b,c"], "i,j,k"),
        (["window", "--chain", "5"], "n,p"),
        (["window", "--chain", "5,x"], "n,p"),
        (["catalog", "--index", "A,3"], "letter,n,j"),
        (["catalog", "--index", "A,3,x"], "letter,n,j"),
    ],
    ids=argv_id,
)
def test_comma_lists_name_their_form(argv, form):
    code, out, err = capture(argv)
    assert code == 2 and out == ""
    assert f"expected {form}, got {argv[-1]!r}" in err


def test_window_verb():
    code, out, _ = capture(["window", "--chain", "4,3"])
    assert code == 0
    assert json.loads(out)["holds"] is True

    code, _, err = capture(["window", "--chain", "2,3"])
    assert code == 2
    assert "error" in err


def test_window_verb_on_catalog_file(tmp_path):
    code, out, _ = capture(["catalog", "--family", "a-exterior", "--n", "4", "--j", "2"])
    data = json.loads(out)
    data["boundary"] = []
    path = tmp_path / "win.json"
    path.write_text(json.dumps(data))
    code, out, _ = capture(["window", str(path)])
    assert code == 1  # G3-window fails on a finite poset
    reports = {r["property"]: r for r in json.loads(out)["reports"]}
    assert reports["G3-window"]["holds"] is False


def test_classify_window_file_is_out_of_scope(tmp_path):
    code, out, _ = capture(["window", "--chain", "3,2"])
    code, out, _ = capture(["catalog", "--family", "b", "--n", "2"])
    data = json.loads(out)
    data["boundary"] = [1]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    code, out, _ = capture(["classify", str(path)])
    assert code == 1
    assert json.loads(out)["classification"] == "infinite-out-of-scope"


POSET_VERBS = (
    ["verify"], ["classify"], ["represent"], ["window"],
    ["coroots", "--type", "B", "--n", "2", "--j", "2", "--psi"],
)
WINDOW_VERBS = (["window"], ["classify"])


def malformed_documents():
    """(document, message, verbs that read it, whether the schema rejects it
    too) for each input fault the loaders must report."""
    _, out, _ = capture(["catalog", "--family", "b", "--n", "2"])
    good = json.loads(out)
    window = dict(good, boundary=[1])
    duplicate = dict(good, elements=good["elements"] + [good["elements"][0]])
    # JSON true and false must not pass for the integers 1 and 0
    true_id = dict(good, elements=[dict(good["elements"][0], id=True)] + good["elements"][1:])
    _, out, _ = capture(["catalog", "--family", "a-standard", "--n", "3"])
    chain = json.loads(out)
    theta = [row[:] for row in chain["diagram"]["theta"]]
    theta[0][2] = False
    false_theta = dict(chain, diagram=dict(chain["diagram"], theta=theta))
    # colors must be JSON strings, not coerced to them
    int_colors = dict(good, diagram=dict(good["diagram"], colors=[1, 2]))
    list_color = dict(good, elements=[dict(good["elements"][0], color=[1])] + good["elements"][1:])

    def with_theta(value):
        return dict(good, diagram=dict(good["diagram"], theta=value))

    def with_cell(value):
        theta = [row[:] for row in good["diagram"]["theta"]]
        theta[1][0] = value
        return with_theta(theta)

    def cell_message(value):
        return f"error: theta['2']['1'] = {value!r} is not an integer\n"

    shape = "error: diagram must hold a colors list and a theta table of integers\n"
    # JSON Schema's integer takes a float with a zero fraction
    bad_cells = [(-1.0, False), (-0.5, True), ("-1", True), (None, True), ([-1], True)]
    return [
        ([good], "object", POSET_VERBS, True),
        (dict(good, elements="xx"), "elements", POSET_VERBS, True),
        (duplicate, "duplicate", POSET_VERBS, False),
        ({k: v for k, v in good.items() if k != "diagram"}, "diagram", POSET_VERBS, True),
        (dict(good, covers=5), "covers", POSET_VERBS, True),
        (dict(good, covers=[[1, 2, 3]]), "covers", POSET_VERBS, True),
        ({k: v for k, v in window.items() if k != "diagram"}, "diagram", WINDOW_VERBS, True),
        (dict(window, boundary="12"), "boundary", WINDOW_VERBS, True),
        (dict(window, boundary=[99]), "boundary", WINDOW_VERBS, False),
        (true_id, "elements", POSET_VERBS, True),
        (dict(good, covers=[[2, True], [3, 2]]), "covers", POSET_VERBS, True),
        (false_theta, "error: theta['1']['3'] = False is not an integer\n", POSET_VERBS, True),
        (dict(window, boundary=[True]), "boundary", WINDOW_VERBS, True),
        (dict(good, version=True), "version", POSET_VERBS, True),
        (dict(window, version=True), "version", WINDOW_VERBS, True),
        (int_colors, "diagram colors", POSET_VERBS, True),
        (list_color, "string colors", POSET_VERBS, True),
        *[(with_cell(v), cell_message(v), POSET_VERBS, in_schema) for v, in_schema in bad_cells],
        (with_theta([[2, -2], 5]), shape, POSET_VERBS, True),
        (with_theta({"1": [2, -2], "2": [-1, 2]}), shape, POSET_VERBS, True),
        (dict(good, diagram=[["1", "2"], good["diagram"]["theta"]]), shape, POSET_VERBS, True),
        # the diagram is read whole before the elements
        (dict(with_theta([[2, -2], [-1, 3]]), elements=duplicate["elements"]),
         "error: theta['2']['2'] = 3, expected 2\n", POSET_VERBS, False),
    ]


def test_input_errors_exit_two(tmp_path):
    code, _, err = capture(["classify", "/does/not/exist.json"])
    assert code == 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99}))
    code, _, err = capture(["classify", str(path)])
    assert code == 2
    assert "version" in err
    code, _, _ = capture(["catalog", "--family", "nope"])
    assert code == 2
    code, _, _ = capture(["catalog", "--index", "A,4,9"])
    assert code == 2

    for doc, message, verbs, _ in malformed_documents():
        path.write_text(json.dumps(doc))
        for verb in verbs:
            code, out, err = capture(verb + [str(path)])
            assert code == 2, (verb, doc)
            assert message in err and out == "", (verb, doc, err)


def test_byte_for_byte_determinism(tmp_path):
    path = tmp_path / "window.json"
    path.write_text(json.dumps(cyclic_chain_window(4, 2).to_json()))
    catalog_path = tmp_path / "e6.json"
    catalog_path.write_text(json.dumps(build(FamilyId("E6", 6)).to_json()))
    # B(5) has a double bond, so its full sweep decides brackets of depth 3
    b5_path = tmp_path / "b5.json"
    b5_path.write_text(json.dumps(build(FamilyId("B", 5)).to_json()))
    _, out, _ = capture(["extend", "--shape", "2,2,2"])
    failing_path = tmp_path / "blocked.json"
    failing_path.write_text(json.dumps(json.loads(out)["poset"]))
    for argv in (
        ["catalog", "--family", "d-spin", "--n", "6"],
        ["extend", "--shape", "4,1,2", "--trace"],
        ["coroots", "--type", "E", "--n", "6", "--j", "1"],
        ["window", "--chain", "5,3"],
        ["classify", str(path)],
        ["represent", str(catalog_path), "--weights"],
        ["represent", str(catalog_path), "--matrices"],
        ["represent", str(catalog_path), "--relations", "--full-sweep"],
        ["represent", str(b5_path), "--relations", "--full-sweep"],
        ["verify", str(failing_path)],
    ):
        _, first, _ = capture(argv)
        _, second, _ = capture(argv)
        assert first == second
        # the format is the standard library's, byte for byte
        assert first == json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n", argv


def test_a_reader_that_leaves_early_gets_the_sigpipe_status():
    # a megabyte of output, far more than a pipe buffers, so the writer is
    # still writing when the reader closes its end
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(minuscule.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "minuscule.cli", "catalog", "--family", "a-standard", "--n", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (code, stderr) == (128 + signal.SIGPIPE, b"")


def test_one_parser_serves_a_sequence_of_calls(tmp_path, monkeypatch):
    # help text wraps at the terminal width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(minuscule.__file__)))
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(build(FamilyId("B", 3)).to_json()))
    steps = [
        ["verify", "--property", "EC", str(path)],
        ["verify", str(path)],
        ["verify", "--property"],
        ["--help"],
        ["extend", "--shape", "3,1,2"],
    ]
    fresh = []
    for argv in steps:
        done = subprocess.run(
            [sys.executable, "-m", "minuscule.cli", *argv], capture_output=True, text=True, env=env
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0]
    for _ in range(2):
        for argv, expected in zip(steps, fresh):
            assert capture(argv) == expected, argv


PARSER_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["ver"],
    ["--", "verify"],
    *([verb, "-h"] for verb in cli._VERBS),
    ["verify"],
    ["classify"],
    ["catalog"],
    ["extend"],
    ["represent"],
    ["coroots", "--type", "A"],
    ["catalog", "--family", "b", "--n", "x"],
    ["coroots", "--type", "A", "--n", "x"],
    ["catalog", "--family", "b", "--index", "A,3,1"],
    ["window"],
    ["window", "w.json", "--chain", "4,2"],
    ["verify", "p.json", "--bogus"],
    ["extend", "--shape", "1,1,2", "--bogus", "x"],
    ["extend", "--shape", "1,1,2"],
    ["catalog", "--family", "a-standard", "--n", "2"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=argv_id)
def test_each_verb_parser_prints_and_exits_as_the_full_parser(argv, monkeypatch):
    # help text wraps at the terminal width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    got = capture(argv)
    monkeypatch.setattr(cli, "_parser", lambda verb: cli.build_parser())
    assert got == capture(argv)


def test_a_missing_or_unknown_verb_is_named_verb():
    # the full parser's errors name the argument by its dest, as no metavar is set
    code, _, err = capture([])
    assert (code, err.splitlines()[-1]) == (
        2, "minuscule: error: the following arguments are required: verb"
    )
    code, _, err = capture(["frobnicate"])
    assert code == 2
    assert err.splitlines()[-1].startswith("minuscule: error: argument verb: invalid choice")


def test_dot_outputs():
    code, out, _ = capture(["catalog", "--family", "e6", "--dot"])
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = capture(["coroots", "--type", "A", "--n", "4", "--j", "2", "--dot"])
    assert code == 0
    assert "digraph" in out


def test_poset_files_validate_against_published_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    schema = json.loads(
        resources.files("minuscule").joinpath("schemas/poset.schema.json").read_text()
    )
    for argv in (
        ["catalog", "--family", "e6"],
        ["catalog", "--index", "B,3,3"],
        ["window", "--chain", "3,2"],
    ):
        code, out, _ = capture(argv)
        assert code == 0
        payload = json.loads(out)
        if argv[0] == "window":
            # re-emit the window's poset with its boundary for validation
            code, out, _ = capture(["catalog", "--family", "b", "--n", "2"])
            payload = json.loads(out)
            payload["boundary"] = [1]
        jsonschema.validate(payload, schema)
    # the empty poset, which every verb accepts
    empty = {"version": 1, "diagram": {"colors": [], "theta": []}, "elements": [], "covers": []}
    jsonschema.validate(empty, schema)
    # every fault the schema can express fails it as it fails the loaders, and
    # the schema takes the others
    for doc, _, _, in_schema in malformed_documents():
        if in_schema:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(doc, schema)
        else:
            jsonschema.validate(doc, schema)


def test_classify_reads_stdin(monkeypatch):
    code, out, _ = capture(["catalog", "--family", "c", "--n", "3", "--json"])
    assert code == 0
    import io as _io
    import sys as _sys

    monkeypatch.setattr(_sys, "stdin", _io.StringIO(out))
    code, out, _ = capture(["classify", "-"])
    assert code == 0
    assert json.loads(out)["components"][0]["family"] == "C(3)"
