import functools
import math
import random
import re

import pytest

from minuscule import axioms
from minuscule.axioms import (
    UnknownProperty,
    check,
    frontier_censuses,
    is_d_complete,
    is_dominant_minuscule_heap,
    is_minuscule,
)
from minuscule.catalog import FamilyId, all_family_ids, build, indexed, top_tree_Y
from minuscule.classify import classify
from minuscule.dynkin import DynkinDiagram, is_simply_laced
from minuscule.extension import run_extension
from minuscule.poset import ColoredPoset, order_dual
from minuscule.representation import splits, verify_relations

from helpers import (
    FrozensetOrder,
    NotConnectedPoset,
    NotDComplete,
    _frontier_oracle,
    check_oracle,
    connected_components,
    differential_posets,
    disjoint_union,
    is_slant_irreducible,
    random_colored_poset,
    random_filter_poset,
    seed_from_env,
)

COLORING = ("EC", "NA", "AC", "ICE2", "UCB0", "UCB1", "UCB2", "UCB3", "LCB0", "LCB(1)", "LCB(2)", "LCB(3)")
PROPERTIES = COLORING + ("S1", "S2", "S3", "S4")


def test_ec_counterexample_with_witness():
    d = DynkinDiagram(["a"], [[2]])
    anti = ColoredPoset(d, {1: "a", 2: "a"}, [])
    report = check(anti, "EC")
    assert not report.holds
    assert report.witnesses[0].elements == (1, 2)


def test_ice2_type_b_single_element_interval():
    b3 = build(FamilyId("B", 3))
    assert check(b3, "ICE2").holds
    # some consecutive same-colored pair has a one-element interval whose
    # single element is 2-adjacent (pairing -2)
    found = False
    for a in b3.diagram.colors:
        for x, y in b3.induced_covers(b3.color_class(a)):
            interval = sorted(b3.open_interval(x, y))
            if len(interval) == 1:
                z = interval[0]
                if b3.diagram.theta(b3.color(z), a) == -2:
                    found = True
    assert found
    assert check(b3, "S2").holds


def test_ucb1_failure_census_two():
    d = DynkinDiagram(["a", "b", "c"], [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]])
    v = ColoredPoset(d, {1: "b", 2: "c", 3: "a"}, [(3, 1), (3, 2)])
    report = check(v, "UCB1")
    assert not report.holds
    [w] = [w for w in report.witnesses if w.elements == (3,)]
    assert w.value == 2
    assert check(v, "UCB2").holds


def test_unknown_property():
    with pytest.raises(UnknownProperty):
        check(indexed("A", 1, 1), "XYZ")


def test_frontier_properties_are_named_k_or_parenthesized_k():
    p = indexed("B", 3, 3)
    for name in ("UCB1", "UCB(1)", "lcb2", " LCB(2) "):
        assert check(p, name).property == name.strip().upper()
    for name in ("UCB(1", "UCB1)", "UCB()", "UCB", "LCB((1))", "UCB-1", "UCB(1)x"):
        with pytest.raises(UnknownProperty):
            check(p, name)


def test_catalog_families_are_d_complete_and_minuscule():
    for fam in all_family_ids(6):
        p = build(fam)
        ok, _ = is_d_complete(p)
        assert ok, str(fam)
        ok, _ = is_minuscule(p)
        assert ok, str(fam)
        assert is_dominant_minuscule_heap(p), str(fam)


def test_maximal_rank_complete_poset_d_complete_not_minuscule():
    outcome = run_extension(top_tree_Y(2, 2, 2))
    p = outcome.poset
    ok, _ = is_d_complete(p)
    assert ok
    ok, reports = is_minuscule(p)
    assert not ok
    [lcb] = [r for r in reports if r.property == "LCB1"]
    assert any(w.value == 3 for w in lcb.witnesses)


def test_minuscule_closed_under_order_dual():
    for fam in all_family_ids(6):
        ok, _ = is_minuscule(order_dual(build(fam)))
        assert ok, str(fam)


def test_s4_failure_over_cycle_diagram():
    tri = DynkinDiagram(["a", "b", "c"], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    p = ColoredPoset(tri, {1: "a", 2: "b", 3: "c"}, [(2, 1), (3, 2)])
    assert not check(p, "S4").holds
    assert not is_dominant_minuscule_heap(p)


def test_equivalence_on_random_sample():
    rng = random.Random(seed_from_env() + 10)
    agree_true = 0
    for _ in range(600):
        p = random_colored_poset(rng, 7, 4)
        dc, _ = is_d_complete(p)
        assert dc == is_dominant_minuscule_heap(p)
        agree_true += dc
    # structured cases keep the positive side of the equivalence exercised
    for fam in all_family_ids(5):
        base = build(fam)
        for _ in range(5):
            f = random_filter_poset(rng, base)
            dc, _ = is_d_complete(f)
            assert dc == is_dominant_minuscule_heap(f)
            agree_true += dc
    assert agree_true >= 40


def test_unique_extrema_for_connected_catalog():
    for fam in all_family_ids(6):
        p = build(fam)
        assert len(p.maximal_elements()) == 1
        assert len(p.minimal_elements()) == 1


def test_slant_irreducible():
    assert is_slant_irreducible(indexed("A", 1, 1))
    for n in (2, 4):
        assert not is_slant_irreducible(build(FamilyId("A_standard", n)))
    assert is_slant_irreducible(build(FamilyId("E7", 7)))
    # the multiply laced families are exactly the slant irreducible chains/staircases
    assert is_slant_irreducible(build(FamilyId("C", 3)))
    assert is_slant_irreducible(build(FamilyId("B", 3)))


def test_slant_irreducible_requires_connected_and_d_complete():
    union = disjoint_union([indexed("A", 1, 1), indexed("A", 1, 1)])
    with pytest.raises(NotConnectedPoset):
        is_slant_irreducible(union)
    d = DynkinDiagram(["a"], [[2]])
    two_chain = ColoredPoset(d, {1: "a", 2: "a"}, [(2, 1)])
    with pytest.raises(NotDComplete):
        is_slant_irreducible(two_chain)


def test_chain_or_slant_irreducible_dichotomy():
    # every connected finite minuscule poset is a chain over a simply laced
    # diagram or slant irreducible (not exclusively)
    for fam in all_family_ids(6):
        p = build(fam)
        is_chain = all(
            p.comparable(x, y)
            for i, x in enumerate(p.elements)
            for y in p.elements[i + 1 :]
        )
        chain_simply = is_chain and is_simply_laced(p.diagram)
        assert chain_simply or is_slant_irreducible(p), str(fam)


def test_connected_iff_diagram_connected_for_d_complete():
    for fam in all_family_ids(5):
        p = build(fam)
        assert len(connected_components(p)) == 1
        assert p.diagram.is_connected()
    union = disjoint_union([build(FamilyId("A_standard", 2)), build(FamilyId("B", 2))])
    assert len(connected_components(union)) == 2
    assert not union.diagram.is_connected()


def test_checks_equal_the_pair_scan_oracle():
    # whole reports, witness tuples in order and the name as asked; each
    # poset is fresh so its passes run here; the Y seeds are the 308 that
    # `extend` grows to 16 elements
    rng = random.Random(seed_from_env() + 20)
    seeds = [
        top_tree_Y(i, j, k) for i in range(1, 16) for j in range(1, 16) for k in range(j, 17 - i - j)
    ]
    assert len(seeds) == 308
    failing = {name: 0 for name in PROPERTIES}
    for p in list(differential_posets(rng)) + seeds:
        for name in PROPERTIES:
            report = check(p, name)
            expected = check_oracle(p, name.replace("(", "").replace(")", ""))
            assert report == expected._replace(property=name), (
                name,
                sorted(p.coloring.items()),
                sorted(p.covers),
            )
            failing[name] += not report.holds
    # both verdicts of every property are exercised, S4 aside (cycles are rare)
    assert all(failing[name] for name in PROPERTIES if name != "S4"), failing


@pytest.fixture
def pass_calls(monkeypatch):
    """The posets each pass ran on, by pass name."""
    calls = {}
    for name in ("_comparability_pass", "_census_pass"):
        run = getattr(axioms, name)

        @functools.wraps(run)
        def counted(p, run=run, name=name):
            calls.setdefault(name, []).append(p)
            return run(p)

        monkeypatch.setattr(axioms, name, counted)
    return calls


def test_is_minuscule_runs_each_pass_once(pass_calls):
    for fam in all_family_ids(5):
        p = build(fam)
        pass_calls.clear()
        is_minuscule(p)
        assert {name: len(ps) for name, ps in pass_calls.items()} == {
            "_comparability_pass": 1,
            "_census_pass": 1,
        }


def test_ec_alone_runs_no_census_pass(pass_calls):
    p = build(FamilyId("B", 4))
    assert check(p, "EC").holds
    assert list(pass_calls) == ["_comparability_pass"]


def test_a_second_check_recomputes_nothing(pass_calls):
    p = build(FamilyId("D_spin", 5))
    first = [check(p, name) for name in COLORING]
    assert [len(ps) for ps in pass_calls.values()] == [1, 1]
    assert [check(p, name) for name in COLORING + COLORING] == first + first
    assert [len(ps) for ps in pass_calls.values()] == [1, 1]


def test_classify_reads_cross_component_reports_from_one_pass(pass_calls):
    union = disjoint_union([build(FamilyId("B", 3)), build(FamilyId("A_standard", 3))])
    result = classify(union)
    assert result.minuscule and len(result.components) == 2
    # one run of each pass, on the union: the components read its reports
    assert {name: [q is union for q in ps] for name, ps in pass_calls.items()} == {
        "_comparability_pass": [True],
        "_census_pass": [True],
    }


def test_frontier_censuses_equal_the_oracle_censuses():
    # at bound -1 the oracle lists every class extreme with its census
    rng = random.Random(seed_from_env() + 22)
    posets = 0
    for p in differential_posets(rng):
        o = FrozensetOrder(p)
        for side in ("LCB", "UCB"):
            want = [(w.elements[0], w.value) for w in _frontier_oracle(p, o, side == "UCB", -1)]
            got = [(x, census) for _, x, census in frontier_censuses(p, side)]
            assert got == want, (p, side)
        posets += 1
    assert posets > 400


def _relabeled(p: ColoredPoset, ids: dict[int, int], names: dict) -> ColoredPoset:
    """p with element x renamed ids[x] and color a renamed names[a], the
    colors listed in the same order."""
    return ColoredPoset(
        DynkinDiagram([names[a] for a in p.diagram.colors], p.diagram.matrix),
        {ids[x]: names[a] for x, a in p.coloring.items()},
        [(ids[x], ids[y]) for x, y in p.covers],
    )


def test_relabeling_keeps_every_verdict_and_carries_its_witnesses():
    """Permuted ids and renamed colors keep every report's verdict, and its
    witnesses are the relabeled poset's under the permutation, as sets, their
    notes naming the renamed colors.  The relation rows are equal up to the
    renaming: in verdict under any permutation, and in failing split index
    too under an order-keeping one, which keeps the canonical split order."""
    rng = random.Random(seed_from_env() + 91)
    posets = list(differential_posets(rng)) + [build(fam) for fam in all_family_ids(8)]
    related = failing = 0
    for p in posets:
        names = {a: f"renamed {i}" for i, a in enumerate(p.diagram.colors)}
        back = {repr(names[a]): repr(a) for a in p.diagram.colors}

        def named_back(note: str) -> str:
            return re.sub(r"'renamed \d+'", lambda m: back[m.group(0)], note)

        pi = dict(zip(p.elements, rng.sample(range(1, 4 * len(p) + 10), len(p))))
        q = _relabeled(p, pi, names)
        for name in PROPERTIES:
            e, f = check(p, name), check(q, name)
            assert (f.property, f.holds) == (e.property, e.holds), (p, name)
            carried = sorted((sorted(pi[x] for x in w.elements), w.value, w.note) for w in e.witnesses)
            got = sorted((sorted(w.elements), w.value, named_back(w.note)) for w in f.witnesses)
            assert got == carried, (p, name)
        if not check(p, "EC").holds or math.prod(len(splits(c)) for c in connected_components(p)) > 512:
            continue
        want = verify_relations(p)
        related, failing = related + 1, failing + (not want.all_pass)
        verdicts = [(r, names[a], names[b], s is None) for r, a, b, s in want.rows]
        assert [(r, a, b, s is None) for r, a, b, s in verify_relations(q).rows] == verdicts, p
        kept = _relabeled(p, {x: 2 * x + 5 for x in p.elements}, names)
        got = verify_relations(kept)
        assert got.rows == tuple((r, names[a], names[b], s) for r, a, b, s in want.rows), p
        assert got.eigenvalues_in_range == want.eigenvalues_in_range
    assert related > 200 and failing > 50
