import contextlib
import functools
import io
import itertools
import json
import random

import pytest

from minuscule.axioms import is_d_complete, is_minuscule
from minuscule.catalog import FamilyId, all_family_ids, build, indexed, top_tree_Y
from minuscule.cli import run
from minuscule.extension import StageRecord, run_extension
from minuscule.dynkin import DynkinDiagram
from minuscule.poset import ColoredPoset, colored_isomorphism, top_tree

from helpers import (
    ColorAbsent,
    NotExtendable,
    assess,
    covers_of,
    extend_by,
    lower_frontier_census,
    random_colored_poset,
    rank_function,
    run_extension_oracle,
    seed_from_env,
    subposet,
)


def splitting_color(seed):
    tree = top_tree(seed)
    return seed.color(tree.splitting_element())


def test_census_on_y_seeds():
    for (i, j, k) in [(1, 1, 1), (3, 1, 2), (2, 2, 3), (5, 1, 1)]:
        seed = top_tree_Y(i, j, k)
        s_color = splitting_color(seed)
        for b in seed.diagram.colors:
            census = lower_frontier_census(seed, b)
            if b == s_color:
                assert census == 2
            else:
                assert census <= 1


def test_census_examples():
    chain = build(FamilyId("A_standard", 4))
    # every color class's minimum has the single adjacent-colored element
    # directly below it, except the bottom of the chain which has nothing below
    bottom_color = chain.color(chain.minimal_elements()[0])
    for b in chain.diagram.colors:
        expected = 0 if b == bottom_color else 1
        assert lower_frontier_census(chain, b) == expected

    with pytest.raises(ColorAbsent):
        lower_frontier_census(chain, 99)


def test_extend_by_diamond():
    seed = top_tree_Y(1, 1, 1)
    grown = extend_by(seed, splitting_color(seed))
    assert len(grown) == 4
    assert is_minuscule(grown)[0]
    assert colored_isomorphism(grown, indexed("A", 3, 2)) is not None


def test_extend_by_rejects_wrong_census():
    seed = top_tree_Y(1, 1, 1)
    leaf_color = seed.color(seed.minimal_elements()[0])
    with pytest.raises(NotExtendable) as exc:
        extend_by(seed, leaf_color)
    assert exc.value.census == 0

    chain = build(FamilyId("A_standard", 2))
    with pytest.raises(NotExtendable) as exc:
        extend_by(chain, 1)
    assert exc.value.census == 1


def test_extension_preserves_filter_and_d_completeness():
    seed = top_tree_Y(2, 1, 2)
    p = seed
    for _ in range(3):
        a = assess(p)
        assert a.kind == "continue"
        for b in a.extension_set:
            grown = extend_by(p, b)
            assert len(grown) == len(p) + 1
            assert is_d_complete(grown)[0]
            new = max(grown.elements)
            assert set(p.elements) == set(grown.elements) - {new}
            assert not covers_of(grown, new) == ()  # new element is below something
            p = grown


def test_distant_extensions_commute():
    seed = top_tree_Y(1, 2, 2)
    first = assess(seed)
    assert first.extension_set == (splitting_color(seed),)
    p1 = extend_by(seed, first.extension_set[0])
    second = assess(p1)
    assert second.kind == "continue"
    b, c = second.extension_set
    assert seed.diagram.distant(b, c)
    one_way = extend_by(extend_by(p1, b), c)
    other_way = extend_by(extend_by(p1, c), b)
    assert colored_isomorphism(one_way, other_way) is not None


def test_stage_at_once_equals_one_color_at_a_time():
    stages = 0
    for i, j, k in itertools.product(range(1, 11), repeat=3):
        if j > k or i + j + k > 12:
            continue
        p = top_tree_Y(i, j, k)
        while (a := assess(p)).kind == "continue":
            grown = extend_by(p, *a.extension_set)
            assert grown == functools.reduce(extend_by, a.extension_set, p), (i, j, k)
            p = grown
            stages += 1
    assert stages > 500


def test_extend_by_rejects_repeated_and_adjacent_colors():
    # a and b are adjacent and both have census 2, so only the stage checks
    # stand between these calls and a poset
    colors = ["a", "b", "c", "e", "d", "f"]
    edges = {("a", "b"), ("a", "c"), ("a", "e"), ("b", "d"), ("b", "f")}
    d = DynkinDiagram(colors, [
        [2 if x == y else -1 if (x, y) in edges or (y, x) in edges else 0 for y in colors]
        for x in colors
    ])
    p = ColoredPoset(
        d, dict(enumerate(colors, start=1)), [(3, 1), (4, 1), (5, 2), (6, 2)]
    )
    assert lower_frontier_census(p, "a") == lower_frontier_census(p, "b") == 2
    with pytest.raises(ValueError, match="repeated color"):
        extend_by(p, "a", "a")
    with pytest.raises(ValueError, match="adjacent colors"):
        extend_by(p, "a", "b")


def test_assess_cases():
    assert assess(build(FamilyId("E6", 6))).kind == "minuscule"

    blocked = run_extension(top_tree_Y(2, 2, 2)).poset
    verdict = assess(blocked)
    assert verdict.kind == "census_exceeded"
    assert verdict.witness_census == 3

    seed = top_tree_Y(3, 1, 2)
    verdict = assess(seed)
    assert verdict.kind == "continue"
    assert verdict.extension_set == (splitting_color(seed),)


SUCCESS_TABLE = {
    (1, 1, 1): FamilyId("A_exterior", 3, 2),
    (1, 1, 2): FamilyId("A_exterior", 4, 2),
    (1, 2, 2): FamilyId("A_exterior", 5, 3),
    (1, 3, 4): FamilyId("A_exterior", 8, 4),
    (2, 1, 1): FamilyId("D_standard", 4),
    (4, 1, 1): FamilyId("D_standard", 6),
    (2, 1, 2): FamilyId("D_spin", 5),
    (2, 1, 3): FamilyId("D_spin", 6),
    (3, 1, 2): FamilyId("E6", 6),
    (4, 1, 2): FamilyId("E7", 7),
}


def test_run_extension_success_cases():
    for shape, fam in SUCCESS_TABLE.items():
        outcome = run_extension(top_tree_Y(*shape))
        assert outcome.verdict == "minuscule", shape
        assert not outcome.extrapolated
        assert colored_isomorphism(outcome.poset, build(fam)) is not None, shape


def test_run_extension_blocked_cases():
    expected = {(2, 2, 2): 3, (3, 1, 3): 5, (5, 1, 2): 9}
    for shape, n_assessments in expected.items():
        seed = top_tree_Y(*shape)
        outcome = run_extension(seed)
        assert outcome.verdict == "blocked", shape
        assert outcome.reason.kind == "census_exceeded"
        assert outcome.reason.witness_census == 3
        assert outcome.reason.witness_color == splitting_color(seed)
        assert outcome.assessments == n_assessments


def test_run_extension_trace_ranks():
    outcome = run_extension(top_tree_Y(3, 1, 2))
    final_ranks = rank_function(outcome.poset)
    for record in outcome.trace:
        for x, _ in record.added:
            assert final_ranks[x] == record.stage
    colors_per_stage = [record.extension_set for record in outcome.trace]
    assert colors_per_stage[0] == (splitting_color(top_tree_Y(3, 1, 2)),)


def test_run_extension_multiply_laced_seed_extrapolated():
    b2 = build(FamilyId("B", 2))
    seed = subposet(b2, top_tree(b2).elements)
    outcome = run_extension(seed)
    assert outcome.extrapolated
    assert outcome.verdict == "minuscule"
    assert colored_isomorphism(outcome.poset, b2) is not None


def test_run_extension_rejects_bad_seed():
    d = DynkinDiagram(["a"], [[2]])
    bad = ColoredPoset(d, {1: "a", 2: "a"}, [(2, 1)])
    with pytest.raises(ValueError):
        run_extension(bad)


def test_run_extension_reconstructs_catalog_from_top_trees():
    for fam in [FamilyId("A_exterior", 6, 3), FamilyId("D_spin", 7), FamilyId("E6", 6)]:
        p = build(fam)
        seed = subposet(p, top_tree(p).elements)
        outcome = run_extension(seed)
        assert outcome.verdict == "minuscule"
        assert colored_isomorphism(outcome.poset, p) is not None, str(fam)


def y_shapes(total):
    return [
        (i, j, k)
        for i, j, k in itertools.product(range(1, total), repeat=3)
        if j <= k and i + j + k <= total
    ]


# an outcome equals the oracle's in poset, verdict, reason, trace, assessment
# count and extrapolation flag: ExtensionOutcome compares every field


def test_growth_state_matches_per_stage_oracle_on_y_seeds():
    shapes = y_shapes(16)
    assert len(shapes) == 308
    verdicts = set()
    for shape in shapes:
        outcome = run_extension(top_tree_Y(*shape))
        assert outcome == run_extension_oracle(top_tree_Y(*shape)), shape
        verdicts.add(outcome.reason.kind)
    assert verdicts == {"minuscule", "census_exceeded"}


def test_growth_state_matches_per_stage_oracle_on_catalog_top_trees():
    # multiply laced seeds weigh their censuses by pairings other than -1
    for fam in all_family_ids(6) + [FamilyId("E6", 6), FamilyId("E7", 7)]:
        p = build(fam)
        seed = subposet(p, top_tree(p).elements)
        assert run_extension(seed) == run_extension_oracle(seed), str(fam)


def test_growth_state_matches_per_stage_oracle_on_random_d_complete_seeds():
    rng = random.Random(seed_from_env())
    seeds = [p for p in (random_colored_poset(rng) for _ in range(3000)) if is_d_complete(p)[0]]
    assert len(seeds) > 50
    for p in seeds:
        assert run_extension(p) == run_extension_oracle(p), sorted(p.covers)
    # a doubly laced chain on which two adjacent colors reach census 2 at once
    d = DynkinDiagram([1, 2, 3], [[2, -2, 0], [-1, 2, -2], [0, -1, 2]])
    chain = ColoredPoset(d, {1: 1, 2: 2, 3: 3}, [(1, 2), (2, 3)])
    outcome = run_extension(chain)
    assert outcome.reason.kind == "adjacent_pair" and outcome.reason.witness_pair == (2, 3)
    assert outcome == run_extension_oracle(chain)


def test_extend_builds_stage_records_only_under_trace(monkeypatch):
    def refuse(self):
        raise AssertionError("a stage record was written without --trace")

    monkeypatch.setattr(StageRecord, "to_json", refuse)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(["extend", "--shape", "2,1,13"]) == 0
    assert "stages" not in json.loads(out.getvalue())
    with pytest.raises(AssertionError, match="without --trace"):
        run(["extend", "--shape", "2,1,13", "--trace"])


def test_extend_stdout_matches_per_stage_oracle():
    for shape in y_shapes(16):
        expected = run_extension_oracle(top_tree_Y(*shape))
        for trace in (False, True):
            argv = ["extend", "--shape", ",".join(map(str, shape))] + ["--trace"] * trace
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            data = expected.to_json()
            data["version"] = 1
            data["poset"] = expected.poset.to_json()
            if not trace:
                del data["stages"]
            assert out.getvalue() == json.dumps(data, sort_keys=True, indent=2) + "\n", argv
            assert (code, err.getvalue()) == (0 if expected.verdict == "minuscule" else 1, ""), argv
