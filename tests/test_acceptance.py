"""
Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and timings.
Every tolerance is exact (integer arithmetic throughout); the only bounds are
the documented wall-clock budgets.
"""

import math
import random
import time

from minuscule.axioms import is_d_complete, is_dominant_minuscule_heap, is_minuscule
from minuscule.catalog import (
    FamilyId,
    all_family_ids,
    build,
    diagram_of_type,
    indexed,
    minuscule_indices,
    top_tree_Y,
)
from minuscule.classify import classify
from minuscule.coroots import (
    coroot_filter,
    heap_to_word,
    highest_coroot,
    inversion_sequence,
    psi,
)
from minuscule.extension import run_extension
from minuscule.heapwindow import cyclic_chain_window, verify_window, window_of
from minuscule.poset import colored_isomorphism, order_dual, top_tree
from minuscule.representation import splits, verify_relations

from helpers import disjoint_union, random_colored_poset, random_filter_poset, seed_from_env, split_count_oracle


def report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_1_catalog_soundness():
    started = time.monotonic()
    families = all_family_ids(8)
    assert FamilyId("E6", 6) in families and FamilyId("E7", 7) in families
    for fam in families:
        ok, reports = is_minuscule(build(fam))
        assert ok, (str(fam), [r.to_json() for r in reports if not r.holds])
    report(1, "catalog soundness", started, 5.0)


def test_criterion_2_extension_reproduction():
    started = time.monotonic()
    success = {}
    for j in range(1, 5):
        for k in range(j, 5):
            success[(1, j, k)] = FamilyId("A_exterior", j + k + 1, j + 1)
    for i in range(1, 7):
        success[(i, 1, 1)] = (
            FamilyId("A_exterior", 3, 2) if i == 1 else FamilyId("D_standard", i + 2)
        )
    for k in range(1, 6):
        success[(2, 1, k)] = (
            FamilyId("D_standard", 4) if k == 1 else FamilyId("D_spin", k + 3)
        )
    success[(3, 1, 2)] = FamilyId("E6", 6)
    success[(4, 1, 2)] = FamilyId("E7", 7)

    for shape, fam in success.items():
        outcome = run_extension(top_tree_Y(*shape))
        assert outcome.verdict == "minuscule", shape
        assert colored_isomorphism(outcome.poset, build(fam)) is not None, (shape, str(fam))

    blocked = {(2, 2, 2): 3, (3, 1, 3): 5, (5, 1, 2): 9}
    for shape, assessments in blocked.items():
        seed = top_tree_Y(*shape)
        splitting = seed.color(top_tree(seed).splitting_element())
        outcome = run_extension(seed)
        assert outcome.verdict == "blocked", shape
        assert outcome.reason.kind == "census_exceeded"
        assert outcome.reason.witness_census == 3
        assert outcome.reason.witness_color == splitting
        assert outcome.assessments == assessments, shape
    report(2, "extension reproduction", started, 5.0)


def test_criterion_3_equivalence_at_desk_scale():
    started = time.monotonic()
    rng = random.Random(seed_from_env())
    bases = [build(fam) for fam in all_family_ids(5)]
    total = 0
    positives = 0
    while total < 10_000:
        if total % 4 == 3:
            p = random_filter_poset(rng, rng.choice(bases))
        else:
            p = random_colored_poset(rng, 8, 5)
        dc, _ = is_d_complete(p)
        dmh = is_dominant_minuscule_heap(p)
        assert dc == dmh, (sorted(p.coloring.items()), sorted(p.covers))
        positives += dc
        total += 1
    assert positives > 100  # the sweep exercises both verdicts
    report(3, f"equivalence sweep ({total} posets, {positives} positive)", started, 60.0)


def test_criterion_4_representation_relations():
    started = time.monotonic()
    checked = 0
    for fam in all_family_ids(8):
        p = build(fam)
        if split_count_oracle(p) > 60:
            continue
        rep = verify_relations(p, full_sweep=True)
        assert rep.all_pass, (str(fam), rep.failures())
        assert rep.eigenvalues_in_range, str(fam)
        checked += 1
    assert checked >= 20

    for n in range(1, 7):
        for j in range(1, n + 1):
            p = indexed("A", n, j)
            assert len(splits(p)) == split_count_oracle(p) == math.comb(n + 1, j)
    e7 = build(FamilyId("E7", 7))
    assert len(splits(e7)) == split_count_oracle(e7) == 56
    report(4, f"representation relations ({checked} instances)", started, 30.0)


def test_criterion_5_coroot_realization():
    started = time.monotonic()
    # (i) the worked example: word and final coroot, exactly
    a42 = indexed("A", 4, 2)
    z = a42.minimal_elements()[0]
    word = heap_to_word(a42, z)
    assert word == (3, 4, 2, 3, 1, 2)
    seq = inversion_sequence(a42.diagram, word)
    assert seq[-1] == (1, 1, 1, 1)

    # (ii) psi is a color-preserving dual isomorphism for every index, n <= 7
    for (letter, n, j) in minuscule_indices(7):
        p = indexed(letter, n, j)
        real = psi(p)  # raises if any verified property fails
        filt = coroot_filter(p.diagram, real.j)
        assert set(real.assignment.values()) == set(filt)
        for x in p.elements:
            assert real.coloring_of(real.assignment[x]) == p.color(x)
        for x in p.elements:
            for y in p.elements:
                assert p.leq(x, y) == all(
                    a >= b for a, b in zip(real.assignment[x], real.assignment[y])
                )
        ok, _ = is_minuscule(real.coroot_poset)
        assert ok, (letter, n, j)

    # (iii) highest coroot heights by type
    for n in range(1, 8):
        assert sum(highest_coroot(diagram_of_type("A", n))) == n
    for n in range(2, 8):
        assert sum(highest_coroot(diagram_of_type("B", n))) == 2 * n - 1
    for n in range(3, 8):
        assert sum(highest_coroot(diagram_of_type("C", n))) == 2 * n - 1
    for n in range(4, 8):
        assert sum(highest_coroot(diagram_of_type("D", n))) == 2 * n - 3
    assert sum(highest_coroot(diagram_of_type("E", 6))) == 11
    assert sum(highest_coroot(diagram_of_type("E", 7))) == 17
    report(5, "coroot realization", started, 10.0)


def test_criterion_6_duality_and_decomposition():
    started = time.monotonic()
    families = all_family_ids(8)
    for fam in families:
        ok, _ = is_minuscule(order_dual(build(fam)))
        assert ok, str(fam)

    def canonical(fam: FamilyId) -> str:
        if fam.kind == "A_exterior":
            return str(FamilyId("A_exterior", fam.n, min(fam.j, fam.n + 1 - fam.j)))
        return str(fam)

    rng = random.Random(seed_from_env() + 6)
    small = [fam for fam in all_family_ids(6)]
    for _ in range(12):
        chosen = [rng.choice(small) for _ in range(rng.randint(1, 3))]
        union = disjoint_union([build(fam) for fam in chosen])
        result = classify(union)
        assert result.minuscule
        expected = tuple(sorted(canonical(fam) for fam in chosen))
        assert result.family_multiset() == expected
    report(6, "duality and decomposition", started, 30.0)


def test_criterion_7_window_demonstrator():
    started = time.monotonic()
    for n in range(3, 7):
        window = cyclic_chain_window(n, 3)
        reports = {r.property: r for r in verify_window(window)}
        for name in ("EC", "NA", "AC", "ICE2", "G3-window"):
            assert reports[name].holds, (n, name)

    for fam in all_family_ids(6):
        window = window_of(build(fam))
        reports = {r.property: r for r in verify_window(window)}
        assert not reports["G3-window"].holds, str(fam)
    report(7, "window demonstrator", started, 10.0)
