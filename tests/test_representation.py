import itertools
import json
import math
import random

import pytest

from minuscule import representation
from minuscule.axioms import check, is_minuscule
from minuscule.catalog import FamilyId, all_family_ids, build, indexed
from minuscule.dynkin import DynkinDiagram
from minuscule.poset import ColoredPoset, order_dual
from minuscule.representation import (
    ECViolated,
    Split,
    _crossable,
    _gaps,
    build_operators,
    operator_maps,
    splits,
    verify_relations,
)

from helpers import (
    brute_force_ideal_count,
    build_operators_oracle,
    commutator,
    connected_components,
    covered_by_x,
    differential_posets,
    entries,
    mat_scale,
    matrix,
    operator_maps_oracle,
    random_colored_poset,
    seed_from_env,
    split_count_oracle,
    split_masks_oracle,
    transpose,
    verify_relations_oracle,
)


def test_split_counts_small():
    assert len(splits(indexed("A", 1, 1))) == 2
    assert len(splits(indexed("A", 4, 2))) == 10

    d = DynkinDiagram(["a", "b"], [[2, 0], [0, 2]])
    anti = ColoredPoset(d, {1: "a", 2: "b"}, [])
    assert len(splits(anti)) == 4


def test_split_enumeration_matches_brute_force():
    for fam in [FamilyId("A_exterior", 4, 2), FamilyId("B", 3), FamilyId("D_standard", 4)]:
        p = build(fam)
        assert len(splits(p)) == brute_force_ideal_count(p) == split_count_oracle(p)


def test_split_structure_and_order():
    p = indexed("A", 3, 2)
    basis = splits(p)
    assert basis[0].ideal == frozenset()
    assert basis[-1].filter == frozenset()
    sizes = [len(s.ideal) for s in basis]
    assert sizes == sorted(sizes)
    for s in basis:
        assert s.filter | s.ideal == frozenset(p.elements)
        assert not s.filter & s.ideal
        for x in s.ideal:
            assert all(z in s.ideal for z in covered_by_x(p, x))


def _walked_posets() -> list[ColoredPoset]:
    """The differential posets with at most 10**4 splits: all but the largest
    disjoint unions, whose split count is the product of their components'."""
    rng = random.Random(seed_from_env() + 15)
    return [
        p
        for p in differential_posets(rng)
        if math.prod(len(splits(c)) for c in connected_components(p)) <= 10**4
    ]


def test_the_cover_walk_equals_the_per_element_oracle():
    posets = _walked_posets()
    assert len(posets) > 400
    ec = 0
    for p in posets:
        basis = splits(p)
        assert basis.masks == split_masks_oracle(p), p
        # each cover of the lattice of ideals once: (s, x, t) where x is not in
        # the ideal s and its lower covers are, and t is s with x added
        walked = {(s, x, t) for x, pairs in basis.covers.items() for s, t in zip(*pairs)}
        position = {m: i for i, m in enumerate(basis.masks)}
        expected = {
            (s, x, position[m | b])
            for s, m in enumerate(basis.masks)
            for x, b in basis.bit.items()
            if not m & b and all(m & basis.bit[z] for z in covered_by_x(p, x))
        }
        kept = sum(len(sources) for sources, _ in basis.covers.values())
        assert kept == len(walked) == len(expected)
        assert walked == expected, p
        for i in (0, len(basis) // 2, len(basis) - 1):
            assert sorted(basis[i].ideal) == [
                x for x, b in basis.bit.items() if basis.masks[i] & b
            ]
        # the ideals read off the covers, each from the one it covers
        assert basis.ideals() == [[x for x, b in basis.bit.items() if m & b] for m in basis.masks], p
        if check(p, "EC").holds:
            ec += 1
            maps = operator_maps(p, basis=basis)
            assert (maps.up, maps.down, maps.h) == operator_maps_oracle(p, basis.masks), p
    assert ec > 250  # the rest fail EC, and only the walk runs on them


def test_operator_maps_equal_the_per_color_oracle_on_the_catalog():
    for fam in all_family_ids(8):
        p = build(fam)
        maps = operator_maps(p)
        assert (maps.up, maps.down, maps.h) == operator_maps_oracle(p, maps.basis.masks), str(fam)


def test_binomial_dimension_formula():
    for n in range(1, 7):
        for j in range(1, n + 1):
            assert len(splits(indexed("A", n, j))) == math.comb(n + 1, j)


def test_e7_dimension():
    assert split_count_oracle(build(FamilyId("E7", 7))) == 56


def test_single_element_realizes_sl2():
    p = indexed("A", 1, 1)
    basis, ops = build_operators(p)
    x, y, h = ops[1]
    assert commutator(x, y) == h
    assert sorted(v for _, _, v in h.coordinates) == [-1, 1]
    assert commutator(h, x) == mat_scale(x, 2)
    assert commutator(h, y) == mat_scale(y, -2)


def test_operator_shapes():
    p = indexed("A", 4, 2)
    basis, ops = build_operators(p)
    for a in p.diagram.colors:
        x, y, h = ops[a]
        assert y == transpose(x)
        assert all(v == 1 for _, _, v in x.coordinates)
        assert all(v in (-1, 0, 1) for _, _, v in h.coordinates)
        assert all(r == c for r, c, _ in h.coordinates)


def diagonal_weight(ops, i: int) -> dict:
    """The eigenvalues of basis vector i under every diagonal operator."""
    return {a: entries(h).get((i, i), 0) for a, (_, _, h) in ops.items()}


def test_h_rule_on_extreme_splits():
    p = build(FamilyId("A_standard", 2))
    basis, ops = build_operators(p)
    full_filter = basis[0]
    assert full_filter.ideal == frozenset()
    w = diagonal_weight(ops, 0)
    min_color = p.color(p.minimal_elements()[0])
    assert w[min_color] == -1
    assert all(v == 0 for c, v in w.items() if c != min_color)

    single = indexed("A", 1, 1)
    b1, ops1 = build_operators(single)
    assert diagonal_weight(ops1, len(b1) - 1) == {1: 1}


def test_x_step_changes_weights_along_theta_row():
    for (letter, n, j) in [("A", 4, 2), ("B", 3, 3), ("D", 5, 5)]:
        p = indexed(letter, n, j)
        basis, ops = build_operators(p)
        index = {s: i for i, s in enumerate(basis)}
        for a in p.diagram.colors:
            x, _, _ = ops[a]
            for r, c, v in x.coordinates:
                src, dst = basis[c], basis[r]
                assert len(dst.ideal) == len(src.ideal) + 1
                w_src = diagonal_weight(ops, c)
                w_dst = diagonal_weight(ops, r)
                for b in p.diagram.colors:
                    assert w_dst[b] - w_src[b] == p.diagram.theta(a, b)


def test_relations_pass_on_catalog():
    for fam in all_family_ids(5) + [FamilyId("E6", 6)]:
        p = build(fam)
        if split_count_oracle(p) > 40:
            continue
        report = verify_relations(p)
        assert report.all_pass, (str(fam), report.failures())


def test_full_sweep_matches_sampled():
    p = build(FamilyId("A_exterior", 4, 2))
    assert verify_relations(p, full_sweep=True).all_pass


def test_relation_failure_on_ice2_violation():
    d = DynkinDiagram(["a"], [[2]])
    bad = ColoredPoset(d, {1: "a", 2: "a"}, [(2, 1)])
    report = verify_relations(bad)
    assert not report.all_pass
    failing = {c.relation for c in report.failures()}
    assert "XY" in failing
    [xy] = [c for c in report.failures() if c.relation == "XY"]
    assert xy.failing_basis_index is not None


def test_build_operators_requires_ec():
    d = DynkinDiagram(["a"], [[2]])
    anti = ColoredPoset(d, {1: "a", 2: "a"}, [])
    with pytest.raises(ECViolated):
        build_operators(anti)


def test_dual_swaps_raising_and_lowering():
    for fam in all_family_ids(8):
        p = build(fam)
        if split_count_oracle(p) > 30:
            continue
        q = order_dual(p)
        pb, pops = build_operators(p)
        qb, qops = build_operators(q)
        flip = {i: qb.index(Split(s.ideal, s.filter)) for i, s in enumerate(pb)}
        for a in p.diagram.colors:
            xp, yp, hp = pops[a]
            xq, yq, hq = qops[a]
            remapped = matrix(xq.n, {(flip[r], flip[c]): v for r, c, v in xp.coordinates})
            assert remapped == yq, str(fam)
        assert verify_relations(q).all_pass, str(fam)


def test_hh_holds_identically():
    p = build(FamilyId("D_standard", 4))
    report = verify_relations(p)
    assert all(c.ok for c in report.checks if c.relation == "HH")


def _failing_ec_posets(count: int) -> list[ColoredPoset]:
    """Seeded random posets that satisfy EC but fail some relation."""
    rng = random.Random(seed_from_env())
    out = []
    while len(out) < count:
        p = random_colored_poset(rng, 8, 4)
        if check(p, "EC").holds and not verify_relations_oracle(p).all_pass:
            out.append(p)
    return out


def assert_matches_oracle(p: ColoredPoset) -> None:
    """The report equals the matrix oracle's, and so do its JSON bytes, in both
    sweep modes."""
    for full_sweep in (False, True):
        got = verify_relations(p, full_sweep=full_sweep)
        want = verify_relations_oracle(p, full_sweep=full_sweep)
        assert got == want, (p, full_sweep)
        dumps = [json.dumps(r.to_json(), sort_keys=True) for r in (got, want)]
        assert dumps[0] == dumps[1], (p, full_sweep)


def test_operator_maps_match_matrix_oracle():
    posets = []
    for fam in all_family_ids(8):
        p = build(fam)
        if len(splits(p)) <= 512:
            posets += [p, order_dual(p)]
    failing = _failing_ec_posets(60)
    for p in posets + failing:
        assert_matches_oracle(p)
        basis, ops = build_operators(p)
        oracle_basis, oracle_ops = build_operators_oracle(p)
        assert list(basis) == oracle_basis and ops == oracle_ops, p
    # the failing posets fail checks at several basis indices
    indices = {c.failing_basis_index for p in failing for c in verify_relations(p).failures()}
    assert len(indices) > 3


# B2: theta(1, 2) = -1 and theta(2, 1) = -2
DOUBLE_BOND = DynkinDiagram(["1", "2"], [[2, -1], [-2, 2]])


def test_weight_check_falls_back_on_the_failing_color_only():
    # the chain 2 < 1 in colors: X_2 lowers h_1 by 1 where theta(2, 1) asks for -2
    p = ColoredPoset(DOUBLE_BOND, {1: "2", 2: "1"}, [(1, 2)])
    report = verify_relations(p)
    weight_failures = {(c.relation, c.a, c.b) for c in report.failures() if c.relation[0] == "H"}
    assert weight_failures == {("HX", "2", "1"), ("HY", "2", "1")}
    assert_matches_oracle(p)


def test_the_packed_weight_check_holds_for_every_color_on_the_catalog(monkeypatch):
    # every HX relation holds on a minuscule poset, so there the packed check
    # holds for every color and the per-b evaluation never runs
    def evaluated(*args):
        raise AssertionError("the packed weight check failed for a color")

    monkeypatch.setattr(representation, "_weight_failures", evaluated)
    families = all_family_ids(8)
    assert len(families) == 53
    for fam in families:
        assert verify_relations(build(fam)).all_pass, str(fam)


def test_depth_three_brackets_on_a_double_bond():
    # theta(2, 1) = -2, so (a, b) = (1, 2) is checked at depth 3.  The bracket
    # fails on the chain.  It holds on the second poset, where the middle words
    # X_1^2 X_2 X_1 and X_1 X_2 X_1^2 are nonzero on e_0 and the outer ones
    # vanish (-3 + 3 = 0), so comparing target lists would call it
    # failing.
    chain = ColoredPoset(DOUBLE_BOND, {1: "1", 2: "1", 3: "2", 4: "1"}, [(1, 2), (2, 3), (3, 4)])
    coloring = {1: "1", 2: "2", 3: "1", 4: "1", 5: "2", 6: "2"}
    covers = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
    balanced = ColoredPoset(DOUBLE_BOND, coloring, covers)
    for p, failing in ((chain, True), (balanced, False)):
        report = verify_relations(p)
        deep = [c for c in report.checks if (c.relation, c.a, c.b) in (("XX", "1", "2"), ("YY", "1", "2"))]
        assert len(deep) == 2 and all(c.ok is not failing for c in deep)
        assert_matches_oracle(p)


def _deep_diagram(rng: random.Random, n_colors: int) -> DynkinDiagram:
    """A random pairing table whose bonds reach -4."""
    rows = [[2 if i == j else 0 for j in range(n_colors)] for i in range(n_colors)]
    for i, j in itertools.combinations(range(n_colors), 2):
        if rng.random() < 0.7:
            rows[i][j], rows[j][i] = -rng.randint(1, 4), -rng.randint(1, 4)
    return DynkinDiagram([str(c) for c in range(1, n_colors + 1)], rows)


def test_pairings_below_minus_two_match_the_oracle():
    # with theta(3, 2) = -4 the packed weight check needs a radix above 4:
    # in radix 4 the failing HX and HY checks of color 3 would pass
    d = DynkinDiagram(["1", "2", "3"], [[2, -1, 0], [-2, 2, -1], [0, -4, 2]])
    posets = [ColoredPoset(d, {1: "1", 2: "2", 3: "3"}, [(1, 3)])]
    rng = random.Random(seed_from_env())
    while len(posets) < 40:
        p = random_colored_poset(rng, 7, 3)
        if len(p.diagram) >= 2:
            deep = _deep_diagram(rng, len(p.diagram))
            p = ColoredPoset(deep, {x: str(c) for x, c in p.coloring.items()}, p.covers)
            if check(p, "EC").holds:
                posets.append(p)
    assert not verify_relations(posets[0]).all_pass
    assert min(v for p in posets for row in p.diagram.matrix for v in row) <= -3
    for p in posets:
        assert_matches_oracle(p)


def test_packed_weight_digits_lie_within_the_radix():
    """The argument behind the radix of the packed HX check: along an a-cover
    s -> t of an EC poset the digit h_b(t) - h_b(s) - theta(a, b) is -2 or 0
    for b = a and lies in [-2, m] for b != a, m the largest -theta.  So each
    digit is smaller in size than the radix 1 + max(2, m); both ends are
    reached."""
    rng = random.Random(seed_from_env() + 90)
    posets = [
        p
        for p in differential_posets(rng)
        if check(p, "EC").holds and math.prod(len(splits(c)) for c in connected_components(p)) <= 5000
    ]
    while len(posets) < 600:
        p = random_colored_poset(rng, 8, 4)
        if rng.random() < 0.5:
            deep = _deep_diagram(rng, len(p.diagram))
            p = ColoredPoset(deep, {x: str(c) for x, c in p.coloring.items()}, p.covers)
        if check(p, "EC").holds:
            posets.append(p)
    lowest, at_the_bound = set(), set()
    for p in posets:
        d, maps = p.diagram, operator_maps(p)
        m = max([0] + [-v for a in d.colors for _, v in d.pairings(a)])
        for a in d.colors:
            for s, t in enumerate(maps.up[a]):
                if t < 0:
                    continue
                for b in d.colors:
                    digit = maps.h[b][t] - maps.h[b][s] - d.theta(a, b)
                    assert digit in (-2, 0) if b == a else -2 <= digit <= m, (p, a, b, s)
                    lowest.add(digit == -2)
                    at_the_bound.add(m if digit == m >= 2 else None)
    assert True in lowest and {2, 3, 4} <= at_the_bound


def test_brackets_deeper_than_the_class_hold_at_any_pairing():
    # the chain a < b with theta(a, b) = theta: (b, a) is checked at depth
    # 1 - theta, far deeper than the one-element b-class
    def chain(theta: int) -> ColoredPoset:
        d = DynkinDiagram(["a", "b"], [[2, theta], [-1, 2]])
        return ColoredPoset(d, {1: "a", 2: "b"}, [(1, 2)])

    assert_matches_oracle(chain(-20))
    for full_sweep in (False, True):
        want = verify_relations(chain(-20), full_sweep=full_sweep)
        assert not want.all_pass
        for theta in (-1000, -10**20):
            assert verify_relations(chain(theta), full_sweep=full_sweep) == want, theta


def test_xy_of_distinct_colors_holds_on_every_ec_poset():
    # decided by construction; the matrix oracle composes every pair
    rng = random.Random(seed_from_env() + 30)
    checked = 0
    for p in differential_posets(rng):
        if len(p) <= 14 and check(p, "EC").holds:
            report = verify_relations_oracle(p, full_sweep=True)
            assert verify_relations(p, full_sweep=True) == report, p
            assert all(c.ok for c in report.checks if c.relation == "XY" and c.a != c.b), p
            checked += 1
    assert checked >= 150


def test_relations_hold_exactly_on_minuscule_posets():
    # The relations hold on the split basis exactly when the colored poset is
    # minuscule.  The relation layer and the axiom layer share no code.  The
    # split bound is read off the components, since a disjoint union's split
    # count is the product of theirs.
    rng = random.Random(seed_from_env())
    verdicts = []
    for p in differential_posets(rng):
        if check(p, "EC").holds and math.prod(len(splits(c)) for c in connected_components(p)) <= 5000:
            verdicts.append((verify_relations(p, full_sweep=True).all_pass, is_minuscule(p)[0]))
    assert len(verdicts) > 200
    assert {True, False} <= {v for v, _ in verdicts}
    assert all(v == m for v, m in verdicts)


# A1 x A1: the colors a and b are distant, so (a, b) is checked at depth 1
DISTANT = DynkinDiagram(["a", "b"], [[2, 0], [0, 2]])


def _failing(p: ColoredPoset, full_sweep: bool = False) -> dict[tuple[str, str, str], int]:
    report = verify_relations(p, full_sweep=full_sweep)
    return {(c.relation, c.a, c.b): c.failing_basis_index for c in report.failures()}


def test_xy_is_evaluated_where_two_elements_of_one_color_share_a_cover():
    # the chain 1 < 2, both a, covered by the other color's element 3
    p = ColoredPoset(DISTANT, {1: "a", 2: "a", 3: "b"}, [(1, 2), (2, 3)])
    assert ("XY", "a", "a") in _failing(p) and ("XY", "b", "b") not in _failing(p)
    assert_matches_oracle(p)


def test_depth_one_brackets_are_evaluated_where_a_cover_joins_distant_colors():
    # splits: {} (0), {1} (1), {1, 2} (2).  X_b X_a moves e_0 to e_2 and
    # X_a X_b e_0 = 0, so XX fails at 0; YY, its transpose up to sign, at 2
    p = ColoredPoset(DISTANT, {1: "a", 2: "b"}, [(1, 2)])
    for full_sweep in (False, True):
        failing = _failing(p, full_sweep)
        assert failing[("XX", "a", "b")] == failing[("XX", "b", "a")] == 0
        assert failing[("YY", "a", "b")] == failing[("YY", "b", "a")] == 2
    assert_matches_oracle(p)
    # distant colors with no cover between their classes: every bracket holds
    apart = ColoredPoset(DISTANT, {1: "a", 2: "b", 3: "a"}, [(1, 3)])
    assert not any(r in ("XX", "YY") for r, _, _ in _failing(apart, True))
    assert_matches_oracle(apart)


def test_yy_reports_its_own_failing_index_at_depth_two():
    # A2 on the chain 1 < 2 < 3 colored a, b, b: (a, b) at depth 2
    d = DynkinDiagram(["a", "b"], [[2, -1], [-1, 2]])
    p = ColoredPoset(d, {1: "a", 2: "b", 3: "b"}, [(1, 2), (2, 3)])
    failing = _failing(p, full_sweep=True)
    assert failing[("XX", "b", "a")] != failing[("YY", "b", "a")]
    assert_matches_oracle(p)


def test_hy_reports_its_own_failing_index():
    # splits: {} (0), {1} (1), {1, 2} (2).  X_2 e_0 = e_1 breaks the (2, 1)
    # weight shift, so HX fails at 0 and HY, along Y_2, at 1
    p = ColoredPoset(DOUBLE_BOND, {1: "2", 2: "1"}, [(1, 2)])
    failing = _failing(p)
    assert (failing[("HX", "2", "1")], failing[("HY", "2", "1")]) == (0, 1)
    assert_matches_oracle(p)


# A2: theta(a, b) = theta(b, a) = -1, so (a, b) is checked at depth 2
SIMPLE_BOND = DynkinDiagram(["a", "b"], [[2, -1], [-1, 2]])


@pytest.mark.parametrize("p, a, b", [
    # the a-chain 1 < 2 has one empty gap; 3 above it is b
    (ColoredPoset(SIMPLE_BOND, {1: "a", 2: "a", 3: "b"}, [(1, 2), (2, 3)]), "a", "b"),
    # the a-chain 1 < 3 has the gap {2}, a single b-element, at depth 2
    (ColoredPoset(SIMPLE_BOND, {1: "a", 2: "b", 3: "a"}, [(1, 2), (2, 3)]), "a", "b"),
    # (1, 2) at depth 3: the 1-chain 1 < 2 < 4 has an empty gap, then {3} of color 2
    (ColoredPoset(DOUBLE_BOND, {1: "1", 2: "1", 3: "2", 4: "1"}, [(1, 2), (2, 3), (3, 4)]), "1", "2"),
], ids=["empty-gap", "single-b-gap-at-depth-2", "empty-and-single-b-gaps-at-depth-3"])
def test_brackets_are_evaluated_where_a_run_of_gaps_can_be_crossed(p, a, b):
    depth = 1 - p.diagram.theta(b, a)
    assert _crossable(_gaps(p)[a], p.class_masks[b], depth - 1)
    for full_sweep in (False, True):
        # a word adds the a-chain and the b-element from the empty ideal up
        failing = _failing(p, full_sweep)
        assert failing[("XX", a, b)] == 0 and ("YY", a, b) in failing
    assert_matches_oracle(p)


@pytest.mark.parametrize("p, a, b, xx, yy", [
    (ColoredPoset(DISTANT, {1: "a", 2: "b", 3: "b", 4: "a"}, [(1, 3), (1, 4), (2, 3), (2, 4)]),
     "a", "b", 1, 4),
    (ColoredPoset(SIMPLE_BOND, {1: "b", 2: "a", 3: "a", 4: "a", 5: "b"},
                  [(1, 4), (1, 5), (2, 3), (3, 4), (3, 5)]),
     "a", "b", 1, 6),
    (ColoredPoset(DOUBLE_BOND, {1: "1", 2: "1", 3: "2", 4: "2", 5: "1", 6: "1"},
                  [(1, 2), (2, 4), (2, 5), (3, 4), (3, 6), (5, 6)]),
     "1", "2", 1, 9),
], ids=["depth-1", "depth-2", "depth-3"])
def test_yy_fails_at_the_least_target_of_the_failing_xx_words(p, a, b, xx, yy):
    # XX fails at several basis vectors, and the least basis vector its
    # failing words land on is neither XX's index nor the target of its words
    # at that index
    up = operator_maps(p).up
    depth = 1 - p.diagram.theta(b, a)
    targets = set()
    for k in range(depth + 1):  # X_a^(depth - k) X_b X_a^k on e_xx
        s = xx
        for c in [a] * k + [b] + [a] * (depth - k):
            s = up[c][s] if s >= 0 else -1
        targets.add(s)
    targets.discard(-1)
    assert len(targets) == 1 and yy not in targets | {xx}
    for full_sweep in (False, True):
        failing = _failing(p, full_sweep)
        assert (failing[("XX", a, b)], failing[("YY", a, b)]) == (xx, yy)
    assert_matches_oracle(p)


def test_brackets_the_gaps_decide_vanish_as_matrix_commutators():
    # Every bracket of depth 2 or more that no run of gaps can carry is zero
    # as a nested commutator of the operator matrices, XX and YY alike.  The
    # split bound is read off the components: the largest disjoint unions
    # have over a million splits.
    posets = decided = 0
    for offset in range(5):
        rng = random.Random(seed_from_env() + 40 + offset)
        for p in differential_posets(rng):
            if not check(p, "EC").holds:
                continue
            if math.prod(len(splits(c)) for c in connected_components(p)) > 500:
                continue
            posets += 1
            gaps, ops = _gaps(p), None
            for a, b in itertools.permutations(p.diagram.colors, 2):
                depth = 1 - p.diagram.theta(b, a)
                if depth < 2 or _crossable(gaps[a], p.class_masks[b], depth - 1):
                    continue
                if ops is None:
                    _, ops = build_operators(p)
                for letter in (0, 1):  # X, then Y
                    nested = ops[b][letter]
                    for _ in range(depth):
                        nested = commutator(ops[a][letter], nested)
                    assert not nested.coordinates, (p, a, b, letter)
                decided += 1
    assert posets > 1000 and decided > 4000, (posets, decided)


def test_the_gaps_decide_every_adjacent_bracket_on_the_catalog():
    # by ICE2 no gap is empty, and a gap of one b-element has census
    # -theta(b, a) = depth - 1, which is 2 only at depth 3
    brackets = 0
    for fam in all_family_ids(8):
        p = build(fam)
        gaps = _gaps(p)
        for a, b in itertools.permutations(p.diagram.colors, 2):
            depth = 1 - p.diagram.theta(b, a)
            if depth >= 2:
                assert not _crossable(gaps[a], p.class_masks[b], depth - 1), (str(fam), a, b)
                brackets += 1
    assert brackets == 506
