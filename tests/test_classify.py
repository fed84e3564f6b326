import itertools
import random
import time

import pytest

from minuscule import catalog
from minuscule.axioms import check, is_minuscule
from minuscule.catalog import (
    FamilyId,
    all_family_ids,
    build,
    family_of,
    indexed,
    minuscule_indices,
    top_tree_Y,
)
from minuscule.classify import classify, classify_connected
from minuscule.dynkin import DynkinDiagram
from minuscule.extension import run_extension
from minuscule.poset import (
    ColoredPoset,
    colored_isomorphism,
    order_dual,
)

from helpers import (
    classify_connected_build_oracle,
    classify_connected_oracle,
    classify_oracle,
    component_element_sets_oracle,
    connected_components,
    disjoint_union,
    down_set,
    random_colored_poset,
    scrambled,
    seed_from_env,
    subposet,
)


def test_examples():
    entry = classify_connected(indexed("A", 4, 2))
    assert str(entry.family) == "A_exterior(4,2)"
    assert set(map(str, entry.all_matches)) == {"A_exterior(4,2)", "A_exterior(4,3)"}

    entry = classify_connected(build(FamilyId("C", 3)))
    assert str(entry.family) == "C(3)"

    blocked = run_extension(top_tree_Y(3, 1, 3)).poset
    entry = classify_connected(blocked)
    assert entry.family is None
    failing = {r.property for r in entry.failures if not r.holds}
    assert failing == {"LCB1"}


def test_single_element_and_unions():
    single = indexed("A", 1, 1)
    assert str(classify_connected(single).family) == "A_standard(1)"

    union = disjoint_union([build(FamilyId("A_standard", 2)), build(FamilyId("B", 2))])
    result = classify(union)
    assert result.minuscule
    assert result.family_multiset() == ("A_standard(2)", "B(2)")

    d = DynkinDiagram(["a"], [[2]])
    bad = ColoredPoset(d, {1: "a", 2: "a"}, [])
    mixed = disjoint_union([build(FamilyId("A_standard", 2)), bad])
    result = classify(mixed)
    assert not result.minuscule


def test_catalog_round_trip():
    for fam in all_family_ids(8):
        entry = classify_connected(build(fam))
        assert fam in entry.all_matches, str(fam)
        # the reported family is the canonical representative of the matches
        assert entry.family == min(entry.all_matches, key=lambda f: f.sort_key())


def test_exterior_reports_canonical_family():
    entry = classify_connected(indexed("A", 5, 4))
    assert str(entry.family) == "A_exterior(5,2)"


def test_soundness_matches_is_minuscule():
    rng = random.Random(seed_from_env() + 20)
    for _ in range(120):
        p = random_colored_poset(rng, 6, 3)
        comps = classify(p)
        assert comps.minuscule == is_minuscule(p)[0]


def test_dual_classification():
    for fam in all_family_ids(6):
        p = build(fam)
        assert classify(order_dual(p)).minuscule
    blocked = run_extension(top_tree_Y(2, 2, 2)).poset
    assert not classify(blocked).minuscule
    # the dual of a d-complete-not-minuscule poset fails the dual census
    assert not classify(order_dual(blocked)).minuscule


def _all_labeled_posets(n):
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
    for rel in itertools.product([False, True], repeat=len(pairs)):
        less = {p for p, on in zip(pairs, rel) if on}
        if any((y, x) in less for x, y in less):
            continue
        if any(
            (x, z) not in less
            for x, y in less
            for y2, z in less
            if y == y2 and x != z
        ):
            continue
        covers = [
            (x, y)
            for x, y in less
            if not any((x, z) in less and (z, y) in less for z in range(1, n + 1))
        ]
        yield covers


def _two_color_diagrams():
    yield DynkinDiagram([1, 2], [[2, -1], [-1, 2]])
    yield DynkinDiagram([1, 2], [[2, -2], [-1, 2]])
    yield DynkinDiagram([1, 2], [[2, -1], [-2, 2]])
    yield DynkinDiagram([1, 2], [[2, -2], [-2, 2]])


def _small_connected_posets():
    """Every connected colored poset on <= 4 elements over <= 2 colors."""
    for n in range(1, 5):
        for covers in _all_labeled_posets(n):
            for diagram in itertools.chain(
                [DynkinDiagram([1], [[2]])], _two_color_diagrams()
            ):
                k = len(diagram)
                if k > n:
                    continue
                for assignment in itertools.product(diagram.colors, repeat=n):
                    if set(assignment) != set(diagram.colors):
                        continue
                    coloring = {i + 1: assignment[i] for i in range(n)}
                    try:
                        p = ColoredPoset(diagram, coloring, covers)
                    except Exception:
                        continue
                    if len(connected_components(p)) == 1:
                        yield p


def test_completeness_exhaustive_small():
    """Every connected minuscule poset on <= 4 elements over <= 2 colors
    matches exactly one canonical family."""
    checked = 0
    minuscule_found = 0
    for p in _small_connected_posets():
        checked += 1
        ok, _ = is_minuscule(p)
        entry = classify_connected(p)
        assert (entry.family is not None) == ok
        if ok:
            minuscule_found += 1
            builds = [build(f) for f in entry.all_matches]
            for q in builds:
                assert colored_isomorphism(p, q) is not None
    assert checked > 3000
    assert minuscule_found == 17


def test_theorem_route_matches_search_oracle():
    """Family, matches, witness and failures agree with the search on
    scrambled catalog posets and on every small connected poset."""
    catalog = [build(f) for f in all_family_ids(8)]
    catalog += [indexed(*index) for index in minuscule_indices(8)]
    for seed in range(3):
        rng = random.Random(seed_from_env() + 30 + seed)
        for p in catalog:
            q = scrambled(p, rng)
            assert classify_connected(q).to_json() == classify_connected_oracle(q).to_json()
    for p in _small_connected_posets():
        assert classify_connected(p).to_json() == classify_connected_oracle(p).to_json()


def test_long_chains_with_colors_out_of_path_order():
    """A search through the colors in order, `colored_isomorphism_oracle`,
    needs seconds at 20 colors listed every fifth along the path and grows
    exponentially; the theorem route is polynomial."""
    rng = random.Random(seed_from_env() + 40)
    started = time.perf_counter()
    for kind in ("A_standard", "C"):
        every_fifth = [i for r in range(5) for i in range(r, 40, 5)]
        p = scrambled(build(FamilyId(kind, 40)), rng, every_fifth)
        entry = classify_connected(p)
        assert entry.family == FamilyId(kind, 40)
        pi, gamma = entry.witness
        q = build(entry.family)
        assert {(pi[x], pi[y]) for x, y in p.covers} == q.covers
        assert all(gamma[p.color(x)] == q.color(pi[x]) for x in p.elements)
    assert time.perf_counter() - started < 10


def test_completeness_random_five_elements_four_colors():
    rng = random.Random(seed_from_env() + 21)
    found = 0
    for _ in range(400):
        p = random_colored_poset(rng, 5, 4)
        for comp in connected_components(p):
            ok, _ = is_minuscule(comp)
            entry = classify_connected(comp)
            assert (entry.family is not None) == ok
            found += ok
    assert found >= 10


def test_a_connected_input_lists_its_ec_and_ac_failures_globally():
    # each input is connected; the global failures are its own failing EC
    # and AC reports, the very ones its classification decided on
    distant = DynkinDiagram(["a", "b"], [[2, 0], [0, 2]])
    bond = DynkinDiagram(["a", "b"], [[2, -1], [-1, 2]])
    for p, failing in [
        # 1 and 2 share the upper cover 3 and a color
        (ColoredPoset(distant, {1: "a", 2: "a", 3: "b"}, [(1, 3), (2, 3)]), ("EC",)),
        # 1 and 2 share the upper cover 3 and have adjacent colors
        (ColoredPoset(bond, {1: "a", 2: "b", 3: "a"}, [(1, 3), (2, 3)]), ("AC",)),
        # both, and 4 < 3 of color b is incomparable to 1 and 2
        (ColoredPoset(bond, {1: "a", 2: "a", 3: "b", 4: "b"}, [(1, 3), (2, 3), (4, 3)]), ("EC", "AC")),
        # NA fails alone: not a cross-component property
        (ColoredPoset(distant, {1: "a", 2: "b"}, [(1, 2)]), ()),
    ]:
        assert connected_components(p) == [p]
        result = classify(p)
        assert tuple(r.property for r in result.global_failures) == failing
        assert all(r is check(p, r.property) for r in result.global_failures)
        assert not result.minuscule and not result.components[0].minuscule
        doc = result.to_json()
        assert [r["property"] for r in doc.get("global_failures", [])] == list(failing)


def _scrambled_unions(rng, posets, count):
    """count disjoint unions of 2 to 4 scrambled posets, each scrambled whole."""
    for _ in range(count):
        parts = [scrambled(rng.choice(posets), rng) for _ in range(rng.randint(2, 4))]
        yield scrambled(disjoint_union(parts), rng)


def test_walk_on_the_input_equals_the_build_route():
    """Family, matches, witness and failures agree with the route that built
    the family's poset a second time, on every family through rank 12 as
    built and scrambled, on every minuscule index through rank 12 with its
    colors renamed and listed in scrambled order, and componentwise on
    scrambled unions."""
    rng = random.Random(seed_from_env() + 50)
    families = [build(f) for f in all_family_ids(12)]
    indices = [indexed(*index) for index in minuscule_indices(12)]
    for p in families + [scrambled(q, rng) for q in families + indices]:
        assert classify_connected(p).to_json() == classify_connected_build_oracle(p).to_json()
    small = [q for q in families + indices if len(q.diagram) <= 6]
    for u in _scrambled_unions(rng, small, 30):
        want = [
            classify_connected_build_oracle(subposet(u, comp)).to_json()
            for comp in component_element_sets_oracle(u)
        ]
        assert [c.to_json() for c in classify(u).components] == want


def test_classify_builds_no_catalog_poset(monkeypatch):
    rng = random.Random(seed_from_env() + 51)
    families = all_family_ids(8)
    posets = [scrambled(build(f), rng) for f in families]
    unions = list(_scrambled_unions(rng, posets, 10))

    def refuse(*args):
        raise AssertionError("classify built a catalog poset")

    monkeypatch.setattr(catalog, "build", refuse)
    monkeypatch.setattr(catalog, "diagram_of_type", refuse)
    for f, p in zip(families, posets):
        assert classify(p).family_multiset() == (str(_reported(f)),)
    for u in unions:
        assert classify(u).minuscule


def _reported(f):
    """The family classification names for a poset of family f: A_exterior(n,j)
    and A_exterior(n,n+1-j) are one poset, reported under the lesser index."""
    return FamilyId(f.kind, f.n, min(f.j, f.n + 1 - f.j)) if f.j else f


def _catalog_through_rank_6():
    """Every family and minuscule index through rank 6, with the family
    classification reports for it."""
    out = [(build(f), _reported(f)) for f in all_family_ids(6)]
    return out + [(indexed(*i), _reported(family_of(*i))) for i in minuscule_indices(6)]


def test_classify_recovers_the_families_of_random_unions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    posets = _catalog_through_rank_6()

    @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        st.lists(st.integers(0, len(posets) - 1), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    def recovers(picks, rng):
        parts = [scrambled(posets[i][0], rng) for i in picks]
        result = classify(scrambled(disjoint_union(parts), rng))
        assert result.minuscule
        assert result.family_multiset() == tuple(sorted(str(posets[i][1]) for i in picks))

    recovers()


def test_relabeling_keeps_the_family_and_carries_the_witness():
    """Permuted ids and renamed colors, listed in the same order, give the
    same families and the witness composed with the relabeling; listing the
    colors in another order keeps the families and a valid witness."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    posets = _catalog_through_rank_6()

    @hypothesis.settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.integers(0, len(posets) - 1), st.randoms(use_true_random=False))
    def carries(i, rng):
        p = scrambled(posets[i][0], rng)
        ids = dict(zip(p.elements, rng.sample(range(1, 4 * len(p) + 10), len(p))))
        names = {a: f"r{a}" for a in p.diagram.colors}
        q = ColoredPoset(
            DynkinDiagram([names[a] for a in p.diagram.colors], p.diagram.matrix),
            {ids[x]: names[a] for x, a in p.coloring.items()},
            [(ids[x], ids[y]) for x, y in p.covers],
        )
        e, f = classify_connected(p), classify_connected(q)
        assert e.family == posets[i][1]
        assert (f.family, f.all_matches) == (e.family, e.all_matches)
        (pi, gamma), (pi_q, gamma_q) = e.witness, f.witness
        assert pi_q == {ids[x]: y for x, y in pi.items()}
        assert gamma_q == {names[a]: b for a, b in gamma.items()}

        r = scrambled(q, rng)
        g = classify_connected(r)
        assert (g.family, g.all_matches) == (e.family, e.all_matches)
        pi_r, gamma_r = g.witness
        target = build(g.family)
        assert {(pi_r[x], pi_r[y]) for x, y in r.covers} == target.covers
        assert all(gamma_r[r.color(x)] == target.color(pi_r[x]) for x in r.elements)

    carries()


def _shared_union(parts):
    """The union of posets whose diagrams are restrictions of the first's, over
    that diagram with the colors kept, so components may share colors."""
    coloring, covers, offset = {}, [], 0
    for q in parts:
        coloring.update((x + offset, a) for x, a in q.coloring.items())
        covers += [(x + offset, y + offset) for x, y in q.covers]
        offset += max(q.elements) + 1
    return ColoredPoset(parts[0].diagram, coloring, covers)


def _dropped_cover(p, rng):
    """p with one cover dropped, which may split it."""
    return ColoredPoset(p.diagram, p.coloring, p.covers - {rng.choice(sorted(p.covers))})


def _recolored(p, rng):
    """p with one element of a class of two or more moved to another color."""
    x = rng.choice([x for x in p.elements if len(p.color_class(p.color(x))) > 1])
    a = rng.choice([a for a in p.diagram.colors if a != p.color(x)])
    return ColoredPoset(p.diagram, {**p.coloring, x: a}, p.covers)


def _affine_chain():
    """A chain of six colored around the cyclic diagram of three colors: not of
    finite type, failing UCB1 and LCB1."""
    d = DynkinDiagram(["a", "b", "c"], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    return ColoredPoset(d, dict(enumerate("abcabc")), [(x, x + 1) for x in range(5)])


def test_union_route_equals_the_component_poset_oracle():
    """`classify` on the input itself equals classification through component
    posets on every family through rank 8, scrambled; on unions with a
    dropped-cover or recolored component, with a blocked-extension and a
    non-finite-type component, and with random components; on unions whose
    components share colors; and on the empty poset."""
    rng = random.Random(seed_from_env() + 52)
    families = [scrambled(build(f), rng) for f in all_family_ids(8)]
    for p in families:
        assert classify(p).to_json() == classify_oracle(p).to_json()
    small = [p for p in families if len(p) <= 12]
    odd = [run_extension(top_tree_Y(3, 1, 3)).poset, _affine_chain()]
    inputs = []
    for _ in range(30):
        parts = [scrambled(rng.choice(small), rng) for _ in range(rng.randint(1, 3))]
        parts.append(_dropped_cover(rng.choice([p for p in small if p.covers]), rng))
        parts.append(_recolored(rng.choice([p for p in small if len(p) > len(p.diagram)]), rng))
        parts.append(scrambled(rng.choice(odd), rng))
        parts.append(random_colored_poset(rng, 6, 3))
        rng.shuffle(parts)
        inputs.append(scrambled(disjoint_union(parts), rng))
    for _ in range(30):
        # a poset, copies of it and of its up-sets and down-sets, on one diagram
        p = rng.choice(small)
        parts = [p] + [
            rng.choice([p, subposet(p, p.up_set(x)), subposet(p, down_set(p, x))])
            for x in rng.sample(p.elements, rng.randint(1, min(3, len(p))))
        ]
        inputs.append(scrambled(_shared_union(parts), rng))
    inputs.append(ColoredPoset(DynkinDiagram([], []), {}, []))
    shared = 0
    for u in inputs:
        got = classify(u)
        assert got.to_json() == classify_oracle(u).to_json()
        comps = [set(c.elements) for c in got.components]
        shared += any(
            len({u.color(x) for x in c} & {u.color(x) for x in e}) > 0
            for i, c in enumerate(comps)
            for e in comps[:i]
        )
    assert shared >= 25


def test_union_routes_agree_on_random_unions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    posets = [p for p, _ in _catalog_through_rank_6()]
    posets += [run_extension(top_tree_Y(3, 1, 3)).poset, _affine_chain()]

    @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        st.lists(st.tuples(st.integers(0, len(posets) - 1), st.integers(0, 2)), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    def agree(picks, rng):
        how = (lambda p, rng: p, _dropped_cover, _recolored)
        parts = []
        for i, k in picks:
            p = scrambled(posets[i], rng)
            if k and len(p.covers) and len(p) > len(p.diagram):
                p = how[k](p, rng)
            parts.append(p)
        u = scrambled(disjoint_union(parts), rng)
        assert classify(u).to_json() == classify_oracle(u).to_json()

    agree()


def test_a_failing_component_reads_its_own_reports_off_the_union():
    # 2 and 3 of color a are incomparable (EC), 4 < 5 are both b (NA), so the
    # interval between them is empty (ICE2 census 0), and 1 and 3 below the
    # least b weigh 2 (LCB1)
    d = DynkinDiagram(["a", "b", "c"], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    hand = ColoredPoset(
        d, {1: "c", 2: "a", 3: "a", 4: "b", 5: "b"}, [(1, 4), (3, 4), (4, 5), (2, 5)]
    )
    u = disjoint_union([hand, build(FamilyId("B", 3)), hand])
    result = classify(u)
    assert [c.elements for c in result.components][0] == hand.elements
    for c in result.components[::2]:
        own = subposet(u, c.elements)
        assert c.failures == tuple(is_minuscule(own)[1])
        failing = {r.property for r in c.failures if not r.holds}
        assert {"EC", "NA", "ICE2", "LCB1"} <= failing
    assert str(result.components[1].family) == "B(3)"
    assert result.to_json() == classify_oracle(u).to_json()
