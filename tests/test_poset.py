import itertools
import random

import pytest

from minuscule.catalog import FamilyId, build, indexed, top_tree_Y
from minuscule.dynkin import is_simply_laced, validate
from minuscule.poset import (
    ColoredPoset,
    PosetError,
    colored_isomorphism,
    connected_components,
    disjoint_union,
    first_linear_extension,
    order_dual,
    top_tree,
)

from helpers import (
    NotRanked,
    brute_force_colored_isomorphic,
    brute_force_linear_extension_count,
    ch_set,
    linear_extensions,
    random_colored_poset,
    rank_function,
    seed_from_env,
)


def chain(colors):
    d = validate(sorted(set(colors)), [
        [2 if a == b else -1 for b in sorted(set(colors))] for a in sorted(set(colors))
    ]) if len(set(colors)) > 1 else validate(list(set(colors)), [[2]])
    coloring = {i + 1: colors[i] for i in range(len(colors))}
    covers = [(i + 1, i) for i in range(1, len(colors))]
    return ColoredPoset(d, coloring, covers)


def test_constructor_rejects_redundant_cover():
    d = validate(["a", "b", "c"], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    with pytest.raises(PosetError):
        ColoredPoset(d, {1: "a", 2: "b", 3: "c"}, [(3, 2), (2, 1), (3, 1)])


def test_constructor_rejects_cycle_and_nonsurjective():
    d = validate(["a", "b"], [[2, -1], [-1, 2]])
    with pytest.raises(PosetError):
        ColoredPoset(d, {1: "a", 2: "b"}, [(1, 2), (2, 1)])
    with pytest.raises(PosetError):
        ColoredPoset(d, {1: "a"}, [])


def test_order_dual_involution():
    single = indexed("A", 1, 1)
    assert order_dual(single) == single
    three = chain(["a", "b", "c"])
    dual = order_dual(three)
    assert dual.maximal_elements() == three.minimal_elements()
    rng = random.Random(seed_from_env())
    for _ in range(10):
        p = random_colored_poset(rng, 8, 4)
        assert order_dual(order_dual(p)) == p


def test_top_tree_examples():
    c = chain(["a", "b", "c"])
    assert set(top_tree(c).elements) == set(c.elements)

    e7 = build(FamilyId("E7", 7))
    tree = top_tree(e7)
    assert len(tree.elements) == 7
    assert tree.shape() == (4, 1, 2)
    assert tree.is_filter()

    a42 = indexed("A", 4, 2)
    tree = top_tree(a42)
    assert len(tree.elements) == 4
    assert tree.shape() == (1, 1, 2)


def test_ch_set_examples():
    c = chain(["a", "b", "c"])
    assert ch_set(c) == frozenset(c.elements)

    d = validate(["a", "b", "c"], [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]])
    v = ColoredPoset(d, {1: "b", 2: "c", 3: "a"}, [(3, 1), (3, 2)])
    assert ch_set(v) == frozenset({1, 2})

    a42 = indexed("A", 4, 2)
    assert ch_set(a42) == frozenset(top_tree(a42).elements)


def test_top_tree_equals_ch_for_simply_laced_catalog():
    from minuscule.catalog import all_family_ids

    for fam in all_family_ids(6):
        p = build(fam)
        if is_simply_laced(p.diagram):
            assert frozenset(top_tree(p).elements) == ch_set(p), str(fam)


def test_top_tree_color_map_is_graph_isomorphism():
    # covers of the top tree map bijectively onto diagram adjacency
    for fam in [FamilyId("A_exterior", 5, 2), FamilyId("D_spin", 6), FamilyId("E6", 6)]:
        p = build(fam)
        tree = top_tree(p)
        edge_colors = {
            frozenset((p.color(x), p.color(y))) for x, y in tree.covers
        }
        diagram_edges = {
            frozenset((a, b))
            for a in p.diagram.colors
            for b in p.diagram.colors
            if a != b and p.diagram.adjacent(a, b)
        }
        assert edge_colors == diagram_edges


def test_linear_extensions_counts():
    assert sum(1 for _ in linear_extensions(chain(["a", "b", "c"]))) == 1
    d = validate(["a", "b"], [[2, 0], [0, 2]])
    anti = ColoredPoset(d, {1: "a", 2: "b"}, [])
    assert sum(1 for _ in linear_extensions(anti)) == 2
    grid = indexed("A", 3, 2)
    assert sum(1 for _ in linear_extensions(grid)) == 2


def test_linear_extensions_against_brute_force():
    rng = random.Random(seed_from_env() + 2)
    for _ in range(12):
        p = random_colored_poset(rng, 7, 4)
        seen = list(linear_extensions(p))
        assert len(seen) == len(set(seen))
        assert len(seen) == brute_force_linear_extension_count(p)
        for ext in seen:
            pos = {x: i for i, x in enumerate(ext)}
            assert all(pos[x] < pos[y] for x, y in p.covers)


def test_first_linear_extension_is_minimal_id_greedy():
    p = indexed("A", 4, 2)
    ext = first_linear_extension(p)
    assert ext[0] == p.minimal_elements()[0]
    assert set(ext) == set(p.elements)


def test_colored_isomorphism_identity_and_flip():
    p = indexed("A", 4, 2)
    pi, gamma = colored_isomorphism(p, p)
    assert all(gamma[c] == c for c in p.diagram.colors) or all(
        p.color(pi[x]) == gamma[p.color(x)] for x in p.elements
    )

    a41 = indexed("A", 4, 1)
    a44 = indexed("A", 4, 4)
    result = colored_isomorphism(a41, a44)
    assert result is not None
    _, gamma = result
    assert gamma == {1: 4, 2: 3, 3: 2, 4: 1}


def test_colored_isomorphism_negative():
    two_chain = chain(["a", "b"])
    d = validate(["a", "b"], [[2, 0], [0, 2]])
    anti = ColoredPoset(d, {1: "a", 2: "b"}, [])
    assert colored_isomorphism(two_chain, anti) is None


def test_colored_isomorphism_witnesses_invert():
    p1 = indexed("A", 4, 2)
    p2 = indexed("A", 4, 3)
    pi, gamma = colored_isomorphism(p1, p2)
    inv_pi = {v: k for k, v in pi.items()}
    inv_gamma = {v: k for k, v in gamma.items()}
    for x in p2.elements:
        assert p1.color(inv_pi[x]) == inv_gamma[p2.color(x)]
        for y in p2.elements:
            assert p2.lt(x, y) == p1.lt(inv_pi[x], inv_pi[y])


def test_colored_isomorphism_matches_brute_force():
    rng = random.Random(seed_from_env() + 3)
    hits = 0
    for _ in range(30):
        p1 = random_colored_poset(rng, 5, 3)
        if rng.random() < 0.5:
            # a genuinely isomorphic copy through shuffled ids and colors
            ids = list(p1.elements)
            rng.shuffle(ids)
            remap = dict(zip(p1.elements, ids))
            p2 = ColoredPoset(
                p1.diagram,
                {remap[x]: p1.color(x) for x in p1.elements},
                [(remap[x], remap[y]) for x, y in p1.covers],
            )
        else:
            p2 = random_colored_poset(rng, 5, 3)
        expected = brute_force_colored_isomorphic(p1, p2)
        got = colored_isomorphism(p1, p2)
        assert (got is not None) == expected
        if got is not None:
            hits += 1
            pi, gamma = got
            assert all(p2.color(pi[x]) == gamma[p1.color(x)] for x in p1.elements)
            assert all(
                p1.lt(x, y) == p2.lt(pi[x], pi[y])
                for x in p1.elements
                for y in p1.elements
            )
    assert hits >= 5


def test_rank_function_conventions():
    y211 = top_tree_Y(2, 1, 1)
    ranks = rank_function(y211)
    tree = top_tree(y211)
    s = tree.splitting_element()
    assert ranks[s] == -1
    assert ranks[y211.maximal_elements()[0]] == -2
    assert sorted(ranks[m] for m in y211.minimal_elements()) == [0, 0]

    assert sorted(rank_function(chain(["a", "b", "c"])).values()) == [-2, -1, 0]


def test_rank_function_rejects_unbalanced_cover_cycle():
    # two saturated chains of different lengths between the same pair
    d = validate(
        ["a", "b", "c", "e", "f"],
        [
            [2, -1, -1, 0, 0],
            [-1, 2, 0, 0, -1],
            [-1, 0, 2, -1, 0],
            [0, 0, -1, 2, -1],
            [0, -1, 0, -1, 2],
        ],
    )
    zigzag = ColoredPoset(
        d,
        {1: "a", 2: "b", 3: "c", 4: "e", 5: "f"},
        [(5, 2), (2, 1), (5, 4), (4, 3), (3, 1)],
    )
    with pytest.raises(NotRanked):
        rank_function(zigzag)


def test_every_four_element_poset_is_ranked():
    # exhaustive: no 4-element poset can witness NotRanked
    import itertools as it

    d = validate(["a", "b", "c", "e"], [
        [2, -1, -1, -1],
        [-1, 2, -1, -1],
        [-1, -1, 2, -1],
        [-1, -1, -1, 2],
    ])
    pairs = [(x, y) for x in range(1, 5) for y in range(1, 5) if x != y]
    count = 0
    for rel in it.product([False, True], repeat=len(pairs)):
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
            if not any((x, z) in less and (z, y) in less for z in range(1, 5))
        ]
        coloring = {1: "a", 2: "b", 3: "c", 4: "e"}
        try:
            p = ColoredPoset(d, coloring, covers)
        except PosetError:
            continue
        rank_function(p)  # must not raise
        count += 1
    assert count == 219  # labeled posets on four points


def test_connected_components():
    p = indexed("A", 4, 2)
    assert len(connected_components(p)) == 1
    union = disjoint_union([chain(["a", "b"]), chain(["x", "y", "z"])])
    comps = connected_components(union)
    assert sorted(len(c) for c in comps) == [2, 3]
    for c in comps:
        assert set(c.coloring.values()) == set(c.diagram.colors)


def test_json_round_trip():
    p = build(FamilyId("D_spin", 5))
    again = ColoredPoset.from_json(p.to_json())
    assert colored_isomorphism(p, again) is not None
    assert again.to_json() == ColoredPoset.from_json(again.to_json()).to_json()


def test_json_rejects_unknown_version():
    data = build(FamilyId("B", 2)).to_json()
    data["version"] = 99
    with pytest.raises(PosetError):
        ColoredPoset.from_json(data)


def test_dot_export():
    dot = indexed("A", 3, 2).to_dot()
    assert "digraph" in dot and "shape=box" in dot
