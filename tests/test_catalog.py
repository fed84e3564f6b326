import pytest

from minuscule import coroots
from minuscule.axioms import is_minuscule
from minuscule.catalog import (
    BadParameters,
    FamilyId,
    NotAMinusculeWeight,
    all_family_ids,
    build,
    diagram_of_type,
    family_of,
    indexed,
    kac_automorphisms,
    minuscule_indices,
    top_tree_Y,
)
from minuscule.classify import classify
from minuscule.coroots import coroot_system
from minuscule.dynkin import DynkinDiagram
from minuscule.poset import colored_isomorphism, order_dual, top_tree

from helpers import (
    automorphisms,
    class_chain_renumbered,
    covered_by_x,
    family_oracle,
    indexed_oracle,
    rank_function,
    relabel_colors,
    split_count_oracle,
)


def test_family_id_validation():
    with pytest.raises(BadParameters):
        FamilyId("A_exterior", 4, 1)
    with pytest.raises(BadParameters):
        FamilyId("C", 2)
    with pytest.raises(BadParameters):
        FamilyId("D_spin", 4)
    with pytest.raises(BadParameters):
        FamilyId("Z", 3)


def test_family_ids_construct_exactly_as_all_family_ids_lists_them():
    listed = {(f.kind, f.n, f.j) for f in all_family_ids(13)}
    kinds = {kind for kind, _, _ in listed}
    assert len(kinds) == 8
    for kind in kinds:
        for n in range(-1, 14):
            for j in range(-1, 15):
                if (kind, n, j) in listed:
                    FamilyId(kind, n, j)
                    continue
                with pytest.raises(BadParameters) as exc:
                    FamilyId(kind, n, j)
                assert str(exc.value) == f"bad parameters for {kind}: n={n}, j={j}"


def test_family_lists_agree_with_the_index_lists():
    for m in range(13):
        named = {family_of(*index) for index in minuscule_indices(m)}
        assert all_family_ids(m) == sorted(named, key=FamilyId.sort_key), m


def test_build_equals_the_hand_constructors():
    # the walk numbers E6 and E7 otherwise; EC makes the renumbering unique
    for fam in all_family_ids(12):
        walked, by_hand = build(fam), family_oracle(fam)
        if fam.kind in ("E6", "E7"):
            assert walked != by_hand and class_chain_renumbered(walked, by_hand) == walked
        else:
            assert walked == by_hand, str(fam)


def test_indexed_equals_the_relabeled_hand_constructors():
    renumbered = {("D", 4, 4), ("E", 6, 1), ("E", 6, 5), ("E", 7, 6)}
    for index in minuscule_indices(12):
        walked, by_hand = indexed(*index), indexed_oracle(*index)
        if index in renumbered:
            assert walked != by_hand and class_chain_renumbered(walked, by_hand) == walked
        else:
            assert walked == by_hand, index


def walk_meets_two(diagram, j):
    """Whether the orbit walk down from the fundamental weight of node j ever
    gives a node a coefficient of 2 or more."""
    c = {k: int(k == j) for k in diagram.colors}
    while max(c.values()) < 2:
        ready = [i for i in diagram.colors if c[i] == 1]
        if not ready:
            return False
        c = {k: c[k] - diagram.theta(ready[0], k) for k in diagram.colors}
    return True


def test_minuscule_nodes_are_those_whose_walk_never_meets_two():
    listed = set(minuscule_indices(12))
    for letter in "ABCDE":
        for n in range(1, 13):
            try:
                diagram = diagram_of_type(letter, n)
            except BadParameters:
                continue
            for j in diagram.colors:
                assert ((letter, n, j) in listed) == (not walk_meets_two(diagram, j)), (letter, n, j)


def test_build_classify_and_coroots_never_build_the_dense_table(monkeypatch):
    """The catalog, classification and the coroot systems read each color's
    pairings only: the dense table, which `_rows` alone builds, is never
    asked for."""

    def refuse(diagram):
        raise AssertionError("the dense pairing table was built")

    monkeypatch.setattr(DynkinDiagram, "_rows", refuse)
    monkeypatch.setattr(coroots, "_SYSTEMS", {})
    for fam in all_family_ids(9):
        p = build(fam)
        assert fam in classify(p).components[0].all_matches
        coroot_system(p.diagram)
    for letter, n, j in minuscule_indices(9):
        p = indexed(letter, n, j)
        assert classify(p).minuscule
        assert coroot_system(p.diagram) is coroot_system(diagram_of_type(letter, n))
    with pytest.raises(AssertionError):
        build(FamilyId("B", 3)).diagram.matrix


def test_a_standard_shape():
    p = build(FamilyId("A_standard", 4))
    assert len(p) == 4
    assert len(p.maximal_elements()) == 1
    colors_downward = []
    x = p.maximal_elements()[0]
    while True:
        colors_downward.append(p.color(x))
        below = covered_by_x(p, x)
        if not below:
            break
        x = below[0]
    assert colors_downward == [1, 2, 3, 4]


def test_c3_is_five_chain():
    p = build(FamilyId("C", 3))
    assert len(p) == 5
    assert all(
        p.comparable(x, y) for i, x in enumerate(p.elements) for y in p.elements[i + 1 :]
    )
    assert len(p.diagram) == 3


def test_e7_has_27_elements_and_56_ideals():
    p = build(FamilyId("E7", 7))
    assert len(p) == 27
    assert split_count_oracle(p) == 56


def test_exterior_sizes():
    for n in range(3, 9):
        for j in range(2, n):
            p = build(FamilyId("A_exterior", n, j))
            assert len(p) == j * (n + 1 - j), (n, j)


def test_b_and_c_and_d_sizes():
    for n in range(2, 8):
        assert len(build(FamilyId("B", n))) == n * (n + 1) // 2
    for n in range(3, 8):
        assert len(build(FamilyId("C", n))) == 2 * n - 1
    for n in range(4, 8):
        assert len(build(FamilyId("D_standard", n))) == 2 * n - 2
    for n in range(5, 8):
        assert len(build(FamilyId("D_spin", n))) == n * (n - 1) // 2


def test_d_spin_parity_tail():
    # the diagonal of the staircase alternates between the two fork colors
    # from the maximum down; whether the minimum repeats the top fork color
    # depends on the parity of the short-arm length k = n - 3
    for n, expected_bottom in ((6, 6), (7, 6), (8, 8)):
        p = build(FamilyId("D_spin", n))
        diag = [x for x in p.elements if p.color(x) in (n, n - 1)]
        colors = [p.color(x) for x in sorted(diag)]
        assert len(diag) == n - 1
        assert colors[0] == n
        assert all(
            colors[i] != colors[i + 1] for i in range(len(colors) - 1)
        ), "fork colors must alternate down the diagonal"
        assert [p.color(x) for x in p.minimal_elements()] == [expected_bottom]


def test_every_family_minuscule_and_dual():
    for fam in all_family_ids(7):
        p = build(fam)
        assert is_minuscule(p)[0], str(fam)
        assert is_minuscule(order_dual(p))[0], str(fam)


def test_top_tree_shapes_match_extension_table():
    expected = {
        FamilyId("A_exterior", 5, 3): (1, 2, 2),
        FamilyId("D_standard", 6): (4, 1, 1),
        FamilyId("D_spin", 6): (2, 1, 3),
        FamilyId("E6", 6): (3, 1, 2),
        FamilyId("E7", 7): (4, 1, 2),
    }
    for fam, shape in expected.items():
        assert top_tree(build(fam)).shape() == shape, str(fam)


def test_top_tree_shapes_all_simply_laced_families():
    for fam in all_family_ids(8):
        p = build(fam)
        tree = top_tree(p)
        if fam.kind == "A_exterior":
            j, k = sorted((fam.j - 1, fam.n - fam.j))
            assert tree.shape() == (1, j, k), str(fam)
        elif fam.kind == "D_standard":
            assert tree.shape() == (fam.n - 2, 1, 1), str(fam)
        elif fam.kind == "D_spin":
            assert tree.shape() == (2, 1, fam.n - 3), str(fam)
        elif fam.kind == "E6":
            assert tree.shape() == (3, 1, 2)
        elif fam.kind == "E7":
            assert tree.shape() == (4, 1, 2)
        elif fam.kind == "A_standard":
            assert tree.shape() is None  # chains have no splitting element


def test_indexed_basic():
    p = indexed("A", 4, 2)
    assert len(p) == 6
    assert p.color(p.maximal_elements()[0]) == 2

    with pytest.raises(NotAMinusculeWeight):
        indexed("B", 4, 1)
    with pytest.raises(NotAMinusculeWeight):
        indexed("E", 7, 1)
    with pytest.raises(NotAMinusculeWeight):
        indexed("C", 2, 1)


def test_indexed_refuses_every_other_index():
    indices = set(minuscule_indices(9))
    for letter in "ABCDEFG":
        for n in range(-1, 10):
            for j in range(-1, n + 2):
                if (letter, n, j) in indices:
                    continue
                with pytest.raises(NotAMinusculeWeight) as exc:
                    indexed(letter, n, j)
                assert str(exc.value) == f"{letter}_{n}({j}) is not a minuscule weight index"


def test_indexed_isomorphism_pairs():
    a42 = indexed("A", 4, 2)
    a43 = indexed("A", 4, 3)
    iso = colored_isomorphism(a42, a43)
    assert iso is not None
    assert a42.color(a42.maximal_elements()[0]) == 2
    assert a43.color(a43.maximal_elements()[0]) == 3

    # the same index through either diagram automorphism gives the same poset
    a53 = indexed("A", 5, 3)
    flip = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    assert colored_isomorphism(a53, relabel_colors(a53, flip)) is not None


def test_indexed_covers_all_minuscule_weights():
    for (letter, n, j) in minuscule_indices(7):
        p = indexed(letter, n, j)
        assert is_minuscule(p)[0], (letter, n, j)
        mx = p.maximal_elements()
        assert len(mx) == 1 and p.color(mx[0]) == j


def test_kac_automorphism_table_matches_exhaustive_search():
    for letter, n in {(letter, n) for letter, n, _ in minuscule_indices(7)}:
        table = kac_automorphisms(letter, n)
        assert table[0] == {i: i for i in range(1, n + 1)}
        found = automorphisms(diagram_of_type(letter, n))
        assert sorted(map(sorted, map(dict.items, table))) == sorted(
            map(sorted, map(dict.items, found))
        ), (letter, n)


def test_family_of_names_the_indexed_poset():
    for letter, n, j in minuscule_indices(7):
        fam = family_of(letter, n, j)
        assert colored_isomorphism(indexed(letter, n, j), build(fam)) is not None


def test_d4_triality():
    seen = {}
    for j in (1, 3, 4):
        p = indexed("D", 4, j)
        assert p.color(p.maximal_elements()[0]) == j
        seen[j] = p
    assert colored_isomorphism(seen[1], seen[3]) is not None
    assert colored_isomorphism(seen[3], seen[4]) is not None


def test_spin_indices_give_swapped_fork_colors():
    p_n = indexed("D", 6, 6)
    p_n1 = indexed("D", 6, 5)
    assert colored_isomorphism(p_n, p_n1) is not None
    assert p_n.color(p_n.maximal_elements()[0]) == 6
    assert p_n1.color(p_n1.maximal_elements()[0]) == 5


def test_e6_flip():
    e61 = indexed("E", 6, 1)
    e65 = indexed("E", 6, 5)
    assert e65.color(e65.maximal_elements()[0]) == 5
    assert colored_isomorphism(e61, e65) is not None
    assert colored_isomorphism(e61, order_dual(e65)) is not None


def test_top_tree_y():
    y = top_tree_Y(1, 1, 1)
    assert len(y) == 3
    assert len(y.maximal_elements()) == 1
    assert len(y.minimal_elements()) == 2

    y = top_tree_Y(4, 1, 2)
    assert len(y) == 7
    from minuscule.dynkin import recognize_finite_type

    ft = recognize_finite_type(y.diagram)
    assert (ft.letter, ft.rank) == ("E", 7)

    y = top_tree_Y(2, 2, 2)
    assert len(y) == 6
    tree = top_tree(y)
    assert tree.shape() == (2, 2, 2)
    s = tree.splitting_element()
    assert len(covered_by_x(y, s)) == 2

    with pytest.raises(BadParameters):
        top_tree_Y(1, 2, 1)
    with pytest.raises(BadParameters):
        top_tree_Y(0, 1, 1)


def test_top_tree_y_is_own_top_tree_with_s_at_rank_minus_one():
    y = top_tree_Y(3, 2, 4)
    tree = top_tree(y)
    assert set(tree.elements) == set(y.elements)
    ranks = rank_function(y)
    assert ranks[tree.splitting_element()] == -1
    assert ranks[y.maximal_elements()[0]] == -3


def dense_rows(n, adjacent):
    """A pairing table filled cell by cell, as the templates were built before
    they set only the diagonal and the edges."""
    return tuple(
        tuple(2 if a == b else (-1 if adjacent(a, b) else 0) for b in range(1, n + 1))
        for a in range(1, n + 1)
    )


def test_sparse_templates_equal_the_cell_by_cell_tables():
    for n in range(1, 13):
        path = dense_rows(n, lambda a, b: abs(a - b) == 1)
        assert diagram_of_type("A", n).matrix == path
        if n >= 2:
            b = [list(row) for row in path]
            b[n - 2][n - 1] = -2
            assert diagram_of_type("B", n).matrix == tuple(map(tuple, b))
        if n >= 3:
            c = [list(row) for row in path]
            c[n - 1][n - 2] = -2
            assert diagram_of_type("C", n).matrix == tuple(map(tuple, c))
        if n >= 4:
            fork = {n - 1, n}
            assert diagram_of_type("D", n).matrix == dense_rows(n, lambda a, b: (
                {a, b} != fork and (n - 2 in (a, b) if fork & {a, b} else abs(a - b) == 1)
            ))
    for n in (6, 7):
        assert diagram_of_type("E", n).matrix == dense_rows(
            n, lambda a, b: {a, b} == {3, n} or (abs(a - b) == 1 and n not in (a, b))
        )
    for total in range(3, 17):
        for i in range(1, total - 1):
            for j in range(1, (total - i) // 2 + 1):
                k = total - i - j
                # the chain 1..i, whose bottom i covers the chains i+1..i+j and i+j+1..total
                left, right = range(i + 1, i + j + 1), range(i + j + 1, total + 1)
                edges = {frozenset((t, t + 1)) for t in range(1, i)}
                edges |= {frozenset((i, left[0])), frozenset((i, right[0]))}
                edges |= {frozenset((t, t + 1)) for chain in (left, right) for t in chain[:-1]}
                expected = dense_rows(total, lambda a, b: frozenset((a, b)) in edges)
                assert top_tree_Y(i, j, k).diagram.matrix == expected, (i, j, k)
