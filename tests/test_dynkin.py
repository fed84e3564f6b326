import random

import pytest

from minuscule.catalog import diagram_of_type, minuscule_indices, top_tree_Y
from minuscule.dynkin import (
    AsymmetricZero,
    DiagonalNotTwo,
    DiagramError,
    DynkinDiagram,
    NotConnected,
    PositiveOffDiagonal,
    is_acyclic,
    is_simply_laced,
    recognize_finite_type,
)

from helpers import (
    automorphisms,
    differential_posets,
    random_diagram,
    seed_from_env,
    validate_oracle,
)


def a4():
    return diagram_of_type("A", 4)


def test_validate_a4_path():
    d = a4()
    assert d.theta(1, 2) == -1
    assert d.theta(1, 3) == 0
    assert d.adjacent(2, 3)
    assert d.distant(1, 4)


def test_validate_rejects_asymmetric_zero():
    with pytest.raises(AsymmetricZero) as exc:
        DynkinDiagram(["a", "b"], [[2, 0], [-1, 2]])
    assert "'a'" in str(exc.value) and "'b'" in str(exc.value)


def test_validate_rejects_bad_diagonal_and_positive():
    with pytest.raises(DiagonalNotTwo):
        DynkinDiagram(["a"], [[1]])
    with pytest.raises(PositiveOffDiagonal):
        DynkinDiagram(["a", "b"], [[2, 1], [1, 2]])


def test_validate_accepts_b2_edge():
    d = DynkinDiagram(["a", "b"], [[2, -2], [-1, 2]])
    assert not is_simply_laced(d)


def test_simply_laced():
    assert is_simply_laced(a4())
    assert not is_simply_laced(diagram_of_type("B", 3))
    assert is_simply_laced(DynkinDiagram(["a"], [[2]]))


def test_acyclic():
    assert is_acyclic(a4())
    triangle = DynkinDiagram(
        ["a", "b", "c"], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    )
    assert not is_acyclic(triangle)


def test_cyclic_affine_a_shape_not_finite_type():
    """No cycle, single or with a double edge, bare or with a tail of one or
    two colors hung on it, has a finite type."""
    for n in (3, 4, 5):
        for double in (False, True):
            for tail in (0, 1, 2):
                size = n + tail
                rows = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
                edges = [(i, (i + 1) % n) for i in range(n)]
                edges += [(n + t - 1 if t else 0, n + t) for t in range(tail)]
                for i, j in edges:
                    rows[i][j] = rows[j][i] = -1
                if double:
                    rows[0][1] = -2
                cycle = DynkinDiagram(list(range(size)), rows)
                assert not is_acyclic(cycle)
                assert recognize_finite_type(cycle) is None, (n, double, tail)


def test_recognize_paths_and_templates():
    """Every Kac-numbered catalog diagram through rank 12 is typed with the
    identity numbering, and a copy with renamed colors listed in random order
    with an isomorphism onto it."""
    assert len(automorphisms(diagram_of_type("A", 5))) == 2
    rng = random.Random(seed_from_env() + 60)
    for letter, n in sorted({(letter, n) for letter, n, _ in minuscule_indices(12)}):
        template = diagram_of_type(letter, n)
        ft = recognize_finite_type(template)
        assert (ft.letter, ft.rank) == (letter, n)
        assert ft.numbering_map == {i: i for i in range(1, n + 1)}
        order = rng.sample(range(n), n)
        names = [f"x{i}" for i in order]
        m = template.matrix
        copy = DynkinDiagram(names, [[m[a][b] for b in order] for a in order])
        ft = recognize_finite_type(copy)
        nu = ft.numbering_map
        assert (ft.letter, ft.rank) == (letter, n)
        assert all(copy.theta(a, b) == template.theta(nu[a], nu[b]) for a in names for b in names)


def test_recognize_b3_from_decorated_edge():
    # path with one (2,1)-decorated edge at an end plus one single edge
    d = DynkinDiagram(
        ["a", "b", "c"],
        [
            [2, -1, 0],
            [-2, 2, -1],
            [0, -1, 2],
        ],
    )
    ft = recognize_finite_type(d)
    assert (ft.letter, ft.rank) == ("B", 3)
    assert ft.numbering_map["a"] == 3  # the short end carries the top number


def test_recognize_respects_edge_direction_for_c():
    d = DynkinDiagram(
        ["a", "b", "c"],
        [
            [2, -2, 0],
            [-1, 2, -1],
            [0, -1, 2],
        ],
    )
    ft = recognize_finite_type(d)
    assert (ft.letter, ft.rank) == ("C", 3)
    assert ft.numbering_map["a"] == 3


def test_recognize_requires_connected():
    two = DynkinDiagram(["a", "b"], [[2, 0], [0, 2]])
    with pytest.raises(NotConnected):
        recognize_finite_type(two)


def test_recognize_rejects_middle_double_edge_and_e8_shape():
    f4ish = DynkinDiagram(
        ["a", "b", "c", "d"],
        [
            [2, -1, 0, 0],
            [-1, 2, -2, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2],
        ],
    )
    assert recognize_finite_type(f4ish) is None
    # arms (4,2,1) are not on the template list
    edges = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)}
    rows = [
        [
            2 if i == j else (-1 if (i, j) in edges or (j, i) in edges else 0)
            for j in range(1, 9)
        ]
        for i in range(1, 9)
    ]
    assert recognize_finite_type(DynkinDiagram(list(range(1, 9)), rows)) is None


def test_automorphism_counts_match_catalog():
    expected = {
        ("A", 1): 1,
        ("A", 4): 2,
        ("B", 2): 1,
        ("B", 4): 1,
        ("C", 3): 1,
        ("D", 4): 6,
        ("D", 5): 2,
        ("D", 7): 2,
        ("E", 6): 2,
        ("E", 7): 1,
    }
    for (letter, n), count in expected.items():
        assert len(automorphisms(diagram_of_type(letter, n))) == count, (letter, n)


def test_json_round_trip_is_identity():
    rng = random.Random(seed_from_env())
    for _ in range(25):
        d = random_diagram(rng, rng.randint(1, 5))
        again = DynkinDiagram.from_json(d.to_json())
        relabeled = {str(c): c for c in d.colors}
        assert [relabeled[c] for c in again.colors] == list(d.colors)
        assert again.matrix == d.matrix


def test_simply_laced_tables_are_symmetric():
    rng = random.Random(seed_from_env() + 1)
    for _ in range(50):
        d = random_diagram(rng, rng.randint(1, 5))
        if is_simply_laced(d):
            m = d.matrix
            assert all(
                m[i][j] == m[j][i]
                for i in range(len(d))
                for j in range(len(d))
            )


def test_dot_export_mentions_decorations():
    dot = diagram_of_type("B", 2).to_dot()
    assert "digraph" in dot and 'label="2"' in dot and 'label="1"' in dot


def outcome(build, colors, table):
    """The diagram built, or the type and message of the error raised."""
    try:
        return build(colors, table)
    except DiagramError as exc:
        return type(exc), str(exc)


def test_validator_names_the_same_first_violation_as_the_full_scan():
    # an asymmetric zero in row 0 comes before a bad diagonal in a later row
    table = [[2, 0, -1], [-1, 2, 0], [-1, 0, 5]]
    assert outcome(DynkinDiagram, "abc", table) == (
        AsymmetricZero, "theta['a']['b'] = 0 but theta['b']['a'] = -1"
    )
    assert outcome(DynkinDiagram, "abc", [[2, -1, 0], [-1, 3, 1], [0, 0, 2]])[0] is DiagonalNotTwo
    assert outcome(DynkinDiagram, "ab", [[2, 1], [0, 2]])[0] is PositiveOffDiagonal
    assert outcome(DynkinDiagram, "ab", [[2, -1], [-1]])[0] is DiagramError
    assert outcome(DynkinDiagram, "aa", [[2, -1], [-1, 2]])[0] is DiagramError
    rng = random.Random(seed_from_env() + 40)
    kinds = set()
    for _ in range(600):
        d = random_diagram(rng, rng.randint(1, 7))
        table = [list(row) for row in d.matrix]
        n = len(table)
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = rng.choice([-2, -1, 0, 1, 2, 3])
        got = outcome(DynkinDiagram, d.colors, table)
        assert got == outcome(validate_oracle, d.colors, table), table
        kinds.add(got[0] if isinstance(got, tuple) else DynkinDiagram)
    assert kinds == {DynkinDiagram, DiagonalNotTwo, PositiveOffDiagonal, AsymmetricZero}


def test_validate_refuses_entries_that_are_not_exact_ints():
    assert outcome(DynkinDiagram, "ab", [[2, -1.7], [-1, 2.9]]) == (
        DiagramError, "theta['a']['b'] = -1.7 is not an integer"
    )
    assert outcome(DynkinDiagram, "ab", [[2, -1], [True, 2]]) == (
        DiagramError, "theta['b']['a'] = True is not an integer"
    )
    assert outcome(DynkinDiagram, "a", [["2"]]) == (DiagramError, "theta['a']['a'] = '2' is not an integer")
    # a non-int cell comes before duplicate colors; one outside the square is
    # refused as the shape it breaks
    for colors, table, message in [
        ("aa", [[2, None], [-1, 2]], "theta['a']['a'] = None is not an integer"),
        ("ab", [[2, -1, True], [-1, 2]], "pairing table is not square over the color set"),
        ("ab", [[2, -1], [-1, 2], [0.5]], "pairing table is not square over the color set"),
        ("ab", [[2, [-1]], [-1]], "theta['a']['b'] = [-1] is not an integer"),
    ]:
        got = outcome(DynkinDiagram, colors, table)
        assert got == outcome(validate_oracle, colors, table) == (DiagramError, message)
    # a non-int is named before any other violation, as the oracle names it
    rng = random.Random(seed_from_env() + 42)
    kinds = set()
    for _ in range(300):
        d = random_diagram(rng, rng.randint(1, 6))
        table = [list(row) for row in d.matrix]
        n = len(table)
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = rng.choice([-1, 0, 1, 2, -1.0, 2.0, False, True, "2", None])
        colors = list(d.colors)
        # sometimes a row one cell long or short, or a color listed twice
        shape, i = rng.randrange(6), rng.randrange(n)
        if shape == 0:
            table[i].append(rng.choice([0, True, 2.0]))
        elif shape == 1:
            table[i].pop()
        elif shape == 2 and n > 1:
            colors[i] = colors[i - 1]
        got = outcome(DynkinDiagram, colors, table)
        assert got == outcome(validate_oracle, colors, table), (colors, table)
        kinds.add(got[1].endswith("is not an integer") if isinstance(got, tuple) else None)
    assert kinds == {None, True, False}


def test_sparse_structure_equals_the_dense_tables():
    rng = random.Random(seed_from_env() + 41)
    for _ in range(200):
        d = random_diagram(rng, rng.randint(1, 8), multiply_laced=rng.random() < 0.5)
        n, m = len(d), d.matrix
        assert is_simply_laced(d) == all(v in (-1, 0, 2) for row in m for v in row)
        edges = sum(1 for i in range(n) for j in range(i + 1, n) if m[i][j])
        assert is_acyclic(d) == (edges == n - len(d.components()))
        for a in d.colors:
            assert tuple(d.neighbors(a)) == tuple(b for b in d.colors if b != a and d.theta(a, b) < 0)
        keep = [c for c in d.colors if rng.random() < 0.6]
        sub = d.restrict(keep)
        assert sub.matrix == tuple(tuple(d.theta(a, b) for b in keep) for a in keep)



def diagrams_of_every_source(rng):
    """The catalog templates through rank 12, Y seeds, the diagrams of
    `differential_posets`, random diagrams, and a random restriction of
    each of them."""
    out = [diagram_of_type(letter, n) for letter, n in sorted({i[:2] for i in minuscule_indices(12)})]
    out += [top_tree_Y(i, j, k).diagram for i in (1, 2, 5) for j in (1, 2) for k in (2, 4)]
    out += [p.diagram for p in differential_posets(rng)]
    out += [random_diagram(rng, rng.randint(1, 8), multiply_laced=rng.random() < 0.5) for _ in range(100)]
    return out + [d.restrict([c for c in d.colors if rng.random() < 0.6]) for d in out]


def test_dense_and_pairing_constructors_give_one_diagram():
    rng = random.Random(seed_from_env() + 43)
    diagrams = diagrams_of_every_source(rng)
    # the hash reads the pairings, so it tells most distinct diagrams apart;
    # not all, since hash(-1) == hash(-2) in CPython
    distinct = set(diagrams)
    assert len({hash(d) for d in distinct}) > 0.8 * len(distinct)
    for d in diagrams:
        pairings = [(a, b, v) for a in d.colors for b, v in d.pairings(a)]
        rng.shuffle(pairings)
        sparse = DynkinDiagram.from_pairings(d.colors, pairings)
        dense = DynkinDiagram(d.colors, d.matrix)
        assert sparse == dense == d and hash(sparse) == hash(dense) == hash(d), d.colors
        assert sparse.matrix == d.matrix
        assert [tuple(sparse.neighbors(a)) for a in d.colors] == [tuple(dense.neighbors(a)) for a in d.colors]
        # JSON names every color by its string
        named = DynkinDiagram([str(c) for c in d.colors], d.matrix)
        again = DynkinDiagram.from_json(d.to_json())
        assert again == named and hash(again) == hash(named)
        assert (again == d) == all(type(c) is str for c in d.colors)
        if pairings:
            # one pairing changed, or the colors listed in another order, is
            # another diagram
            a, b, v = pairings[0]
            table = [list(row) for row in d.matrix]
            table[d.index(a)][d.index(b)] = v - 1
            assert DynkinDiagram(d.colors, table) != d
            order = d.colors[::-1]
            m = d.matrix
            flipped = [[m[d.index(x)][d.index(y)] for y in order] for x in order]
            assert DynkinDiagram(order, flipped) != d


def test_the_pairing_constructor_refuses_what_is_not_a_diagram():
    for colors, pairings in [
        ("ab", [("a", "b", -1)]),  # no mirror
        ("ab", [("a", "b", -1), ("b", "a", 0)]),  # a zero listed as a pairing
        ("ab", [("a", "b", 1), ("b", "a", -1)]),
        ("ab", [("a", "a", -1)]),
        ("aa", []),
    ]:
        with pytest.raises(DiagramError):
            DynkinDiagram.from_pairings(colors, pairings)
    with pytest.raises(KeyError):
        DynkinDiagram.from_pairings("ab", [("a", "c", -1), ("c", "a", -1)])
    d = DynkinDiagram.from_pairings("abc", [("c", "a", -2), ("a", "c", -1)])
    assert d.matrix == ((2, 0, -1), (0, 2, 0), (-2, 0, 2)) and tuple(d.neighbors("a")) == ("c",)
