import contextlib
import io
import random
import sys
from collections import Counter

import pytest

from minuscule import coroots
from minuscule.catalog import FamilyId, build, diagram_of_type, indexed, minuscule_indices
from minuscule.coroots import (
    CorootSystem,
    NotFiniteType,
    NotMinusculeInput,
    NotReduced,
    coroot_filter,
    coroot_poset,
    coroot_system,
    heap_to_word,
    highest_coroot,
    inversion_sequence,
    positive_coroots,
    psi,
)
from minuscule.cli import run
from minuscule.dynkin import DynkinDiagram
from minuscule.poset import first_linear_extension, order_dual

from helpers import (
    coroot_covers_oracle,
    inversion_set_oracle,
    linear_extensions,
    positive_coroots_oracle,
    psi_oracle,
    seed_from_env,
)


A4 = diagram_of_type("A", 4)


def test_simple_reflection_examples():
    reflect = coroot_system(A4).reflect
    assert reflect(1, (1, 0, 0, 0)) == (-1, 0, 0, 0)
    assert reflect(2, (1, 0, 0, 0)) == (1, 1, 0, 0)
    # distant support is fixed
    assert reflect(4, (1, 1, 0, 0)) == (1, 1, 0, 0)
    # involution
    rng = random.Random(seed_from_env() + 30)
    for _ in range(20):
        beta = tuple(rng.randint(-2, 2) for _ in range(4))
        i = rng.randint(1, 4)
        assert reflect(i, reflect(i, beta)) == beta


def test_positive_coroot_counts():
    assert len(positive_coroots(A4)) == 10
    counts = {
        ("A", 5): 15,
        ("B", 3): 9,
        ("C", 4): 16,
        ("D", 5): 20,
        ("E", 6): 36,
        ("E", 7): 63,
    }
    for (letter, n), expected in counts.items():
        assert len(positive_coroots(diagram_of_type(letter, n))) == expected


def test_highest_coroot_heights_by_type():
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


def test_positive_coroots_match_oracle():
    ranks = (
        [("A", n) for n in range(1, 31)]
        + [("B", n) for n in range(2, 13)]
        + [("C", n) for n in range(3, 13)]
        + [("D", n) for n in range(4, 13)]
        + [("E", 6), ("E", 7)]
    )
    for letter, n in ranks:
        diagram = diagram_of_type(letter, n)
        expected = positive_coroots_oracle(CorootSystem(diagram))
        assert CorootSystem(diagram).positive_coroots() == expected, (letter, n)


def test_rank_one():
    d = diagram_of_type("A", 1)
    assert positive_coroots(d) == ((1,),)
    assert coroot_filter(d, 1) == ((1,),)


def test_a4_filter_at_two():
    expected = {
        (0, 1, 0, 0),
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (1, 1, 1, 0),
        (0, 1, 1, 1),
        (1, 1, 1, 1),
    }
    filt = coroot_filter(A4, 2)
    assert set(filt) == expected
    assert filt[0] == (0, 1, 0, 0)
    assert filt[-1] == (1, 1, 1, 1)


def test_leaf_filter_is_chain():
    for n in (3, 5):
        filt = coroot_filter(diagram_of_type("A", n), 1)
        assert len(filt) == n
        for a, b in zip(filt, filt[1:]):
            assert all(x <= y for x, y in zip(a, b))


def test_not_finite_type():
    n = 4
    rows = [
        [2 if i == j else (-1 if (i - j) % n in (1, n - 1) else 0) for j in range(n)]
        for i in range(n)
    ]
    from minuscule.dynkin import DynkinDiagram

    cycle = DynkinDiagram(list(range(n)), rows)
    with pytest.raises(NotFiniteType):
        CorootSystem(cycle)


def test_heap_to_word_examples():
    p = indexed("A", 4, 2)
    top = p.maximal_elements()[0]
    assert heap_to_word(p, top) == (2,)

    z = p.minimal_elements()[0]
    word = heap_to_word(p, z)
    assert word == (3, 4, 2, 3, 1, 2)
    assert word[-1] == 2  # every word ends with the maximal color

    for x in p.elements:
        assert len(heap_to_word(p, x)) == len(p.up_set(x))


def test_inversion_sequence_anchor():
    word = (3, 4, 2, 3, 1, 2)
    seq = inversion_sequence(A4, word)
    assert seq[0] == (0, 1, 0, 0)
    assert seq[-1] == (1, 1, 1, 1)
    assert len(seq) == 6
    assert frozenset(seq) == inversion_set_oracle(A4, word)


def test_inversion_sequence_rejects_non_reduced():
    with pytest.raises(NotReduced):
        inversion_sequence(A4, (1, 1))
    with pytest.raises(NotReduced):
        inversion_sequence(A4, (1, 2, 1, 2, 1, 2))
    for word in [(0,), (5,), (1, -1)]:  # letters that name no node
        with pytest.raises(NotReduced):
            inversion_sequence(A4, word)


def test_inversion_sequence_matches_oracle_on_heap_words():
    rng = random.Random(seed_from_env() + 31)
    for (letter, n, j) in [("A", 4, 2), ("B", 3, 3), ("C", 3, 1), ("D", 5, 1)]:
        p = indexed(letter, n, j)
        d = p.diagram
        for _ in range(6):
            x = rng.choice(p.elements)
            word = heap_to_word(p, x)
            seq = inversion_sequence(d, word)
            assert len(seq) == len(set(seq)) == len(word)
            assert frozenset(seq) == inversion_set_oracle(d, word)


def test_inversion_sequence_refuses_exactly_the_non_reduced_words():
    # all-positive entries make a word reduced, and a reduced word's entries
    # are its inversion set, so no repeat check is needed
    rng = random.Random(seed_from_env() + 32)
    for letter, n in [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("E", 7)]:
        d = diagram_of_type(letter, n)
        for _ in range(150):
            word = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 12)))
            expected = inversion_set_oracle(d, word)
            if len(expected) < len(word):
                with pytest.raises(NotReduced):
                    inversion_sequence(d, word)
            else:
                seq = inversion_sequence(d, word)
                assert len(set(seq)) == len(word) and frozenset(seq) == expected, (letter, n, word)


def test_inversion_set_of_psi_word_is_the_filter():
    # the whole word sends exactly the filter negative, so every positive
    # coroot outside it stays positive: psi's certificate by argument
    for letter, n, j in minuscule_indices(8):
        p = indexed(letter, n, j)
        numbering = CorootSystem(p.diagram).type.numbering_map
        word = tuple(numbering[p.color(z)] for z in first_linear_extension(p))
        assert psi(p).j == j
        assert inversion_set_oracle(p.diagram, word) == frozenset(coroot_filter(p.diagram, j)), (letter, n, j)


def test_coroots_verb_scans_for_the_filter_once(monkeypatch):
    callers = Counter()
    original = CorootSystem.positive_coroots

    def counted(self):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(self)

    monkeypatch.setattr(coroots, "_SYSTEMS", {})
    monkeypatch.setattr(CorootSystem, "positive_coroots", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["coroots", "--type", "B", "--n", "8", "--j", "8"]) == 0
    assert callers == {"cmd_coroots": 1, "highest_coroot": 1, "filter_at": 1}


def test_word_set_independent_of_linear_extension():
    p = indexed("A", 4, 2)
    d = p.diagram
    z = p.minimal_elements()[0]
    finals = set()
    sets = set()
    for ext in linear_extensions(p):
        word = tuple(p.color(e) for e in ext)
        seq = inversion_sequence(d, word)
        finals.add(seq[-1])
        sets.add(frozenset(seq))
    assert finals == {(1, 1, 1, 1)}
    assert len(sets) == 1


def test_psi_a4_anchor():
    p = indexed("A", 4, 2)
    real = psi(p)
    top = p.maximal_elements()[0]
    bottom = p.minimal_elements()[0]
    assert real.j == 2
    assert real.assignment[top] == (0, 1, 0, 0)
    assert real.assignment[bottom] == (1, 1, 1, 1)
    assert len(set(real.assignment.values())) == 6
    colors = [real.coloring_of(b) for b in coroot_filter(A4, 2)]
    assert colors == [2, 1, 3, 2, 4, 3]


def test_psi_single_element():
    real = psi(indexed("A", 1, 1))
    assert list(real.assignment.values()) == [(1,)]


def test_psi_is_order_reversing():
    p = indexed("D", 5, 5)
    real = psi(p)
    for x in p.elements:
        for y in p.elements:
            if p.leq(x, y):
                gx, gy = real.assignment[x], real.assignment[y]
                assert all(a >= b for a, b in zip(gx, gy))


def test_psi_b2_succeeds_on_coroots():
    real = psi(indexed("B", 2, 2))
    assert sorted(real.assignment.values()) == [(0, 1), (1, 1), (2, 1)]
    from minuscule.axioms import is_minuscule

    assert is_minuscule(real.coroot_poset)[0]


def test_psi_minimal_element_exhausts_filter():
    for (letter, n, j) in [("A", 5, 3), ("B", 4, 4), ("C", 4, 1), ("D", 6, 6), ("E", 6, 1)]:
        p = indexed(letter, n, j)
        real = psi(p)
        bottom = p.minimal_elements()[0]
        word = heap_to_word(p, bottom)
        assert len(word) == len(coroot_filter(p.diagram, real.j))
        assert real.assignment[bottom] == highest_coroot(p.diagram)


def test_psi_matches_per_element_oracle():
    posets = [indexed(letter, n, j) for letter, n, j in minuscule_indices(8)]
    posets += [build(FamilyId("B", 12)), build(FamilyId("D_spin", 12))]
    for p in posets:
        real, expected = psi(p), psi_oracle(p)
        assert real.j == expected.j
        assert real.assignment == expected.assignment
        assert real.coroot_ids == expected.coroot_ids
        assert real.coroot_poset == expected.coroot_poset


def test_psi_refuses_an_assignment_that_breaks_the_order(monkeypatch):
    # swapping the top's coroot with the bottom's keeps a bijection onto the
    # filter, so only the cover certificate stands in the way
    p = indexed("A", 4, 2)

    def swapped(diagram, word):
        seq = list(inversion_sequence(diagram, word))
        seq[0], seq[-1] = seq[-1], seq[0]
        return tuple(seq)

    monkeypatch.setattr("minuscule.coroots.inversion_sequence", swapped)
    with pytest.raises(AssertionError, match="psi not order reversing"):
        psi(p)


def test_psi_rejects_bad_inputs():
    from minuscule.extension import run_extension
    from minuscule.catalog import top_tree_Y

    blocked = run_extension(top_tree_Y(2, 2, 2)).poset
    with pytest.raises(NotMinusculeInput):
        psi(blocked)


def test_psi_all_small_indices():
    for (letter, n, j) in minuscule_indices(5):
        real = psi(indexed(letter, n, j))
        from minuscule.axioms import is_minuscule

        ok, _ = is_minuscule(real.coroot_poset)
        assert ok, (letter, n, j)


def test_coroot_poset_covers_match_triple_scan():
    for (letter, n, j) in minuscule_indices(8):
        diagram = diagram_of_type(letter, n)
        members = coroot_filter(diagram, j)
        # any surjective coloring: only the covers are compared
        coloring = {beta: diagram.colors[k % n] for k, beta in enumerate(members)}
        cposet, ids = coroot_poset(diagram, j, coloring)
        coroot_of = {i: beta for beta, i in ids.items()}
        covers = {(coroot_of[x], coroot_of[y]) for x, y in cposet.covers}
        assert covers == coroot_covers_oracle(diagram, j), (letter, n, j)


def test_inversion_sets_are_ideals_of_the_filter_with_unique_max():
    for (letter, n, j) in [("A", 4, 2), ("D", 5, 5), ("E", 6, 1)]:
        p = indexed(letter, n, j)
        real = psi(p)
        filt = set(coroot_filter(p.diagram, real.j))
        for x in p.elements:
            seq = inversion_sequence(p.diagram, heap_to_word(p, x))
            chunk = set(seq)
            assert chunk <= filt
            # downward closed inside the filter: nothing outside sits below it
            for beta in filt - chunk:
                assert not any(
                    all(a <= b for a, b in zip(beta, g)) for g in chunk
                ), "inversion set is not an ideal of the filter"
            maxima = [
                g
                for g in chunk
                if not any(g != h and all(a <= b for a, b in zip(g, h)) for h in chunk)
            ]
            assert maxima == [real.assignment[x]]


def test_row_support_equals_the_dense_kac_ordered_table():
    # colors renamed and listed in a random order, so neither the names nor
    # the construction order follow the Kac numbering
    rng = random.Random(seed_from_env() + 22)
    for letter, n in sorted({(letter, n) for letter, n, _ in minuscule_indices(12)}):
        d = diagram_of_type(letter, n)
        order = list(range(n))
        rng.shuffle(order)
        colors = tuple(f"c{rng.randrange(10**6)}:{i}" for i in order)
        m = d.matrix
        matrix = tuple(tuple(m[i][j] for j in order) for i in order)
        relabeled = DynkinDiagram(colors, matrix)
        system = CorootSystem(relabeled)
        by_node = sorted(colors, key=system.type.numbering_map.__getitem__)
        table = [[relabeled.theta(a, b) for b in by_node] for a in by_node]
        expected = [[(j, v) for j, v in enumerate(row) if v] for row in table]
        assert system._row_support == expected, (letter, n)
