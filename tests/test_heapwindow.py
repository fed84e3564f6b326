import random
from collections import Counter

import pytest

from minuscule.catalog import BadParameters, FamilyId, all_family_ids, build
from minuscule.heapwindow import PeriodicWindow, cyclic_chain_window, verify_window, window_of
from minuscule.dynkin import DynkinDiagram
from minuscule.poset import ColoredPoset

from helpers import seed_from_env, verify_window_oracle


def by_name(reports):
    return {r.property: r for r in reports}


def test_cyclic_chain_window_passes_everything():
    for n in range(3, 7):
        window = cyclic_chain_window(n, 3)
        assert len(window.poset) == 3 * n
        reports = by_name(verify_window(window))
        for name in ("EC", "NA", "AC", "ICE2", "G3-window"):
            assert reports[name].holds, (n, name, reports[name].witnesses)


def test_cyclic_chain_interior_censuses_are_two():
    window = cyclic_chain_window(3, 3)
    p = window.poset
    for a in p.diagram.colors:
        for x, y in p.induced_covers(p.color_class(a)):
            interval = p.open_interval(x, y)
            if interval & window.boundary:
                continue
            census = sum(-p.diagram.theta(p.color(z), a) for z in interval)
            assert census == 2


def test_cyclic_chain_neighbors_cyclically_adjacent():
    window = cyclic_chain_window(3, 3)
    p = window.poset
    for x, y in p.covers:
        assert p.diagram.adjacent(p.color(x), p.color(y))


def test_finite_catalog_window_fails_g3():
    for fam in [FamilyId("A_exterior", 4, 2), FamilyId("B", 3), FamilyId("E6", 6)]:
        window = window_of(build(fam))
        reports = by_name(verify_window(window))
        assert not reports["G3-window"].holds
    # single-occurrence colors are witnessed directly
    small = by_name(verify_window(window_of(build(FamilyId("A_exterior", 4, 2)))))
    assert any(w.value == 1 for w in small["G3-window"].witnesses)
    # E6 recurs every color, so its only witnesses are the unmarked extremes
    e6 = by_name(verify_window(window_of(build(FamilyId("E6", 6)))))
    assert all("extreme" in w.note for w in e6["G3-window"].witnesses)


def test_window_ec_failure_on_interior_pair():
    d = DynkinDiagram(["a", "b"], [[2, -1], [-1, 2]])
    p = ColoredPoset(d, {1: "a", 2: "a", 3: "b", 4: "b"}, [(1, 3), (2, 4)])
    window = PeriodicWindow(p, frozenset({3, 4}))
    reports = by_name(verify_window(window))
    assert not reports["EC"].holds
    assert reports["EC"].witnesses[0].elements == (1, 2)


def test_growing_window_keeps_interior_passes():
    small = by_name(verify_window(cyclic_chain_window(4, 2)))
    large = by_name(verify_window(cyclic_chain_window(4, 5)))
    for name, report in small.items():
        if report.holds:
            assert large[name].holds


def test_bad_parameters():
    with pytest.raises(BadParameters):
        cyclic_chain_window(2, 3)
    with pytest.raises(BadParameters):
        cyclic_chain_window(3, 1)


def test_window_json_round_trip():
    window = cyclic_chain_window(3, 2)
    data = window.to_json()
    assert data["boundary"] == [0, 5]
    again = PeriodicWindow.from_json(data)
    assert again.boundary == window.boundary
    assert len(again.poset) == len(window.poset)


def _differential_windows():
    rng = random.Random(seed_from_env() + 53)

    def marked(p):
        return frozenset(x for x in p.elements if rng.random() < 0.25)

    for n in range(3, 9):
        for periods in range(2, 5):
            yield cyclic_chain_window(n, periods)
    for fam in all_family_ids(8):
        p = build(fam)
        yield window_of(p)
        for _ in range(3):
            yield PeriodicWindow(p, marked(p))
    for fam in all_family_ids(6):
        p = build(fam)
        for dropped in sorted(p.covers):
            q = ColoredPoset(p.diagram, p.coloring, p.covers - {dropped})
            yield PeriodicWindow(q, marked(q))
    # a cover joining equal colors makes NA and EC fail inside the chain
    for n in range(3, 7):
        w = cyclic_chain_window(n, 3)
        p = w.poset
        for m in (1, n + 1):
            coloring = {x: p.color(m + 1) if x == m else c for x, c in p.coloring.items()}
            q = ColoredPoset(p.diagram, coloring, p.covers)
            yield PeriodicWindow(q, w.boundary)
            yield PeriodicWindow(q, marked(q))


def test_verify_window_matches_oracle():
    failing = Counter()
    for w in _differential_windows():
        got, want = verify_window(w), verify_window_oracle(w)
        assert [r.property for r in got] == [r.property for r in want]
        for r, o in zip(got, want):
            assert r.holds == o.holds, (r.property, w.to_json())
            assert Counter((v.elements, v.value) for v in r.witnesses) == Counter(
                (v.elements, v.value) for v in o.witnesses
            ), (r.property, w.to_json())
        assert got[-1].to_json() == want[-1].to_json()
        failing.update(r.property for r in got[:-1] if not r.holds)
    assert set(failing) == {"EC", "NA", "AC", "ICE2"}, failing
