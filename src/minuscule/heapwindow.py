"""
Finite convex windows of periodic colored posets.

Infinite posets never appear as values; a window is a finite colored poset
plus boundary marks on the elements whose ambient neighborhoods were
truncated.  EC, NA, AC and ICE2 are the `axioms` reports with the witnesses
that reach the boundary dropped: for EC, NA and AC a witness containing a
marked element, for ICE2 one whose open interval meets a mark.  The window
form of the "every color class looks like the integers" axiom asks each
class to be a chain that recurs at least twice.  Frontier census bounds are
deliberately not checked; they hold vacuously for the unbounded posets the
windows stand in for.
"""

from __future__ import annotations

from typing import NamedTuple

from .axioms import AxiomReport, Witness, check
from .catalog import BadParameters
from .dynkin import DynkinDiagram
from .poset import ColoredPoset, PosetError

__all__ = ["PeriodicWindow", "verify_window", "cyclic_chain_window", "window_of"]


class PeriodicWindow(NamedTuple):
    poset: ColoredPoset
    boundary: frozenset[int]

    def to_json(self) -> dict:
        data = self.poset.to_json()
        data["boundary"] = sorted(self.boundary)
        return data

    @staticmethod
    def from_json(data) -> "PeriodicWindow":
        poset = ColoredPoset.from_json(data)
        boundary = data.get("boundary", [])
        if not isinstance(boundary, list) or not all(
            type(x) is int and x in poset.coloring for x in boundary
        ):
            raise PosetError("boundary must be a list of element ids")
        return PeriodicWindow(poset, frozenset(boundary))


def window_of(poset: ColoredPoset) -> PeriodicWindow:
    """Wrap a complete finite poset as a window.  Nothing is truncated, so the
    boundary is empty; the window chain axiom then fails at the poset's own
    extremes."""
    return PeriodicWindow(poset, frozenset())


def verify_window(w: PeriodicWindow) -> list[AxiomReport]:
    """Interior comparability and census checks plus the window chain axiom."""
    p = w.poset
    ec = check(p, "EC")

    def interior(report: AxiomReport, reach=lambda v: v.elements) -> AxiomReport:
        witnesses = tuple(v for v in report.witnesses if w.boundary.isdisjoint(reach(v)))
        return AxiomReport(report.property, not witnesses, witnesses)

    reports = [
        interior(ec),
        interior(check(p, "NA")),
        interior(check(p, "AC")),
        # an ICE2 witness names the endpoints; its open interval must avoid the marks
        interior(check(p, "ICE2"), lambda v: p.open_interval(*v.elements)),
    ]

    # every incomparable same-colored pair breaks a class chain, boundary or not
    unchained = {a: [] for a in p.diagram.colors}
    for v in ec.witnesses:
        unchained[p.color(v.elements[0])].append(v.elements)
    g3 = []
    for a, pairs in unchained.items():
        cls = p.color_class(a)
        if len(cls) < 2:
            g3.append(Witness(cls, value=len(cls), note=f"color {a!r} occurs fewer than twice"))
        g3 += [Witness(pair, note=f"color class {a!r} is not a chain") for pair in pairs]
    # the classes stand in for copies of the integers, so the window's extreme
    # elements must sit at the truncation boundary; an unmarked extreme
    # witnesses a genuinely bounded class
    for x in p.maximal_elements() + p.minimal_elements():
        if x not in w.boundary:
            g3.append(Witness((x,), note="window extreme is not boundary-marked"))
    reports.append(AxiomReport("G3-window", not g3, tuple(g3)))
    return reports


def cyclic_chain_window(n: int, periods: int) -> PeriodicWindow:
    """
    A window of the infinite chain colored cyclically by n colors: n * periods
    elements, element m colored m mod n, over the n-node cycle diagram with
    single edges.  The chain's two ends carry the boundary marks.
    """
    if n < 3:
        raise BadParameters("the cyclic diagram needs at least 3 colors")
    if periods < 2:
        raise BadParameters("need at least 2 periods")
    # the n edges of the cycle, each pairing -1 both ways
    diagram = DynkinDiagram.from_pairings(
        range(n), [(i, (i + s) % n, -1) for i in range(n) for s in (1, -1)]
    )
    total = n * periods
    coloring = {m: m % n for m in range(total)}
    covers = [(m, m + 1) for m in range(total - 1)]
    poset = ColoredPoset(diagram, coloring, covers)
    return PeriodicWindow(poset, frozenset({0, total - 1}))
