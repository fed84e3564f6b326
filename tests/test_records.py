"""
The record classes of ``minuscule`` are named tuples: immutable, equal and
hashed by their fields, and shown as ``Name(field=value, ...)``.  A record
also equals the plain tuple of its values, and ``_replace`` makes a changed
copy.
"""

import importlib
import pathlib

import pytest

from minuscule.catalog import BadParameters, FamilyId, build, top_tree_Y
from minuscule.classify import classify
from minuscule.coroots import psi
from minuscule.dynkin import DynkinDiagram, recognize_finite_type
from minuscule.extension import run_extension
from minuscule.heapwindow import cyclic_chain_window, verify_window, window_of
from minuscule.poset import ColoredPoset
from minuscule.representation import operator_maps, splits, verify_relations

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minuscule"


def records() -> dict[str, tuple]:
    """One instance of every record class."""
    b3 = build(FamilyId("B", 3))
    # a whole poset as a window fails the window chain axiom at its extremes
    window = verify_window(window_of(b3))[-1]
    # on the chain 2 < 1 of B2, X_2 lowers h_1 by 1 where theta(2, 1) is -2
    double_bond = DynkinDiagram(["1", "2"], [[2, -1], [-2, 2]])
    report = verify_relations(ColoredPoset(double_bond, {1: "2", 2: "1"}, [(1, 2)]))
    outcome = run_extension(top_tree_Y(1, 1, 2))
    classification = classify(b3)
    found = [
        ("Witness", window.witnesses[0]),
        ("AxiomReport", window),
        ("FamilyId", FamilyId("A_exterior", 5, 2)),
        ("ComponentClassification", classification.components[0]),
        ("Classification", classification),
        ("PsiRealization", psi(b3)),
        ("FiniteTypeId", recognize_finite_type(b3.diagram)),
        ("Assessment", outcome.reason),
        ("StageRecord", outcome.trace[0]),
        ("ExtensionOutcome", outcome),
        ("PeriodicWindow", cyclic_chain_window(3, 2)),
        ("Split", splits(b3)[1]),
        ("OperatorMaps", operator_maps(b3)),
        ("RelationCheck", report.failures()[0]),
        ("RelationReport", report),
    ]
    return dict(found)


NAMES = list(records())


def record_classes() -> set[str]:
    """Every class a module of the package defines that is a named tuple."""
    found = set()
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"minuscule.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if issubclass(value, tuple) and hasattr(value, "_fields"):
                    found.add(name)
    return found


def test_the_instances_cover_every_record_class():
    assert len(NAMES) == 15
    assert record_classes() == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_a_record_is_frozen_equal_by_its_fields_and_shown_by_them(name):
    first = records()[name]
    second = type(first)(**first._asdict())
    assert type(first).__name__ == name
    with pytest.raises(AttributeError):
        setattr(first, first._fields[0], None)
    with pytest.raises(AttributeError):
        first.extra = None
    assert first == second and first is not second
    assert first == tuple(first)
    assert first._replace() == first
    try:
        hash(first)
    except TypeError:
        pass
    else:
        assert hash(first) == hash(second)
    shown = ", ".join(f"{field}={getattr(first, field)!r}" for field in first._fields)
    assert repr(first) == f"{name}({shown})"


@pytest.mark.parametrize("args", [("Z",), ("B", 1), ("A_exterior", 4, 0)])
def test_a_family_id_checks_its_parameters(args):
    with pytest.raises(BadParameters):
        FamilyId(*args)


def test_a_family_id_checks_its_parameters_on_replace():
    with pytest.raises(BadParameters):
        FamilyId("B", 3)._replace(n=1)
    assert FamilyId("B", 3)._replace(n=4) == FamilyId("B", 4)


def test_family_ids_order_by_their_fields():
    d_standard, d_spin, b4, b3 = ids = [
        FamilyId("D_standard", 5), FamilyId("D_spin", 5), FamilyId("B", 4), FamilyId("B", 3)
    ]
    assert sorted(ids) == [b3, b4, d_spin, d_standard]
    # sort_key follows the order of FAMILIES instead
    assert sorted(ids, key=FamilyId.sort_key) == [b3, b4, d_standard, d_spin]
