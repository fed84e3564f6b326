"""Exact-arithmetic toolkit for colored d-complete and minuscule posets."""

from .dynkin import DynkinDiagram, FiniteTypeId, recognize_finite_type
from .poset import ColoredPoset, colored_isomorphism, order_dual, top_tree
from .axioms import check, is_d_complete, is_dominant_minuscule_heap, is_minuscule
from .catalog import FamilyId, build, indexed, top_tree_Y
from .extension import run_extension
from .classify import classify, classify_connected
from .representation import build_operators, splits, verify_relations
from .coroots import coroot_filter, heap_to_word, inversion_sequence, positive_coroots, psi
from .heapwindow import PeriodicWindow, cyclic_chain_window, verify_window

__all__ = [
    "DynkinDiagram",
    "FiniteTypeId",
    "recognize_finite_type",
    "ColoredPoset",
    "colored_isomorphism",
    "order_dual",
    "top_tree",
    "check",
    "is_d_complete",
    "is_dominant_minuscule_heap",
    "is_minuscule",
    "FamilyId",
    "build",
    "indexed",
    "top_tree_Y",
    "run_extension",
    "classify",
    "classify_connected",
    "build_operators",
    "splits",
    "verify_relations",
    "coroot_filter",
    "heap_to_word",
    "inversion_sequence",
    "positive_coroots",
    "psi",
    "PeriodicWindow",
    "cyclic_chain_window",
    "verify_window",
]
