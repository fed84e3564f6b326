"""
Relation verification at thousands of splits.

Criterion 4 of the acceptance suite keeps its 60-split cap; this test runs the
default relation sweep on three representations 29 to 68 times larger.  The
three together took about 0.95 s on a 2-vCPU container (Python 3.11.7); the
budget is three times that.
"""

import math
import time

from minuscule.catalog import FamilyId, build
from minuscule.representation import splits, verify_relations

BUDGET_S = 2.85


def test_relations_hold_at_thousands_of_splits():
    started = time.monotonic()
    for fam, count in [
        (FamilyId("A_exterior", 12, 6), math.comb(13, 6)),
        (FamilyId("B", 12), 2**12),
        (FamilyId("D_spin", 12), 2**11),
    ]:
        p = build(fam)
        assert len(splits(p)) == count, str(fam)
        report = verify_relations(p)
        assert report.all_pass, (str(fam), [c.to_json() for c in report.failures()])
    elapsed = time.monotonic() - started
    assert elapsed <= BUDGET_S, f"{elapsed:.2f} s over the {BUDGET_S} s budget"
