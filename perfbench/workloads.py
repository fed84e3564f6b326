"""
Seeded operation lists for the benchmark workloads.

Every operation is one command line for ``minuscule.cli.run`` plus what the
generator knows about its answer.  The seed only permutes element ids, color
names and the order colors are listed in.  Sizes and the order operations
run in are fixed, so two seeds cost about the same.

The inputs are built from the catalog's public constructors and then
rewritten as plain JSON documents, so the program under test only ever sees
generated files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import comb
from typing import Optional

WORKLOADS = ("classify", "construct")

# Per-operation time cap, seconds.  It sits well above every operation's
# time at the seed commit, so no operation is capped there and one that is
# capped later marks a regression: the slowest operation takes about 0.55 s
# on classify (classify B(25)) and 0.26 s on construct (coroots B8 j=8),
# measured on a 2-vCPU x86-64 container with Python 3.11.
CAP_S = 5.0


@dataclass
class Op:
    op_id: int
    label: str
    argv: list[str]
    kind: str  # selects the answer checker
    expect: dict  # what the generator knows about the answer


@dataclass
class Workload:
    name: str
    cap_s: float
    ops: list[Op]
    files: dict[str, dict] = field(default_factory=dict)  # file name -> document

    def write_inputs(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        for name, doc in self.files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump(doc, fh)


# -- what the generator knows ------------------------------------------------


def family_name(kind: str, n: int = 0, j: int = 0) -> str:
    """The name classification reports: A_exterior(n,j) and A_exterior(n,n+1-j)
    are the same poset up to colored isomorphism, and the smaller j names it."""
    if kind == "A_exterior":
        return f"A_exterior({n},{min(j, n + 1 - j)})"
    if kind in ("E6", "E7"):
        return kind
    return f"{kind}({n})"


def split_count(kind: str, n: int = 0, j: int = 0) -> int:
    return {
        "A_exterior": lambda: comb(n + 1, j),
        "B": lambda: 2**n,
        "D_spin": lambda: 2 ** (n - 1),
        "E6": lambda: 27,
        "E7": lambda: 56,
    }[kind]()


def positive_coroot_count(letter: str, n: int) -> int:
    if letter == "A":
        return n * (n + 1) // 2
    if letter in ("B", "C"):
        return n * n
    if letter == "D":
        return n * (n - 1)
    return {6: 36, 7: 63}[n]


def minuscule_poset_size(letter: str, n: int, j: int) -> int:
    """Elements of the minuscule poset of weight index (letter, n, j), which is
    also the size of the coroot filter above the j-th simple coroot."""
    if letter == "A":
        return j * (n + 1 - j)
    if letter == "B":
        return n * (n + 1) // 2
    if letter == "C":
        return 2 * n - 1
    if letter == "D":
        return 2 * n - 2 if j == 1 else n * (n - 1) // 2
    return {6: 16, 7: 27}[n]


def extension_table(i: int, j: int, k: int) -> Optional[tuple[str, int]]:
    """(family, size) the downward extension over the Y seed (i, j, k) reaches,
    or None when the seed is blocked.  Only seeds whose tree is a path (i = 1),
    of type D ((i, 1, 1) and (2, 1, k)), E6 (3, 1, 2) or E7 (4, 1, 2) extend."""
    if i == 1:
        n = i + j + k
        return family_name("A_exterior", n, j + 1), (j + 1) * (n - j)
    if j == 1 and k == 1:
        return family_name("D_standard", i + 2), 2 * (i + 2) - 2
    if i == 2 and j == 1:
        return family_name("D_spin", k + 3), (k + 3) * (k + 2) // 2
    return {(3, 1, 2): ("E6", 16), (4, 1, 2): ("E7", 27)}.get((i, j, k))


# -- document rewriting --------------------------------------------------------


def scramble(doc: dict, rng: random.Random, order: Optional[list[int]] = None) -> dict:
    """Rename colors, permute element ids and list the diagram's colors in the
    given order of their positions (a random one by default).  The result is
    the same colored poset up to colored isomorphism."""
    colors = doc["diagram"]["colors"]
    theta = doc["diagram"]["theta"]
    n = len(colors)
    names = [f"c{v}" for v in rng.sample(range(10 * n + 10), n)]
    rename = dict(zip(colors, names))
    if order is None:
        order = rng.sample(range(n), n)
    ids = [e["id"] for e in doc["elements"]]
    idmap = dict(zip(ids, rng.sample(range(1, 4 * len(ids) + 10), len(ids))))
    elements = [{"id": idmap[e["id"]], "color": rename[e["color"]]} for e in doc["elements"]]
    covers = [[idmap[x], idmap[y]] for x, y in doc["covers"]]
    rng.shuffle(elements)
    rng.shuffle(covers)
    out = {
        "version": 1,
        "diagram": {
            "colors": [names[i] for i in order],
            "theta": [[theta[a][b] for b in order] for a in order],
        },
        "elements": elements,
        "covers": covers,
    }
    if "boundary" in doc:
        out["boundary"] = sorted(idmap[x] for x in doc["boundary"])
    return out


def disjoint_union(docs: list[dict]) -> dict:
    colors: list[str] = []
    blocks: list[list[list[int]]] = []
    elements: list[dict] = []
    covers: list[list[int]] = []
    offset = 0
    for part, doc in enumerate(docs):
        colors += [f"u{part}.{c}" for c in doc["diagram"]["colors"]]
        blocks.append(doc["diagram"]["theta"])
        elements += [{"id": e["id"] + offset, "color": f"u{part}.{e['color']}"} for e in doc["elements"]]
        covers += [[x + offset, y + offset] for x, y in doc["covers"]]
        offset += max(e["id"] for e in doc["elements"]) + 1
    theta = []
    start = 0
    for block in blocks:
        for row in block:
            theta.append([0] * start + row + [0] * (len(colors) - start - len(row)))
        start += len(block)
    return {
        "version": 1,
        "diagram": {"colors": colors, "theta": theta},
        "elements": elements,
        "covers": covers,
    }


def drop_cover(doc: dict, rng: random.Random) -> dict:
    """Remove one Hasse cover.  Its two elements carry adjacent colors and
    become incomparable, so AC fails with them as the witness."""
    out = dict(doc)
    covers = list(doc["covers"])
    covers.pop(rng.randrange(len(covers)))
    out["covers"] = covers
    return out


def recolor(doc: dict, rng: random.Random) -> Optional[dict]:
    """Give one element the color of an element it covers or is covered by, so
    that cover joins equal colors and NA fails.  Only elements whose color
    recurs are eligible, which keeps the coloring surjective; None when no
    element qualifies."""
    count: dict[str, int] = {}
    for e in doc["elements"]:
        count[e["color"]] = count.get(e["color"], 0) + 1
    color = {e["id"]: e["color"] for e in doc["elements"]}
    options = [(x, y) for x, y in doc["covers"] if count[color[x]] > 1]
    options += [(y, x) for x, y in doc["covers"] if count[color[y]] > 1]
    if not options:
        return None
    x, y = options[rng.randrange(len(options))]
    out = dict(doc)
    out["elements"] = [
        {"id": e["id"], "color": color[y] if e["id"] == x else e["color"]} for e in doc["elements"]
    ]
    return out


# -- workloads -----------------------------------------------------------------


class _Builder:
    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.ops: list[Op] = []
        self.files: dict[str, dict] = {}

    def file(self, doc: dict) -> str:
        name = f"in{len(self.files):04d}.json"
        self.files[name] = doc
        return os.path.join(self.workdir, name)

    def op(self, label: str, argv: list[str], kind: str, **expect) -> None:
        self.ops.append(Op(0, label, argv, kind, expect))

    def finish(self) -> Workload:
        for i, op in enumerate(self.ops):
            op.op_id = i
        return Workload(self.name, CAP_S, self.ops, self.files)


def _classify(b: _Builder, smoke: bool) -> None:
    from minuscule import heapwindow
    from minuscule.catalog import FamilyId, all_family_ids, build

    def doc_of(kind: str, n: int = 0, j: int = 0) -> dict:
        return build(FamilyId(kind, n, j)).to_json()

    def both(label: str, doc: dict, families: list[str]) -> None:
        path = b.file(doc)
        b.op(f"verify {label}", ["verify", path], "verify", holds=True)
        b.op(f"classify {label}", ["classify", path], "classify", families=sorted(families))

    ladder = all_family_ids(4 if smoke else 8)
    for f in ladder:
        both(str(f), scramble(doc_of(f.kind, f.n, f.j), b.rng), [family_name(f.kind, f.n, f.j)])

    # non-minuscule perturbations must exit 1 with witnesses
    for t, f in enumerate(x for x in ladder if x.n >= 3):
        doc = doc_of(f.kind, f.n, f.j)
        bad = recolor(doc, b.rng) if t % 2 else None
        how = "recolored" if bad is not None else "cover dropped"
        bad = bad if bad is not None else drop_cover(doc, b.rng)
        path = b.file(scramble(bad, b.rng))
        b.op(f"verify {f} {how}", ["verify", path], "verify", holds=False)
        b.op(f"classify {f} {how}", ["classify", path], "classify", families=None)

    # disjoint unions of 2-8 components, drawn from the small ladder
    small = [f for f in ladder if f.n <= 5]
    for k in range(2, 4 if smoke else 9):
        parts = [small[(3 * k + 7 * i) % len(small)] for i in range(k)]
        union = disjoint_union([doc_of(f.kind, f.n, f.j) for f in parts])
        both(f"union of {k}", scramble(union, b.rng), [family_name(f.kind, f.n, f.j) for f in parts])

    # periodic windows: the demonstrator passes, finite posets fail G3-window
    for n in range(3, 5 if smoke else 8):
        for periods in (2, 3):
            b.op(f"window --chain {n},{periods}", ["window", "--chain", f"{n},{periods}"], "window")
        doc = scramble(heapwindow.cyclic_chain_window(n, 2).to_json(), b.rng)
        b.op(f"classify cyclic window {n}", ["classify", b.file(doc)], "classify_window", failing=[])
    for f in ladder[:: max(1, len(ladder) // 5)][:5]:
        doc = scramble(heapwindow.window_of(build(f)).to_json(), b.rng)
        b.op(f"classify window of {f}", ["classify", b.file(doc)], "classify_window", failing=["G3-window"])

    if smoke:
        return
    # large inputs, colors listed in canonical order
    for kind, n in (("A_standard", 50), ("B", 20), ("B", 25)):
        both(f"{kind}({n})", scramble(doc_of(kind, n), b.rng, list(range(n))), [family_name(kind, n)])
    # chains with colors listed out of path order.  The isomorphism search
    # goes exponential here: from n = 16 to n = 20 classify takes 12 times
    # as long, while the same chains in path order stay in milliseconds.  The
    # order is fixed, every fifth color along the path, because a random
    # order is now and then one the search gets through quickly.
    for kind in ("A_standard", "C"):
        for n in (8, 12, 16, 18, 20):
            every_fifth = [i for r in range(5) for i in range(r, n, 5)]
            both(f"{kind}({n}) reordered", scramble(doc_of(kind, n), b.rng, every_fifth),
                 [family_name(kind, n)])


def _represent(b: _Builder, smoke: bool) -> None:
    from minuscule.catalog import FamilyId, build

    every = (["--relations"], ["--relations", "--full-sweep"], ["--weights"], ["--matrices"])
    posets = [("E7", 7, 0, every), ("D_spin", 6, 0, every), ("B", 5, 0, every)] if smoke else [
        ("E6", 6, 0, every), ("D_spin", 6, 0, every), ("A_exterior", 6, 3, every), ("B", 5, 0, every),
        ("E7", 7, 0, every), ("D_spin", 7, 0, every), ("B", 7, 0, every),
        ("A_exterior", 8, 4, every), ("D_spin", 8, 0, every), ("B", 8, 0, every),
        ("A_exterior", 9, 4, every), ("D_spin", 9, 0, every), ("B", 9, 0, every),
    ]
    for kind, n, j, modes in posets:
        f = FamilyId(kind, n, j)
        path = b.file(scramble(build(f).to_json(), b.rng))
        for mode in modes:
            b.op(f"represent {f} {' '.join(mode)}", ["represent", path] + mode, "represent",
                 splits=split_count(kind, n, j), colors=n, modes=mode)


def _grow(b: _Builder, smoke: bool) -> None:
    from minuscule.catalog import minuscule_indices

    total, rank = (7, 4) if smoke else (16, 8)
    for i in range(1, total):
        for j in range(1, total):
            for k in range(j, total - i - j + 1):
                known = extension_table(i, j, k)
                b.op(f"extend --shape {i},{j},{k}", ["extend", "--shape", f"{i},{j},{k}"], "extend",
                     family=known[0] if known else None, size=known[1] if known else None)
    for letter, n, j in minuscule_indices(rank):
        b.op(f"coroots {letter}{n} j={j}", ["coroots", "--type", letter, "--n", str(n), "--j", str(j)],
             "coroots", positive=positive_coroot_count(letter, n),
             filter=minuscule_poset_size(letter, n, j))


def build_workload(name: str, seed: int, workdir: str, *, smoke: bool = False) -> Workload:
    b = _Builder(name, seed, workdir)
    if name == "classify":
        _classify(b, smoke)
    else:
        _represent(b, smoke)
        _grow(b, smoke)
    return b.finish()


# -- answer checking -----------------------------------------------------------


def _witnesses(reports: list[dict]) -> int:
    return sum(len(r.get("witnesses", [])) for r in reports if not r.get("holds", True))


def check(op: Op, code: int, out: str) -> Optional[str]:
    """None when the answer matches what the generator knows, else the reason."""
    try:
        data = json.loads(out)
    except ValueError:
        return f"exit {code}, stdout is not JSON"
    e = op.expect
    if op.kind == "verify":
        if e["holds"]:
            return None if code == 0 and data["holds"] else f"exit {code}, expected 0"
        if code != 1 or data["holds"]:
            return f"exit {code}, expected 1"
        return None if _witnesses(data["reports"]) else "negative verdict without witnesses"
    if op.kind == "classify":
        if e["families"] is None:
            if code != 1 or data["minuscule"]:
                return f"exit {code}, expected 1"
            reports = data.get("global_failures", []) + [
                r for c in data["components"] for r in c.get("failures", [])
            ]
            return None if _witnesses(reports) else "negative verdict without witnesses"
        got = sorted(c["family"] for c in data["components"])
        if code != 0 or got != e["families"]:
            return f"exit {code}, families {got}, expected {e['families']}"
        return None
    if op.kind == "window":
        return None if code == 0 and data["holds"] else f"exit {code}, expected 0"
    if op.kind == "classify_window":
        failing = sorted(r["property"] for r in data["window_reports"] if not r["holds"])
        if code != 1 or data["classification"] != "infinite-out-of-scope" or failing != e["failing"]:
            return f"exit {code}, failing {failing}, expected {e['failing']}"
        return None
    if op.kind == "represent":
        if code != 0 or data["splits"] != e["splits"]:
            return f"exit {code}, {data.get('splits')} splits, expected {e['splits']}"
        if "relations" in data and not data["relations"]["all_pass"]:
            return "a generator relation fails"
        if "--weights" in e["modes"] and len(data["weights"]) != e["splits"]:
            return "weights do not cover the split basis"
        if "--matrices" in e["modes"] and len(data["operators"]) != e["colors"]:
            return "operators do not cover every color"
        return None
    if op.kind == "extend":
        if e["family"] is None:
            return None if code == 1 and data["verdict"] == "blocked" else f"exit {code}, expected blocked"
        if code != 0 or data["verdict"] != "minuscule":
            return f"exit {code}, expected {e['family']}"
        size = len(data["poset"]["elements"])
        return None if size == e["size"] else f"{size} elements, expected {e['size']} ({e['family']})"
    if op.kind == "coroots":
        got = (len(data["positive_coroots"]), len(data["filter"]), len(data.get("colors_in_order", [])))
        want = (e["positive"], e["filter"], e["filter"])
        return None if code == 0 and got == want else f"exit {code}, sizes {got}, expected {want}"
    raise ValueError(f"unknown operation kind {op.kind!r}")
