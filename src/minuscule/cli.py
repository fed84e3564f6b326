"""
Command-line front end.

Verbs: verify, classify, catalog, extend, represent, coroots, window.
Exit codes: 0 affirmative verdict, 1 negative verdict, 2 input error; the
`minuscule` command exits 141 (128 + SIGPIPE) when its reader leaves early.
All outputs are deterministic JSON (sorted keys) or DOT.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from itertools import chain, repeat
from operator import itemgetter
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional

from . import axioms, catalog, coroots, extension, heapwindow
from .classify import classify as classify_poset
from .poset import ColoredPoset
from .representation import build_operators, operator_maps, splits, verify_relations

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return data


def _load_poset(path: str) -> ColoredPoset:
    return ColoredPoset.from_json(_load_json(path))


def _emit(data: dict) -> None:
    print(_dumps(data))


# The output is json.dumps(data, sort_keys=True, indent=2), byte for byte.  With
# an indent, Python's json runs its pure-Python encoder, so the writer below
# sends every leaf container (members all scalars or empty containers) through
# the C encoder, whose item separator breaks each item onto the leaf's indented
# line, and walks in Python only the containers that hold non-empty ones.  A
# list of two or more dicts with one set of keys is written a key at a time:
# the C encoder takes all values of a key at once where they are leaves.  An
# encoded scalar never holds a raw newline, never starts with [ or { and never
# ends with ] or }, so every seam the writer rewrites or splits at is
# structural.

_SCALARS = frozenset((str, int, float, bool, type(None)))
_NESTED = (list, tuple, dict)


@functools.cache
def _encoder(depth: int):
    """The C encoder for a leaf whose brackets sit `depth` levels in: the
    scalars and key separator of json.dumps(indent=2), each item on its own
    line one level further in."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * (depth + 1), True, False, True,
    )


def _is_leaf(values) -> bool:
    """Whether a container with these members holds no non-empty container."""
    return not any(map(isinstance, filter(None, values), repeat(_NESTED)))


def _members_brackets(o, kinds: set) -> Optional[str]:
    """The brackets of o's members, whose types are `kinds`, when they are
    all non-empty scalar-only lists, or all non-empty scalar-only dicts;
    otherwise None."""
    if kinds <= {list, tuple}:
        values, brackets = o, "[]"
    elif kinds == {dict}:
        values, brackets = map(dict.values, o), "{}"
    else:
        return None
    return brackets if all(o) and set(map(type, chain.from_iterable(values))) <= _SCALARS else None


@functools.cache
def _record_form(keys: tuple, depth: int):
    """For dicts with these keys and their brackets `depth` levels in: a
    getter of their values in sorted key order, and the template of one
    dict, a %s per value.  None unless every key is a str.  The lists of
    records the CLI prints use a handful of key sets, so the cache stays
    small."""
    if set(map(type, keys)) != {str}:
        return None
    keys = sorted(keys)
    getter = itemgetter(*keys) if len(keys) > 1 else lambda r: (r[keys[0]],)
    indent = "\n" + "  " * (depth + 1)
    fields = [f"{indent}{encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys]
    return getter, "{" + ",".join(fields) + indent[:-2] + "}"


def _records(o, depth: int) -> Optional[list[str]]:
    """Each of o's members written with its brackets `depth` levels in, when
    they are dicts sharing one set of str keys; otherwise None.

    The values of one key take one C call when they are all scalars, all
    scalar-only lists or all scalar-only dicts (empty ones included), and the
    output is split at the seams between them: the item separators that
    follow a scalar value or a closing bracket, which no scalar ends with.
    Other values are written one by one.  The pieces of each member are
    zipped through one template."""
    keys = o[0].keys()
    form = _record_form(tuple(keys), depth)
    if form is None or not all(map(keys.__eq__, map(dict.keys, o))):
        return None
    getter, template = form
    encoder = _encoder(depth + 1)
    separator = ",\n" + "  " * (depth + 2)
    pieces = []
    for values in zip(*map(getter, o)):
        kinds = set(map(type, values))
        if kinds <= _SCALARS:
            pieces.append("".join(encoder(values, 0))[1:-1].split(separator))
            continue
        if kinds <= {list, tuple}:
            members, (open_, close) = chain.from_iterable(values), "[]"
        elif kinds == {dict}:
            members, (open_, close) = chain.from_iterable(map(dict.values, values)), "{}"
        else:
            members = None
        if members is not None and set(map(type, members)) <= _SCALARS:
            s = "".join(encoder(values, 0))[2:-2]
            first, last = f"{open_}\n{separator[2:]}", f"{separator[1:-2]}{close}"
            pieces.append([
                f"{first}{v}{last}" if v else open_ + close
                for v in s.split(close + separator + open_)
            ])
        else:
            pieces.append([_written(v, depth + 1) for v in values])
    return [template % row for row in zip(*pieces)]


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte."""
    return _written(obj, 0)


def _written(o, depth: int) -> str:
    """o written with its brackets `depth` levels in."""
    out: list[str] = []
    _write(o, depth, out)
    return "".join(out)


def _write(o, depth: int, out: list) -> None:
    """Append o, with its brackets `depth` levels in, to out."""
    if not o or not isinstance(o, _NESTED):
        # a scalar or an empty container
        out.extend(_encoder(depth)(o, 0))
        return
    outer, inner = "  " * depth, "  " * (depth + 1)
    is_dict = isinstance(o, dict)
    members = o.values() if is_dict else o
    kinds = set(map(type, members))
    if kinds <= _SCALARS or _is_leaf(members):
        s = "".join(_encoder(depth)(o, 0))
        out.append(f"{s[0]}\n{inner}{s[1:-1]}\n{outer}{s[-1]}")
        return
    if is_dict:
        if set(map(type, o)) != {str}:
            # the stdlib orders and converts non-str keys; only the margin moves
            out.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", "\n" + outer))
            return
        out.append("{")
        for i, key in enumerate(sorted(o)):
            out.append(f"{',' if i else ''}\n{inner}{encode_basestring_ascii(key)}: ")
            _write(o[key], depth + 1, out)
        out.append(f"\n{outer}}}")
        return
    brackets = _members_brackets(o, kinds)
    if brackets:
        # one C call for all members; a seam between two of them is the only
        # place a closing bracket meets the item separator and an opening one
        open_, close = brackets
        innermost = "  " * (depth + 2)
        s = "".join(_encoder(depth + 1)(o, 0))
        body = s[2:-2].replace(
            f"{close},\n{innermost}{open_}", f"\n{inner}{close},\n{inner}{open_}\n{innermost}"
        )
        out.append(f"[\n{inner}{open_}\n{innermost}{body}\n{inner}{close}\n{outer}]")
        return
    records = _records(o, depth + 1) if kinds == {dict} and len(o) > 1 else None
    if records:
        out.append(f"[\n{inner}" + f",\n{inner}".join(records) + f"\n{outer}]")
        return
    out.append("[")
    for i, v in enumerate(o):
        out.append(f"{',' if i else ''}\n{inner}")
        _write(v, depth + 1, out)
    out.append(f"\n{outer}]")


def _fields(text: str, form: str) -> list:
    """The comma-separated fields of an argument written as `form`, such as
    `i,j,k`: a field named `letter` stays text, every other is an integer."""
    names, values = form.split(","), text.split(",")
    try:
        if len(values) == len(names):
            return [v.strip() if name == "letter" else int(v) for name, v in zip(names, values)]
    except ValueError:
        pass
    raise InputError(f"expected {form}, got {text!r}")


# the --family names: a-standard, a-exterior, b, .., e7
_FAMILY_NAMES = {kind.lower().replace("_", "-"): kind for kind in catalog.FAMILIES}


def _family_id(spec: str, n: Optional[int], j: Optional[int]) -> catalog.FamilyId:
    kind = _FAMILY_NAMES[spec]
    _, least, most, _, _ = catalog.FAMILIES[kind]
    if n is None:
        if least != most:
            raise InputError("--n is required for this family")
        n = least
    return catalog.FamilyId(kind, n, 0 if j is None else j)


def cmd_verify(args) -> int:
    p = _load_poset(args.file)
    if args.property:
        reports = [axioms.check(p, name) for name in args.property]
    else:
        _, reports = axioms.is_minuscule(p)
    ok = all(r.holds for r in reports)
    _emit({
        "version": SCHEMA_VERSION,
        "holds": ok,
        "reports": [r.to_json() for r in reports],
    })
    return 0 if ok else 1


def cmd_classify(args) -> int:
    data = _load_json(args.file)
    if "boundary" in data:
        window = heapwindow.PeriodicWindow.from_json(data)
        reports = heapwindow.verify_window(window)
        _emit({
            "version": SCHEMA_VERSION,
            "classification": "infinite-out-of-scope",
            "window_reports": [r.to_json() for r in reports],
        })
        return 1
    p = ColoredPoset.from_json(data)
    result = classify_poset(p)
    _emit(result.to_json())
    return 0 if result.minuscule else 1


def cmd_catalog(args) -> int:
    if args.index is not None:
        for option, value in (("--n", args.n), ("--j", args.j)):
            if value is not None:
                raise InputError(f"argument {option}: not allowed with argument --index")
        letter, n, j = _fields(args.index, "letter,n,j")
        p = catalog.indexed(letter.upper(), n, j)
    else:
        fam = _family_id(args.family, args.n, args.j)
        p = catalog.build(fam)
    if args.dot:
        print(p.to_dot(), end="")
    else:
        _emit(p.to_json())
    return 0


def cmd_extend(args) -> int:
    outcome = extension.run_extension(catalog.top_tree_Y(*_fields(args.shape, "i,j,k")))
    data = outcome.to_json(stages=args.trace)
    data["version"] = SCHEMA_VERSION
    data["poset"] = outcome.poset.to_json()
    _emit(data)
    return 0 if outcome.verdict == "minuscule" else 1


def cmd_represent(args) -> int:
    if args.full_sweep and not args.relations:
        raise InputError("--full-sweep needs --relations")
    p = _load_poset(args.file)
    basis = splits(p)
    out: dict = {"version": SCHEMA_VERSION, "splits": len(basis)}
    code = 0
    if args.relations or args.weights or args.matrices:
        maps = operator_maps(p, basis=basis)
    if args.relations:
        report = verify_relations(p, full_sweep=args.full_sweep, maps=maps)
        out["relations"] = report.to_json()
        code = 0 if report.all_pass else 1
    if args.weights:
        # a split's weight is its eigenvalue under every diagonal operator
        names = [str(a) for a in maps.h]
        # with no colors, zip would drop the empty poset's one split
        weights = zip(*maps.h.values()) if names else repeat(())
        out["weights"] = [
            {"ideal": ideal, "weight": dict(zip(names, weight))}
            for ideal, weight in zip(basis.ideals(), weights)
        ]
    if args.matrices:
        _, ops = build_operators(p, maps=maps)
        out["operators"] = {
            str(a): {
                "raising": x.coordinates,
                "lowering": y.coordinates,
                "diagonal": h.coordinates,
            }
            for a, (x, y, h) in ops.items()
        }
    _emit(out)
    return code


def cmd_coroots(args) -> int:
    for option, given in (("--psi", args.psi), ("--dot", args.dot)):
        if given and args.j is None:
            raise InputError(f"{option} needs --j")
    system = coroots.coroot_system(catalog.diagram_of_type(args.type.upper(), args.n))
    if args.j is not None and not 1 <= args.j <= args.n:
        raise InputError(f"--j must lie in 1..{args.n}")
    out: dict = {
        "version": SCHEMA_VERSION,
        "type": f"{args.type.upper()}{args.n}",
        "positive_coroots": [list(b) for b in system.positive_coroots()],
        "highest": list(system.highest_coroot()),
    }
    code = 0
    real = None
    if args.j is not None:
        out["filter"] = [list(b) for b in system.filter_at(args.j)]
        if args.psi:
            p = _load_poset(args.psi)
            real = coroots.psi(p)
            found = coroots.coroot_system(p.diagram).type
            if (found.letter, found.rank, real.j) != (system.type.letter, system.type.rank, args.j):
                raise InputError(
                    f"--psi poset realizes {found}, j={real.j}, not {system.type}, j={args.j}"
                )
            out["psi"] = {
                "j": real.j,
                "assignment": {
                    str(x): {"coroot": list(b), "color": str(p.color(x))}
                    for x, b in sorted(real.assignment.items())
                },
                "colors_in_order": [str(real.coloring_of(b)) for b in real.coroot_ids],
            }
        else:
            # filter colored through the indexed poset when one exists
            try:
                real = coroots.psi(catalog.indexed(args.type.upper(), args.n, args.j))
                out["colors_in_order"] = [str(real.coloring_of(b)) for b in real.coroot_ids]
            except catalog.NotAMinusculeWeight as exc:
                if args.dot:
                    print(f"error: no colored filter to draw: {exc}", file=sys.stderr)
                code = 1
    if args.dot:
        if real is not None:
            print(real.coroot_poset.to_dot(), end="")
        return code
    _emit(out)
    return code


def cmd_window(args) -> int:
    if args.chain is not None:
        window = heapwindow.cyclic_chain_window(*_fields(args.chain, "n,p"))
    else:
        window = heapwindow.PeriodicWindow.from_json(_load_json(args.file))
    reports = heapwindow.verify_window(window)
    ok = all(r.holds for r in reports)
    _emit({
        "version": SCHEMA_VERSION,
        "holds": ok,
        "boundary": sorted(window.boundary),
        "reports": [r.to_json() for r in reports],
    })
    return 0 if ok else 1


def _add_verify(sub) -> None:
    v = sub.add_parser("verify", help="check coloring axioms on a poset file")
    v.add_argument("file")
    v.add_argument("--property", action="append", help="check one property (repeatable)")
    v.set_defaults(func=cmd_verify)


def _add_classify(sub) -> None:
    c = sub.add_parser("classify", help="name the family of every component")
    c.add_argument("file")
    c.set_defaults(func=cmd_classify)


def _add_catalog(sub) -> None:
    g = sub.add_parser("catalog", help="emit a catalog poset")
    source = g.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=_FAMILY_NAMES)
    source.add_argument("--index", help="minuscule weight index as letter,n,j")
    g.add_argument("--n", type=int, help="the family's rank (e6 and e7 need none)")
    g.add_argument("--j", type=int, help="the index of an a-exterior family")
    g.add_argument("--json", action="store_true", help="emit JSON (the default)")
    g.add_argument("--dot", action="store_true")
    g.set_defaults(func=cmd_catalog)


def _add_extend(sub) -> None:
    e = sub.add_parser("extend", help="run the downward extension from a Y seed")
    e.add_argument("--shape", required=True, help="i,j,k")
    e.add_argument("--trace", action="store_true")
    e.set_defaults(func=cmd_extend)


def _add_represent(sub) -> None:
    r = sub.add_parser("represent", help="operators on the split basis")
    r.add_argument("file")
    r.add_argument("--relations", action="store_true")
    r.add_argument("--full-sweep", action="store_true")
    r.add_argument("--weights", action="store_true")
    r.add_argument("--matrices", action="store_true")
    r.set_defaults(func=cmd_represent)


def _add_coroots(sub) -> None:
    k = sub.add_parser("coroots", help="positive coroots and the psi realization")
    k.add_argument("--type", required=True)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--j", type=int)
    k.add_argument("--psi", help="poset file to realize at --j (same type, rank and top node)")
    k.add_argument("--dot", action="store_true")
    k.set_defaults(func=cmd_coroots)


def _add_window(sub) -> None:
    w = sub.add_parser("window", help="interior checks on a periodic window")
    source = w.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?")
    source.add_argument("--chain", help="cyclic chain demonstrator as n,p")
    w.set_defaults(func=cmd_window)


# each verb's subparser, in the order the help lists them
_VERBS = {
    "verify": _add_verify,
    "classify": _add_classify,
    "catalog": _add_catalog,
    "extend": _add_extend,
    "represent": _add_represent,
    "coroots": _add_coroots,
    "window": _add_window,
}


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every verb, or, given `verb`, one that holds only that
    verb's subparser and parses an argv starting with the verb as the full
    parser does, with the same output and exit code."""
    parser = argparse.ArgumentParser(
        prog="minuscule",
        description="Exact-arithmetic toolkit for colored d-complete and minuscule posets",
    )
    # the usage, printed for an unrecognized argument, lists every verb; on
    # the full parser a metavar would also rename "argument verb" in the
    # errors for a missing or an unknown verb
    metavar = None if verb is None else "{" + ",".join(_VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for add in _VERBS.values() if verb is None else (_VERBS[verb],):
        add(sub)
    return parser


@functools.cache
def _parser(verb: Optional[str]) -> argparse.ArgumentParser:
    return build_parser(verb)


def run(argv: list[str]) -> int:
    # an argv that starts with a verb takes that verb's parser, any other
    # (no verb, an unknown one, top-level help) the full one.  Each is built
    # on its first call, not at import, and kept: each parse starts from a
    # fresh namespace, so one parser serves every call in a process
    verb = argv[0] if argv and argv[0] in _VERBS else None
    try:
        args = _parser(verb).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # the library refuses bad parameters with ValueErrors of its own
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early, as `| head` does: no verdict was delivered, so
        # exit as a process killed by SIGPIPE would, and point stdout at the
        # null device so the flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 128 + signal.SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
