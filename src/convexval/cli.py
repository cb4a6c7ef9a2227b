"""Command-line interface.

Subcommands: expand, components, decompose, verify, ehrhart, mixed, compare.
Given the same flags (including --seed) the report is byte-identical run to
run. Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import bodygroup as bg
from . import polytope as pk
from . import valuations as vv
from . import verify_suite as vs
from .errors import ConvexValError, ParseError
from .rationals import rat, rat_str


def parse_polytope(path: str) -> pk.Polytope:
    """Load a polytope file, pruning redundant vertices to the canonical hull."""
    P, _ = parse_polytope_with_notices(path)
    return P


def _load_json(path: str):
    """The JSON value in a file; an unreadable file, text that is not UTF-8 or
    bad JSON is a ParseError. So are nesting deeper than the interpreter's
    recursion limit and an integer longer than its digit limit for int()."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def parse_polytope_with_notices(path: str):
    obj = _load_json(path)
    try:
        P = pk.polytope_from_obj(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    notices = []
    if len(P.vertices) != len(obj["vertices"]):
        dropped = len(obj["vertices"]) - len(P.vertices)
        notices.append(f"pruned {dropped} redundant vertex(es) to the canonical hull")
    return P, notices


def parse_formal_sum(path: str) -> bg.FormalSum:
    obj = _load_json(path)
    try:
        return bg.sum_from_obj(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_rat(text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


def _nonnegative_int(text: str) -> int:
    """argparse type for counts and degrees: a plain integer >= 0."""
    error = argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise error from None
    if value < 0:
        raise error
    return value


def _parse_basis(text: str) -> pk.SimplexBasis:
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vectors.append(tuple(_parse_rat(c) for c in chunk.split(",")))
    if not vectors:
        raise ParseError("--basis needs at least one vector")
    try:
        return pk.simplex_basis(vectors)
    except ConvexValError as exc:
        raise ParseError(f"--basis: {exc}") from exc


def _named_probe(name: str, ambient: int) -> pk.Polytope:
    maker = vv.NAMED_PROBES.get(name)
    if maker is None:
        raise ParseError(f"unknown probe {name!r}; choose from {sorted(vv.NAMED_PROBES)}")
    return maker(ambient)


def _parse_valuation(token: str, ambient: int) -> vv.ValuationDescriptor:
    token = token.strip()
    if token == "volume":
        return vv.volume_valuation()
    if token == "euler":
        return vv.euler_valuation()
    if token.startswith("probe:"):
        name = token.split(":", 1)[1]
        return vv.probe_volume(_named_probe(name, ambient), name)
    raise ParseError(f"unknown valuation {token!r}")


def _parse_panel(tokens: str | None, ambient: int):
    if tokens is None:
        return vv.default_panel(ambient)
    panel = tuple(_parse_valuation(tok, ambient) for tok in tokens.split(",") if tok.strip())
    if not panel:
        raise ParseError(f"--panel names no valuation: {tokens!r}")
    return panel


# ---------------------------------------------------------------------------
# report rendering: one ordered dict per command, mirrored in text and JSON


def _emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            if not value:
                return
            for item in value:
                lines.append(f"{prefix}: {item}")
        else:
            lines.append(f"{prefix} = {value}")

    for key, value in report.items():
        walk(str(key), value)
    return "\n".join(lines) + "\n"


def _signature_obj(sig: bg.PanelSignature):
    return {key: rat_str(value) for key, value in sig.entries}


# ---------------------------------------------------------------------------
# subcommands


def _one_input(args) -> str:
    if len(args.input) != 1:
        raise ParseError("this command takes exactly one --input PATH")
    return args.input[0]


def _cmd_expand(args) -> tuple[int, dict]:
    P, notices = parse_polytope_with_notices(_one_input(args))
    val = _parse_valuation(args.valuation, P.ambient_dim)
    probe = None if args.probe is None else _named_probe(args.probe, P.ambient_dim)
    expansion = vv.expansion_of_dilation(val, P, probe=probe, degree=args.degree)
    coeffs = expansion.scalar_coefficients()
    report = {
        "command": "expand",
        "input": args.input[0],
        "notices": notices,
        "valuation": val.key(),
        "degree": expansion.degree,
        "coefficients": {f"f_{i}": rat_str(c) for i, c in enumerate(coeffs)},
        "summary": " ".join(f"f_{i}={rat_str(c)}" for i, c in enumerate(coeffs)),
    }
    return 0, report


def _cmd_components(args) -> tuple[int, dict]:
    P, notices = parse_polytope_with_notices(_one_input(args))
    panel = _parse_panel(args.panel, P.ambient_dim)
    comps = bg.mcmullen_components(P, degree=args.degree)
    report = {
        "command": "components",
        "input": args.input[0],
        "notices": notices,
        "dimension": pk.dim(P),
        "components": {
            f"e_{i}": {
                "sum": str(c),
                "signature": _signature_obj(bg.panel_signature(c, panel)),
            }
            for i, c in enumerate(comps)
        },
    }
    return 0, report


def _cmd_decompose(args) -> tuple[int, dict]:
    basis = _parse_basis(args.basis)
    a = _parse_rat(args.a)
    b = _parse_rat(args.b)
    pieces = pk.decomposition_pieces(basis, a, b)
    verdict = pk.verify_decomposition(basis, a, b)
    report = {
        "command": "decompose",
        "basis": [",".join(rat_str(c) for c in v) for v in basis.vectors],
        "a": rat_str(a),
        "b": rat_str(b),
        "cells": {
            f"cell_{i}": {"vertices": repr(c), "volume": rat_str(pk.volume(c))}
            for i, c in enumerate(pieces.cells)
        },
        "seams": {f"seam_{i + 1}": repr(s) for i, s in enumerate(pieces.seams)},
        "checks": {
            "volume_additive": verdict.volume_additive,
            "cover": verdict.cover,
            "cells_inside": verdict.cells_inside,
            "seams_match": verdict.seams_match,
            "seams_lower_dim": verdict.seams_lower_dim,
        },
        "result": "pass" if verdict.ok else "fail",
    }
    return (0 if verdict.ok else 1), report


def _cmd_verify(args) -> tuple[int, dict]:
    results = []
    for suite in vs.SUITES:
        start = time.perf_counter()
        results.append(suite(args.seed))
        if args.stats:
            sys.stderr.write(f"stats: {time.perf_counter() - start:.3f} s {results[-1].name}\n")
    report = {
        "command": "verify",
        "seed": args.seed,
        "suites": {
            r.name: {
                "checks": r.checks,
                "result": "pass" if r.ok else "fail",
                "failures": r.failures[:5],
            }
            for r in results
        },
        "result": "pass" if all(r.ok for r in results) else "fail",
    }
    return (0 if all(r.ok for r in results) else 1), report


def _cmd_ehrhart(args) -> tuple[int, dict]:
    P, notices = parse_polytope_with_notices(_one_input(args))
    top = args.lam if args.lam is not None else 6
    # both guards refuse before any count
    pk.guard_dilate_scan(P, top)
    expansion = vv.ehrhart_expansion(P, degree=args.degree)
    counts = {
        str(lam): pk.lattice_count(pk.dilate(P, lam)) for lam in range(top + 1)
    }
    coeffs = expansion.scalar_coefficients()
    report = {
        "command": "ehrhart",
        "input": args.input[0],
        "notices": notices,
        "counts": counts,
        "coefficients": {f"f_{i}": rat_str(c) for i, c in enumerate(coeffs)},
    }
    return 0, report


def _cmd_mixed(args) -> tuple[int, dict]:
    if len(args.input) != 2:
        raise ParseError("mixed needs --input P.json --input Q.json")
    P = parse_polytope(args.input[0])
    Q = parse_polytope(args.input[1])
    mv = vv.mixed_volume_2d(P, Q)
    expansion = vv.expansion_of_dilation(vv.volume_valuation(), P, probe=Q)
    linear = expansion.components[0].at_ones
    ok = linear == 2 * mv
    report = {
        "command": "mixed",
        "inputs": list(args.input),
        "mixed_volume": rat_str(mv),
        "expansion_linear_coefficient": rat_str(linear),
        "cross_check": "pass" if ok else "fail",
    }
    return (0 if ok else 1), report


def _cmd_compare(args) -> tuple[int, dict]:
    if len(args.input) != 2:
        raise ParseError("compare needs --input s1.json --input s2.json")
    s1 = parse_formal_sum(args.input[0])
    s2 = parse_formal_sum(args.input[1])
    # the zero sum has no terms, so it compares with a sum of any dimension
    dims = sorted({poly.ambient_dim for s in (s1, s2) for poly, _ in s.terms})
    if len(dims) > 1:
        raise ParseError(f"compare needs sums of one dimension, got {dims[0]} and {dims[1]}")
    panel = _parse_panel(args.panel, dims[0] if dims else 1)
    cmp = bg.panel_compare(s1, s2, panel)
    report = {
        "command": "compare",
        "inputs": list(args.input),
        "panel": [val.key() for val in panel],
        "result": "equal_on_panel" if cmp.equal_on_panel else "distinguished",
    }
    if not cmp.equal_on_panel:
        report["witness"] = {
            "valuation": cmp.witness,
            "left": rat_str(cmp.left),
            "right": rat_str(cmp.right),
        }
    return (0 if cmp.equal_on_panel else 1), report


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexval",
        description="Exact valuations, dilation expansions, and graded polytope classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs=0):
        if inputs:
            p.add_argument(
                "--input",
                action="append",
                default=[],
                metavar="PATH",
                help="input file (repeat for two-input commands)",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("expand", help="expansion of a valuation under dilation")
    common(p, 1)
    p.add_argument("--valuation", default="volume")
    p.add_argument("--probe", default=None, help="named probe added before dilating")
    p.add_argument("--degree", type=_nonnegative_int, default=None)

    p = sub.add_parser("components", help="graded components of a polytope class")
    common(p, 1)
    p.add_argument("--panel", default=None, help="comma-separated valuation tokens")
    p.add_argument("--degree", type=_nonnegative_int, default=None)

    p = sub.add_parser("decompose", help="staircase simplex decomposition report")
    common(p)
    p.add_argument("--basis", required=True, help="semicolon-separated vectors")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")

    p = sub.add_parser("verify", help="run the seeded verification suites")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", action="store_true", help="each suite's wall seconds on stderr")

    p = sub.add_parser("ehrhart", help="lattice counts of integer dilates")
    common(p, 1)
    p.add_argument("--lambda", dest="lam", type=_nonnegative_int, default=None,
                   help="largest dilation")
    p.add_argument("--degree", type=_nonnegative_int, default=None)

    p = sub.add_parser("mixed", help="planar mixed volume and its cross-check")
    common(p, 2)

    p = sub.add_parser("compare", help="panel comparison of two formal sums")
    common(p, 2)
    p.add_argument("--panel", default=None)

    return parser


_HANDLERS = {
    "expand": _cmd_expand,
    "components": _cmd_components,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "ehrhart": _cmd_ehrhart,
    "mixed": _cmd_mixed,
    "compare": _cmd_compare,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = _HANDLERS[args.command](args)
    except ConvexValError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(_emit(report, args.format))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
