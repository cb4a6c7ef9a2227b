"""The workloads: their op streams, the ops, and the answer checks.

An op stream is an endless generator of `Op` records built from `gen` alone,
in rounds that each hold the workload's whole op mix.
`run_op` hands the raw inputs to the library's public functions and returns
the raw outputs; building the library objects (hulls of point clouds, bases)
is part of the op, as it is for a caller parsing a file. `check_op` runs
after the timed section and verifies each output against an identity that is
computed independently of the call that produced it; it returns
(ok, canonical text). The canonical text of an op is what the default-seed
digests in `digests.json` pin.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import factorial

import gen

# `library` and `cli` are the declared workloads; `library` runs the three
# in-process op families in one round, and each family also runs alone under
# its own name for focused measurement.
WORKLOADS = ("library", "cli", "staircase", "grading", "expansions")

# cli ops whose README contract (exit 2 with an `error:` line) the program
# breaks at the seed commit; they stay in the mix and count as failed ops.
KNOWN_DEFECTS = ("ehrhart_lambda_half", "expand_degree_negative", "ehrhart_lambda_negative")


@dataclass
class Op:
    index: int
    kind: str
    raw: dict = field(default_factory=dict)
    last_in_round: bool = False


def fr(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# streams


def op_stream(workload: str, seed: int, episode: int):
    rng = gen.stream(workload, seed, episode)
    make_round = {
        "library": _library_round,
        "staircase": _staircase_round,
        "grading": _grading_round,
        "expansions": _expansions_round,
        "cli": _cli_round,
    }[workload]
    return _rounds(rng, make_round)


def _rounds(rng, make_round):
    """Number the ops of successive rounds and flag the last op of each.

    A round holds every op kind at every dimension of `gen.DIMS` once, so a
    run that stops at a round boundary has the same mix whatever its length.
    """
    index = count()
    for r in count():
        batch = make_round(rng, r)
        for pos, (kind, raw) in enumerate(batch):
            yield Op(next(index), kind, raw, pos == len(batch) - 1)


def _staircase_round(rng, r):
    out = []
    for d in gen.DIMS:
        vecs = gen.basis(rng, d)
        out += [("decompose", {"basis": vecs, "a": a, "b": b}) for a, b in gen.AB_PAIRS]
    return out


def _grading_round(rng, r):
    out = []
    for d in gen.DIMS:
        pts = gen.point_cloud(rng, d)
        out.append(("components", {"points": pts}))
        out.append(("idempotence", {"points": pts}))
        out += [("homogeneity", {"points": pts, "factor": lam}) for lam in gen.HOMOGENEITY_FACTORS]
        out.append(("factorization", {"points": pts}))
    return out


def _expansions_round(rng, r):
    # polynomial degrees are fixed per position (1..4) rather than random: op
    # cost grows about 3x per degree, and a random mix would move the median
    out = []
    for j, d in enumerate(gen.DIMS):
        out.append(("probe_expansion", {"points": gen.point_cloud(rng, d), "probe": gen.probe(r + j, d)}))
        out.append(("ehrhart", {"points": gen.lattice_cloud(rng, d)}))
        out.append(("polynomial", {"coeffs": gen.polynomial(rng, j + 1)}))
    return out


def _library_round(rng, r):
    return _staircase_round(rng, r) + _grading_round(rng, r) + _expansions_round(rng, r)


# One round of 20 calls: each well-formed kind once in 3D and once in 1D or
# 2D, one known-defect call and one malformed call the CLI already rejects
# correctly. Every round thus holds the same heavy calls (a 3D `ehrhart`
# takes about 1 s), so the tail latency falls inside one class of calls.
_CLI_WELL_FORMED = (
    "expand", "expand_probe_json", "components_panel", "decompose", "ehrhart",
    "mixed", "compare_equal", "compare_distinct", "components_json",
)
_CLI_MALFORMED = ("verify_bad_seed", "expand_bad_json", "components_bad_panel")


def _cli_round(rng, r):
    low = (1, 2, 2)[r % 3]
    calls = [(kind, 3) for kind in _CLI_WELL_FORMED] + [(kind, low) for kind in _CLI_WELL_FORMED]
    calls.insert(9, (KNOWN_DEFECTS[r % len(KNOWN_DEFECTS)], low))
    calls.append((_CLI_MALFORMED[r % len(_CLI_MALFORMED)], low))
    return [(kind, _cli_inputs(rng, kind, d)) for kind, d in calls]


def _cli_inputs(rng, kind, d):
    if kind == "decompose":
        a, b = gen.AB_PAIRS[rng.randrange(len(gen.AB_PAIRS))]
        return {"d": d, "basis": gen.basis(rng, d), "a": a, "b": b}
    if kind == "mixed":
        return {"d": 2, "points": gen.point_cloud(rng, 2), "points2": gen.point_cloud(rng, 2)}
    if kind.startswith("ehrhart"):
        return {"d": d, "points": gen.lattice_cloud(rng, d)}
    if kind.startswith("compare"):
        return {"d": d, "points": gen.point_cloud(rng, d), "points2": gen.point_cloud(rng, d),
                "shift": gen.rand_point(rng, d)}
    if kind == "verify_bad_seed":
        return {"d": d}
    return {"d": d, "points": gen.point_cloud(rng, d)}


# ---------------------------------------------------------------------------
# in-process ops


def _panel3(vv, pk, d):
    return (vv.volume_valuation(), vv.euler_valuation(), vv.probe_volume(pk.unit_cube(d), "unit_cube"))


def run_op(lib, op: Op):
    pk, vv, bg, dc = lib.polytope, lib.valuations, lib.bodygroup, lib.diffcalc
    raw = op.raw
    if op.kind == "decompose":
        basis = pk.simplex_basis(raw["basis"])
        report = pk.verify_decomposition(basis, raw["a"], raw["b"])
        ident = bg.simplex_identity_as_classes(basis, raw["a"], raw["b"], _panel3(vv, pk, basis.count))
        return report, ident
    if op.kind == "polynomial":
        coeffs = raw["coeffs"]

        def fn(a):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * a + c
            return acc

        return dc.extract_components(dc.FunctionHandle(fn), len(coeffs) - 1).scalar_coefficients()
    P = pk.hull(raw["points"])
    if op.kind == "probe_expansion":
        Q = pk.hull(raw["probe"])
        expansion = vv.expansion_of_dilation(vv.volume_valuation(), P, probe=Q)
        mixed = vv.mixed_volume_2d(P, Q) if P.ambient_dim == 2 else None
        return expansion.scalar_coefficients(), mixed
    if op.kind == "ehrhart":
        coeffs = vv.ehrhart_expansion(P).scalar_coefficients()
        counts = [pk.lattice_count(pk.dilate(P, k)) for k in range(P.ambient_dim + 2)]
        return coeffs, counts
    panel = vv.default_panel(P.ambient_dim)
    if op.kind == "components":
        return bg.mcmullen_components(P)
    if op.kind == "idempotence":
        return bg.verify_idempotence(P, panel)
    if op.kind == "homogeneity":
        return bg.verify_homogeneity(P, raw["factor"], panel)
    if op.kind == "factorization":
        comps = bg.mcmullen_components(P)
        X = bg.class_of(P)
        pt = bg.class_of(pk.origin_polytope(P.ambient_dim))
        return [
            (val.key(), vv.evaluate_sum(val, X) - vv.evaluate_sum(val, pt),
             sum((vv.evaluate_sum(val, c) for c in comps[1:]), Fraction(0)))
            for val in panel
        ]
    raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------------------
# independent values the checks compare against


def body_volume(lib, points) -> Fraction:
    """Volume of conv(points) in R^d, d <= 3, by a route other than the op's."""
    d = len(points[0])
    if d == 1:
        return max(p[0] for p in points) - min(p[0] for p in points)
    if d == 2:
        return gen.area_2d(points)
    return lib.polytope.volume(lib.polytope.hull(points))


def cell_volumes(vectors, a, b) -> list:
    """Closed-form volumes |det B| a^i b^(d-i) / (i! (d-i)!) of the staircase cells."""
    d = len(vectors)
    return [abs(gen.det(vectors)) * a ** i * b ** (d - i) / (factorial(i) * factorial(d - i))
            for i in range(d + 1)]


def probe_volume_closed_form(probe_points) -> Fraction:
    """Volumes of `gen.probe` bodies: segment, standard simplex, half simplex."""
    d = len(probe_points[0])
    if d == 1:
        return max(p[0] for p in probe_points) - min(p[0] for p in probe_points)
    if len(probe_points) == 2:
        return Fraction(0)
    edge = max(max(p) for p in probe_points)
    return edge ** d / factorial(d)


def poly_at(coeffs, x):
    return sum((c * x ** i for i, c in enumerate(coeffs)), Fraction(0))


def _rows(report):
    return ";".join(f"{row.name}:{row.ok}" for row in report.rows)


def check_op(lib, op: Op, out):
    pk, vv, bg = lib.polytope, lib.valuations, lib.bodygroup
    raw = op.raw
    if op.kind == "decompose":
        report, ident = out
        vecs, a, b = raw["basis"], raw["a"], raw["b"]
        basis = pk.simplex_basis(vecs)
        pieces = pk.decomposition_pieces(basis, a, b)
        expected = cell_volumes(vecs, a, b)  # they sum to |det B| (a+b)^d / d!
        outer = pk.volume(pk.dilate(pk.simplex_from_basis(basis), a + b))
        ok = (report.ok and ident.ok and len(ident.rows) == 3
              and [pk.volume(c) for c in pieces.cells] == expected and outer == sum(expected))
        canon = (f"{report!r}|{_rows(ident)}|" + ";".join(repr(c) for c in pieces.cells)
                 + "|" + ";".join(repr(s) for s in pieces.seams))
        return ok, canon
    if op.kind == "polynomial":
        return out == raw["coeffs"], ",".join(fr(c) for c in out)
    points = raw["points"]
    d = len(points[0])
    if op.kind == "probe_expansion":
        coeffs, mixed = out
        ok = (len(coeffs) == d + 1 and coeffs[0] == probe_volume_closed_form(raw["probe"])
              and coeffs[d] == body_volume(lib, points))
        if d == 2:
            ok = ok and mixed == gen.mixed_area_2d(points, raw["probe"]) and coeffs[1] == 2 * mixed
        return ok, ",".join(fr(c) for c in coeffs) + f"|{mixed}"
    if op.kind == "ehrhart":
        coeffs, counts = out
        ok = (len(coeffs) == d + 1 and coeffs[0] == 1 and coeffs[d] == body_volume(lib, points)
              and all(poly_at(coeffs, k) == n for k, n in enumerate(counts)))
        return ok, ",".join(fr(c) for c in coeffs) + "|" + ",".join(map(str, counts))
    P = pk.hull(points)
    if op.kind == "components":
        comps = out
        X = bg.class_of(P)
        pt = bg.class_of(pk.origin_polytope(d))
        total = comps[0]
        for c in comps[1:]:
            total = total + c
        vol = vv.volume_valuation()
        ok = (len(comps) == d + 1 and total == X and comps[0] == pt
              and [vv.evaluate_sum(vol, c) for c in comps]
              == [Fraction(0)] * d + [body_volume(lib, points)])
        if d == 1:
            ok = ok and comps[1] == X - pt
        if d == 2:
            half = bg.class_of(pk.dilate(P, Fraction(1, 2)))
            ok = ok and comps[2] == 2 * X - 4 * half + 2 * pt and comps[1] == -1 * X + 4 * half - 3 * pt
        return ok, "|".join(str(c) for c in comps)
    if op.kind == "idempotence":
        return out.ok and len(out.rows) == (d + 1) ** 2, _rows(out)
    if op.kind == "homogeneity":
        return out.ok and len(out.rows) == 5 * (d + 1), _rows(out)
    if op.kind == "factorization":
        volume_lhs = out[0][1]
        ok = (len(out) == 5 and all(lhs == rhs for _, lhs, rhs in out)
              and volume_lhs == body_volume(lib, points))
        return ok, ";".join(f"{k}={fr(l)}" for k, l, _ in out)
    raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------------------
# the cli workload: one `python -m convexval.cli` subprocess per op


def _poly_obj(points):
    return {"dim": len(points[0]), "vertices": [[fr(c) for c in p] for p in points]}


def _sum_obj(terms):
    return [{"coef": coef, "polytope": _poly_obj(points)} for coef, points in terms]


def _write(workdir, name, obj):
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        if isinstance(obj, str):
            fh.write(obj)
        else:
            json.dump(obj, fh)
    return name


def cli_argv(op: Op, workdir: str) -> list:
    """Write the op's input files into workdir and return the CLI arguments."""
    raw, kind, i = op.raw, op.kind, op.index
    if kind == "verify_bad_seed":
        return ["verify", "--seed", "x"]
    if kind == "decompose":
        basis = ";".join(",".join(fr(c) for c in v) for v in raw["basis"])
        return ["decompose", f"--basis={basis}", "--a", fr(raw["a"]), "--b", fr(raw["b"])]
    if kind == "expand_bad_json":
        return ["expand", "--input", _write(workdir, f"in{i}.json", json.dumps(_poly_obj(raw["points"]))[:-2])]
    if kind in ("mixed", "compare_equal", "compare_distinct"):
        p, q = raw["points"], raw["points2"]
        if kind == "mixed":
            first, second = _poly_obj(p), _poly_obj(q)
        elif kind == "compare_equal":
            shifted = [tuple(a + s for a, s in zip(v, raw["shift"])) for v in q]
            first, second = _sum_obj([(1, p), (1, q)]), _sum_obj([(1, shifted), (1, p)])
        else:
            first, second = _sum_obj([(1, p)]), _sum_obj([(1, [tuple(2 * c for c in v) for v in p])])
        verb = "mixed" if kind == "mixed" else "compare"
        return [verb, "--input", _write(workdir, f"in{i}a.json", first),
                "--input", _write(workdir, f"in{i}b.json", second)]
    path = _write(workdir, f"in{i}.json", _poly_obj(raw["points"]))
    return {
        "expand": ["expand", "--input", path, "--valuation", "volume"],
        "expand_probe_json": ["expand", "--input", path, "--probe", "std_simplex", "--format", "json"],
        "components_panel": ["components", "--input", path, "--panel", "volume,euler"],
        "components_json": ["components", "--input", path, "--format", "json"],
        "components_bad_panel": ["components", "--input", path, "--panel", "volume,bogus"],
        "ehrhart": ["ehrhart", "--input", path, "--lambda", "4"],
        "ehrhart_lambda_half": ["ehrhart", "--input", path, "--lambda", "1/2"],
        "ehrhart_lambda_negative": ["ehrhart", "--input", path, "--lambda", "-3"],
        "expand_degree_negative": ["expand", "--input", path, "--degree", "-1"],
    }[kind]


def run_cli(argv, workdir, env, shim=None):
    """One CLI process; with `shim` = (script, trace file) the traced entry runs it."""
    if shim is None:
        cmd = [sys.executable, "-m", "convexval.cli", *argv]
    else:
        cmd = [sys.executable, shim[0], shim[1], *argv]
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _text_fields(stdout: bytes) -> dict:
    fields = {}
    for line in stdout.decode().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def _flatten(obj, prefix=""):
    out = {}
    for k, v in obj.items():
        key = f"{prefix}.{k}" if prefix else k
        if isinstance(v, dict):
            out.update(_flatten(v, key))
        else:
            out[key] = v
    return out


def check_cli(lib, op: Op, out):
    code, stdout, stderr = out
    kind, raw = op.kind, op.raw
    canon = f"{code}|" + stdout.decode(errors="replace")
    if kind in KNOWN_DEFECTS or kind in _CLI_MALFORMED:
        ok = code == 2 and not stdout and any("error:" in l for l in stderr.decode().splitlines())
        return ok, canon
    fields = _flatten(json.loads(stdout)) if kind.endswith("_json") and code == 0 else _text_fields(stdout)
    d = raw["d"]
    F = lambda key: Fraction(fields[key])  # noqa: E731
    try:
        if kind == "decompose":
            got = [F(f"cells.cell_{i}.volume") for i in range(d + 1)]
            expected = cell_volumes(raw["basis"], raw["a"], raw["b"])
            return code == 0 and fields["result"] == "pass" and got == expected, canon
        if kind == "mixed":
            mv = gen.mixed_area_2d(raw["points"], raw["points2"])
            ok = (code == 0 and F("mixed_volume") == mv
                  and F("expansion_linear_coefficient") == 2 * mv and fields["cross_check"] == "pass")
            return ok, canon
        if kind == "compare_equal":
            return code == 0 and fields["result"] == "equal_on_panel", canon
        if kind == "compare_distinct":
            vol = body_volume(lib, raw["points"])
            ok = (code == 1 and fields["result"] == "distinguished"
                  and fields["witness.valuation"] == "volume"
                  and F("witness.left") == vol and F("witness.right") == 2 ** d * vol)
            return ok, canon
        vol = body_volume(lib, raw["points"])
        if kind == "expand":
            coeffs = [F(f"coefficients.f_{i}") for i in range(d + 1)]
            return code == 0 and coeffs == [Fraction(0)] * d + [vol], canon
        if kind == "expand_probe_json":
            coeffs = [F(f"coefficients.f_{i}") for i in range(d + 1)]
            return code == 0 and coeffs[0] == Fraction(1, factorial(d)) and coeffs[d] == vol, canon
        if kind in ("components_panel", "components_json"):
            volumes = [F(f"components.e_{i}.signature.volume") for i in range(d + 1)]
            eulers = [F(f"components.e_{i}.signature.euler") for i in range(d + 1)]
            ok = (code == 0 and volumes == [Fraction(0)] * d + [vol]
                  and eulers == [Fraction(1)] + [Fraction(0)] * d
                  and fields["components.e_0.sum"] == "[(" + ",".join("0" * d) + ")]")
            return ok, canon
        if kind == "ehrhart":
            coeffs = [F(f"coefficients.f_{i}") for i in range(d + 1)]
            counts = [int(fields[f"counts.{k}"]) for k in range(5)]
            ok = (code == 0 and coeffs[0] == 1 and coeffs[d] == vol
                  and all(poly_at(coeffs, k) == n for k, n in enumerate(counts)))
            return ok, canon
    except (KeyError, ValueError, ZeroDivisionError):
        return False, canon
    raise ValueError(f"unknown op kind {kind!r}")
