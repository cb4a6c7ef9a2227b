"""The CLI's exit-code contract over seeded valid and malformed argv.

Exit 0 means every check passed, 1 that a check failed and 2 a usage or
parse error. On 2, stdout is empty and stderr holds exactly one `error:`
line. No call prints a traceback or a `Fraction(` repr, and each finishes
within an alarm of a few seconds.
"""

import json
import random
import signal
import time
from pathlib import Path

import pytest

from convexval.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

# file name -> JSON value: bodies, formal sums, then malformed inputs
FILES = {
    "segment": {"dim": 1, "vertices": [["0"], ["1"]]},
    "segment3": {"dim": 1, "vertices": [["-1/2"], ["5/2"]]},
    "square": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
    "triangle": {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "1/3"]]},
    "padded": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1/4", "1/4"]]},
    "point2": {"dim": 2, "vertices": [["1/2", "3"]]},
    "tet": {"dim": 3, "vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],
                                   ["0", "0", "1"]]},
    "flat3": {"dim": 3, "vertices": [["0", "0", "0"], ["1", "1", "0"], ["2", "0", "0"]]},
    "sum_square": [{"coef": 2, "polytope": {"dim": 2, "vertices": [["0", "0"], ["1", "1"]]}},
                   {"coef": -1, "polytope": {"dim": 2, "vertices": [["0", "0"], ["1", "0"]]}}],
    "sum_zero": [],
    "sum_segment": [{"coef": 1, "polytope": {"dim": 1, "vertices": [["0"], ["2"]]}}],
    "sum_no_coef": [{"polytope": {"dim": 1, "vertices": [["0"]]}}],
    "sum_float_coef": [{"coef": 1.5, "polytope": {"dim": 1, "vertices": [["0"]]}}],
    "sum_bool_coef": [{"coef": True, "polytope": {"dim": 1, "vertices": [["0"]]}}],
    "sum_not_list": {"coef": 1},
    "sum_mixed_dims": [{"coef": 1, "polytope": {"dim": 1, "vertices": [["0"]]}},
                       {"coef": 1, "polytope": {"dim": 2, "vertices": [["0", "0"]]}}],
    "wrong_length": {"dim": 2, "vertices": [["0", "0"], ["1"]]},
    "wrong_dim": {"dim": 3, "vertices": [["0", "0"], ["1", "1"]]},
    "empty_vertices": {"dim": 2, "vertices": []},
    "vertices_not_list": {"dim": 2, "vertices": "0,0"},
    "vertex_not_list": {"dim": 1, "vertices": ["0"]},
    "no_vertices": {"dim": 2},
    "no_dim": {"vertices": [["0"]]},
    "dim_zero": {"dim": 0, "vertices": [[]]},
    "dim_string": {"dim": "2", "vertices": [["0", "0"]]},
    "dim_bool": {"dim": True, "vertices": [["0"]]},
    "bad_rational": {"dim": 1, "vertices": [["1/x"], ["2"]]},
    "zero_denominator": {"dim": 1, "vertices": [["1/0"], ["2"]]},
    "float_coordinate": {"dim": 1, "vertices": [[0.5], ["2"]]},
    "bool_coordinate": {"dim": 1, "vertices": [[True], ["2"]]},
    "null_coordinate": {"dim": 1, "vertices": [[None], ["2"]]},
    "top_level_list": [["0"], ["1"]],
    "top_level_number": 7,
}
RAW = {
    "bad_json": "{\"dim\": 1, \"vertices\": [[\"0\"]",
    "empty_file": "",
    "not_utf8": b"\xff\xfe{",
}
BODIES = ["segment", "segment3", "square", "triangle", "padded", "point2", "tet", "flat3"]
SUMS = ["sum_square", "sum_zero", "sum_segment"]
BAD = [name for name in FILES if name not in BODIES + SUMS] + list(RAW) + ["missing"]

RATIONALS = ["1", "2", "1/2", "3/2", " 2/3 ", "7"]
BAD_RATIONALS = ["", "x", "1/0", "0", "-1", "1//2", "nan", "inf", "1.5.2", "2/-0", "½"]
DEGREES = ["0", "1", "2", "3"]
BAD_NUMBERS = ["-1", "1/2", "x", "", "1e3", "2.0"]
TOKENS = ["volume", "euler", "probe:unit_cube", "probe:std_simplex", "probe:asym_simplex"]
BAD_TOKENS = ["probe:nope", "support", "lattice", "probe:", "volume;euler", ",", " "]
BASES = ["1", "2;", "1,0;0,1", "1,1;0,2", "1/2,0;1,1", "1,0,0;0,1,0;0,0,1"]
BAD_BASES = [";", "", "1,0;2,0", "1,0;1", "x,1;0,1", "1/0", "0", "1,0;0,1;1,1"]


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, obj in FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    for name, data in RAW.items():
        paths[name] = tmp_path / f"{name}.json"
        if isinstance(data, bytes):
            paths[name].write_bytes(data)
        else:
            paths[name].write_text(data)
    paths["missing"] = tmp_path / "missing.json"
    return {name: str(path) for name, path in paths.items()}


def _argv(rng, files):
    """One argv: a subcommand with valid and malformed options mixed."""
    bad = rng.random() < 0.5

    def pick(good, wrong):
        return rng.choice(wrong if bad and rng.random() < 0.5 else good)

    def inputs(pool, count):
        return [x for name in rng.sample(pool, count) for x in ("--input", files[name])]

    command = rng.choice(["expand", "components", "decompose", "verify", "ehrhart", "mixed",
                          "compare", "nope"])
    if command == "nope":
        return [rng.choice(["nope", "", "--format"])]
    argv = [command]
    if command in ("expand", "components", "ehrhart"):
        pool = BAD if bad and rng.random() < 0.5 else BODIES
        argv += inputs(pool, rng.choice([1, 1, 1, 2, 0]) if bad else 1)
    elif command in ("mixed", "compare"):
        pool = BODIES if command == "mixed" else SUMS
        if bad and rng.random() < 0.5:
            pool = pool + BAD
        argv += inputs(pool, rng.choice([2, 2, 1, 0, 3]) if bad else 2)
    if command == "expand":
        if rng.random() < 0.5:
            argv += ["--valuation", pick(TOKENS[:2], BAD_TOKENS + ["probe:unit_cube"])]
        if rng.random() < 0.5:
            argv += ["--probe", pick(["unit_cube", "std_simplex", "asym_simplex"],
                                     ["nope", "", "volume"])]
        if rng.random() < 0.5:
            argv += ["--degree", pick(DEGREES, BAD_NUMBERS + ["13", "30"])]
    elif command == "components":
        if rng.random() < 0.5:
            argv += ["--panel", pick([",".join(rng.sample(TOKENS, rng.randint(1, 5)))],
                                     BAD_TOKENS + ["volume," + rng.choice(BAD_TOKENS)])]
        if rng.random() < 0.5:
            argv += ["--degree", pick(DEGREES, BAD_NUMBERS + ["9", "30"])]
    elif command == "decompose":
        if not (bad and rng.random() < 0.2):
            argv += ["--basis", pick(BASES[:5] if rng.random() < 0.9 else BASES, BAD_BASES)]
        for flag in ("--a", "--b"):
            if rng.random() < 0.5:
                argv += [flag, pick(RATIONALS, BAD_RATIONALS)]
    elif command == "verify":
        # a full verify takes seconds: only malformed seeds and options
        argv += rng.choice([["--seed", rng.choice(BAD_NUMBERS[1:])], ["--seed"], ["--stats", "x"],
                            ["--input", files["segment"]], ["--seed", "0", "--format", "xml"]])
    elif command == "ehrhart":
        if rng.random() < 0.7:
            argv += ["--lambda", pick(["0", "1", "4", "6"], BAD_NUMBERS + ["100000000", "10000"])]
        if rng.random() < 0.3:
            argv += ["--degree", pick(DEGREES, BAD_NUMBERS + ["13"])]
    elif command == "compare" and rng.random() < 0.5:
        argv += ["--panel", pick(TOKENS, BAD_TOKENS)]
    if rng.random() < 0.3:
        argv += ["--format", pick(["text", "json"], ["xml", "", "JSON"])]
    if bad and rng.random() < 0.1:
        argv += [rng.choice(["--unknown", "extra", "--degree"])]
    return argv


def _on_alarm(signum, frame):
    raise TimeoutError("call ran past its alarm")


def test_seeded_argv_keep_the_exit_code_contract(files, capsys):
    rng = random.Random(20261020)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    codes = {0: 0, 1: 0, 2: 0}
    start = time.perf_counter()
    try:
        for _ in range(1000):
            argv = _argv(rng, files)
            signal.setitimer(signal.ITIMER_REAL, 3)
            try:
                code = run(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out, err = capsys.readouterr()
            assert code in codes, argv
            codes[code] += 1
            assert "Traceback" not in err and "Fraction(" not in out + err, argv
            errors = [line for line in err.splitlines() if "error:" in line]
            if code == 2:
                assert out == "" and len(errors) == 1, (argv, out, err)
            else:
                assert out and not errors, (argv, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the grammar reaches every outcome, and mostly stays cheap
    assert min(codes.values()) >= 20, codes
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["expand", "--input", "segment.json", "--degree", "13"],
    ["expand", "--input", "segment.json", "--degree", "30"],
    ["ehrhart", "--input", "segment.json", "--degree", "13"],
    ["ehrhart", "--input", "segment.json", "--lambda", "100000000"],
    ["ehrhart", "--input", "tet-width3.json", "--lambda", "27"],
], ids=lambda argv: " ".join(argv[3:]) + " " + argv[0])
def test_guards_refuse_before_any_work(argv, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN_DIR)
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1
    assert "scan over 500000 candidates" in err or "extraction degree" in err


def test_scan_guard_passes_the_largest_lambda(monkeypatch, capsys):
    # the 27-dilate's box would hold 82^3 > 500000 points
    monkeypatch.chdir(GOLDEN_DIR)
    assert run(["ehrhart", "--input", "tet-width3.json", "--lambda", "26"]) == 0
    # conv(0, 3e1, 3e2, 3e3): its 26-dilate holds C(81, 3) lattice points
    assert "counts.26 = 85320\n" in capsys.readouterr().out
