"""One cold episode of a workload, in a fresh interpreter.

run.py starts it as

    python3 bench/episode.py '{"workload": "grading", "seed": 1, "episode": 0,
                              "budget_s": 30, "ops": null, "trace": false}'

The episode imports the library, builds its op stream, then runs a closed
loop: one caller issues the next op only after the previous one returned.
The loop stops at the first round boundary after `budget_s` has passed (a
budget of 0 runs no op, which measures set-up alone), or, when `ops` is
given, after exactly that many ops. The loop starts cold and does no warm-up.
After the loop it checks every answer and prints one JSON line: the
monotonic time of the first op, the per-op latencies, failures, digests, peak
RSS and, when traced, the span sums.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import types

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0

import ops  # noqa: E402  (benchmark module; imports no library code)
import spans  # noqa: E402


def load_library():
    from convexval import bodygroup, diffcalc, polytope, valuations

    return types.SimpleNamespace(polytope=polytope, valuations=valuations,
                                 bodygroup=bodygroup, diffcalc=diffcalc)


def main(cfg: dict) -> dict:
    workload, traced = cfg["workload"], cfg["trace"]
    in_process = workload != "cli"
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    if traced and in_process:
        import convexval.cli  # noqa: F401  (the import every CLI call pays)
    import_s = time.perf_counter() - started
    lib = load_library()  # cli episodes use it only to check answers
    stream = ops.op_stream(workload, cfg["seed"], cfg["episode"])
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    trace_dir = os.path.join(OUT, "spans", f"{workload}-seed{cfg['seed']}")
    if traced:
        os.makedirs(trace_dir, exist_ok=True)
    tracer = spans.Tracer() if traced and in_process else None
    if tracer is not None:
        tracer.install()
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        done, latencies, child_sums = [], [], []
        at_boundary = True
        first_op = time.monotonic()
        loop_start = time.perf_counter()
        while True:
            if cfg["ops"] is None:
                if at_boundary and time.perf_counter() - loop_start >= cfg["budget_s"]:
                    break
            elif len(done) >= cfg["ops"]:
                break
            op = next(stream)
            at_boundary = op.last_in_round
            if not in_process:
                argv = ops.cli_argv(op, workdir)
                shim = None
                if traced:
                    shim = (os.path.join(BENCH, "cli_shim.py"),
                            os.path.join(trace_dir, f"episode{cfg['episode']}-op{op.index}.json"))
                t0 = time.perf_counter()
                out = ops.run_cli(argv, workdir, env, shim)
                t1 = time.perf_counter()
                if shim is not None:
                    with open(shim[1], encoding="utf-8") as fh:
                        child_sums.append(json.load(fh))
            elif tracer is not None:
                t0 = time.perf_counter()
                out = tracer.op(op.index, run_op_safely, lib, op)
                t1 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                out = run_op_safely(lib, op)
                t1 = time.perf_counter()
            latencies.append(t1 - t0)
            done.append((op, out))
        timed_s = time.perf_counter() - loop_start

        result = {"first_op": first_op, "timed_s": timed_s, "latencies": latencies}
        if tracer is not None:
            tracer.uninstall()
            sums = tracer.summary()
            sums["cli.import_s"] = [import_s]
            tracer.dump(os.path.join(trace_dir, f"episode{cfg['episode']}.tsv.gz"))
        elif traced:
            sums = {}
            for child in child_sums:
                spans.merge(sums, {k: v for k, v in child.items() if k not in ("cli.import_s", "cli.run_s")})
            sums["cli.import_s"] = [c["cli.import_s"] for c in child_sums]
            sums["cli.run_s"] = [c["cli.run_s"] for c in child_sums]
            sums["cli.process_s"] = latencies
        if traced:
            sums["trace.wall_s"] = timed_s
            result["trace"] = sums
        result.update(check_all(lib, cfg, done))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def run_op_safely(lib, op):
    try:
        return ops.run_op(lib, op)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return exc


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_all(lib, cfg, done) -> dict:
    """Check every answer; at the default seed also pin outputs to digests.json."""
    workload = cfg["workload"]
    expected = []
    if cfg["seed"] == DEFAULT_SEED and cfg["episode"] == 0:
        with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
            expected = json.load(fh).get(workload, [])
    failed, known, digests = [], 0, []
    for op, out in done:
        try:
            if isinstance(out, Exception):
                ok, canon = False, f"raised {type(out).__name__}: {out}"
            elif workload == "cli":
                ok, canon = ops.check_cli(lib, op, out)
            else:
                ok, canon = ops.check_op(lib, op, out)
        except Exception as exc:  # a malformed answer fails its op
            ok, canon = False, f"check raised {type(exc).__name__}: {exc}"
        digests.append(digest(canon))
        if op.index < len(expected) and expected[op.index] != digests[-1]:
            ok, canon = False, f"output changed from the default-seed digest: {canon}"
        if not ok:
            known += op.kind in ops.KNOWN_DEFECTS
            failed.append(f"{op.kind}#{op.index}: {canon[:300]}")
    return {"attempted": len(done), "failed": len(failed), "known_defects": known,
            "failures": failed[:20], "digests": digests}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
