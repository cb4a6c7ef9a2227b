"""Cold-process benchmark of convexval.

    python3 bench/run.py --workload library --seed 1 --seconds 55 --trace 0

Run from the root of a checkout (the directory holding `src/convexval`).
The workload runs in one fresh interpreter (`episode.py`) that starts with
cold module-level caches and runs a closed loop of ops for `--seconds`,
stopping at the next round boundary. SETUP_PROBES more interpreters only set
up and exit. Every answer is checked after the loop.

With `--trace 0` the last stdout line carries the end-to-end metrics:
ops_per_s, op_p50_ms, op_tail_ms (the latency with exactly 10 ops above it),
setup_s (spawn to first op, median over the measuring interpreter and the
probes) and peak_rss_mb. With `--trace 1` the workload first runs untraced
for half of `--seconds`, then a traced interpreter replays exactly the same
ops, and the last line carries the per-layer metrics. The line before the
last is provenance, a JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 10
EPISODE_TIMEOUT_S = 120

sys.path.insert(0, BENCH)
import ops  # noqa: E402
import spans  # noqa: E402


def run_episode(cfg: dict) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "episode.py"), json.dumps(cfg)],
        cwd=ROOT, capture_output=True, text=True, timeout=EPISODE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"episode {cfg['episode']} of {cfg['workload']} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["first_op"] - spawned
    return result


def tail(latencies):
    """Latency with exactly 10 ops above it, and the percentile it sits at."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def ratio(num, den):
    return num / den if den else 0.0


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "src_lines": src_lines, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds}


def end_to_end(run, probes) -> tuple[dict, dict]:
    latencies = run["latencies"]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": (len(latencies) / run["timed_s"], "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in [run] + probes), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return metrics, {"ops": len(latencies), "op_tail_percentile": round(tail_pct, 3)}


def per_layer(workload, untraced, traced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced replay; the untraced run is the overhead baseline."""
    s = {k: v for k, v in traced["trace"].items() if not isinstance(v, list)}
    lists = {k: traced["trace"].get(k, []) for k in ("cli.import_s", "cli.run_s", "cli.process_s")}
    g = lambda key: s.get(key, 0)  # noqa: E731
    wall = g("trace.wall_s")
    traced_ops = len(traced["latencies"])
    untraced_rate = ratio(len(untraced["latencies"]), untraced["timed_s"])
    traced_rate = ratio(traced_ops, wall)
    med = lambda key: statistics.median(lists[key]) if lists.get(key) else 0.0  # noqa: E731

    shares = {layer: ratio(g(f"layer.{layer}.self_s"), wall) for layer in spans.LAYERS}
    if workload == "cli":
        process = sum(lists["cli.process_s"])
        imports, runs = sum(lists["cli.import_s"]), sum(lists["cli.run_s"])
        shares["cli"] += ratio(imports, wall)
        runtime = ratio(process - imports - runs, wall)
        bench = ratio(wall - process + g("layer.bench.self_s"), wall)
    else:
        runtime = 0.0
        bench = ratio(wall - g("ops.wall_s") + g("layer.bench.self_s"), wall)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for fn in ("polytope.hull", "polytope.contains", "polytope.lattice_count", "diffcalc.extract_components",
               "diffcalc.iterated_delta", "bodygroup.FormalSum.__add__", "bodygroup.dilate_class"):
        put(f"{fn}.calls", g(f"{fn}.calls"), "count")
        put(f"{fn}.self_s", g(f"{fn}.self_s"), "s")
    for fn in ("polytope.minkowski_sum", "polytope.dim", "bodygroup.mcmullen_components", "valuations.evaluate"):
        put(f"{fn}.calls", g(f"{fn}.calls"), "count")
    for fn in ("polytope.volume", "valuations.evaluate_sum", "valuations.expansion_of_dilation",
               "valuations.ehrhart_expansion"):
        put(f"{fn}.self_s", g(f"{fn}.self_s"), "s")
    put("polytope.hull.calls_3d", g("polytope.hull.calls_3d"), "count")
    put("polytope.minkowski_sum.distinct_ratio",
        ratio(g("polytope.minkowski_sum.distinct"), g("polytope.minkowski_sum.calls")), "ratio")
    put("polytope.dim.hit_ratio", ratio(g("polytope.dim.hits"), g("polytope.dim.hits") + g("polytope.dim.misses")), "ratio")
    put("polytope.lattice_count.candidates", g("polytope.lattice_count.candidates"), "count")
    put("diffcalc.extract_components.evals_per_call",
        ratio(g("diffcalc.extract_components.evals"), g("diffcalc.extract_components.calls")), "count")
    put("bodygroup.FormalSum.__add__.terms_mean",
        ratio(g("bodygroup.FormalSum.__add__.terms"), g("bodygroup.FormalSum.__add__.calls")), "count")
    put("bodygroup.mcmullen_components.distinct_ratio",
        ratio(g("bodygroup.mcmullen_components.distinct"), g("bodygroup.mcmullen_components.calls")), "ratio")
    put("valuations.evaluate.hit_ratio",
        ratio(g("valuations.evaluate.hits"), g("valuations.evaluate.hits") + g("valuations.evaluate.misses")), "ratio")
    put("cli.import_s", med("cli.import_s"), "s")
    put("cli.run_s", med("cli.run_s"), "s")
    put("cli.process_s", med("cli.process_s"), "s")
    put("runtime.gc_collections", g("runtime.gc_collections"), "count")
    put("runtime.gc_pause_s", g("runtime.gc_pause_s"), "s")
    for layer, share in shares.items():
        put(f"{layer}.self_share", share, "ratio")
    put("runtime.self_share", runtime, "ratio")
    put("bench.self_share", bench, "ratio")
    put("trace.accounted_share", sum(shares.values()) + runtime + bench, "ratio")
    put("trace.ops", traced_ops, "count")
    put("trace.spans", g("spans"), "count")
    put("trace.untraced_ops_per_s", untraced_rate, "1/s")
    put("trace.traced_ops_per_s", traced_rate, "1/s")
    put("trace.overhead_ratio", ratio(untraced_rate, traced_rate) - 1 if traced_rate else 0.0, "ratio")
    order = sorted(list(shares.items()) + [("runtime", runtime), ("bench", bench)], key=lambda kv: -kv[1])
    functions = sorted(((k[: -len(".self_s")], ratio(v, wall)) for k, v in s.items()
                        if k.endswith(".self_s") and not k.startswith("layer.")), key=lambda kv: -kv[1])
    top = {"largest_layer_shares": [[k, round(v, 4)] for k, v in order[:4]],
           "largest_function_shares": [[k, round(v, 4)] for k, v in functions[:6]]}
    if workload == "cli":
        top["cli_import_share_of_p50"] = round(ratio(med("cli.import_s"), med("cli.process_s")), 4)
    return m, top


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "convexval", "__init__.py")):
        sys.stderr.write(f"error: no convexval sources under {SRC}; run from a checkout of the repository\n")
        return 2
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    cfg = {"workload": args.workload, "seed": args.seed, "episode": 0, "ops": None, "trace": False,
           "budget_s": args.seconds / 2 if args.trace else args.seconds}
    run = run_episode(cfg)
    if args.trace:
        runs = [run, run_episode(dict(cfg, ops=len(run["latencies"]), trace=True))]
        metrics, extra = per_layer(args.workload, *runs)
    else:
        probes = [run_episode(dict(cfg, episode=k, budget_s=0)) for k in range(1, SETUP_PROBES + 1)]
        runs = [run] + probes
        metrics, extra = end_to_end(run, probes)
    body = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    known = sum(r["known_defects"] for r in runs)
    info = provenance(args)
    info.update(extra)
    info.update({"ops_failed_ratio": {"value": ratio(failed, attempted), "unit": "ratio"},
                 "known_defect_ops": known,
                 "failures": [f for r in runs for f in r["failures"]][:10]})
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"digests-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(run["digests"], fh)
    print(json.dumps({"provenance": info}))
    print(json.dumps({"correct": failed == known, "attempted": attempted, "failed": failed, "metrics": body}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
