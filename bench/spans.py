"""Tracing from outside the library: wrap public functions, record spans.

`Tracer.install` replaces each function in `TARGETS` by a wrapper in every
loaded `convexval` module that holds the same object under that name (so
`polytope.hull` is traced when `valuations`, `bodygroup` or the package
namespace call it too), and patches methods on their class. A span is
(name, start, end, parent, op id); spans stay in memory and `dump` writes
them once, at the end. `summary` reduces them to additive raw sums, so the
sums of several processes can be merged before the metrics are derived.
"""

from __future__ import annotations

import gc
import gzip
import sys
from array import array
from math import ceil, floor
from time import perf_counter_ns

import gen

TARGETS = {
    "polytope": (
        "hull", "minkowski_sum", "volume", "contains", "dim", "lattice_count", "dilate",
        "translate", "simplex_basis", "simplex_from_basis", "simplex_coordinates",
        "decomposition_pieces", "verify_decomposition",
    ),
    "diffcalc": ("extract_components", "iterated_delta"),
    "valuations": (
        "evaluate", "evaluate_sum", "expansion_of_dilation", "ehrhart_expansion",
        "mixed_volume_2d", "default_panel",
    ),
    "bodygroup": (
        "FormalSum.__add__", "FormalSum.__neg__", "FormalSum.__rmul__", "class_rep",
        "class_of", "dilate_class", "mcmullen_components", "component_extraction_on_sum",
        "panel_compare", "verify_idempotence", "verify_homogeneity",
        "simplex_identity_as_classes",
    ),
    "cli": ("run",),
}
LAYERS = ("polytope", "diffcalc", "valuations", "bodygroup", "cli")
OP = "bench.op"
EXTRACT = "diffcalc.extract_components"
EVALS = ("bodygroup.dilate_class", "valuations.evaluate", "polytope.lattice_count")


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.name_ids = {OP: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.current_op = -1
        self.kept = {}  # name -> list of inputs/outputs kept for the derived counts
        self.add_terms = 0
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0
        self._restore = []
        self.cache_info = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.current_op)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter_ns()
        self.stack.pop()

    def op(self, op_id, fn, *args):
        """Run fn(*args) as op `op_id` under a root span."""
        self.current_op = op_id
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.current_op = -1

    def _wrapper(self, qualname, fn):
        name_id = self.name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        keep = self.kept.setdefault(qualname, []) if qualname in _KEEP else None
        which = _KEEP.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if keep is not None:
                keep.append(result if which == "result" else args)
            elif qualname == "bodygroup.FormalSum.__add__":
                tracer.add_terms += len(args[0].terms) + len(getattr(args[1], "terms", ()))
            return result

        traced.__wrapped__ = fn
        return traced

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += perf_counter_ns() - self._gc_start

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "convexval" or n.startswith("convexval.")]
        for mod_name, names in TARGETS.items():
            home = sys.modules.get(f"convexval.{mod_name}")
            if home is None:
                continue
            for name in names:
                qualname = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrapper(qualname, original))
                    self._restore.append((cls, meth, original))
                    continue
                original = getattr(home, name)
                wrapped = self._wrapper(qualname, original)
                for mod in modules:
                    if mod.__dict__.get(name) is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))
        gc.callbacks.append(self._gc)

    def uninstall(self):
        """Restore the originals and read the library's own cache counters."""
        gc.callbacks.remove(self._gc)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        for key, mod_name, attr in (("polytope.dim", "polytope", "dim"),
                                    ("valuations.evaluate", "valuations", "_evaluate")):
            mod = sys.modules.get(f"convexval.{mod_name}")
            if mod is not None:
                info = getattr(mod, attr).cache_info()
                self.cache_info[key] = (info.hits, info.misses)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Additive raw sums over this process's spans."""
        n = len(self.name)
        child = [0] * n
        nearest_extract = [-1] * n
        extract_id = self.name_ids.get(EXTRACT, -2)
        eval_ids = {self.name_ids[e] for e in EVALS if e in self.name_ids}
        sums = {}

        def add(key, value):
            sums[key] = sums.get(key, 0) + value

        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            nid = self.name[i]
            if p >= 0:
                child[p] += dur
                nearest_extract[i] = nearest_extract[p]
            if nid in eval_ids and nearest_extract[i] >= 0:
                add(f"{EXTRACT}.evals", 1)
            if nid == extract_id:
                nearest_extract[i] = i
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            self_s = (dur - child[i]) / 1e9
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            add(f"layer.{name.split('.')[0]}.self_s", self_s)
            if self.parent[i] < 0:
                add("ops.wall_s", dur / 1e9)
        hulls = self.kept.get("polytope.hull", [])
        add("polytope.hull.calls_3d", sum(1 for P in hulls if gen.affine_dim(P.vertices) == 3))
        add("polytope.minkowski_sum.distinct", len(set(self.kept.get("polytope.minkowski_sum", []))))
        add("bodygroup.mcmullen_components.distinct",
            len({args for args in self.kept.get("bodygroup.mcmullen_components", [])}))
        add("polytope.lattice_count.candidates",
            sum(_box_points(args[0]) for args in self.kept.get("polytope.lattice_count", [])))
        add("bodygroup.FormalSum.__add__.terms", self.add_terms)
        for key, (hits, misses) in self.cache_info.items():
            add(f"{key}.hits", hits)
            add(f"{key}.misses", misses)
        add("runtime.gc_collections", self.gc_collections)
        add("runtime.gc_pause_s", self.gc_pause_ns / 1e9)
        add("spans", n)
        return sums

    def dump(self, path):
        """Write every span once: name, start_ns, end_ns, parent, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                         f"\t{self.parent[i]}\t{self.op_id[i]}\n")


# what to keep per call for the derived counts: the result, or the arguments
_KEEP = {
    "polytope.hull": "result",
    "polytope.minkowski_sum": "result",
    "polytope.lattice_count": "args",
    "bodygroup.mcmullen_components": "args",
}


def _box_points(P) -> int:
    """Integer points of P's bounding box: the candidates lattice_count scans."""
    total = 1
    for i in range(P.ambient_dim):
        lo = ceil(min(v[i] for v in P.vertices))
        hi = floor(max(v[i] for v in P.vertices))
        total *= max(hi - lo + 1, 0)
    return total


def merge(total: dict, part: dict) -> dict:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total
