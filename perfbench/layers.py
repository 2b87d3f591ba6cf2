"""Outside-in span tracing of the addingmachine layers.

Each listed public function is wrapped from outside, in every module that
holds a reference to it (so `conjugacy`'s by-name import of `is_minimal`
is traced like `finite_ifs.is_minimal` itself). Nothing under `src/` is
changed. A wrapper records one span per call: name, start, end, parent
span and op id. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import wraps

# (module, function, counter computed from the return value or None)
FUNCTIONS = (
    ("cli", "main", None),
    ("ifs_io", "load_ifs", None),
    ("finite_ifs", "tables_of_length", ("tables", len)),
    ("finite_ifs", "minimal_sets", None),
    ("finite_ifs", "nm_set", None),
    ("finite_ifs", "canonical_cover", None),
    ("finite_ifs", "is_minimal", None),
    ("finite_ifs", "regularly_recurrent_points", None),
    ("conjugacy", "find_mod_n_coloring", ("found", lambda r: int(hasattr(r, "colors")))),
    ("conjugacy", "extend_tower", None),
    ("conjugacy", "max_tower", None),
    ("conjugacy", "build_factor_map", None),
    ("conjugacy", "verify_equivariance", ("checks", lambda r: r.checks)),
    ("conjugacy", "tower_to_alpha", None),
    ("odometer", "from_residue", None),
    ("interval_dynamics", "tower_certificate", None),
    ("interval_dynamics", "detect_interval_cycle",
     ("certified", lambda r: int(r.status == "certified"))),
    ("interval_dynamics", "tent_eval", None),
    ("exactnum", "parse_exact", None),
    ("exactnum", "format_exact", None),
)

SURD_OPS = "exactnum.surd_ops"
SURD_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)
MAX_BITS = "exactnum.max_bits"

# functions the layer predictions say do work on each workload; a traced
# run in which one of them records no call has missed a reference
ACTIVE = {
    "ifs-rotation": {
        "cli.main", "ifs_io.load_ifs", "finite_ifs.tables_of_length",
        "finite_ifs.minimal_sets", "finite_ifs.nm_set", "finite_ifs.canonical_cover",
        "finite_ifs.is_minimal", "finite_ifs.regularly_recurrent_points",
        "conjugacy.find_mod_n_coloring", "conjugacy.extend_tower", "conjugacy.max_tower",
        "conjugacy.build_factor_map", "conjugacy.verify_equivariance",
        "conjugacy.tower_to_alpha", "odometer.from_residue",
    },
    "ifs-semigroup": {
        "cli.main", "ifs_io.load_ifs", "finite_ifs.tables_of_length",
        "finite_ifs.minimal_sets", "finite_ifs.nm_set", "finite_ifs.canonical_cover",
        "finite_ifs.is_minimal", "finite_ifs.regularly_recurrent_points",
        "conjugacy.find_mod_n_coloring", "conjugacy.extend_tower", "conjugacy.max_tower",
        "conjugacy.build_factor_map", "conjugacy.verify_equivariance",
        "conjugacy.tower_to_alpha",
    },
    "tent-certify": {
        "cli.main", "interval_dynamics.tower_certificate",
        "interval_dynamics.detect_interval_cycle", "interval_dynamics.tent_eval",
        "exactnum.parse_exact", "exactnum.format_exact", SURD_OPS,
    },
}

NAMES = tuple(f"{module}.{func}" for module, func, _ in FUNCTIONS) + (SURD_OPS,)
COUNTERS = tuple(f"{module}.{func}.{c[0]}" for module, func, c in FUNCTIONS if c) + (MAX_BITS,)


def _max_bits(det) -> int:
    """Largest numerator or denominator bit length among certified endpoints."""
    if det.status != "certified":
        return 0
    best = 0
    for interval in det.intervals:
        for x in interval:
            for part in (x.a, x.b) if hasattr(x, "r") else (x,):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    """Records spans while installed; `take` turns them into per-layer figures."""

    def __init__(self):
        self.op_id = -1
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._undo = []

    def _wrap(self, name_id: int, fn, counter=None):
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, clock, counters = self._stack, time.perf_counter, self.counters
        bits = name_id == NAMES.index("interval_dynamics.detect_interval_cycle")
        key, count = counter if counter else (None, None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if key is not None:
                counters[key] += count(result)
            if bits:
                counters[MAX_BITS] = max(counters[MAX_BITS], _max_bits(result))
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "addingmachine" or n.startswith("addingmachine."))]
        for name_id, (module, func, counter) in enumerate(FUNCTIONS):
            original = getattr(sys.modules[f"addingmachine.{module}"], func)
            wrapper = self._wrap(name_id, original,
                                 (f"{module}.{func}.{counter[0]}", counter[1]) if counter else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        surd = sys.modules["addingmachine.exactnum"].Surd
        for dunder in SURD_DUNDERS:
            original = surd.__dict__[dunder]
            setattr(surd, dunder, self._wrap(NAMES.index(SURD_OPS), original))
            self._undo.append((surd, dunder, original))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def take(self, first_span: int = 0):
        """Per-name calls and self seconds over the spans from first_span on,
        and the counters since the last take, which are then reset.

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so this is the uncovered part of the span.
        """
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        child = {}
        for i in range(len(self.name) - 1, first_span - 1, -1):
            duration = self.end[i] - self.start[i]
            calls[self.name[i]] += 1
            self_s[self.name[i]] += duration - child.pop(i, 0.0)
            p = self.parent[i]
            if p >= first_span:
                child[p] = child.get(p, 0.0) + duration
        counters = dict(self.counters)
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        return dict(zip(NAMES, calls)), dict(zip(NAMES, self_s)), counters

    def drop(self, first_span: int) -> None:
        """Forget the spans from first_span on."""
        for spans in (self.name, self.parent, self.op, self.start, self.end):
            del spans[first_span:]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for i in range(len(self.name)):
                fh.write(f"{self.op[i]},{NAMES[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]}\n")
