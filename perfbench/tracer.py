"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every binding of each traced function in the
loaded ``rauzyadic`` modules with a wrapper that records a span: name,
start, end, parent span and job.  ``from .x import f`` copies a function
into the importing module, so each module's namespace is searched for
the original object, not only the defining module.  Spans stay in
memory until ``write``; nothing is installed when tracing is off.

A span's self time is its duration minus the durations of its child
spans.  A few counts are read off arguments and results, at the same
boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# span name -> (module, attribute path); the class attribute of a
# classmethod is wrapped as a classmethod again
TRACED = {
    "words.factors_of": ("words", "factors_of"),
    "words.from_substitution": ("words", "FactorOracle.from_substitution"),
    "words.complexity_profile": ("words", "complexity_profile"),
    "sadic.language_horizon": ("sadic", "language_horizon"),
    "sadic.generate_one_sided": ("sadic", "generate_one_sided"),
    "sadic.weak_primitivity_check": ("sadic", "weak_primitivity_check"),
    "sadic.used_letters": ("sadic", "used_letters"),
    "schemas.Row.matches": ("schemas", "Row.matches"),
    "schemas.match_rows": ("schemas", "match_rows"),
    "morphism.decompose": ("morphism", "decompose"),
    "morphism.compose": ("morphism", "compose"),
    "validator.validate_directive": ("validator", "validate_directive"),
    "validator.valid_routings": ("validator", "valid_routings"),
    "validator.cross_validate": ("validator", "cross_validate"),
    "validator.sequences_equal_mod_exchange": ("validator", "sequences_equal_mod_exchange"),
    "rauzy.build_graph": ("rauzy", "build_graph"),
    "rauzy.reduce_and_classify": ("rauzy", "reduce_and_classify"),
    "rauzy.circuits_from": ("rauzy", "circuits_from"),
    "rauzy.right_special_chain": ("rauzy", "right_special_chain"),
    "extraction.extract_directive": ("extraction", "extract_directive"),
    "extraction.assign_theta": ("extraction", "assign_theta"),
    "extraction.extract_gamma": ("extraction", "extract_gamma"),
    "lengths.compute_length_state": ("lengths", "compute_length_state"),
    "cli_impl.route_prefix": ("cli_impl", "route_prefix"),
    "cli.main": ("cli", "main"),
}
NAMES = tuple(TRACED)

# counts read off arguments and results: span name -> {counter: fn(args, result)}
COUNTS = {
    "words.factors_of": {"letters": lambda a, r: len(a[0])},
    "sadic.generate_one_sided": {"levels": lambda a, r: r.levels_used,
                                 "letters": lambda a, r: len(r.prefix)},
    "schemas.Row.matches": {"hits": lambda a, r: 1 if r else 0},
    "validator.valid_routings": {"routings": lambda a, r: len(r)},
    "rauzy.circuits_from": {"circuits": lambda a, r: len(r),
                            "allowed": lambda a, r: sum(1 for c in r if c.allowed)},
    "extraction.extract_directive": {"records": lambda a, r: len(r.records)},
}

# the per-layer metrics a traced run reports, with units (BENCHMARK.json lists them)
PER_LAYER = {}
for _name in NAMES:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "words.factors_of.letters": "count",
    "sadic.language_horizon.factor_scans": "count",
    "sadic.generate_one_sided.levels": "count",
    "sadic.generate_one_sided.letters": "count",
    "schemas.Row.matches.hit_frac": "ratio",
    "validator.edge_tests.calls": "count",
    "validator.edge_tests.total_s": "s",
    "validator.valid_routings.routings": "count",
    "rauzy.circuits_from.allowed_frac": "ratio",
    "extraction.records": "count",
    "cli.stdout_bytes": "bytes",
    "jobs.refused_frac": "ratio",
    "jobs.failed_frac": "ratio",
    "trace.overhead": "ratio",
    "trace.self_coverage": "ratio",
    "trace.expected_share": "ratio",
})


def _resolve(owner, path):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self.current_job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, counts):
        name, parent, job, start, end = self.name, self.parent, self.job, self.start, self.end
        stack, perf = self._stack, time.perf_counter
        totals = self.counts
        label = NAMES[name_id]

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            job.append(self.current_job)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            for key, count in counts.items():
                totals[f"{label}.{key}"] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rauzyadic" or n.startswith("rauzyadic."))]
        for name_id, (span, (mod, path)) in enumerate(TRACED.items()):
            owner, attr = _resolve(sys.modules[f"rauzyadic.{mod}"], path)
            raw = vars(owner)[attr]
            counts = COUNTS.get(span, {})
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name_id, raw.__func__, counts)))
                continue
            wrapper = self._wrap(name_id, raw, counts)
            self._set(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __len__(self):
        return len(self.start)

    def aggregate(self, first: int) -> dict[str, float]:
        """Calls, self time and derived counts of the spans from ``first`` on,
        which must be whole jobs."""
        last = len(self.start)
        n = last - first
        child = [0.0] * n
        calls = defaultdict(int)
        self_s = defaultdict(float)
        ids = {name: i for i, name in enumerate(NAMES)}
        for i in range(last - 1, first - 1, -1):
            dur = self.end[i] - self.start[i]
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i - first]
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur
        # ancestry flags, parents first
        under_lh = [False] * n
        lh, fo = ids["sadic.language_horizon"], ids["words.factors_of"]
        mr = ids["schemas.match_rows"]
        validator = {ids[x] for x in NAMES if x.startswith("validator.")}
        scans = edge_calls = 0
        edge_time = 0.0
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                under_lh[i - first] = under_lh[p - first] or self.name[p] == lh
                if self.name[i] == mr and self.name[p] in validator:
                    edge_calls += 1
                    edge_time += self.end[i] - self.start[i]
            if self.name[i] == fo and under_lh[i - first]:
                scans += 1
        out = {}
        for nid, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out["sadic.language_horizon.factor_scans"] = scans
        out["validator.edge_tests.calls"] = edge_calls
        out["validator.edge_tests.total_s"] = edge_time
        return out

    def counters(self) -> dict[str, int]:
        """Totals of the COUNTS, keyed "<span name>.<counter>"."""
        return {f"{span}.{key}": self.counts[f"{span}.{key}"]
                for span, fns in COUNTS.items() for key in fns}

    def write(self, path: Path):
        """Spans as a JSON header line followed by the five arrays, raw."""
        with open(path, "wb") as f:
            header = {"names": NAMES, "spans": len(self.start),
                      "arrays": [["name", "H"], ["parent", "l"], ["job", "l"],
                                 ["start", "d"], ["end", "d"]]}
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.job, self.start, self.end):
                arr.tofile(f)
