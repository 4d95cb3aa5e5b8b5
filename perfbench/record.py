#!/usr/bin/env python3
"""Regenerate the benchmark's frozen data files.

    python3 perfbench/record.py pools       # data/pools.json (slow: runs every pool job)
    python3 perfbench/record.py reference   # data/reference.json (runs every possible job)

``pools`` draws random directive words from the refined-graph edge
tables, in a canonical order (edges sorted by vertex pair, rows by id,
assignments by their items) so that the draw depends only on the master
seed below and the tables' content, never on dict order.  Each pool
entry carries the cost of its job at the commit that recorded it: the
median of three runs, in seconds scaled by the speed probe as in run.py.
The benchmark uses costs only to leave out the slowest entries and to
stratify its seeded samples.  (In the committed file the crosscheck costs
are single raw runs; the route costs were recorded as above.)

``reference`` runs every job any seed can produce and stores the digest
of its stdout and outcome, against which ``run.py`` reports
``outputs_changed``.  Run it only when a change is meant to alter
outputs, and say so.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs as jobs_mod  # noqa: E402
from probe import SpeedProbe  # noqa: E402
import workloads  # noqa: E402

MASTER_SEED = 20130502
COMPONENTS = {"C1": ("2",), "C2": ("V0", "V1", "V2"), "C3": ("4B",),
              "C4": ("1", "5/6", "7/8", "10B")}
# entry morphisms that lead from the start vertex into C2 and C3
ENTRIES = {"C1": (), "C2": ("[0,120,20]",), "C3": ("[0,10,120]",), "C4": ()}
CANDIDATES_PER_COMPONENT = 250
LENGTHS_CANDIDATES = 300
CROSSCHECK_POOL = 120


def _tables():
    from rauzyadic.schemas import GPRIME_EDGES, _ASSIGNMENTS
    edges = [(key, sorted(rows, key=lambda r: r.rid)) for key, rows in sorted(GPRIME_EDGES.items())]
    assigns = {k: sorted((dict(a) for a in v), key=lambda a: sorted(a.items()))
               for k, v in sorted(_ASSIGNMENTS.items())}
    return edges, assigns


def _label(rng, row, assigns):
    for _ in range(8):
        assign = rng.choice(assigns[row.vars])
        k, l = rng.randint(0, 3), rng.randint(0, 3)
        if row.cond is not None and not row.cond(k, l):
            continue
        m = row.instantiate(dict(assign), k, l, with_third=True)
        if m is not None:
            return m
    return None


def _walk(rng, tables, start, allowed, length, close=False):
    """Labels of a random edge path of the given length inside ``allowed``,
    ending back at its start when ``close``."""
    edges, assigns = tables
    v, labels = start, []
    for i in range(length):
        last = i == length - 1
        targets = [(dst, rows) for (src, dst), rows in edges
                   if src == v and dst in allowed and (not close or not last or dst == start)]
        if not targets:
            return None
        dst, rows = rng.choice(targets)
        m = _label(rng, rng.choice(rows), assigns)
        if m is None:
            return None
        labels.append(m)
        v = dst
    return labels


def _directive_text(pre, per) -> str | None:
    from rauzyadic.errors import RauzyadicError
    from rauzyadic.sadic import DirectiveWord, format_directive, parse_morphism_spec
    try:
        dw = DirectiveWord(tuple(parse_morphism_spec(m) if isinstance(m, str) else m for m in pre),
                           tuple(per))
    except (ValueError, RauzyadicError):
        return None
    return format_directive(dw)


def _cost(cli, job, tmp) -> float:
    """Median time of three runs, each scaled by the speed probe."""
    paths = jobs_mod.write_inputs([job], tmp)
    runs = []
    with SpeedProbe() as probe:
        for _ in range(3):
            t0 = time.perf_counter()
            seconds = jobs_mod.run_job(cli, job, paths).seconds
            runs.append((seconds, t0, time.perf_counter()))
    return round(statistics.median(r * probe.scale(a, b) for r, a, b in runs), 4)


def build_pools() -> dict:
    import rauzyadic.cli as cli
    tables = _tables()
    rng = random.Random(MASTER_SEED)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    route, seen = [], set()
    for comp, verts in COMPONENTS.items():
        for _ in range(CANDIDATES_PER_COMPONENT):
            cyc = _walk(rng, tables, rng.choice(verts), verts, rng.randint(1, 3), close=True)
            text = cyc and _directive_text(ENTRIES[comp], cyc)
            if not text or text in seen:
                continue
            seen.add(text)
            job = workloads.validate_job(text)
            route.append({"comp": comp, "dw": text, "cost": _cost(cli, job, tmp)})
    lengths = []
    for _ in range(LENGTHS_CANDIDATES):
        # a finite prefix that enters the last component from the start vertex
        path = _walk(rng, tables, "2", COMPONENTS["C4"], rng.randint(2, 4))
        text = path and _directive_text(path, ())
        if text and text not in seen:
            seen.add(text)
            lengths.append({"dw": text, "cost": _cost(cli, workloads.lengths_job(text), tmp)})
    # directives that validate calls valid, taken from the components in turn
    by_comp = {comp: [] for comp in COMPONENTS}
    for entry in route:
        job = workloads.validate_job(entry["dw"])
        if jobs_mod.run_job(cli, job, jobs_mod.write_inputs([job], tmp)).code == 0:
            by_comp[entry["comp"]].append(entry)
    turns = [e for group in itertools.zip_longest(*by_comp.values()) for e in group if e]
    valid = []
    for entry in turns[:CROSSCHECK_POOL]:
        job = workloads.crosscheck_job(entry["dw"])
        valid.append({"comp": entry["comp"], "dw": entry["dw"], "cost": _cost(cli, job, tmp)})
    committed = {p.stem: p.read_text() for p in sorted((ROOT / "directives").glob("*.dw"))}
    return {"master_seed": MASTER_SEED, "committed": committed, "route_validate": route,
            "route_lengths": lengths, "crosscheck_valid": valid}


def build_reference() -> dict:
    import rauzyadic.cli as cli
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    ref = {}
    for name in workloads.WORKLOADS:
        every = workloads.all_jobs(name)
        paths = jobs_mod.write_inputs(every, tmp)
        for job in every:
            if job.key not in ref:
                ref[job.key] = jobs_mod.run_job(cli, job, paths).digest
        print(f"{name}: {len(every)} jobs", file=sys.stderr)
    return ref


def main():
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    if what == "pools":
        data = build_pools()
        (HERE / "data" / "pools.json").write_text(json.dumps(data, indent=0) + "\n")
    elif what == "reference":
        data = build_reference()
        text = json.dumps(data, indent=0, sort_keys=True)
        (HERE / "data" / "reference.json").write_text(text + "\n")
    else:
        raise SystemExit("usage: record.py pools|reference")


if __name__ == "__main__":
    main()
