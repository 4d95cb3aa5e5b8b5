#!/usr/bin/env python3
"""Benchmark of the rauzyadic command line, end to end and per layer.

    python3 perfbench/run.py --workload route --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process, one thread, one job at a
time: a job is one in-process call to ``rauzyadic.cli.main(argv)`` on
input files made from the seed before timing starts.  The workload's
batch of jobs runs as a closed loop, pass after pass, while another pass
still fits in ``--seconds``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by traced passes, and the
last line reports the per-layer metrics (see tracer.py).  Lines before
it give every metric by name and unit, the outcome of every job by exit
code and error type, the brute-force checks, ``input_sha256`` and
``outputs_changed`` (job digests against data/reference.json).  Spans
and a per-job report go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import brute  # noqa: E402
import jobs as jobs_mod  # noqa: E402
from probe import SpeedProbe  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SETUP_ROUNDS = 5
# the traced run reports a miss when cli.main's self time, which holds
# argparse, I/O and every function the tracer does not wrap, is a larger
# share of the traced wall time than this
CLI_SELF_MAX = 0.1
# untraced, a job shorter than SHORT_JOB_S runs again, up to SHORT_JOB_RUNS
# times in all, until its runs add up to SHORT_JOB_S; its time in the pass
# is their median.  Job times near the median are a few hundredths of a
# second and differ by a few percent from one rank to the next, so the
# noise of one run moves job_p50_s across several ranks.
SHORT_JOB_S, SHORT_JOB_RUNS = 0.1, 5
# name prefixes of the layers expected to dominate self time on each workload
EXPECTED = {
    "route": ("schemas.Row.matches",),
    "crosscheck": ("sadic.language_horizon", "words.factors_of"),
    "sources": ("words.", "rauzy."),
    "generate": ("words.factors_of",),
}


def fresh_cli():
    """Import the library from the checkout's sources, dropping any copy
    imported before, so that every set-up round pays the import."""
    for name in [n for n in sys.modules if n == "rauzyadic" or n.startswith("rauzyadic.")]:
        del sys.modules[name]
    cli = importlib.import_module("rauzyadic.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rauzyadic imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(name: str, seed: int, inputs: Path):
    """Import, input generation and warm-up; returns (cli, jobs, paths)."""
    workloads.pools.cache_clear()
    workloads.right_specials.cache_clear()
    cli = fresh_cli()
    batch = workloads.batch(name, seed)
    warm = workloads.warmup()
    paths = jobs_mod.write_inputs(batch + warm, inputs)
    for job in warm:
        jobs_mod.run_job(cli, job, paths)
    return cli, batch, paths


def run_pass(cli, batch, paths, tr=None):
    """One pass over the batch: each job's outcome (of its first run), its
    first run's time and its time (the median of its runs), both scaled by
    the speed probe (see probe.py), and the raw time of the first runs."""
    gc.collect()
    outs, job_runs = [], []
    max_runs = SHORT_JOB_RUNS if tr is None else 1
    with SpeedProbe() as probe:
        for i, job in enumerate(batch):
            if tr is not None:
                tr.current_job = i
            runs = []
            while not runs or (len(runs) < max_runs and sum(r for r, _, _ in runs) < SHORT_JOB_S):
                t0 = time.perf_counter()
                out = jobs_mod.run_job(cli, job, paths)
                runs.append((out.seconds, t0, time.perf_counter()))
                if len(runs) == 1:
                    outs.append(out)
            job_runs.append(runs)
    scaled = [[r * probe.scale(a, b) for r, a, b in runs] for runs in job_runs]
    return (outs, [t[0] for t in scaled], [statistics.median(t) for t in scaled],
            sum(o.seconds for o in outs))


def tail(times: list[float]) -> tuple[float, float]:
    """Job time at the highest percentile with at least ten jobs beyond it,
    and that percentile; the maximum (100) when there are fewer than 11 jobs."""
    s = sorted(times)
    if len(s) < 11:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def input_digest(batch) -> str:
    return hashlib.sha256(" ".join(job.key for job in batch).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "rauzyadic" / "cli.py").is_file():
        print(f"error: no library sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{os.getpid()}"
    try:
        return measure(args, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def measure(args, inputs: Path) -> int:
    name = args.workload
    setups, raw_setups = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            cli, batch, paths = set_up(name, args.seed, inputs)
            t1 = time.perf_counter()
            raw_setups.append(t1 - t0)
            setups.append((t1 - t0) * probe.scale(t0, t1))

    # closed loop: another pass starts only while it is expected to fit
    tr = None
    untraced = None
    passes, walls, pass_times, raw_walls = [], [], [], []
    if args.trace:
        first, first_scaled, _, _ = run_pass(cli, batch, paths)
        untraced = sum(first_scaled)
        passes.append(first)
        tr = tracer_mod.Tracer()
        tr.install()
    t_start = time.perf_counter()
    layer_totals = Counter()
    while True:
        first_span = len(tr) if tr else 0
        t0 = time.perf_counter()
        outs, firsts, times, raw_wall = run_pass(cli, batch, paths, tr)
        pass_s = time.perf_counter() - t0
        passes.append(outs)
        walls.append(sum(firsts))
        pass_times.append(times)
        raw_walls.append(raw_wall)
        if tr:
            layer_totals.update(tr.aggregate(first_span))
        if time.perf_counter() - t_start + pass_s > args.seconds:
            break
    if tr:
        tr.uninstall()

    # outcomes, checks and digests
    reference = json.loads((HERE / "data" / "reference.json").read_text())
    per_job = list(zip(*passes))           # job -> its outcome in every pass
    timed = passes[1:] if args.trace else passes
    job_times = [statistics.median(times) for times in zip(*pass_times)]
    tags = Counter(o.tag for outs in timed for o in outs)
    attempted = sum(len(outs) for outs in timed)
    refused = sum(o.kind == "refused" for outs in timed for o in outs)
    crashed = sum(o.kind == "crashed" for outs in timed for o in outs)
    wrong, unstable, changed, unknown = [], [], [], []
    report = []
    for job, outs in zip(batch, per_job):
        first = outs[0]
        if len({o.digest for o in outs}) > 1:
            unstable.append(job)
        problem = brute.check(job, first.stdout) if first.code == 0 and job.check else None
        if problem:
            wrong.append((job, problem))
        want = reference.get(job.key)
        if want is None:
            unknown.append(job)
        elif want != first.digest:
            changed.append(job)
        entry = {"key": job.key, "args": list(job.args), "outcome": first.tag,
                 "digest": first.digest, "seconds": statistics.median(o.seconds for o in outs)}
        if first.kind != "ok" or problem:
            entry["input"] = job.text
            entry["problem"] = problem
        report.append(entry)
    failed_jobs = {id(j) for j, _ in wrong} | {id(j) for j in unstable}
    failed = crashed + sum(len(timed) for job in batch if id(job) in failed_jobs)

    t_job, pct = tail(job_times)
    end_to_end = {
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_s": (statistics.median(job_times), "s"),
        "job_tail_s": (t_job, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "refused_frac": (refused / attempted, "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    print(f"workload {name} seed {args.seed} trace {args.trace}: {len(batch)} jobs, "
          f"{len(walls)} {'traced ' if tr else ''}passes")
    print(f"input_sha256 {input_digest(batch)}")
    print(f"raw batch times {', '.join(f'{w:.4f}' for w in raw_walls)} s, "
          f"raw set-up times {', '.join(f'{t:.4f}' for t in raw_setups)} s; "
          f"scaled / raw: wall_s {statistics.median(walls) / statistics.median(raw_walls):.4f}, "
          f"setup_s {statistics.median(setups) / statistics.median(raw_setups):.4f}")
    for key, (value, unit) in end_to_end.items():
        print(f"{key} {value:.6g} {unit}" + (f"  (p{pct:.1f} of {len(batch)} jobs)"
                                              if key == "job_tail_s" else ""))
    print("outcomes " + ", ".join(f"{t}={c}" for t, c in sorted(tags.items())))
    print(f"bruteforce_disagreements {len(wrong)}" +
          "".join(f"\n  {j.label}: {p}" for j, p in wrong))
    if unstable:
        print(f"nondeterministic_outputs {len(unstable)}")
    print(f"outputs_changed {len(changed)} of {len(batch)}" +
          (f" ({len(unknown)} jobs have no reference digest)" if unknown else ""))

    metrics = {k: v for k, v in end_to_end.items() if k not in ("refused_frac", "failed_frac")}
    if tr:
        metrics = layer_metrics(name, tr, layer_totals, raw_walls, untraced, timed, end_to_end)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": name, "seed": args.seed, "raw_setups_s": raw_setups,
        "raw_walls_s": raw_walls, "job_times_s": pass_times,
        "metrics": {k: v for k, (v, _) in metrics.items()}, "jobs": report}, indent=1))
    if tr:
        tr.write(OUT / f"spans-{stem}.bin")
    print(json.dumps({"correct": not wrong and not unstable, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(name, tr, totals, walls, untraced, timed, end_to_end):
    """Per-pass averages of the traced passes, with units.  Self times are
    raw, and so is ``walls``, the traced passes' times; the overhead compares
    scaled pass times, which were taken at different moments."""
    n_passes = len(walls)
    counts = tr.counters()
    per_pass = {k: v / n_passes for k, v in totals.items()}
    per_pass.update({k: v / n_passes for k, v in counts.items()})
    calls = per_pass["schemas.Row.matches.calls"]
    circuits = counts["rauzy.circuits_from.circuits"]
    traced_wall = statistics.mean(walls)   # the self times are per-pass means
    overhead = end_to_end["wall_s"][0] / untraced
    layers = [n for n in tracer_mod.NAMES if n != "cli.main"]
    self_total = sum(per_pass[f"{n}.self_s"] for n in tracer_mod.NAMES)
    covered = sum(per_pass[f"{n}.self_s"] for n in layers) / traced_wall
    cli_share = per_pass["cli.main.self_s"] / traced_wall
    expected = sum(per_pass[f"{n}.self_s"] for n in tracer_mod.NAMES
                   if n.startswith(EXPECTED[name]))
    per_pass.update({
        "schemas.Row.matches.hit_frac":
        per_pass["schemas.Row.matches.hits"] / calls if calls else 0.0,
        "rauzy.circuits_from.allowed_frac": counts["rauzy.circuits_from.allowed"] / circuits
        if circuits else 0.0,
        "extraction.records": per_pass["extraction.extract_directive.records"],
        "cli.stdout_bytes":
        sum(len(o.stdout.encode()) for outs in timed for o in outs) / len(timed),
        "jobs.refused_frac": end_to_end["refused_frac"][0],
        "jobs.failed_frac": end_to_end["failed_frac"][0],
        "trace.overhead": overhead,
        "trace.self_coverage": covered,
        "trace.expected_share": expected / self_total if self_total else 0.0,
    })
    top = max(tracer_mod.NAMES, key=lambda n: per_pass[f"{n}.self_s"])
    verdict = "ok" if top.startswith(EXPECTED[name]) else "MISMATCH"
    print(f"trace: untraced pass {untraced:.4g} s, traced wall_s {end_to_end['wall_s'][0]:.4g} s "
          f"(overhead x{overhead:.3f})")
    print(f"self times of the library layers cover {covered:.1%} of the traced wall time; "
          f"cli.main's own time (argparse, I/O, unwrapped helpers) {cli_share:.1%}: "
          f"{'ok' if cli_share <= CLI_SELF_MAX else 'MISS'} (limit {CLI_SELF_MAX:.0%})")
    print(f"dominant layer {top} ({per_pass[f'{top}.self_s'] / self_total:.1%} of self time); "
          f"expected {' + '.join(p + '*' if p.endswith('.') else p for p in EXPECTED[name])} "
          f"({expected / self_total:.1%}): {verdict}")
    metrics = {}
    for key, unit in tracer_mod.PER_LAYER.items():
        metrics[key] = (per_pass.get(key, 0), unit)
        print(f"  {key} {metrics[key][0]:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
