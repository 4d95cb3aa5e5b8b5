"""The four workloads: job batches made from a seed and the frozen data.

Every batch depends only on the seed and the files in this directory
(``data/pools.json`` holds the directive pools and the committed
directive texts as they were when the pools were recorded).  Samples are
stratified (pool entries by recorded cost, graph and circuit orders by
value), so that batches of different seeds carry about the same work and
their timings can be compared across seeds.

Why each workload exists (see also BENCHMARK.json):

* route      - routing and schema matching (``schemas.Row.matches`` under
               the routing DFS) with no factor oracle built.
* crosscheck - language certification (``sadic.language_horizon`` and
               ``words.factors_of``) plus weak primitivity, extraction and
               the exchange matching of ``cross_validate``.
* sources    - named substitution oracles, complexity identities and
               Rauzy graphs; no directive word, so ``sadic``,
               ``validator`` and ``schemas`` changes should not show.
* generate   - one long word with a short factor certificate
               (``words.factors_of`` under ``generate_one_sided``).
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

import brute
from jobs import INPUT, Job

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("route", "crosscheck", "sources", "generate")

SOURCES = tuple(brute.SOURCES)

# Pool entries whose job took longer than the pool's cap (in seconds, as
# recorded) are not sampled.  crosscheck: one such job alone would take most of
# a run (40 of 120 entries are over 1 s, up to 33 s).  route: the cap is lower,
# so that 80 jobs fit in two passes and the job times near the median are dense
# enough for a steady job_p50_s (50 of 439 validate entries are over 0.5 s, up
# to 12 s; 5 of 281 lengths entries, up to 3.5 s).
COST_CAPS = {"route_validate": 0.5, "route_lengths": 0.5, "crosscheck_valid": 1.0}
# route: validate on random eventually periodic directives, lengths on finite C4 prefixes
ROUTE_VALIDATE, ROUTE_LENGTHS = 60, 20
# crosscheck: the committed directives, sampled valid directives, complexity on C4/AR
CROSS_SAMPLED = 14
CROSS_COMPLEXITY = ("c4_osc", "ar_cycle")
CROSS_HORIZONS = range(98, 103)
CROSS_WINDOW = "16"
# sources, per named source
SRC_COMPLEXITY_HORIZONS = range(100, 110)
SRC_GRAPH_ORDERS, SRC_GRAPHS = range(2, 46), 16
SRC_CIRCUIT_ORDERS, SRC_CIRCUITS = range(2, 21), 10
SRC_EXTRACT_HORIZONS = (60, 70, 80, 90, 100)
# generate: (directive, the lengths a seed picks one of); lengths differ by
# under 2%, so that the seed changes the output but hardly the work
GENERATE = (("ar_cycle", range(50000, 51000, 100)), ("c4_osc", range(50000, 51000, 100)),
            ("sturmian_alt", range(50000, 51000, 100)),
            ("ten_b_loop", range(190000, 193000, 300)))


@lru_cache(maxsize=None)
def pools() -> dict:
    return json.loads((DATA / "pools.json").read_text())


def validate_job(text: str) -> Job:
    return Job(("validate", INPUT), text)


def lengths_job(text: str) -> Job:
    return Job(("lengths", INPUT), text)


def crosscheck_job(text: str) -> Job:
    return Job(("crosscheck", INPUT, "--window", CROSS_WINDOW), text)


def complexity_file_job(text: str, horizon: int) -> Job:
    return Job(("complexity", "--directive-file", INPUT, "--horizon", str(horizon),
                "--upto", str(horizon - 2)), text, check="complexity")


def generate_job(text: str, length: int) -> Job:
    return Job(("generate", INPUT, "--length", str(length)), text, check="generate")


def _source_args(cmd: str, source: str, horizon: int, *rest: str) -> tuple[str, ...]:
    return (cmd, "--source", source, "--horizon", str(horizon)) + rest


def source_complexity_job(source: str, horizon: int) -> Job:
    return Job(_source_args("complexity", source, horizon, "--upto", str(horizon - 2)),
               check="complexity")


def graph_job(source: str, order: int) -> Job:
    return Job(_source_args("graph", source, max(30, 2 * order + 10), "--order", str(order)))


def circuits_job(source: str, order: int, vertex: str) -> Job:
    return Job(_source_args("circuits", source, 4 * order + 20, "--order", str(order),
                            "--vertex", vertex))


def extract_job(source: str, horizon: int) -> Job:
    return Job(_source_args("extract", source, horizon, "--upto", str(horizon - 20)))


def sampled(pool: str) -> list[dict]:
    """The pool's entries that batches sample from, ordered by recorded cost."""
    return sorted((e for e in pools()[pool] if e["cost"] <= COST_CAPS[pool]),
                  key=lambda e: (e["cost"], e["dw"]))


def stratified(rng: random.Random, ranked, k: int) -> list:
    """One item from each of k equal-count strata of the ordered items."""
    bounds = [len(ranked) * i // k for i in range(k + 1)]
    return [rng.choice(ranked[a:b]) for a, b in zip(bounds, bounds[1:])]


# letters of a source's fixed point searched for right special factors; for
# every circuit order used, the sets equal those found in brute.PREFIX letters
SPECIALS_PREFIX = 3000


@lru_cache(maxsize=None)
def right_specials(source: str, n: int) -> tuple[str, ...]:
    w = brute.fixed_point(brute.SOURCES[source], SPECIALS_PREFIX)
    longer = brute.factors(w, n + 1)
    return tuple(sorted(u for u in brute.factors(w, n)
                        if sum(u + a in longer for a in "012") >= 2))


def warmup() -> list[Job]:
    """Small jobs that touch every subcommand the workloads use."""
    committed = pools()["committed"]
    return [validate_job(committed["sturmian_alt"]), lengths_job(committed["c4_osc"]),
            Job(("crosscheck", INPUT, "--window", "8"), committed["sturmian_alt"]),
            generate_job(committed["sturmian_alt"], 2000),
            complexity_file_job(committed["c4_osc"], 20), source_complexity_job("fibonacci", 20),
            graph_job("tribonacci", 4), circuits_job("fibonacci", 2, "10"),
            extract_job("tribonacci", 40)]


def groups(name: str) -> list[tuple[list[Job], int | None]]:
    """The workload's job groups: candidate jobs in a fixed order, and how
    many of them a batch takes (None: all).  ``batch`` draws from these and
    ``all_jobs`` is their union, so the two cannot drift apart."""
    committed = pools()["committed"]
    if name == "route":
        return [([validate_job(e["dw"]) for e in sampled("route_validate")], ROUTE_VALIDATE),
                ([lengths_job(e["dw"]) for e in sampled("route_lengths")], ROUTE_LENGTHS)]
    if name == "crosscheck":
        return ([([crosscheck_job(t) for _, t in sorted(committed.items())], None),
                 ([crosscheck_job(e["dw"]) for e in sampled("crosscheck_valid")], CROSS_SAMPLED)]
                + [([complexity_file_job(committed[d], h) for h in CROSS_HORIZONS], 1)
                   for d in CROSS_COMPLEXITY])
    if name == "sources":
        out = []
        for src in SOURCES:
            out += [([source_complexity_job(src, h) for h in SRC_COMPLEXITY_HORIZONS], 1),
                    ([graph_job(src, n) for n in SRC_GRAPH_ORDERS], SRC_GRAPHS),
                    ([circuits_job(src, n, v) for n in SRC_CIRCUIT_ORDERS
                      for v in right_specials(src, n)], SRC_CIRCUITS),
                    ([extract_job(src, h) for h in SRC_EXTRACT_HORIZONS], 1)]
        return out
    if name == "generate":
        return [([generate_job(committed[d], length) for length in lengths], 1)
                for d, lengths in GENERATE]
    raise ValueError(f"unknown workload {name!r}")


def batch(name: str, seed: int) -> list[Job]:
    """The workload's job batch for a seed, in the order it runs."""
    rng = random.Random(f"{name}:{seed}")
    jobs = []
    for candidates, k in groups(name):
        jobs += candidates if k is None else stratified(rng, candidates, k)
    rng.shuffle(jobs)
    return jobs


def all_jobs(name: str) -> list[Job]:
    """Every job that ``batch(name, seed)`` can produce, for any seed."""
    return [job for candidates, _ in groups(name) for job in candidates]
