#!/usr/bin/env python3
"""Randomized search for realizable directive words.

Draws eventually periodic directive words from the refined-graph edge
tables, keeps those the validator accepts, and confirms each by full
cross-validation (regenerate the language, extract, compare).  Useful for
growing the corpus of witnesses per component.

    python scripts/explore_directives.py --component C4 --tries 40
"""

import argparse
import random

from rauzyadic.errors import RauzyadicError
from rauzyadic.morphism import bracket
from rauzyadic.sadic import DirectiveWord, format_directive
from rauzyadic.schemas import GPRIME_EDGES, _ASSIGNMENTS
from rauzyadic.validator import cross_validate, validate_directive

COMPONENTS = {
    "C1": ["2"],
    "C2": ["V0", "V1", "V2"],
    "C3": ["4B"],
    "C4": ["1", "5/6", "7/8", "10B"],
}

ENTRIES = {
    "C2": [bracket("0", "120", "20")],
    "C3": [bracket("0", "10", "120")],
    "C4": [],
    "C1": [],
}


def random_cycle(rng, vertices, length):
    """A random edge cycle within the vertex set with instantiated labels."""
    v0 = rng.choice(vertices)
    v = v0
    labels = []
    for i in range(length):
        targets = [(dst, rows) for (src, dst), rows in GPRIME_EDGES.items()
                   if src == v and dst in vertices and (i < length - 1 or dst == v0)]
        if not targets:
            return None
        dst, rows = rng.choice(targets)
        row = rng.choice(rows)
        for _ in range(8):
            assign = rng.choice(_ASSIGNMENTS[row.vars])
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            if row.cond is not None and not row.cond(k, l):
                continue
            m = row.instantiate(dict(assign), k, l, with_third=True)
            if m is not None:
                labels.append(m)
                break
        else:
            return None
        v = dst
    return labels


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--component", choices=sorted(COMPONENTS), default="C4")
    ap.add_argument("--tries", type=int, default=40)
    ap.add_argument("--cycle-length", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    found = 0
    for _ in range(args.tries):
        cyc = random_cycle(rng, COMPONENTS[args.component], args.cycle_length)
        if cyc is None:
            continue
        try:
            dw = DirectiveWord(tuple(ENTRIES[args.component]), tuple(cyc))
        except (ValueError, RauzyadicError):
            continue
        try:
            if validate_directive(dw).status != "valid":
                continue
            cross_validate(dw, horizon=12)
        except RauzyadicError:
            continue
        found += 1
        print(f"# round-trip confirmed ({args.component})")
        print(format_directive(dw))
    print(f"# {found} confirmed directives out of {args.tries} tries")


if __name__ == "__main__":
    main()
