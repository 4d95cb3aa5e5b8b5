#!/usr/bin/env python3
"""Write DOT files for the first Rauzy graphs of the built-in sources."""

import argparse
from pathlib import Path

from rauzyadic.rauzy import build_graph, reduced_graph, to_dot
from rauzyadic.words import NAMED_SOURCES, named_oracle


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", type=Path, default=Path("figures"))
    ap.add_argument("--orders", type=int, default=4)
    args = ap.parse_args()
    args.outdir.mkdir(exist_ok=True)
    for name in sorted(NAMED_SOURCES):
        oracle = named_oracle(name, args.orders + 6)
        for n in range(args.orders):
            (args.outdir / f"{name}-G{n}.dot").write_text(
                to_dot(build_graph(oracle, n), name=f"G{n}"))
            (args.outdir / f"{name}-g{n}.dot").write_text(
                to_dot(reduced_graph(oracle, n), name=f"g{n}"))
        print(f"{name}: wrote orders 0..{args.orders - 1} to {args.outdir}/")


if __name__ == "__main__":
    main()
