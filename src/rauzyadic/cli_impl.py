"""Helpers for the command line that need a little logic of their own."""

from __future__ import annotations

from .errors import UnsupportedCase
from .sadic import DirectiveWord
from .schemas import Step
from .validator import BlockTable, start_vertex


def route_prefix(dw: DirectiveWord) -> list[Step]:
    """Route a finite directive prefix through the refined graph.

    Depth-first over block decompositions; returns the first complete
    routing whose final step lands in the two-loop or no-loop region."""
    end = dw.known_levels()
    table = BlockTable(dw)

    def dfs(vertex, pos, acc):
        if pos == end:
            return acc if acc[-1].dst in ("7/8", "5/6") else None
        for step in table.routed_steps(vertex, pos, end):
            found = dfs(step.dst, pos + step.blocks, acc + [step])
            if found is not None:
                return found
        return None

    best = dfs(start_vertex(dw), 0, [])
    if best is None:
        raise UnsupportedCase("prefix does not route to the two-loop or no-loop region")
    return best
