"""Helpers for the command line that need a little logic of their own."""

from __future__ import annotations

from .errors import UnsupportedCase
from .sadic import DirectiveWord
from .schemas import Step
from .validator import BlockTable, routed_paths, start_vertex


def route_prefix(dw: DirectiveWord) -> list[Step]:
    """Route a finite directive prefix through the refined graph: the first
    path of ``routed_paths`` that reads every known level and lands in the
    two-loop or no-loop region."""
    end = dw.known_levels()
    for steps, _ in routed_paths(BlockTable(dw), start_vertex(dw), end):
        if steps and steps[-1].dst in ("7/8", "5/6") and sum(s.blocks for s in steps) == end:
            return list(steps)
    raise UnsupportedCase("prefix does not route to the two-loop or no-loop region")
