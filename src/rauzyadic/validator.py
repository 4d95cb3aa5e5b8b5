"""Validity of directive words against the refined graph of graphs.

Weak primitivity is decided first, once, by the exact kernel test.  A
weakly primitive word is then routed as a labeled path: blocks of
consecutive morphisms are matched against the edge tables, the terminal
component's conditions are checked on the resulting cycle, and the
length-gated exit conditions are evaluated through the image-length
bookkeeping.  Verdicts are three-valued and always name the binding
clause.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import (EnumerationBudgetExceeded, HorizonExceeded, Mismatch, NotInCatalog,
                     UnsupportedCase)
from .extraction import extract_directive
from .lengths import compute_length_state
from .morphism import Morphism, compose, decompose, first_right_proper
from .sadic import DirectiveWord, language_horizon, used_letters, weak_primitivity_check
from .schemas import (C4_CONFIG_B, C4_CONFIG_C, GPRIME_COMPONENT, GPRIME_VERTICES, Step,
                      match_rows, out_steps)
from .words import complexity_profile

MAX_BLOCK = 4
TRAVERSALS = 6

# kcases whose region values are carried with reduced confidence: their
# source formulas could not be confirmed against measurement
APPROX_CASES = {"c56_direct", "c56_loop"}


class Routing(NamedTuple):
    start: str
    prefix: tuple[Step, ...]   # consumes the preperiod plus alignment
    cycle: tuple[Step, ...]    # consumes whole periods


class ValidityVerdict(NamedTuple):
    status: str                     # "valid" | "invalid" | "undetermined"
    clause: str | None = None       # binding condition, with citation text
    routing: Routing | None = None
    notes: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return {"valid": 0, "invalid": 1, "undetermined": 2}[self.status]

    def serialize(self) -> str:
        lines = [f"status: {self.status}"]
        if self.clause:
            lines.append(f"clause: {self.clause}")
        if self.routing:
            lines.append(f"start: {self.routing.start}")
            for s in self.routing.prefix:
                lines.append(f"prefix {s.src} -> {s.dst} via {s.match.row.rid} {s.label.rule_string()}")
            for s in self.routing.cycle:
                lines.append(f"cycle  {s.src} -> {s.dst} via {s.match.row.rid} {s.label.rule_string()}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines) + "\n"


def start_vertex(dw: DirectiveWord) -> str:
    return "2" if dw.alphabet_size == 3 else "1"


class BlockTable:
    """The block labels of one directive, each composed once: label
    (pos, j) is the product of the levels pos, ..., pos+j-1 for j <=
    MAX_BLOCK, keyed by the level of pos (``DirectiveWord.level``).
    Every routing search of one call reads the directive through one
    table; no table outlives its call."""

    def __init__(self, dw: DirectiveWord):
        self.dw = dw
        self._labels: dict[int, list[Morphism]] = {}

    def label(self, pos: int, j: int) -> Morphism:
        """Label (pos, j), composing the shorter labels of pos first if
        they are not in the table yet."""
        got = self._labels.setdefault(self.dw.level(pos), [])
        while len(got) < j:
            m = self.dw.morphism(pos + len(got))
            got.append(compose(got[-1], m) if got else m)
        return got[j - 1]

    def routed_steps(self, vertex: str, pos: int, end: int | None = None):
        """Steps out of vertex whose label composes the levels pos, pos+1, ...
        of the directive, up to MAX_BLOCK of them and none at or past end.
        A longer label is composed only when the steps of the shorter ones
        have been read."""
        for j in range(1, MAX_BLOCK + 1):
            if end is not None and pos + j > end:
                return
            yield from out_steps(vertex, self.label(pos, j), j)


def routed_paths(table: BlockTable, start: str, end: int | None = None):
    """Every path of routed steps from start at position 0, depth first in
    ``BlockTable.routed_steps`` order, as (steps, first): first is the
    number of steps taken before the path's last state was first met on
    it, or None, and a path that meets a state again is not extended.

    A state is a vertex and the level of its position, or, walked up to
    end, the position, so a preperiod state occurs at most once on a path.
    steps is extended and cut in place, so a reader copies what it keeps.
    """
    level = table.dw.level if end is None else (lambda pos: pos)
    steps: list[Step] = []
    # state -> (steps taken before it, its position, its routed steps), in path order
    path = {(start, level(0)): (0, 0, table.routed_steps(start, 0, end))}
    yield steps, None
    while path:
        _, pos, out = path[next(reversed(path))]
        step = next(out, None)
        if step is None:
            path.popitem()
            if path:
                steps.pop()
            continue
        steps.append(step)
        pos += step.blocks
        state = (step.dst, level(pos))
        first = path[state][0] if state in path else None
        yield steps, first
        if first is None:
            path[state] = (len(steps), pos, table.routed_steps(step.dst, pos, end))
        else:
            steps.pop()


def _enumerate_routings(table: BlockTable, start: str, limit: int = 64) -> list[Routing]:
    """Lassos from start through the refined graph whose labels read the
    table's directive: the paths of ``routed_paths`` that meet a state
    again, past the preperiod at one level, so the cycle consumes whole
    periods and verdict conditions are read off one loop of it.  Raises
    EnumerationBudgetExceeded on finding more than ``limit`` lassos, because
    a verdict read off a truncated list could miss the valid routing."""
    if not table.dw.period:
        return []
    out: list[Routing] = []
    for steps, first in routed_paths(table, start):
        if first is None:
            continue
        if len(out) == limit:
            raise EnumerationBudgetExceeded(f"more than {limit} routings from vertex {start}")
        out.append(Routing(start, tuple(steps[:first]), tuple(steps[first:])))
    # prefer routings with short cycles and short prefixes
    out.sort(key=lambda r: (len(r.cycle), len(r.prefix)))
    return out


def _route(dw: DirectiveWord) -> tuple[list[Routing], tuple[str, ...]]:
    """Routings from the start vertex; failing those, the word may be the
    suffix of a valid path, so the first entry vertex that routes it is
    admitted and named in the returned note.  Every entry vertex reads
    the directive through one block table."""
    table = BlockTable(dw)
    start = start_vertex(dw)
    for entry in (start, *(v for v in GPRIME_VERTICES if v != start)):
        routings = _enumerate_routings(table, entry)
        if routings:
            return routings, (() if entry == start else
                              (f"validated as a suffix entered at vertex {entry}",))
    return [], ()


# the configurations in the order they are checked
_EXCLUDED_CONFIGS = (
    (C4_CONFIG_B, "component C4 condition iv, configuration b: the cycle conforms to "
                  "the first excluded label configuration"),
    (C4_CONFIG_C, "component C4 condition iv, configuration c: the cycle conforms to "
                  "the second excluded label configuration"),
)


def _conforms(cycle, table) -> bool:
    """Every step runs on an edge of the table with a label one of its rows matches."""
    return all((s.src, s.dst) in table and match_rows(table[(s.src, s.dst)], s.label)
               for s in cycle)


def _weak_primitivity_clause(dw: DirectiveWord) -> str | None:
    wp = weak_primitivity_check(dw)
    if wp.status != "fails":
        return None
    # a growing one-letter period is primitive, so one live letter fails
    # only when the period fixes it
    if len(used_letters(dw)[len(dw.preperiod)]) == 1:
        why = "the period fixes its only live letter, so the word is periodic"
    else:
        why = "occurrence products never become positive"
    return f"weak primitivity fails at level {wp.fails_at} ({why})"


# the exit gates, by the row of the step that leaves the region; steps
# chain, so that row's source is the vertex the gated prefix ends at
_EXIT_GATES = {"C4.78.1c": "B",     # letter-to-letter exit from 7/8 to vertex 1
               "C4.56.78b": "A"}    # strong self-exit from the no-loop vertex 5/6


def _check_c4(routing: Routing, strict2: bool):
    cyc = routing.cycle
    # no excluded configuration has an edge at vertex 1, so a cycle through
    # it, as in conditions i-iii, conforms to none
    for table, clause in _EXCLUDED_CONFIGS:
        if _conforms(cyc, table):
            return "invalid", clause

    # length-gated exit conditions (A) and (B)
    steps = list(routing.prefix) + list(cyc) * TRAVERSALS
    margins_b: dict[int, list[int]] = {}
    for i, nxt in enumerate(steps[1:]):
        gate = _EXIT_GATES.get(nxt.match.row.rid)
        if gate is None:
            continue
        try:
            st = compute_length_state(steps[: i + 1])
        except UnsupportedCase as exc:
            return "undetermined", f"length state unsupported at step {i}: {exc}"
        if st.case in APPROX_CASES:
            return "undetermined", (f"exit gate depends on unverified length case "
                                    f"{st.case} at step {i}")
        if gate == "A":
            if not (st.p1 == st.p2 if strict2 else st.p1 >= st.p2):
                which = "|p1| = |p2| (exact-slope mode)" if strict2 else "|p1| >= |p2|"
                return ("invalid", f"no-loop exit gate {which} fails at step {i}: "
                                   f"p1={st.p1} p2={st.p2} (condition A)")
            continue
        margin = st.margin
        if not (margin == 0 if strict2 else margin >= 0):
            which = "equality (exact-slope mode)" if strict2 else "inequality"
            return ("invalid", f"two-loop exit gate {which} fails at step {i}: "
                               f"margin {margin} (condition B)")
        if i >= len(routing.prefix):
            margins_b.setdefault((i - len(routing.prefix)) % len(cyc), []).append(margin)
    # exact-slope mode has already pinned every margin to 0
    if not strict2 and any(len(ms) >= 3 and not ms[-1] >= ms[-2] >= ms[-3]
                           for ms in margins_b.values()):
        return ("undetermined", "exit-gate margin not monotone over cycle "
                                "traversals; cannot certify all repetitions")
    return "valid", None


def _check_strict2_shape(dw: DirectiveWord, routing: Routing):
    """Exact-slope mode: the path may touch vertex 1 only instantaneously."""
    if dw.alphabet_size == 2:
        first = (list(routing.prefix) + list(routing.cycle))[0]
        if not (routing.start == "1" and first.dst == "7/8"):
            return ("invalid", "exact-slope mode: a two-letter path must leave "
                               "vertex 1 immediately (first difference would be 1)")
    steps = list(routing.prefix) + list(routing.cycle) * 2
    for step, nxt in zip(steps, steps[1:]):
        if step.dst == "1" and (step.src == "1" or nxt.dst != "7/8"):
            return ("invalid", "exact-slope mode: the path dwells at vertex 1, so the "
                               "first difference drops to 1 (Rauzy graph of shape 1)")
    return ("valid", None)


def validate_directive(dw: DirectiveWord, strict2: bool = False) -> ValidityVerdict:
    """Three-valued validity of an eventually periodic directive word.

    Decides weak primitivity, then routes the word through the refined
    graph and checks the terminal component's conditions and the
    length-gated exits; Invalid verdicts cite the violated clause.
    """
    return _validate(dw, strict2, every=False)[0]


def _validate(dw: DirectiveWord, strict2: bool,
              every: bool) -> tuple[ValidityVerdict, list[Routing]]:
    """The verdict and the valid routings, judged in routing order; unless
    every is set, judging stops at the first valid routing."""
    # each distinct level morphism is decomposed once; a repeat of one that
    # decomposed cannot fail, so the first failing level is still named
    decomposed = set()
    for i in range(dw.known_levels()):
        m = dw.morphism(i)
        if m in decomposed:
            continue
        try:
            decompose(m)
        except NotInCatalog as exc:
            raise NotInCatalog(f"directive level {i}: {exc}") from exc
        decomposed.add(m)
    if not dw.eventually_periodic:
        return ValidityVerdict("undetermined",
                               "finite directive prefix: validity is only semi-decidable"), []
    clause = _weak_primitivity_clause(dw)
    if clause:
        return ValidityVerdict("invalid", clause), []
    routings, suffix_note = _route(dw)
    first_valid, last_failure, valid = None, None, []
    for routing in routings:
        status, clause = _routing_verdict(dw, routing, strict2)
        if status == "valid":
            valid.append(routing)
            if first_valid is None:
                first_valid = ValidityVerdict("valid", routing=routing, notes=suffix_note)
            if not every:
                break
        elif last_failure is None or (last_failure.status == "invalid"
                                      and status == "undetermined"):
            last_failure = ValidityVerdict(status, clause=clause, routing=routing)
    if first_valid is not None:
        return first_valid, valid
    if last_failure is not None:
        return last_failure, valid
    return ValidityVerdict(
        "invalid", "no path in the refined graph of graphs reads this directive "
                   "(local validity condition fails)"), valid


# the condition of the components that ask for a right proper contraction
_RIGHT_PROPER_CONDITION = {"C2": "component C2 condition 2", "C4": "component C4 condition 1"}


def _routing_verdict(dw: DirectiveWord, routing: Routing, strict2: bool):
    """The routing's verdict on a weakly primitive word.  A cycle stays in
    one strongly connected component of the refined graph, so its first
    vertex names the component whose conditions apply."""
    component = GPRIME_COMPONENT[routing.cycle[0].src]
    condition = _RIGHT_PROPER_CONDITION.get(component)
    # a product stays right proper when more non-erasing labels are
    # composed on either side, so among the windows of at most two
    # traversals, the running products from the first label decide it
    if condition and first_right_proper([s.label for s in routing.cycle] * 2) is None:
        status, clause = "invalid", f"{condition}: no right proper contraction"
    elif component == "C4":
        status, clause = _check_c4(routing, strict2)
    else:
        status, clause = "valid", None
    if status == "valid" and strict2:
        status, clause = _check_strict2_shape(dw, routing)
    return status, clause


def valid_routings(dw: DirectiveWord, strict2: bool = False) -> list[Routing]:
    return _validate(dw, strict2, every=True)[1]


# -- cross validation ----------------------------------------------------


def _solve_exchange(a: Morphism, b: Morphism, pi: dict[str, str]) -> dict[str, str] | None:
    """pi' with a . pi' == pi . b on the common domain.

    A two-circuit instance and a three-circuit instance of the same schema
    differ only by the optional third image; comparison runs over the
    letters both sides carry."""
    out = {}
    for c in range(min(a.domain, b.domain)):
        if c >= len(b.images):
            break
        target = "".join(pi.get(ch, ch) for ch in b.images[c])
        cands = [str(d) for d in range(a.domain) if a.images[d] == target]
        if len(cands) != 1:
            return None
        out[str(c)] = cands[0]
    if len(set(out.values())) != len(out):
        return None
    return out


def sequences_equal_mod_exchange(aa: list[Morphism], bb: list[Morphism]) -> list[dict] | None:
    """Stepwise witness permutations relating two morphism sequences."""
    if len(aa) != len(bb):
        return None
    if not aa:
        return []
    n0 = aa[0].codomain
    for start in itertools.permutations(range(n0)):
        pi = {str(i): str(v) for i, v in enumerate(start)}
        witness = [dict(pi)]
        ok = True
        for a, b in zip(aa, bb):
            pi = _solve_exchange(a, b, pi)
            if pi is None:
                ok = False
                break
            witness.append(dict(pi))
        if ok:
            return witness
    return None


class CrossReport(NamedTuple):
    verdict: ValidityVerdict
    lines: tuple[str, ...]

    def serialize(self) -> str:
        return "\n".join(self.lines) + "\n"


def _alignments(ext: list[Step], valid: list[Routing]):
    """(routing, start, rotation) for every rotation of a valid routed
    cycle that equals the extracted steps from start on modulo exchanges,
    moving between the same vertices; the split vertices V0-V2 count as
    one."""
    def kinds(steps):
        return [tuple("V" if v[0] == "V" else v for v in (s.src, s.dst)) for s in steps]

    ext_kinds = kinds(ext)
    for routing in valid:
        cyc, cyc_kinds = routing.cycle, kinds(routing.cycle)
        L = len(cyc)
        for start in range(len(ext) - L + 1):
            for rot in range(L):
                if ext_kinds[start:start + L] != cyc_kinds[rot:] + cyc_kinds[:rot]:
                    continue
                if sequences_equal_mod_exchange(
                        [s.label for s in ext[start:start + L]],
                        [s.label for s in cyc[rot:] + cyc[:rot]]) is not None:
                    yield routing, start, rot


def cross_validate(dw: DirectiveWord, horizon: int = 20) -> CrossReport:
    """Close the loop: generate the language, extract its directive, and
    compare the extracted path against the routed one modulo exchanges."""
    verdict, valid = _validate(dw, strict2=False, every=True)
    if verdict.status != "valid":
        raise Mismatch(f"directive is not valid: {verdict.clause}")
    oracle = language_horizon(dw, max(3 * horizon + 12, 40))
    prof = complexity_profile(oracle, horizon)
    rep = extract_directive(oracle, horizon)

    ext = list(rep.path)
    found = next(_alignments(ext, valid), None)
    if found is None:
        # a path shorter than every valid routing is a window too small, not a mismatch
        shortest = min(len(r.prefix) + len(r.cycle) for r in valid)
        if len(ext) < shortest:
            raise HorizonExceeded(f"window {horizon} extracts {len(ext)} steps, fewer than the "
                                  f"{shortest} of the shortest valid routing's prefix and cycle")
        raise Mismatch("extracted path never aligns with any valid routed cycle; first "
                       f"extracted steps: {[s.match.row.rid for s in ext[:6]]}")
    chosen, start, rot = found
    if not all(1 <= s <= 2 for s in prof.s):
        raise Mismatch(f"first complexity difference leaves [1,2]: {prof.s}")
    lines = (f"routing cycle: {[s.match.row.rid for s in chosen.cycle]}",
             f"extracted path: {[s.match.row.rid for s in ext]}",
             f"cycle matched at extracted step {start}, rotation {rot}",
             f"complexity differences: {sorted(set(prof.s))}")
    verdict = ValidityVerdict(verdict.status, routing=chosen, notes=verdict.notes)
    return CrossReport(verdict, lines)
