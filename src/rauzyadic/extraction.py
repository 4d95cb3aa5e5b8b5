"""Directive-word extraction from a language oracle.

At every bispecial order the allowed circuits from the chain vertex are
assigned letters by the per-type rules; the morphism of a step sends each
higher-level circuit letter to the factorization of its return word into
lower-level return words.  Steps are verified against the evolution
tables.  The refined-graph path is read off the shapes, whose stable
types name its vertices: each run of steps up to the next
non-pass-through shape is one edge to that shape's vertex, and no letters
are renamed.

Extraction builds no order-n Rauzy graph.  The chain and the bispecial
orders come from the oracle's special tables, one pass over its sorted
top set for every order; at each bispecial order the reduced graph is
read off the language (``rauzy.reduced_graph``), its circuits are
enumerated over reduced edges, and the type rules read only each
circuit's special vertices and reduced-edge labels.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NoSchemaMatch, RuleViolation
from .morphism import Morphism, bracket, compose_all, identity
from .rauzy import (Circuit, GraphShape, ReducedRauzyGraph, circuits_from, classify_shape,
                    reduced_graph, right_special_chain)
from .schemas import (GPRIME_EDGES, GPRIME_ROW_BY_ID, EvolutionRow, Step, edge_step,
                      evolution_rows, match_rows, unique_row_match)
from .words import FactorOracle, Word


def bispecial_orders(oracle: FactorOracle, N: int) -> list[int]:
    """Orders n <= N carrying at least one bispecial factor."""
    return [n for n, (_, _, bi) in enumerate(oracle.special_tables(N)) if bi]


# -- theta assignment ---------------------------------------------------


class ThetaAssignment(NamedTuple):
    order: int
    circuits: tuple[Circuit, ...]        # index = letter
    notes: tuple[str, ...] = ()

    @property
    def alphabet_size(self) -> int:
        return len(self.circuits)


def _loop_count(circ: Circuit, v: Word) -> int:
    return max(0, circ.visits(v) - (2 if circ.start == v else 1))


def assign_theta(graph: ReducedRauzyGraph, shape: GraphShape, circuits: tuple[Circuit, ...],
                 oracle: FactorOracle, chain_vertex: Word) -> ThetaAssignment:
    """Letter-to-circuit bijection per the type rules; lexicographic
    tie-breaks where the rules leave freedom, logged in the notes.

    Every test concerns special vertices, the vertices of the reduced
    graph, so each circuit is read as the special vertices it passes and
    its reduced-edge labels, the pieces of its right label between them."""
    t = shape.type_id
    circuits = tuple(sorted(circuits, key=lambda c: c.right_label))
    notes: list[str] = []
    u = chain_vertex
    others = sorted(v for v in graph.vertices if oracle.is_right_special(v) and v != u)

    if t == 1:
        if len(circuits) != 2:
            raise RuleViolation(f"type 1 at {shape.order} with {len(circuits)} circuits")
        notes.append("type-1 letters by lexicographic right label")
        return ThetaAssignment(shape.order, circuits, tuple(notes))

    if t in (2, 3):
        by_first = {c.right_label[0]: c for c in circuits}
        if len(by_first) != len(circuits) or len(circuits) != 3:
            raise RuleViolation(f"type {t} at {shape.order}: first letters not distinct")
        ordered = tuple(by_first[str(i)] for i in range(3))
        return ThetaAssignment(shape.order, ordered, tuple(notes))

    if t in (4, 9) and not oracle.is_bispecial(u):
        # chain vertex is R: two segments toward B, loops counted at B
        b = next(v for v in others if oracle.is_bispecial(v))
        by_seg: dict[str, list[Circuit]] = {}
        for c in circuits:
            by_seg.setdefault(c.right_label[0], []).append(c)
        for group in by_seg.values():
            group.sort(key=lambda c: -_loop_count(c, b))
        if len(circuits) == 3:
            shared = next((s for s, g in by_seg.items() if len(g) == 2), None)
            if shared is None:
                raise RuleViolation(f"type {t} at {shape.order}: three circuits on three segments")
            other = next(s for s in by_seg if s != shared)
            th0, th2 = by_seg[shared]
            th1 = by_seg[other][0]
            k, kk, laps = (_loop_count(c, b) for c in (th0, th2, th1))
            if kk != k - 1 or laps > k:
                raise RuleViolation(f"type {t} at {shape.order}: loop counts {k},{kk},{laps}")
            if t == 9 and k - laps > 1:
                raise RuleViolation(f"type 9 at {shape.order}: k-l = {k - laps} > 1")
            return ThetaAssignment(shape.order, (th0, th1, th2), tuple(notes))
        if len(circuits) != 2:
            raise RuleViolation(f"type {t} at {shape.order} with {len(circuits)} circuits")
        a, bb = circuits
        ka, kb = _loop_count(a, b), _loop_count(bb, b)
        if ka < kb:
            a, bb, ka, kb = bb, a, kb, ka
        if ka == kb:
            notes.append("equal loop counts; smaller right label first")
        if t == 9 and ka - kb > 1:
            raise RuleViolation(f"type 9 at {shape.order}: k-l = {ka - kb} > 1")
        return ThetaAssignment(shape.order, (a, bb), tuple(notes))

    if t in (4, 9):
        # chain vertex is B: letter 0 avoids the other right special vertex
        r = others[0]
        avoid = [c for c in circuits if not c.visits(r)]
        through = [c for c in circuits if c.visits(r)]
        if len(avoid) != 1 or len(through) != 2:
            raise RuleViolation(f"type {t} at {shape.order}: no unique avoiding circuit")
        notes.append("through-circuit letters by lexicographic right label")
        return ThetaAssignment(shape.order, (avoid[0], *through), tuple(notes))

    if t in (5, 6):
        # the two choice points of a circuit are the chunk leaving the chain
        # vertex and the chunk leaving the other right special vertex
        other_rs = others[0]
        def coords(c):
            stops = c.stops[1:]
            at_other = stops.index(other_rs) + 1 if other_rs in stops else 1
            return (c.edges[0].right_label, c.edges[at_other].right_label)
        traces = {c: coords(c) for c in circuits}
        firsts = sorted({tr[0] for tr in traces.values()})
        seconds = sorted({tr[1] for tr in traces.values()})
        if len(circuits) == 3:
            if len(firsts) != 2 or len(seconds) != 2:
                raise RuleViolation(f"type {t} at {shape.order}: segment structure")
            combos = {(tr[0], tr[1]) for tr in traces.values()}
            missing = [(f, s) for f in firsts for s in seconds if (f, s) not in combos]
            if len(missing) != 1:
                raise RuleViolation(f"type {t} at {shape.order}: {len(missing)} missing combos")
            mf, ms = missing[0]
            of = next(f for f in firsts if f != mf)
            os_ = next(s for s in seconds if s != ms)
            def find(f, s):
                return next(c for c, tr in traces.items() if tr[0] == f and tr[1] == s)
            return ThetaAssignment(shape.order, (find(of, ms), find(mf, os_), find(of, os_)),
                                   tuple(notes))
        if len(circuits) != 2:
            raise RuleViolation(f"type {t} at {shape.order} with {len(circuits)} circuits")
        a, bb = circuits
        if traces[a][0] == traces[bb][0] or traces[a][1] == traces[bb][1]:
            raise RuleViolation(f"type {t} at {shape.order}: circuits share a segment")
        notes.append("two circuits; smaller right label first")
        return ThetaAssignment(shape.order, (a, bb), tuple(notes))

    if t in (7, 8):
        b = others[0] if others else None
        if b is None:
            raise RuleViolation(f"type {t} at {shape.order}: missing second special")
        avoid = [c for c in circuits if not c.visits(b)]
        through = sorted((c for c in circuits if c.visits(b)),
                         key=lambda c: -_loop_count(c, b))
        if len(avoid) != 1 or not 1 <= len(through) <= 2:
            raise RuleViolation(f"type {t} at {shape.order}: circuit structure")
        if len(through) == 2 and _loop_count(through[0], b) != _loop_count(through[1], b) + 1:
            raise RuleViolation(f"type {t} at {shape.order}: loop counts not k, k-1")
        return ThetaAssignment(shape.order, (avoid[0], *through), tuple(notes))

    if t == 10 and not oracle.is_bispecial(u):
        b = next(v for v in others if oracle.is_bispecial(v))
        left_specials = {v for v in graph.vertices
                         if oracle.is_left_special(v) and not oracle.is_right_special(v)}
        def seg_through_left(c):
            for v in c.stops[1:]:
                if v == b:
                    return False
                if v in left_specials:
                    return True
            return False
        ys = sorted((c for c in circuits if seg_through_left(c)),
                    key=lambda c: -_loop_count(c, b))
        xs = sorted((c for c in circuits if not seg_through_left(c)),
                    key=lambda c: -_loop_count(c, b))
        if not ys or not xs:
            raise RuleViolation(f"type 10 at {shape.order}: missing a segment")
        if len(circuits) == 2:
            return ThetaAssignment(shape.order, (ys[0], xs[0]), tuple(notes))
        if len(ys) == 2:
            k, l = _loop_count(ys[0], b), _loop_count(xs[0], b)
            if _loop_count(ys[1], b) != k - 1 or l > k:
                raise RuleViolation(f"type 10 at {shape.order}: y-side counts")
            return ThetaAssignment(shape.order, (ys[0], xs[0], ys[1]), tuple(notes))
        k, l = _loop_count(ys[0], b), _loop_count(xs[0], b)
        if _loop_count(xs[1], b) != l - 1 or k > l - 1:
            raise RuleViolation(f"type 10 at {shape.order}: x-side counts")
        return ThetaAssignment(shape.order, (ys[0], xs[0], xs[1]), tuple(notes))

    if t == 10:
        loop = [c for c in circuits if not any(oracle.is_right_special(v)
                                               for v in c.stops[1:-1])]
        through = [c for c in circuits if c not in loop]
        r = others[0]
        left_specials = {v for v in graph.vertices
                         if oracle.is_left_special(v) and not oracle.is_right_special(v)}
        def visits_left_after_r(c):
            seen_r = False
            for v in c.stops[1:-1]:
                if v == r:
                    seen_r = True
                elif seen_r and v in left_specials:
                    return True
            return False
        if len(loop) != 1 or len(through) != 2:
            raise RuleViolation(f"type 10 at {shape.order}: loop/through structure")
        y = [c for c in through if visits_left_after_r(c)]
        x = [c for c in through if not visits_left_after_r(c)]
        if len(y) != 1 or len(x) != 1:
            raise RuleViolation(f"type 10 at {shape.order}: segment identification")
        return ThetaAssignment(shape.order, (loop[0], y[0], x[0]), tuple(notes))

    raise RuleViolation(f"no assignment rule for type {t}")


# -- step extraction -----------------------------------------------------


class EvolutionRecord(NamedTuple):
    from_order: int
    to_order: int
    gamma: Morphism
    shape_before: GraphShape
    shape_after: GraphShape
    u_role_before: str
    u_role_after: str
    schema: EvolutionRow
    k: int | None
    l: int | None

    def line(self) -> str:
        params = ",".join(f"{n}={v}" for n, v in (("k", self.k), ("l", self.l)) if v is not None)
        return (f"order {self.from_order}->{self.to_order} type {self.shape_before.type_id}"
                f"->{self.shape_after.type_id} U {self.u_role_before}->{self.u_role_after} "
                f"schema {self.schema.row.rid} [{params}] {self.gamma.rule_string()}")


def _factorize(label: Word, lower_u: Word, letter: dict[Word, str]) -> str:
    """Split a return word to the upper vertex into return words to the
    lower chain vertex and decode them by ``letter``, which maps each lower
    right label to its letter.  A piece ends where an occurrence of lower_u
    in lower_u + label ends, so it is cut at each one that ``str.find``
    meets past the start, or after every letter when lower_u is empty."""
    text, cuts = lower_u + label, [0]
    if lower_u:
        while (i := text.find(lower_u, cuts[-1] + 1)) != -1:
            cuts.append(i)
    else:
        cuts += range(1, len(label) + 1)
    pieces = [label[i:j] for i, j in zip(cuts, cuts[1:])]
    if not all(p in letter for p in pieces):
        raise NoSchemaMatch(f"label {label!r} has a piece that is no return word to {lower_u!r}")
    if cuts[-1] != len(label):
        raise NoSchemaMatch(f"label {label!r} does not factor over returns to {lower_u!r}")
    return "".join(map(letter.__getitem__, pieces))


def extract_gamma(oracle: FactorOracle, lower: ThetaAssignment, upper: ThetaAssignment) -> Morphism:
    letter = {c.right_label: str(i) for i, c in enumerate(lower.circuits)}
    images = tuple(_factorize(c.right_label, lower.circuits[0].start, letter)
                   for c in upper.circuits)
    return bracket(*images, codomain=lower.alphabet_size)


class ExtractionReport(NamedTuple):
    records: tuple[EvolutionRecord, ...]
    path: tuple[Step, ...]
    log: tuple[str, ...]
    thetas: tuple[ThetaAssignment, ...] = ()

    def serialize(self) -> str:
        lines = ["# extraction report", "# records"]
        lines += [r.line() for r in self.records]
        lines.append("# refined-graph path")
        lines += [s.line() for s in self.path]
        if self.log:
            lines.append("# conventions")
            lines += list(self.log)
        return "\n".join(lines) + "\n"


# the refined-graph vertex of each shape type but 3, whose vertex is named
# by its top letter; types 4 and 10 are one only at a bispecial chain vertex
_VERTEX_OF_TYPE = {1: "1", 2: "2", 4: "4B", 5: "5/6", 6: "5/6", 7: "7/8", 8: "7/8", 10: "10B"}


def _vertex_kind(shape: GraphShape, u_role: str, top_letter: int | None) -> str | None:
    """The refined-graph vertex of a stable shape; None for pass-through."""
    t = shape.type_id
    if t == 3:
        return f"V{top_letter}"
    if t in (4, 10) and u_role != "B":
        return None
    return _VERTEX_OF_TYPE.get(t)


def _divide_left(m: Morphism, factor: Morphism) -> Morphism | None:
    """tau with factor . tau == m, if the images parse uniquely."""
    inv: dict[str, str] = {}
    for i, w in enumerate(factor.images):
        inv[w] = str(i)
    imgs = []
    lens = sorted({len(w) for w in factor.images}, reverse=True)
    for w in m.images:
        out = []
        i = 0
        while i < len(w):
            for L in lens:
                if w[i:i + L] in inv:
                    out.append(inv[w[i:i + L]])
                    i += L
                    break
            else:
                return None
        imgs.append("".join(out))
    return bracket(*imgs, codomain=factor.domain)


def extract_directive(oracle: FactorOracle, N: int) -> ExtractionReport:
    """Evolution records up to order N plus the contracted path in the
    refined graph of graphs."""
    chain = right_special_chain(oracle, min(N, oracle.horizon - 2))
    orders = bispecial_orders(oracle, len(chain) - 1)
    log: list[str] = []

    data = []
    for n in orders:
        g = reduced_graph(oracle, n)
        shape = classify_shape(g, oracle)
        circs = circuits_from(g, chain[n], oracle)
        theta = assign_theta(g, shape, circs, oracle, chain[n])
        role = "B" if oracle.is_bispecial(chain[n]) else "R"
        top = None
        if shape.type_id == 3:
            # the loop at the chain vertex is its one single-edge circuit
            top = next(i for i, c in enumerate(theta.circuits) if len(c.edges) == 1)
        data.append((n, shape, theta, role, top))
        log.extend(f"order {n}: {note}" for note in theta.notes)

    records: list[EvolutionRecord] = []
    for (n, sh, th, role, _), (m, sh2, th2, role2, _) in zip(data, data[1:]):
        gamma = extract_gamma(oracle, th, th2)
        rows = [er for er in evolution_rows(sh.type_id, sh2.type_id, role)
                if er.u_to in ("*", role2)]
        got = unique_row_match([er.row for er in rows], gamma,
                               f"evolution {sh.type_id}->{sh2.type_id} at order {n}")
        schema = next(er for er in rows if er.row.rid == got.row.rid)
        records.append(EvolutionRecord(n, m, gamma, sh, sh2, role, role2, schema,
                                       got.k, got.l))

    path = _build_gprime_path(records, [_vertex_kind(sh, role, top)
                                        for (_, sh, _, role, top) in data])
    return ExtractionReport(tuple(records), tuple(path), tuple(log),
                            tuple(th for (_, _, th, _, _) in data))


def _build_gprime_path(records: list[EvolutionRecord], kinds: list[str | None]) -> list[Step]:
    """Read the refined-graph path off the shapes: each run of records up
    to the next non-pass-through shape is one step to that shape's vertex."""
    if records and kinds[0] is None:
        raise NoSchemaMatch("extraction starts on a pass-through shape")
    path: list[Step] = []
    i = 0
    while i < len(records):
        src = kinds[i]
        if records[i].schema.row.rid == "A8.78b":
            # simultaneous strong+weak explosion of a type-8 graph: split
            # through the virtual vertex 1 (weak side exploded first)
            path.append(edge_step("7/8", "1", identity(2)))
            src = "1"
        j = i + (2 if records[i].shape_before.type_id == 5 else 1)
        while j < len(kinds) and kinds[j] is None:
            j += 1
        if j == len(kinds):
            break  # a run the horizon cuts short stays unconsumed
        dst = kinds[j]
        label = compose_all(r.gamma for r in records[i:j])
        if not (label.is_identity() and dst == src):
            rest, loops = label, 0
            if src == "7/8":
                # loops at 7/8 are split off the left until the rest matches
                while rest is not None and not match_rows(GPRIME_EDGES.get((src, dst), ()), rest):
                    rest, loops = _divide_left(rest, _loop_morphism(rest)), loops + 1
                if rest is None:
                    rest, loops = label, 0   # refused below on the whole label
            if loops:
                path += [edge_step("7/8", "7/8", _loop_morphism(rest))] * loops
            path.append(edge_step(src, dst, rest, records[j - 1].from_order + 1))
        i = j
    return path


def _loop_morphism(m: Morphism) -> Morphism:
    """The 7/8 loop label on m's codomain: C4.78.loop, with its optional
    third image when m has three letters."""
    return GPRIME_ROW_BY_ID["C4.78.loop"].instantiate({}, with_third=m.codomain >= 3)
