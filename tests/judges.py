"""Reference code that only the tests read: the judges of the pipeline.

Each judge recomputes, by a plainer route, what a stage of the pipeline
produces, or measures what that stage's bookkeeping claims:

- ``language_by_block_sets``, the kernel as it was when each block and
  each junction built its own factor set, judges
  ``words.substitutive_language``;
- return words, found letter by letter, judge the circuits
  (``rauzy.circuits_from``): the allowed circuits from a right special of
  the chain are its return words;
- ``chain_by_depth_table``, the right-special chain as it was, walked up
  from the empty word over a table of depths, judges
  ``rauzy.right_special_chain``;
- ``factorize_letter_by_letter``, which follows the last letters of the
  label one at a time and scans the right labels for each piece, judges
  ``extraction._factorize``;
- the bilateral order judges the second-difference identity of
  ``words.complexity_profile``, and ``is_aperiodic`` its counts;
- ``counts_by_top_set``, ``special_pass_by_top_set`` and
  ``certified_by_top_set``, the counts, the one-pass special tables and
  the closure certificate as they were when each read the whole top set,
  judge ``FactorOracle.counts``, ``count``, ``special_tables`` and
  ``complexity_profile``, which read the top set cut to the order asked;
- order-n paths, ``out_edges``, ``walk``, ``circuit_path`` and the
  projection ``psi_project`` judge the Rauzy graphs and the circuits over
  reduced edges;
- ``measure_two_loops`` and ``measure_no_loops`` judge the length
  bookkeeping (``lengths.compute_length_state``) on the reduced graph;
- ``occurrence_matrix`` judges ``sadic.weak_primitivity_check``,
  ``left_proper`` judges ``sadic.proper_contraction``, and the generator
  words (``compose_generators``, ``parse_generator_word`` and the
  derived-family expansions ``DERIVED_EXPANSION``) judge
  ``morphism.decompose``;
- ``solve_lengths_by_dict`` and ``row_matches_by_atoms``, the length
  solve and the row matcher as they were before each row kept one record
  of its lengths and one of its pattern parts, judge
  ``schemas.match_rows`` (``matches_by_atoms`` runs the two);
- the recursive routing searches that ``validator.routed_paths``
  replaced judge its two readers: ``lasso_routings``, with its step set
  and its whole-period test, judges ``validator._enumerate_routings``, and
  ``prefix_routing``, which copies the path at every step, judges
  ``cli_impl.route_prefix``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from rauzyadic.errors import (ChainBlocked, EnumerationBudgetExceeded, HorizonExceeded,
                              MalformedMorphism, NoSchemaMatch, NoStabilization, NotInLanguage,
                              OutOfClass, UnsupportedCase)
from rauzyadic.morphism import GENERATORS, GeneratorWord, Morphism, compose_all
from rauzyadic.rauzy import (Circuit, Edge, RauzyGraph, _edge, _single_cycle, circuits_from,
                             reduced_graph)
from rauzyadic.sadic import DirectiveWord
from rauzyadic.schemas import _ASSIGNMENTS, Match, Step, _image_lengths
from rauzyadic.validator import BlockTable, Routing, start_vertex
from rauzyadic.words import (LETTERS, FactorOracle, LanguageCertificate, Word, common_prefix_len,
                             factors_of, is_primitive)

# -- factor languages ---------------------------------------------------


def language_by_block_sets(tau: dict[str, Word], n: int, lift: dict[str, Word] | None = None
                           ) -> tuple[frozenset[Word], LanguageCertificate]:
    """L_n of mu(X_tau) and its certificate as ``substitutive_language``
    gives them, with the blocks grown by joining images letter by letter
    and L_n the union of ``factors_of`` each block mu tau^k(a) and of
    ``factors_of`` each junction window."""
    letters = "".join(sorted(tau))
    if not is_primitive(tau):
        raise NoStabilization(f"substitution {tau} is not primitive on the letters {letters}")
    pairs = frozenset(x + y for x in letters for y in letters
                      if any(x + y in w for w in tau.values()))
    frontier, rounds = pairs, 0
    while frontier:
        rounds += 1
        frontier = frozenset(tau[ab[0]][-1] + tau[ab[1]][0] for ab in frontier) - pairs
        pairs |= frontier
    imgs = {a: lift[a] if lift else a for a in letters}
    k = 0
    while min(len(w) for w in imgs.values()) < n - 1:
        imgs = {a: "".join(imgs[c] for c in tau[a]) for a in letters}
        k += 1
    blocks = (factors_of(imgs[a], n) for a in set("".join(pairs)))
    junctions = (factors_of(imgs[a][len(imgs[a]) - n + 1:] + imgs[b][:n - 1], n)
                 for a, b in pairs)
    cert = LanguageCertificate(letters, len(pairs), rounds, k)
    return frozenset().union(*blocks, *junctions), cert


def is_aperiodic(oracle: FactorOracle, upto: int) -> bool:
    """p(n) >= n+1 for n <= upto, equivalently a right special of each length."""
    return all(p >= n + 1 for n, p in enumerate(oracle.counts(upto)))


def _top_set_lcps(oracle: FactorOracle) -> list[int]:
    """The lcps of the adjacent words of the whole sorted top set, each
    pair bisected."""
    top = oracle._top
    return [common_prefix_len(u, v) for u, v in zip(top, top[1:])]


def counts_by_top_set(oracle: FactorOracle) -> list[int]:
    """p(0..horizon) off the whole sorted top set: p(n) is the number of
    top words w with lcp(previous word, w) < n <= |w|, read off a
    difference array (the first word's lcp is -1)."""
    diff = [0] * (oracle.horizon + 2)
    for k, w in zip([-1, *_top_set_lcps(oracle)], oracle._top):
        diff[k + 1] += 1
        diff[len(w) + 1] -= 1
    return list(accumulate(diff[:-1]))


def special_pass_by_top_set(oracle: FactorOracle, n: int) -> list[tuple[frozenset[Word], ...]]:
    """The (right, left, bi) special tables of every order k <= n, in one
    pass over the whole top set sorted, and sorted on ``w[1:]``."""
    top = oracle._top
    right: list[set[Word]] = [set() for _ in range(n + 1)]
    left: list[set[Word]] = [set() for _ in range(n + 1)]
    for u, k in zip(top, _top_set_lcps(oracle)):
        if k <= n and k < len(u):
            right[k].add(u[:k])
    by_key = sorted(filter(None, top), key=lambda w: w[1:])
    for x, y in zip(by_key, by_key[1:]):
        if x[0] != y[0]:
            for k in range(common_prefix_len(x[1:], y[1:], n) + 1):
                left[k].add(x[1:k + 1])
    return [(frozenset(rs), frozenset(ls), frozenset(rs & ls)) for rs, ls in zip(right, left)]


def certified_by_top_set(oracle: FactorOracle) -> bool:
    """Every top word has ``horizon`` letters and P = {w[:-1]} equals
    S = {w[1:]} over the whole top set, which certifies the identities of
    ``complexity_profile`` at every order."""
    top = oracle._top
    return (all(len(w) == oracle.horizon for w in top)
            and {w[:-1] for w in top} == {w[1:] for w in top})


def bilateral_order(oracle: FactorOracle, u: Word) -> int:
    """m(u) = #biext - d+ - d- + 1, from the extensions of u."""
    if len(u) + 2 > oracle.horizon:
        raise HorizonExceeded(f"extension profile of {u!r} needs horizon {len(u) + 2}")
    right = oracle.right_extensions(u)
    left = oracle.left_extensions(u)
    two = oracle.factors(len(u) + 2)
    biext = sum(a + u + b in two for a in left for b in right)
    return biext - len(right) - len(left) + 1


def return_words(oracle: FactorOracle, u: Word, max_length: int | None = None) -> frozenset[Word]:
    """Return words to u: words r with ur in the language containing exactly
    two occurrences of u, one as a prefix and one as a suffix.

    Enumerated as first-return extensions pruned by language membership, so
    the result is exact whenever every return word fits inside the horizon;
    otherwise HorizonExceeded is raised.
    """
    if not oracle.contains(u):
        raise NotInLanguage(f"{u!r} not in the language")
    room = oracle.horizon - len(u)
    capped = max_length is not None and max_length <= room
    limit = min(room, max_length) if max_length is not None else room
    found: set[Word] = set()
    overflow = False
    stack = [u]
    while stack:
        v = stack.pop()
        for a in sorted(oracle.right_extensions(v)):
            w = v + a
            if not oracle.contains(w):
                continue
            if w[len(w) - len(u):] == u:
                found.add(w[len(u):])
                continue
            if len(w) - len(u) >= limit:
                overflow = True
                continue
            stack.append(w)
    if overflow and not capped:
        raise HorizonExceeded(f"return words to {u!r} exceed horizon {oracle.horizon}")
    # under a caller-supplied cap the result is exactly the return words of
    # length <= max_length
    return frozenset(r for r in found if max_length is None or len(r) <= max_length)


def return_words_by_scan(witness: Word, u: Word) -> frozenset[Word]:
    """Return words to u read off consecutive occurrences in a finite word.

    A return word r is the piece between the ends of consecutive
    occurrences, so that u.r has u as a prefix and as a suffix and no
    occurrence in between.  Independent of the oracle machinery; the judge
    of ``return_words``.
    """
    occ = []
    start = 0
    while True:
        i = witness.find(u, start)
        if i < 0:
            break
        occ.append(i)
        start = i + 1
    k = len(u)
    return frozenset(witness[i + k : j + k] for i, j in zip(occ, occ[1:]))


def factorize_letter_by_letter(label: Word, lower_u: Word, letter: dict[Word, str]) -> str:
    """``extraction._factorize`` as it was: follow the last len(lower_u)
    letters of lower_u + label one letter at a time, close a piece each
    time they are lower_u, and find the piece's letter by a scan of the
    right labels."""
    letters = []
    cur = lower_u
    chunk = []
    for b in label:
        cur = (cur + b)[-len(lower_u):] if lower_u else ""
        chunk.append(b)
        if cur == lower_u:
            found = [a for right, a in letter.items() if right == "".join(chunk)]
            if not found:
                raise NoSchemaMatch(f"label {label!r} has a piece that is no return word "
                                    f"to {lower_u!r}")
            letters.append(found[0])
            chunk = []
    if chunk:
        raise NoSchemaMatch(f"label {label!r} does not factor over returns to {lower_u!r}")
    return "".join(letters)


def chain_by_depth_table(oracle: FactorOracle, N: int) -> list[Word]:
    """``rauzy.right_special_chain`` as it was, on the specials counted
    order by order: the depth of each right special, the longest run of
    right specials above it up to order N, read from order N down, then a
    walk up from the empty word that takes, of the right specials one
    letter longer that end with the last word taken, the least among those
    that reach deepest."""
    if N + 1 > oracle.horizon:
        raise HorizonExceeded(f"chain to {N} needs horizon {N + 1}")
    levels = [oracle.specials(n)[0] for n in range(N + 1)]
    depth: dict[Word, int] = {}
    for n in range(N, -1, -1):
        for u in levels[n]:
            kids = [w for w in levels[n + 1] if w[1:] == u] if n < N else []
            depth[u] = 1 + max((depth[w] for w in kids), default=0)
    chain = [""]
    for n in range(N):
        kids = sorted(w for w in levels[n + 1] if w[1:] == chain[-1])
        if not kids:
            raise ChainBlocked(f"no right special extension of {chain[-1]!r} at order {n + 1}")
        best = max(depth[w] for w in kids)
        chain.append(next(w for w in kids if depth[w] == best))
    return chain


# -- paths of the order-n graph ------------------------------------------


@dataclass(frozen=True)
class Path:
    """Edge path of the order-n graph; empty paths are anchored at a vertex."""

    order: int
    start: Word
    edges: tuple[Edge, ...]

    @property
    def end(self) -> Word:
        return self.edges[-1].dst if self.edges else self.start

    def __len__(self):
        return len(self.edges)

    @property
    def right_label(self) -> Word:
        return "".join(e.right for e in self.edges)

    @property
    def left_label(self) -> Word:
        return "".join(e.left for e in self.edges)

    @property
    def full_label(self) -> Word:
        return self.start + self.right_label

    @property
    def vertices(self) -> tuple[Word, ...]:
        return (self.start,) + tuple(e.dst for e in self.edges)


def out_edges(graph: RauzyGraph, u: Word) -> tuple[Edge, ...]:
    """The edges out of u, by right letter: ``build_graph`` sorts the edges
    on their full labels, u and a letter, so they are adjacent."""
    i = j = bisect_left(graph.edges, u, key=lambda e: e.full_label)
    while j < len(graph.edges) and graph.edges[j].src == u:
        j += 1
    return graph.edges[i:j]


def walk(graph: RauzyGraph, start: Word, right_label: Word) -> Path:
    """The unique path from start with the given right label."""
    edges = []
    cur = start
    for b in right_label:
        matches = [e for e in out_edges(graph, cur) if e.right == b]
        if len(matches) != 1:
            raise ValueError(f"no unique edge from {cur!r} with right label {b!r}")
        edges.append(matches[0])
        cur = matches[0].dst
    return Path(graph.order, start, tuple(edges))


def circuit_path(c: Circuit) -> Path:
    """The circuit as a path of order-n edges, one per letter."""
    n, label = len(c.start), c.start + c.right_label
    return Path(n, c.start, tuple(_edge(label[i:i + n + 1]) for i in range(len(c.right_label))))


def psi_project(p: Path, lower: RauzyGraph) -> Path:
    """The unique path in the order-(n-1) graph with the same right label
    whose endpoints are suffixes of p's endpoints."""
    if p.order != lower.order + 1:
        raise ValueError("psi projects one order down")
    return walk(lower, p.start[1:], p.right_label)


# -- measurements for the length bookkeeping ---------------------------


@dataclass(frozen=True)
class LoopMeasurement:
    """u_i, v_i and the maximal loop count K in a two-loop configuration,
    with side 1 the chain side."""

    u1: int
    u2: int
    v1: int
    v2: int
    K: int


def measure_two_loops(oracle: FactorOracle, order: int, chain_vertex: Word) -> LoopMeasurement:
    """Direct measurement of |u1|, |u2|, |v1|, |v2| and K on the reduced graph."""
    g = reduced_graph(oracle, order)
    rs = [v for v in g.vertices if oracle.is_right_special(v)]
    if len(rs) != 2 or chain_vertex not in rs:
        raise OutOfClass(f"order {order}: not a two-right-special configuration")
    r1 = chain_vertex
    r2 = next(v for v in rs if v != r1)
    sides = {}
    for i, (ri, rj) in enumerate(((r1, r2), (r2, r1)), start=1):
        cyc = _single_cycle(g, ri, avoid=rj)
        if cyc is None:
            raise OutOfClass(f"order {order}: no unique own cycle at {ri!r}")
        if len(cyc) == 1:
            sides[i] = (0, cyc[0].length)
        elif len(cyc) == 2:
            sides[i] = (cyc[1].length, cyc[0].length)
        else:
            raise OutOfClass(f"order {order}: own cycle through {len(cyc)} condensed edges")
    circs = circuits_from(g, r1, oracle)
    K = max((c.visits(r2) - 1 for c in circs if c.visits(r2)), default=0)
    return LoopMeasurement(u1=sides[1][0], u2=sides[2][0], v1=sides[1][1], v2=sides[2][1], K=K)


def measure_no_loops(oracle: FactorOracle, order: int, chain_vertex: Word) -> tuple[int, int]:
    """|p1| (into the chain-side right special) and |p2| in the four-cycle
    configuration of the 5/6 region."""
    g = reduced_graph(oracle, order)
    rs = [v for v in g.vertices if oracle.is_right_special(v)]
    if len(rs) != 2 or chain_vertex not in rs:
        raise OutOfClass(f"order {order}: not a two-right-special configuration")
    r1 = chain_vertex
    r2 = next(v for v in rs if v != r1)
    out = {}
    for i, ri in enumerate((r1, r2), start=1):
        incoming = [e for e in g.edges if e.dst == ri]
        srcs = {e.src for e in incoming}
        if srcs == {ri} or not incoming:
            raise OutOfClass(f"order {order}: loop at {ri!r}, not a 5/6 region")
        plain = [e for e in incoming if e.src != ri]
        if len({e.src for e in plain}) != 1:
            raise OutOfClass(f"order {order}: several predecessors of {ri!r}")
        src = plain[0].src
        if oracle.is_left_special(src) and not oracle.is_right_special(src):
            out[i] = plain[0].length
        else:
            out[i] = 0
    return out[1], out[2]


# -- morphisms ------------------------------------------------------------


def occurrence_matrix(m: Morphism) -> list[list[bool]]:
    """occ[a][b] iff letter a occurs in the image of letter b."""
    return [[LETTERS[a] in m.images[b] for b in range(m.domain)] for a in range(m.codomain)]


def left_proper(m: Morphism) -> bool:
    """Every image is non-empty and they all begin with one letter."""
    return not m.erasing and len({w[0] for w in m.images}) == 1


def restrict(m: Morphism, domain: int) -> Morphism:
    return Morphism(m.images[:domain], m.codomain)


def permutation(images: str) -> Morphism:
    """Letter-to-letter permutation 0->images[0], ... of three letters."""
    return Morphism(tuple(images), 3)


def _build_derived_expansions() -> dict[str, GeneratorWord]:
    """Expansion of each derived morphism into the five generators.

    These are the identities of the decomposition table: each row below is
    literally how the derived family is obtained from G, D, M, E01, E12.
    """
    e01, e12 = ("E01",), ("E12",)
    e02 = e01 + e12 + e01                      # E(0,2) = E01 E12 E01
    exp: dict[str, GeneratorWord] = {
        "E01": e01, "E12": e12, "E02": e02,
        "D01": ("D",), "G01": ("G",),
        "D02": e12 + ("D",) + e12, "G02": e12 + ("G",) + e12,
        "D10": e01 + ("D",) + e01, "G10": e01 + ("G",) + e01,
    }
    exp["D12"] = e01 + exp["D02"] + e01
    exp["G12"] = e01 + exp["G02"] + e01
    exp["D20"] = e02 + exp["D02"] + e02
    exp["G20"] = e02 + exp["G02"] + e02
    exp["D21"] = e12 + exp["D12"] + e12
    exp["G21"] = e12 + exp["G12"] + e12
    exp["M21"] = ("M",)
    exp["M01"] = e02 + ("M",) + e02
    exp["M10"] = e01 + exp["M01"]
    exp["M02"] = e01 + e12 + ("M",) + e01
    exp["M20"] = e02 + exp["M02"]
    exp["M12"] = e12 + ("M",)
    return exp


DERIVED_EXPANSION = _build_derived_expansions()


def compose_generators(word: GeneratorWord, n: int = 3) -> Morphism:
    """Compose a generator word (leftmost applied last) into a morphism."""
    return compose_all([GENERATORS[name] for name in word], n)


def parse_generator_word(text: str) -> GeneratorWord:
    names = tuple(text.split())
    for name in names:
        if name not in GENERATORS:
            raise MalformedMorphism(f"unknown generator {name!r}")
    return names


# -- schema matching --------------------------------------------------------


def solve_lengths_by_dict(rows, ns: tuple[int, ...]) -> list[tuple[object, int, int]]:
    """The rows, in order, with an image-length solution ns, each with its
    k and l, solved through one dict of exponents per row; a constant image
    solves for the exponent 0 of the variable None."""
    n = len(ns)
    out = []
    for row in rows:
        if n not in row.arities:
            continue
        vals: dict[str | None, int] = {None: 0}
        for (var, fixed, step), length in zip(map(_image_lengths, row.imgs), ns):
            e, r = divmod(length - fixed, step or 1)
            if r or e < 0 or vals.setdefault(var, e) != e:
                break
        else:
            k, l = vals.get("k", 0), vals.get("l", 0)
            if row.cond is None or row.cond(k, l):
                out.append((row, k, l))
    return out


def row_matches_by_atoms(row, m: Morphism, k: int, l: int) -> list[Match]:
    """The row's matches of m at k and l, in assignment order: the images
    built atom by atom with the pattern symbols left in, then translated
    under each assignment."""
    pattern = ["".join(a.sym * (a.off if a.var is None else (k if a.var == "k" else l) + a.off)
                       for a in p)
               for p in row.atoms[:len(m.images)]]
    out = []
    for assign in _ASSIGNMENTS[row.vars]:
        table = str.maketrans(assign)
        if all(s.translate(table) == w for s, w in zip(pattern, m.images)):
            out.append(Match(row, tuple(sorted(assign.items())), k if "k" in row.uses else None,
                             l if "l" in row.uses else None))
    return out


def matches_by_atoms(rows, m: Morphism) -> list[Match]:
    """The matches of m on the rows, in order, by the two judges above."""
    ns = tuple(map(len, m.images))
    return [match for row, k, l in solve_lengths_by_dict(rows, ns)
            for match in row_matches_by_atoms(row, m, k, l)]


# -- routing ----------------------------------------------------------------


def lasso_routings(table: BlockTable, start: str, limit: int = 64) -> list[Routing]:
    """The routings of ``validator._enumerate_routings`` by the search it
    replaced: besides the states on the path, it keeps the set of steps
    taken on the path, skips a step taken before, copies the states at
    each call, and records a lasso only when its cycle is not empty and
    consumes whole periods."""
    p, T = len(table.dw.preperiod), len(table.dw.period)
    if T == 0:
        return []
    out: list[Routing] = []

    def phase(pos):
        return (pos - p) % T if pos >= p else None

    def dfs(vertex, pos, steps, seen, anchors):
        ph = phase(pos)
        if ph is not None:
            key = (vertex, ph)
            if key in anchors:
                first = anchors[key]
                cyc = steps[first:]
                if cyc and sum(s.blocks for s in cyc) % T == 0:
                    if len(out) == limit:
                        raise EnumerationBudgetExceeded(
                            f"more than {limit} routings from vertex {start}")
                    out.append(Routing(start, tuple(steps[:first]), tuple(cyc)))
                return
            anchors = dict(anchors)
            anchors[key] = len(steps)
        for step in table.routed_steps(vertex, pos):
            skey = (vertex, step.dst, pos if ph is None else ("c", ph), step.blocks,
                    step.match.row.rid)
            if skey in seen:
                continue
            dfs(step.dst, pos + step.blocks, steps + [step], seen | {skey}, anchors)

    dfs(start, 0, [], frozenset(), {})
    out.sort(key=lambda r: (len(r.cycle), len(r.prefix)))
    return out


def prefix_routing(dw: DirectiveWord) -> list[Step]:
    """The routed prefix of ``cli_impl.route_prefix`` by the search it
    replaced: one recursive call per routed step, each with a copy of the
    path, up to the first path that reads every known level and lands in
    the two-loop or no-loop region."""
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
