"""Rauzy graphs of order n, reduced graphs, the 10 shapes, and circuits.

The order-n graph has the length-n factors as vertices and one edge per
length-(n+1) factor; the reduced graph condenses non-special interior
vertices.  ``reduced_graph`` reads the reduced graph straight off the
language, walking from each special factor by forced letters, so no
order-n graph is built; ``build_graph`` builds the whole graph, to draw
it.  Circuits are return words, cut at the special factors.
Shape classification covers the ten types a minimal subshift with
1 <= p(n+1)-p(n) <= 2 can exhibit at a bispecial order.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ChainBlocked, HorizonExceeded, OutOfClass
from .words import FactorOracle, Word


class Edge(NamedTuple):
    """Edge u -> v with u.right == left.v, the full label."""

    src: Word
    left: str
    right: str
    dst: Word

    @property
    def full_label(self) -> Word:
        return self.src + self.right


def _edge(w: Word) -> Edge:
    """The edge whose full label is the factor w."""
    return Edge(w[:-1], w[0], w[-1], w[1:])


class RauzyGraph(NamedTuple):
    order: int
    vertices: frozenset[Word]
    edges: tuple[Edge, ...]


def build_graph(oracle: FactorOracle, n: int) -> RauzyGraph:
    """Vertices are the length-n factors, one edge per length-(n+1) factor."""
    if n + 1 > oracle.horizon:
        raise HorizonExceeded(f"graph of order {n} needs horizon {n + 1}")
    longer = oracle.factors(n + 1)              # first, so that L_n is sliced from it
    vertices = frozenset(oracle.factors(n))     # before the edges: a negative n is refused here
    edges = tuple(sorted(map(_edge, longer), key=lambda e: e.full_label))
    return RauzyGraph(n, vertices, edges)


# -- circuits ----------------------------------------------------------


class ReducedEdge(NamedTuple):
    """A maximal path of the order-n graph whose interior vertices are not
    special, kept as its ends and its full label."""

    src: Word
    dst: Word
    full_label: Word

    @property
    def length(self) -> int:
        return len(self.full_label) - len(self.src)

    @property
    def right_label(self) -> Word:
        return self.full_label[len(self.src):]


class Circuit(NamedTuple):
    """Path from a right special vertex back to itself with no interior
    visit of the start, kept as its reduced edges; allowed iff its full
    label is in the language.  A circuit is read off a complete return
    word r to its start v: its right label, the letters its edges add, is
    r without its first len(v) letters, and its length is that label's;
    its stops are the reduced-graph vertices it passes, the windows of r
    where its edges meet, the start at both ends."""

    start: Word
    edges: tuple[ReducedEdge, ...]
    right_label: Word
    stops: tuple[Word, ...]
    allowed: bool = True

    def visits(self, v: Word) -> int:
        """How often it passes the reduced-graph vertex v."""
        return self.stops.count(v)


def circuits_from(graph: ReducedRauzyGraph, v: Word, oracle: FactorOracle) -> tuple[Circuit, ...]:
    """All allowed circuits from v, sorted by right label.  A path spells
    the word whose windows are the vertices it passes, so a circuit from v
    that is allowed, a factor, is a complete return word to v, as
    ``FactorOracle.complete_return_words`` reads them, cut into reduced
    edges at its windows in ``graph.vertices``."""
    if not oracle.is_right_special(v):
        return ()
    n, out = len(v), []
    for r in oracle.complete_return_words(v):
        cuts = [0, *(i for i in range(1, len(r) - n) if r[i:i + n] in graph.vertices), len(r) - n]
        stops = tuple(r[a:a + n] for a in cuts)
        edges = tuple(ReducedEdge(u, x, r[a:b + n])
                      for a, b, u, x in zip(cuts, cuts[1:], stops, stops[1:]))
        out.append(Circuit(v, edges, r[n:], stops))
    return tuple(out)


# -- reduced graphs and shapes ----------------------------------------


class EvolvedEdge(NamedTuple):
    """A reduced edge carried to a later order, kept as the images of its
    ends: all that ``classify_shape`` reads of an edge."""

    src: Word
    dst: Word


class ReducedRauzyGraph(NamedTuple):
    """Special vertices and the condensed paths between them; a graph
    evolved to a later order by ``reduce_and_classify`` has EvolvedEdges."""

    order: int
    vertices: frozenset[Word]
    edges: tuple[ReducedEdge | EvolvedEdge, ...]

    def out_edges(self, u: Word) -> tuple[ReducedEdge, ...]:
        return tuple(e for e in self.edges if e.src == u)


def reduced_graph(oracle: FactorOracle, n: int) -> ReducedRauzyGraph:
    """The reduced graph of order n read off the language, with no order-n
    graph built: the order-n graph with its maximal paths through
    non-special vertices condensed, for a factorial, bi-extendable language.

    The vertices are the right and left special factors of length n.  Each
    reduced edge leaves a special u by one of its right extension letters
    and walks on by forced letters until the last n letters are special
    again: a non-special factor has exactly one right extension, so the
    edge's full label is a factor, and ``FactorOracle.continuation`` gives
    many of those letters at once.  The edges must cover the p(n+1) factors
    of length n+1, one letter each; a language where they do not, or where
    a walk stops on a factor with no right extension, is not bi-extendable
    at order n and is OutOfClass."""
    return _reduced_edges(oracle, n, _specials_of_order(oracle, n), oracle.count(n + 1))


def _specials_of_order(oracle: FactorOracle, n: int) -> frozenset[Word]:
    """The right and left special factors of length n, the vertices of the
    reduced graph of order n.  There are none where the first difference
    p(n+1) - p(n) is 0, in a periodic language, or below 0, where a finite
    prefix is too short for the order."""
    if n + 1 > oracle.horizon:
        raise HorizonExceeded(f"graph of order {n} needs horizon {n + 1}")
    if n < 0:
        # the edges have length n + 1, so an order below -1 is refused there
        oracle.factors(n + 1)
    right, left, _ = oracle.specials(n)
    keep = right | left
    if not keep:
        s = oracle.count(n + 1) - oracle.count(n)
        why = "periodic language" if s == 0 else "prefix too short for the order"
        raise OutOfClass(f"order {n}: no special vertex (first difference p({n + 1}) - p({n}) "
                         f"= {s}: {why})")
    return keep


def _reduced_edges(oracle: FactorOracle, n: int, keep: frozenset[Word],
                   size: int) -> ReducedRauzyGraph:
    """The reduced graph on the specials ``keep`` of order n, walked from
    each by forced letters; ``size`` is p(n+1), which the edges cover."""
    edges = []
    for u in sorted(keep):
        for a in sorted(oracle.right_extensions(u)):
            label, run, j = u + a, "", 0
            while label[len(label) - n:] not in keep:
                if j == len(run):
                    run, j = oracle.continuation(label[len(label) - n:]), 0
                    if not run or len(label) - n > size:
                        raise OutOfClass(f"order {n}: the walk from {u!r} by {a!r} meets "
                                         "no special factor")
                label += run[j]
                j += 1
            edges.append(ReducedEdge(u, label[len(label) - n:], label))
    if (covered := sum(e.length for e in edges)) != size:
        raise OutOfClass(f"order {n}: the reduced edges cover {covered} of the {size} "
                         f"factors of length {n + 1}")
    return ReducedRauzyGraph(n, keep, tuple(edges))


class GraphShape(NamedTuple):
    """One of the ten shapes.  ``gap`` is nonzero when the classified order
    had no bispecial factor and the type reported is the one of the next
    bispecial order."""

    type_id: int
    order: int
    gap: int = 0


def _single_cycle(g: ReducedRauzyGraph, r: Word, avoid: Word | None):
    """The unique condensed cycle through r avoiding ``avoid``; returns the
    list of reduced edges or None."""
    best = None
    stack = [(r, [])]
    while stack:
        cur, acc = stack.pop()
        for e in g.out_edges(cur):
            if avoid is not None and e.dst == avoid:
                continue
            if e.dst == r:
                # the search meets each edge sequence once, so a second
                # cycle is another one
                if best is not None:
                    return None
                best = acc + [e]
            elif e.dst not in [x.dst for x in acc] and e.dst != r:
                stack.append((e.dst, acc + [e]))
    return best


def classify_shape(g: ReducedRauzyGraph, oracle: FactorOracle, gap: int = 0) -> GraphShape:
    """Classify a reduced graph at a bispecial order among the ten types."""
    n = g.order
    rs = sorted(v for v in g.vertices if oracle.is_right_special(v))
    ls = sorted(v for v in g.vertices if oracle.is_left_special(v))
    bis = sorted(set(rs) & set(ls))
    if not bis:
        raise OutOfClass(f"order {n}: no bispecial vertex")
    if len(rs) == 1 and len(ls) == 1:
        dplus = len(g.out_edges(bis[0]))
        if dplus in (2, 3):   # two circuits: type 1, three: type 2
            return GraphShape(dplus - 1, n, gap)
        raise OutOfClass(f"order {n}: degree {dplus} bispecial")
    if len(rs) == 1 and len(ls) == 2:
        return GraphShape(3, n, gap)
    if len(rs) == 2 and len(ls) == 1:
        return GraphShape(4, n, gap)
    if len(rs) == 2 and len(ls) == 2:
        loops = {v for v in rs if any(e.dst == v for e in g.out_edges(v))}
        if len(bis) == 2:
            if loops == set(rs):
                return GraphShape(8, n, gap)
            if not loops:
                return GraphShape(6, n, gap)
            raise OutOfClass(f"order {n}: two bispecials, one loop")
        # one bispecial, one right-only special, one left-only special
        b = bis[0]
        if b in loops:
            r = next(v for v in rs if v != b)
            return GraphShape(7 if _single_cycle(g, r, avoid=b) else 9, n, gap)
        # no loops at all: type 5 or type 10, told apart by parallel edges
        doubles = any(sum(1 for f in g.out_edges(v) if f.dst == e.dst) == 2
                      for v in g.vertices for e in g.out_edges(v))
        return GraphShape(5 if doubles else 10, n, gap)
    raise OutOfClass(f"order {n}: {len(rs)} right specials, {len(ls)} left specials")


def _evolve_to_bispecial(g: ReducedRauzyGraph, oracle: FactorOracle) -> ReducedRauzyGraph:
    """The reduced graph of the next bispecial order m above g's order,
    which has no bispecial factor, evolved from g with no graph built at m.

    Each right special extends to the left and each left special to the
    right by its unique extension letter, one order at a time, up to the
    first order where a right special has two or more left extensions.
    From one order to the next a reduced edge of length l becomes one of
    length l - 1 + [source right special] + [target left special], so an
    edge from a left to a right special shrinks to nothing where its ends
    meet in a bispecial; at m those edges are dropped and their ends
    merge.  A walker with no or several extensions, or evolved vertices
    other than the specials of order m are OutOfClass."""
    n = g.order
    right, left, _ = oracle.specials(n)
    image = {v: v for v in g.vertices}
    m = n
    while True:
        lefts = {v: oracle.left_extensions(image[v]) for v in right}
        if any(len(a) >= 2 for a in lefts.values()):
            break
        rights = {v: oracle.right_extensions(image[v]) for v in left}
        for v, letters in (*lefts.items(), *rights.items()):
            if len(letters) != 1:
                raise OutOfClass(f"order {m}: special {image[v]!r} has {len(letters)} "
                                 "extensions on its free side")
        m += 1
        if m + 2 > oracle.horizon:
            raise HorizonExceeded(f"no bispecial order found above {n} within horizon")
        for v, (a,) in lefts.items():
            image[v] = a + image[v]
        for v, (b,) in rights.items():
            image[v] += b
    vertices = frozenset(image.values())
    right_m, left_m, _ = oracle.specials(m)
    if vertices != right_m | left_m:
        raise OutOfClass(f"order {m}: evolved vertices are not the special factors")
    lengths = [e.length + (m - n) * ((e.src in right) + (e.dst in left) - 1) for e in g.edges]
    # in a bi-extendable language the evolved edges partition L_{m+1}
    if min(lengths) < 0 or sum(lengths) != len(oracle.factors(m + 1)):
        raise OutOfClass(f"order {m}: evolved edge lengths {lengths} do not cover "
                         f"the {len(oracle.factors(m + 1))} factors of length {m + 1}")
    edges = tuple(EvolvedEdge(image[e.src], image[e.dst])
                  for e, length in zip(g.edges, lengths) if length)
    return ReducedRauzyGraph(m, vertices, edges)


def reduce_and_classify(oracle: FactorOracle, n: int) -> tuple[ReducedRauzyGraph, GraphShape]:
    """The reduced graph of order n, read off the language, plus its type;
    at a non-bispecial order the type is the one of the next bispecial
    order, read off the reduced graph evolved there, with the gap recorded.

    Checked in order: the horizon and a negative order, a special vertex,
    the first differences at n and n + 1, the walk of ``reduced_graph`` and
    its coverage of L_{n+1}, whose size is read off the set (a
    ``FactorOracle.count`` would pass over the whole top set)."""
    keep = _specials_of_order(oracle, n)
    for m in (n, n + 1):
        p = len(oracle.factors(m + 1)) - len(oracle.factors(m))
        if not 1 <= p <= 2:
            raise OutOfClass(f"order {m}: first difference {p} outside [1, 2]")
    g = _reduced_edges(oracle, n, keep, len(oracle.factors(n + 1)))
    if oracle.specials(n)[2]:
        return g, classify_shape(g, oracle)
    gm = _evolve_to_bispecial(g, oracle)
    return g, classify_shape(gm, oracle, gap=gm.order - n)._replace(order=n)


# -- the right special chain ------------------------------------------


def right_special_chain(oracle: FactorOracle, N: int) -> list[Word]:
    """U_0..U_N with U_n right special of length n and a suffix of U_{n+1}.

    A suffix of a right special is right special, so the chain is the
    suffixes of a right special of the deepest order M <= N that has one,
    the least read from the right, or ChainBlocked where M < N.  U_0 is the
    empty word, right special or not."""
    if N + 1 > oracle.horizon:
        raise HorizonExceeded(f"chain to {N} needs horizon {N + 1}")
    levels = [{""}, *(right for right, _, _ in oracle.special_tables(N)[1:])]
    M = max(n for n, right in enumerate(levels) if right)
    deepest = min(levels[M], key=lambda w: w[::-1])
    if M < N:
        raise ChainBlocked(f"no right special extension of {deepest!r} at order {M + 1}")
    return [deepest[M - n:] for n in range(M + 1)]


# -- DOT export --------------------------------------------------------


def to_dot(graph: RauzyGraph | ReducedRauzyGraph, name: str = "rauzy") -> str:
    """Deterministic DOT rendering; reduced edges use doubled pen width."""
    reduced = isinstance(graph, ReducedRauzyGraph)
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in sorted(graph.vertices):
        label = v if v else "eps"
        lines.append(f'  "{label}";')
    edges = sorted(graph.edges, key=lambda e: (e.src, e.full_label))
    for e in edges:
        src = e.src if e.src else "eps"
        dst = e.dst if e.dst else "eps"
        style = ', penwidth=2' if reduced else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{e.full_label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
