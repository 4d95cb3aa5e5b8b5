from collections import Counter
from pathlib import Path as FilePath

import pytest
from hypothesis import assume, given, settings, strategies as st
from judges import (Path, circuit_path, measure_two_loops, out_edges, psi_project,
                    return_words, walk)

from rauzyadic import rauzy
from rauzyadic.errors import ChainBlocked, HorizonExceeded, OutOfClass, RauzyadicError
from rauzyadic.rauzy import (
    EvolvedEdge, ReducedEdge, ReducedRauzyGraph, _single_cycle, build_graph,
    circuits_from, classify_shape, reduce_and_classify, reduced_graph, right_special_chain,
    to_dot,
)
from rauzyadic.sadic import language_horizon, parse_directive
from rauzyadic.words import FactorOracle, is_primitive, named_oracle

DIRECTIVES = FilePath(__file__).resolve().parents[1] / "directives"


# -- the judge: the reduced graph condensed from the whole order-n graph


def special_vertices(graph):
    """Special or boundary vertices (for minimal subshifts, just the
    specials): every vertex but those with one edge out and one edge in,
    with the degrees counted over the edges."""
    outs = Counter(e.src for e in graph.edges)
    ins = Counter(e.dst for e in graph.edges)
    return frozenset(v for v in graph.vertices if not outs[v] == ins[v] == 1)


def reduce_graph(graph):
    """Condense the maximal paths of the order-n graph whose interior
    vertices are not special; the reference for ``reduced_graph``, which
    reads the same graph off the language."""
    keep = special_vertices(graph)
    if not keep:
        raise OutOfClass(f"order {graph.order}: no special vertex (periodic language)")
    edges = []
    for u in sorted(keep):
        for first in out_edges(graph, u):
            chain = [first]
            while chain[-1].dst not in keep:
                # a vertex that is not special has one edge out
                chain.append(out_edges(graph, chain[-1].dst)[0])
            edges.append(ReducedEdge(u, chain[-1].dst, u + "".join(e.right for e in chain)))
    edges.sort(key=lambda e: (e.src, e.full_label))
    return ReducedRauzyGraph(graph.order, keep, tuple(edges))


def _not_special(g, oracle):
    """The vertices of g that are neither right nor left special: the
    boundary of a finite prefix, which is not bi-extendable."""
    return {v for v in g.vertices if not (oracle.is_right_special(v) or oracle.is_left_special(v))}


def test_figure_fibonacci_graphs(fib):
    g0 = build_graph(fib, 0)
    assert g0.vertices == {""}
    assert {e.full_label for e in g0.edges} == {"0", "1"}
    g1 = build_graph(fib, 1)
    assert g1.vertices == {"0", "1"}
    assert {e.full_label for e in g1.edges} == {"00", "01", "10"}
    g2 = build_graph(fib, 2)
    assert g2.vertices == {"00", "01", "10"}
    assert {e.full_label for e in g2.edges} == {"001", "010", "100", "101"}


def test_figure_thue_morse_order_3(tm):
    g3 = build_graph(tm, 3)
    assert g3.vertices == {"001", "011", "010", "101", "100", "110"}
    assert {e.full_label for e in g3.edges} == {"0010", "0011", "0100", "0101", "0110",
                                               "1001", "1010", "1011", "1100", "1101"}


def test_reduced_fibonacci_order_2(fib):
    g = reduce_graph(build_graph(fib, 2))
    assert g.vertices == {"01", "10"}
    assert reduced_graph(fib, 2) == g
    labels = sorted(e.full_label for e in g.edges)
    assert labels == ["010", "1001", "101"]


def test_path_label_discipline(fib, trib):
    # left labels are prefixes of the origin, right labels suffixes of the end
    for o in (fib, trib):
        for n in (2, 4, 6):
            g = build_graph(o, n)
            for v in sorted(g.vertices)[:3]:
                stack = [Path(n, v, ())]
                while stack:
                    p = stack.pop()
                    if len(p) >= n:
                        continue
                    for e in out_edges(g, p.end):
                        q = Path(n, v, p.edges + (e,))
                        assert q.start.startswith(q.left_label)
                        assert q.end.endswith(q.right_label)
                        stack.append(q)


def test_special_vertices_by_degrees(fib, tm, trib):
    # from the edge counts, the same vertices as the adjacency lists give;
    # a prefix oracle's last factor has no edge out
    prefix = FactorOracle.from_prefix("0100101001001", 8)
    for o in (fib, tm, trib, prefix):
        for n in range(7):
            g = build_graph(o, n)
            want = {v for v in g.vertices
                    if len(out_edges(g, v)) != 1 or sum(e.dst == v for e in g.edges) != 1}
            assert special_vertices(g) == want, (o, n)


def test_circuits_fibonacci_g1(fib):
    circs = circuits_from(reduced_graph(fib, 1), "0", fib)
    assert {c.right_label for c in circs} == {"0", "10"}
    assert {c.right_label for c in circs} == return_words(fib, "0")


def test_circuit_return_word_correspondence(fib, trib):
    for o in (fib, trib):
        chain = right_special_chain(o, 8)
        for n in range(1, 9):
            circs = circuits_from(reduced_graph(o, n), chain[n], o)
            assert {c.right_label for c in circs} == return_words(o, chain[n])


def test_thue_morse_disallowed_circuit(tm):
    g3 = build_graph(tm, 3)
    loop = walk(g3, "010", "1" + "101" * 3 + "0")
    assert loop.start == loop.end == "010" and "010" not in loop.vertices[1:-1]
    assert "101101101" in loop.full_label and not tm.contains(loop.full_label)
    circs = circuits_from(reduced_graph(tm, 3), "010", tm)
    assert loop.right_label not in {c.right_label for c in circs}


def test_circuits_from_periodic():
    # no vertex of (01)^inf is right special, so none starts a circuit, and
    # with no special vertex there is no reduced graph
    o = FactorOracle.from_prefix("01" * 50, horizon=10, source="(01)^inf")
    for v in build_graph(o, 2).vertices:
        assert circuits_from(ReducedRauzyGraph(2, frozenset(), ()), v, o) == ()
    with pytest.raises(OutOfClass, match="no special vertex"):
        reduced_graph(o, 2)


@pytest.mark.parametrize("prefix, horizon, order, reason", [
    ("01" * 50, 10, 2, r"p\(3\) - p\(2\) = 0: periodic language"),
    # p(10) = 4, p(11) = 3: the prefix runs out before the order, and is not periodic
    ("0100101001001", 12, 10, r"p\(11\) - p\(10\) = -1: prefix too short for the order"),
], ids=["periodic", "short-prefix"])
def test_no_special_vertex_names_the_first_difference(prefix, horizon, order, reason):
    oracle = FactorOracle.from_prefix(prefix, horizon)
    for build in (reduced_graph, reduce_and_classify):
        with pytest.raises(OutOfClass, match=rf"^order {order}: no special vertex "
                                             rf"\(first difference {reason}\)$"):
            build(oracle, order)


def test_psi_projection_examples(fib):
    g2, g1 = build_graph(fib, 2), build_graph(fib, 1)
    e = next(e for e in g2.edges if e.src == "01" and e.right == "0")
    p = psi_project(Path(2, "01", (e,)), g1)
    assert p.full_label == "10" and p.start == "1" and p.end == "0"
    zero = psi_project(Path(2, "01", ()), g1)
    assert len(zero) == 0 and zero.start == "1"
    # a circuit at "10" in G_2 projects to a circuit at "0", same right label
    q = walk(g2, "10", "10")
    pr = psi_project(q, g1)
    assert pr.start == "0" and pr.end == "0" and pr.right_label == "10"


def test_right_special_chain(fib, trib):
    assert right_special_chain(fib, 2) == ["", "0", "10"]
    chain = right_special_chain(trib, 10)
    for n in range(10):
        assert trib.is_right_special(chain[n])
        assert chain[n + 1][1:] == chain[n]
    # AR words have a unique right special factor of each length
    for n in range(1, 10):
        assert len(trib.specials(n)[0]) == 1


def test_chain_blocked_on_periodic():
    o = FactorOracle.from_prefix("01" * 60, horizon=12, source="(01)^inf")
    with pytest.raises(ChainBlocked):
        right_special_chain(o, 8)


def test_classify_fibonacci(fib):
    g, shape = reduce_and_classify(fib, 2)
    assert shape.type_id == 1 and shape.gap == 1
    assert g.vertices == {"01", "10"}
    for n in (0, 1, 3):
        _, shape = reduce_and_classify(fib, n)
        assert shape.type_id == 1 and shape.gap == 0


def test_classify_tribonacci_type_2(trib):
    for n in range(0, 12):
        if trib.specials(n)[2]:
            _, shape = reduce_and_classify(trib, n)
            assert shape.type_id == 2


def test_classify_thue_morse_out_of_class(tm):
    with pytest.raises(OutOfClass):
        reduce_and_classify(tm, 3)


def test_circuit_count_bound(fib, trib):
    # prop: at most 3 allowed circuits from the chain vertex
    for o in (fib, trib):
        chain = right_special_chain(o, 14)
        for n in range(14):
            circs = circuits_from(reduced_graph(o, n), chain[n], o)
            assert 2 <= len(circs) <= 3


def test_min_circuit_length_grows(fib):
    chain = right_special_chain(fib, 16)
    mins = []
    for n in range(0, 16, 3):
        circs = circuits_from(reduced_graph(fib, n), chain[n], fib)
        mins.append(min(len(c) for c in circs))
    assert mins == sorted(mins) and mins[-1] > mins[0]


def test_language_telescoping(fib):
    # factors of circuit-label concatenations shrink with the order
    import itertools
    from rauzyadic.words import factors_of
    chain = right_special_chain(fib, 10)
    sets = []
    for n in (2, 5, 8):
        labels = sorted(c.right_label for c in circuits_from(reduced_graph(fib, n), chain[n], fib))
        star = ["".join(ws) for ws in itertools.product(labels, repeat=4)]
        sets.append(frozenset(w for text in star for k in range(1, 7)
                              for w in factors_of(text, k)))
    assert sets[2] <= sets[1] <= sets[0]


def test_to_dot_deterministic(fib):
    g = build_graph(fib, 2)
    d1, d2 = to_dot(g), to_dot(g)
    assert d1 == d2
    assert '"00" -> "01" [label="001"];' in d1
    r = to_dot(reduced_graph(fib, 2))
    assert "penwidth=2" in r


def test_measure_two_loops_refuses_single_special(fib):
    # Sturmian orders have one right special: not a two-loop region
    chain = right_special_chain(fib, 4)
    with pytest.raises(OutOfClass):
        measure_two_loops(fib, 4, chain[4])


def test_single_cycle_is_unique_or_none():
    # types 7 and 9 differ by this cycle; no known language has two
    loop, out, back = EvolvedEdge("r", "r"), EvolvedEdge("r", "l"), EvolvedEdge("l", "r")
    to_b, from_b = EvolvedEdge("r", "b"), EvolvedEdge("b", "r")
    one = ReducedRauzyGraph(1, frozenset("rlb"), (out, back, to_b, from_b))
    assert _single_cycle(one, "r", avoid="b") == [out, back]
    two = ReducedRauzyGraph(1, frozenset("rlb"), (loop, out, back, to_b, from_b))
    assert _single_cycle(two, "r", avoid="b") is None


# -- the evolution to the next bispecial order, against a rebuild there ----


def _rebuilt(graph, oracle):
    """Reference for reduce_and_classify: the order-n graph condensed, the
    next bispecial order found by scanning the bispecials of each order,
    and the shape of the reduced graph built there.  Returns ((reduced
    graph of order n, type, gap) or the error's type name, the last order
    looked at)."""
    n = m = graph.order
    try:
        g = reduce_graph(graph)
        for k in (n, n + 1):
            if not 1 <= len(oracle.factors(k + 1)) - len(oracle.factors(k)) <= 2:
                raise OutOfClass(f"order {k}: first difference outside [1, 2]")
        while not oracle.specials(m)[2]:
            m += 1
            if m + 2 > oracle.horizon:
                raise HorizonExceeded(f"no bispecial order found above {n} within horizon")
        shape = classify_shape(reduce_graph(build_graph(oracle, m)), oracle)
        return (g, shape.type_id, m - n), m
    except RauzyadicError as exc:
        return type(exc).__name__, m


def _evolved(oracle, n):
    try:
        g, shape = reduce_and_classify(oracle, n)
    except RauzyadicError as exc:
        return type(exc).__name__
    assert shape.order == n
    return g, shape.type_id, shape.gap


def _bi_extendable(oracle, lo, hi):
    """Every factor of length lo..hi extends to the left and to the right."""
    return all(oracle.factors(k) == {w[:-1] for w in oracle.factors(k + 1)}
               == {w[1:] for w in oracle.factors(k + 1)} for k in range(lo, hi + 1))


def _outcomes(oracle, orders):
    """(order, evolved outcome, rebuilt outcome, last order the rebuild
    read); reduce_and_classify runs first, on the oracle as given."""
    for n in orders:
        got = _evolved(oracle, n)
        want, last = _rebuilt(build_graph(oracle, n), oracle)
        yield n, got, want, last


@pytest.mark.parametrize("name", ["fibonacci", "thue-morse", "tribonacci"])
def test_evolved_shapes_of_the_named_sources(name):
    # each order on a fresh oracle, at horizons where the first difference
    # at n + 1 or the scan for the next bispecial runs out, and one with room
    seen = set()
    for n in range(61):
        for horizon in (n + 1, n + 2, n + 3, 2 * n + 10):
            (_, got, want, _), = _outcomes(named_oracle(name, horizon), [n])
            assert got == want, (name, n, horizon)
            seen.add(got if isinstance(got, str) else "classified")
    assert "classified" in seen and "HorizonExceeded" in seen


# one valid directive each of C1, C3 and C4 from the benchmark's pools,
# which between them reach all ten types, OutOfClass and HorizonExceeded
POOL_SAMPLE = ("period:\n[12220,2220]\n[1,0001,001]\n[2,01,1]\n",
               "period:\n[2,102,02]\n[102,002,1002]\n",
               "preperiod:\n[0,120,20]\nperiod:\n[0,10,2]\n[021,1,21]\n[0,10,20]\n")


def test_evolved_shapes_of_directive_languages():
    texts = [f.read_text() for f in sorted(DIRECTIVES.glob("*.dw")) if f.stem != "not_valid"]
    seen = set()
    for text in texts + list(POOL_SAMPLE):
        oracle = language_horizon(parse_directive(text), 48)
        for n, got, want, _ in _outcomes(oracle, range(47)):
            assert got == want, (text, n)
            seen.add(got[1] if isinstance(got, tuple) else got)
    assert seen == {*range(1, 11), "OutOfClass", "HorizonExceeded"}


@st.composite
def primitive_substitutions(draw):
    letters = "012"[:draw(st.sampled_from((2, 3)))]
    images = {a: draw(st.text(letters, min_size=1, max_size=5)) for a in letters}
    images["0"] = "0" + draw(st.text(letters, min_size=1, max_size=4))
    assume(is_primitive(images))
    return images


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions(), st.integers(12, 30), st.integers(0, 60))
def test_evolved_shape_matches_a_rebuild(images, horizon, slack):
    # a prefix of the fixed point, unlike the language, can stop being
    # bi-extendable (a factor seen only at the start or the end): there the
    # walkers leave the class, and the evolution refuses where the rebuild
    # classifies a graph with boundary vertices or runs out of horizon
    word = "0"
    while len(word) < horizon + slack:
        word = "".join(images[c] for c in word)
    language = FactorOracle.from_substitution(images, horizon)
    for n, got, want, _ in _outcomes(language, range(horizon)):
        assert got == want, (images, n)
    prefix = FactorOracle.from_prefix(word[:horizon + slack], horizon)
    for n, got, want, last in _outcomes(prefix, range(horizon)):
        if got != want:
            assert got == "OutOfClass" and not _bi_extendable(prefix, n, last), (images, n)


@pytest.mark.parametrize("prefix, horizon, order, reason", [
    ("01101001001101001101101", 23, 6, "the walk from '001101' by '1' meets no special factor"),
    ("001001010000010010100000101000001001001", 14, 5, "'0010010' has 2 extensions"),
    ("001000010000001000010000100", 25, 10, "'00001000010000100' has 0 extensions"),
    ("0110000011011011011011000001100", 27, 5, "evolved vertices are not the special factors"),
    ("000010000100001000010010000010", 17, 6, "do not cover the 13 factors of length 8"),
    # the rebuild reads type 10 here, through two boundary vertices of order
    # 11 that break an evolved loop; the evolved graph alone would read 7
    ("010220012122212201010220212202202122212221220220212221220102200102200121", 23, 10,
     "do not cover"),
])
def test_evolution_refuses_prefix_languages_that_are_not_bi_extendable(prefix, horizon, order,
                                                                       reason):
    oracle = FactorOracle.from_prefix(prefix, horizon)
    _, last = _rebuilt(build_graph(oracle, order), oracle)
    assert not _bi_extendable(oracle, order, last)
    with pytest.raises(OutOfClass, match=reason):
        reduce_and_classify(oracle, order)


def test_bispecial_order_refuses_a_non_special_vertex():
    # '212', the prefix's last factor of length 3, has one edge in and none
    # out, so it is neither right nor left special; the order has a
    # bispecial, and the walk of the reduced graph stops on that vertex at
    # a bispecial order as at a gap order
    oracle = FactorOracle.from_prefix("0110121012101101212", 13)
    assert oracle.specials(3)[2]
    assert _not_special(reduce_graph(build_graph(oracle, 3)), oracle) == {"212"}
    assert not _bi_extendable(oracle, 3, 3)
    with pytest.raises(OutOfClass, match="order 3: the walk from '121' by '2' meets no special"):
        reduce_and_classify(oracle, 3)


# -- the reduced graph read off the language, and circuits over reduced
# -- edges, against the order-n graph and a letter-by-letter search


def _reduced_outcome(make):
    """Vertices and (src, dst, full label) of each edge in order, or the
    error's type name."""
    try:
        g = make()
    except RauzyadicError as exc:
        return type(exc).__name__
    return g.vertices, [(e.src, e.dst, e.full_label) for e in g.edges]


def _circuits_letter_by_letter(graph, v, oracle):
    """Reference for circuits_from: depth-first search over the order-n
    edges, one letter at a time, pruned where a prefix is not a factor.
    Returns (sorted right labels of the circuits, or the error's type
    name; the edges taken out of special vertices, each the first letter
    of a reduced edge)."""
    if not oracle.is_right_special(v):
        return (), 0
    out, first_letters = [], 0
    stack = [(v, v)]
    while stack:
        end, label = stack.pop()
        special = oracle.is_right_special(end) or oracle.is_left_special(end)
        for e in out_edges(graph, end):
            first_letters += special
            full = label + e.right
            if len(full) > oracle.horizon:
                return "HorizonExceeded", first_letters
            if not oracle.contains(full):
                continue
            if e.dst == v:
                out.append(full[len(v):])
            else:
                stack.append((e.dst, full))
    return tuple(sorted(out)), first_letters


def _edges_followed(graph, v, oracle):
    """The reduced edges that circuits_from follows, counted by their
    ``contains`` tests, one each."""
    calls = 0
    contains = oracle.contains

    def counted(w):
        nonlocal calls
        calls += 1
        return contains(w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "contains", counted)
        try:
            circuits_from(graph, v, oracle)
        except RauzyadicError:
            pass
    return calls


def _circuits_outcome(graph, v, oracle):
    try:
        circs = circuits_from(graph, v, oracle)
    except RauzyadicError as exc:
        return type(exc).__name__
    for c in circs:
        # the reduced edges chain, and pass exactly the special vertices
        # that the letter-level path does
        path = circuit_path(c)
        assert path.full_label == c.start + c.right_label and len(path) == len(c)
        assert tuple(u for u in path.vertices if u in graph.vertices) == c.stops
    return tuple(c.right_label for c in circs)


def _agree_with_the_order_n_graph(oracle, orders, budgets=False):
    """At each order, the reduced graph read off the language is the
    reduced order-n graph, or OutOfClass where that graph has a vertex that
    is not special; from each right special the reduced-edge circuits are
    the letter-by-letter ones.  With ``budgets``, CIRCUIT_BUDGET counts the
    reduced edges followed: a budget one below their number is exceeded
    and that number is not; where the circuits are found, the number is
    the letter-by-letter search's count of first letters of reduced
    edges.  Returns the outcomes seen."""
    seen = set()
    for n in orders:
        graph = build_graph(oracle, n)
        want = _reduced_outcome(lambda: reduce_graph(graph))
        got = _reduced_outcome(lambda: reduced_graph(oracle, n))
        if got != want:
            assert got == "OutOfClass" and _not_special(reduce_graph(graph), oracle), (oracle, n)
            continue
        if isinstance(got, str):
            continue
        g = reduced_graph(oracle, n)
        for v in sorted(oracle.specials(n)[0]):
            letters, first_letters = _circuits_letter_by_letter(graph, v, oracle)
            assert _circuits_outcome(g, v, oracle) == letters, (oracle, n, v)
            seen.add(letters if isinstance(letters, str) else "circuits")
            if budgets:
                followed = _edges_followed(g, v, oracle)
                assert isinstance(letters, str) or followed == first_letters, (oracle, n, v)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(rauzy, "CIRCUIT_BUDGET", followed - 1)
                    assert _circuits_outcome(g, v, oracle) == "EnumerationBudgetExceeded"
                    mp.setattr(rauzy, "CIRCUIT_BUDGET", followed)
                    assert _circuits_outcome(g, v, oracle) == letters
    return seen


@pytest.mark.parametrize("name", ["fibonacci", "thue-morse", "tribonacci"])
def test_reduced_graphs_and_circuits_of_the_named_sources(name):
    # at horizon 62 the circuits of the higher orders outgrow the horizon
    seen = _agree_with_the_order_n_graph(named_oracle(name, 62), range(61), budgets=True)
    assert seen == {"circuits", "HorizonExceeded"}


def test_reduced_graphs_and_circuits_of_directive_languages():
    texts = [f.read_text() for f in sorted(DIRECTIVES.glob("*.dw")) if f.stem != "not_valid"]
    seen = set()
    for text in texts + list(POOL_SAMPLE):
        seen |= _agree_with_the_order_n_graph(language_horizon(parse_directive(text), 48),
                                              range(47))
    assert seen == {"circuits", "HorizonExceeded"}


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions(), st.integers(8, 30), st.integers(0, 60))
def test_reduced_graphs_and_circuits_of_kernel_languages_and_prefixes(images, horizon, slack):
    # a prefix of the fixed point can stop being bi-extendable: there the
    # reduced graph read off the language is refused
    word = "0"
    while len(word) < horizon + slack:
        word = "".join(images[c] for c in word)
    _agree_with_the_order_n_graph(FactorOracle.from_substitution(images, horizon), range(horizon),
                                  budgets=True)
    _agree_with_the_order_n_graph(FactorOracle.from_prefix(word[:horizon + slack], horizon),
                                  range(horizon))


def test_reduced_graph_refuses_a_prefix_that_is_not_bi_extendable():
    # '212', the last factor of length 3, has no edge out; the order-n
    # graph keeps it as a vertex, the language walk stops on it
    oracle = FactorOracle.from_prefix("0110121012101101212", 13)
    assert "212" in reduce_graph(build_graph(oracle, 3)).vertices
    with pytest.raises(OutOfClass, match="meets no special factor"):
        reduced_graph(oracle, 3)
    # '00100', the first factor of length 5, has no edge in, so no walk
    # from a special factor reads its edge out
    oracle = FactorOracle.from_prefix("00100101001", 11)
    assert "00100" in reduce_graph(build_graph(oracle, 5)).vertices
    with pytest.raises(OutOfClass, match="cover 5 of the 6 factors of length 6"):
        reduced_graph(oracle, 5)
