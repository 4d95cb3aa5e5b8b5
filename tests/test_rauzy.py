import pytest

from rauzyadic.errors import ChainBlocked, OutOfClass
from rauzyadic.rauzy import (
    Path, build_graph, circuits_from, measure_two_loops,
    psi_project, reduce_and_classify, reduce_graph,
    right_special_chain, special_vertices, to_dot, walk,
)
from rauzyadic.words import FactorOracle, return_words


def test_figure_fibonacci_graphs(fib):
    g0 = build_graph(fib, 0)
    assert g0.vertices == {""}
    assert g0.full_labels() == {"0", "1"}
    g1 = build_graph(fib, 1)
    assert g1.vertices == {"0", "1"}
    assert g1.full_labels() == {"00", "01", "10"}
    g2 = build_graph(fib, 2)
    assert g2.vertices == {"00", "01", "10"}
    assert g2.full_labels() == {"001", "010", "100", "101"}


def test_figure_thue_morse_order_3(tm):
    g3 = build_graph(tm, 3)
    assert g3.vertices == {"001", "011", "010", "101", "100", "110"}
    assert g3.full_labels() == {"0010", "0011", "0100", "0101", "0110",
                                "1001", "1010", "1011", "1100", "1101"}


def test_reduced_fibonacci_order_2(fib):
    g = reduce_graph(build_graph(fib, 2), fib)
    assert g.vertices == {"01", "10"}
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
                    for e in g.out_edges(p.end):
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
                    if len(g.out_edges(v)) != 1 or len(g.in_edges(v)) != 1}
            assert special_vertices(g, o) == want, (o, n)


def test_circuits_fibonacci_g1(fib):
    g1 = build_graph(fib, 1)
    circs = circuits_from(g1, "0", fib)
    assert {c.right_label for c in circs} == {"0", "10"}
    assert {c.right_label for c in circs} == return_words(fib, "0")


def test_circuit_return_word_correspondence(fib, trib):
    for o in (fib, trib):
        chain = right_special_chain(o, 8)
        for n in range(1, 9):
            g = build_graph(o, n)
            circs = circuits_from(g, chain[n], o)
            assert {c.right_label for c in circs} == return_words(o, chain[n])


def test_thue_morse_disallowed_circuit(tm):
    g3 = build_graph(tm, 3)
    loop = walk(g3, "010", "1" + "101" * 3 + "0")
    assert loop.start == loop.end == "010" and "010" not in loop.vertices[1:-1]
    assert "101101101" in loop.full_label and not tm.contains(loop.full_label)
    assert loop.right_label not in {c.right_label for c in circuits_from(g3, "010", tm)}


def test_circuits_from_periodic():
    o = FactorOracle.from_prefix("01" * 50, horizon=10, source="(01)^inf")
    g = build_graph(o, 2)
    for v in g.vertices:
        assert circuits_from(g, v, o) == ()


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


def test_psi_bijection_without_bispecial(fib, trib):
    for o in (fib, trib):
        chain = right_special_chain(o, 16)
        for n in range(15):
            if o.bispecials(n):
                continue
            up, down = build_graph(o, n + 1), build_graph(o, n)
            cu = circuits_from(up, chain[n + 1], o)
            cd = circuits_from(down, chain[n], o)
            proj = [psi_project(c.path, down) for c in cu]
            assert sorted(p.right_label for p in proj) == sorted(c.right_label for c in cd)
            for p in proj:
                assert p.start == chain[n] and p.end == chain[n]


def test_right_special_chain(fib, trib):
    assert right_special_chain(fib, 2) == ["", "0", "10"]
    chain = right_special_chain(trib, 10)
    for n in range(10):
        assert trib.is_right_special(chain[n])
        assert chain[n + 1][1:] == chain[n]
    # AR words have a unique right special factor of each length
    for n in range(1, 10):
        assert len(trib.right_specials(n)) == 1


def test_chain_blocked_on_periodic():
    o = FactorOracle.from_prefix("01" * 60, horizon=12, source="(01)^inf")
    with pytest.raises(ChainBlocked):
        right_special_chain(o, 8)


def test_classify_fibonacci(fib):
    g, shape = reduce_and_classify(build_graph(fib, 2), fib)
    assert shape.type_id == 1 and shape.gap == 1
    assert g.vertices == {"01", "10"}
    for n in (0, 1, 3):
        _, shape = reduce_and_classify(build_graph(fib, n), fib)
        assert shape.type_id == 1 and shape.gap == 0


def test_classify_tribonacci_type_2(trib):
    for n in range(0, 12):
        if trib.bispecials(n):
            _, shape = reduce_and_classify(build_graph(trib, n), trib)
            assert shape.type_id == 2


def test_classify_thue_morse_out_of_class(tm):
    with pytest.raises(OutOfClass):
        reduce_and_classify(build_graph(tm, 3), tm)


def test_circuit_count_bound(fib, trib):
    # prop: at most 3 allowed circuits from the chain vertex
    for o in (fib, trib):
        chain = right_special_chain(o, 14)
        for n in range(14):
            circs = circuits_from(build_graph(o, n), chain[n], o)
            assert 2 <= len(circs) <= 3


def test_min_circuit_length_grows(fib):
    chain = right_special_chain(fib, 16)
    mins = []
    for n in range(0, 16, 3):
        circs = circuits_from(build_graph(fib, n), chain[n], fib)
        mins.append(min(len(c) for c in circs))
    assert mins == sorted(mins) and mins[-1] > mins[0]


def test_language_telescoping(fib):
    # factors of circuit-label concatenations shrink with the order
    import itertools
    from rauzyadic.words import factors_of
    chain = right_special_chain(fib, 10)
    sets = []
    for n in (2, 5, 8):
        labels = sorted(c.right_label for c in circuits_from(build_graph(fib, n), chain[n], fib))
        star = ["".join(ws) for ws in itertools.product(labels, repeat=4)]
        sets.append(frozenset(w for text in star for k in range(1, 7)
                              for w in factors_of(text, k)))
    assert sets[2] <= sets[1] <= sets[0]


def test_to_dot_deterministic(fib):
    g = build_graph(fib, 2)
    d1, d2 = to_dot(g), to_dot(g)
    assert d1 == d2
    assert '"00" -> "01" [label="001"];' in d1
    r = to_dot(reduce_graph(g, fib))
    assert "penwidth=2" in r


def test_measure_two_loops_refuses_single_special(fib):
    # Sturmian orders have one right special: not a two-loop region
    chain = right_special_chain(fib, 4)
    with pytest.raises(OutOfClass):
        measure_two_loops(fib, 4, chain[4])
