import itertools

import pytest
from hypothesis import given, settings, strategies as st
from judges import compose_generators, matches_by_atoms, restrict

from rauzyadic.errors import NoSchemaMatch
from rauzyadic.lengths import _region_values
from rauzyadic.morphism import D, bracket, compose, decompose, identity
from rauzyadic.schemas import (
    _ASSIGNMENTS, _EVOLUTION_ROW_BY_ID, C4_CONFIG_B, C4_CONFIG_C, EVOLUTION_TABLE,
    GPRIME_COMPONENT, GPRIME_EDGES, GPRIME_OUT_BY_LENGTHS, GPRIME_ROWS, LEN_CAP, Match, Row,
    _image, edge_step, evolution_rows, match_rows, solve_lengths, unique_row_match,
)
from rauzyadic.validator import _EXCLUDED_CONFIGS

# every row the library matches against: the refined graph, the evolution
# tables and the excluded C4 configurations of the validator
TABLE_ROWS = list(dict.fromkeys(
    list(GPRIME_ROWS) + [er.row for er in EVOLUTION_TABLE]
    + [row for table, _ in _EXCLUDED_CONFIGS for rows in table.values() for row in rows]))

# Figure "graph of graphs", transcribed independently of the tables:
# (self-loops at 1, 2, 3, 4, 7, 8, 9, 10; none at 5, 6.)
FIG8 = {
    1: {1, 7, 8},
    2: {2, 1, 3, 4, 7, 8, 10},
    3: {3, 1, 7, 8, 10},
    4: {4, 1, 7, 8, 10},
    5: {1, 10},
    6: {1, 7, 8, 10},
    7: {7, 1, 8, 9},
    8: {8, 1, 5, 6, 7, 9},
    9: {9, 1, 5, 6},
    10: {10, 1, 7, 8},
}


def gog_from_tables() -> dict[int, frozenset[int]]:
    """The shape adjacency of the unrefined graph of graphs, read off the
    evolution tables."""
    adj: dict[int, set[int]] = {t: set() for t in range(1, 11)}
    for er in EVOLUTION_TABLE:
        adj[er.from_type] |= set(er.to_types)
    return {t: frozenset(s) for t, s in adj.items()}


def test_graph_of_graphs_fidelity():
    assert gog_from_tables() == {t: frozenset(s) for t, s in FIG8.items()}


def row_instances(row, pmax=3):
    """All concrete morphisms of a row with parameters <= pmax."""
    uses = row.uses
    ks = range(pmax + 1) if "k" in uses else (0,)
    ls = range(pmax + 1) if "l" in uses else (0,)
    thirds = (True, False) if row.opt3 else (True,)
    for assign in _ASSIGNMENTS[row.vars]:
        for k in ks:
            for l in ls:
                if row.cond is not None and not row.cond(k, l):
                    continue
                for w3 in thirds:
                    m = row.instantiate(dict(assign), k, l, with_third=w3)
                    if m is not None:
                        yield m, k, l


def test_schema_soundness_decompose_and_rematch():
    # every table-row instance decomposes into the generator set and
    # matches back to exactly its own row on its edge
    count = 0
    for row in GPRIME_ROWS:
        rows_on_edge = GPRIME_EDGES[(row.src, row.dst)]
        for m, k, l in row_instances(row, pmax=3):
            word = decompose(m)
            assert restrict(compose_generators(word), m.domain).images == m.images, (row.rid, m)
            got = unique_row_match(rows_on_edge, m, f"{row.src}->{row.dst}")
            assert got.row.rid == row.rid, (row.rid, got.row.rid, m)
            count += 1
    assert count > 800


def brute_matches(row, m):
    """Reference matcher: build the images of every (assignment, k, l) in
    turn and compare them with the label."""
    n = len(m.images)
    if n != len(row.imgs) and not (row.opt3 and n == len(row.imgs) - 1):
        return []
    pats = row.atoms[:n]
    uses = row.uses
    pmax = max(len(w) for w in m.images) + 2
    ks = range(pmax + 1) if "k" in uses else (0,)
    ls = range(pmax + 1) if "l" in uses else (0,)
    out = []
    for assign in _ASSIGNMENTS[row.vars]:
        for k in ks:
            for l in ls:
                if row.cond is not None and not row.cond(k, l):
                    continue
                if all(_image(p, assign, k, l) == w for p, w in zip(pats, m.images)):
                    out.append(Match(row, tuple(sorted(assign.items())),
                                     k if "k" in uses else None,
                                     l if "l" in uses else None))
    return out


def one_letter_off(m):
    """Labels that differ from m in one letter of one image: the last
    letter replaced, or the first letter doubled (which can move a match
    to other parameters)."""
    for i, w in enumerate(m.images):
        for new in (w[:-1] + str((int(w[-1]) + 1) % 3), w[0] + w):
            yield bracket(*m.images[:i], new, *m.images[i + 1:])


def test_matcher_agrees_with_brute_force():
    counts = {True: 0, False: 0}
    for row in TABLE_ROWS:
        for m, _, _ in row_instances(row, pmax=3):
            assert match_rows((row,), m) == brute_matches(row, m) != [], (row.rid, m)
            for off in one_letter_off(m):
                want = brute_matches(row, off)
                assert match_rows((row,), off) == want, (row.rid, off)
                counts[bool(want)] += 1
    # both outcomes are exercised on the off labels
    assert counts[True] > 400 and counts[False] > 10000


# the row lists the library matches against, each in its own order: the
# refined graph's edges, the whole evolution table, and the edges of the two
# excluded C4 configurations; and rows with the constant exponents other
# than 1 and the positive offsets that no table row has
ROW_GROUPS = (list(GPRIME_EDGES.values()) + [tuple(er.row for er in EVOLUTION_TABLE)]
              + list(C4_CONFIG_B.values()) + list(C4_CONFIG_C.values())
              + [(Row("exp.a", "", "", ("x^2 y", "y^k+1 x", "z^0 (xy)^l"), vars="xyz", opt3=True),
                  Row("exp.b", "", "", ("0^2", "0^k 1", "2^l+1 1^2")))])


@st.composite
def group_labels(draw):
    """(rows, label): a row group and an instance of one of its rows at
    k, l <= 5, with or without the optional third image, as it is or with
    one letter changed, one letter dropped or one letter doubled."""
    rows = draw(st.sampled_from(ROW_GROUPS))
    row = draw(st.sampled_from(rows))
    assign = draw(st.sampled_from(_ASSIGNMENTS[row.vars]))
    k, l = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    with_third = not row.opt3 or draw(st.booleans())
    # a negative exponent has no instance; k = l = 5 has one on every row
    m = (row.instantiate(dict(assign), k, l, with_third)
         or row.instantiate(dict(assign), 5, 5, with_third))
    images = list(m.images)
    i = draw(st.integers(0, len(images) - 1))
    w = images[i]
    change = draw(st.sampled_from(["none", "letter", "drop", "double"]) if w else st.just("none"))
    j = draw(st.integers(0, max(len(w) - 1, 0)))
    if change == "letter":
        images[i] = w[:j] + draw(st.sampled_from("012".replace(w[j], ""))) + w[j + 1:]
    elif change == "drop":
        images[i] = w[:j] + w[j + 1:]
    elif change == "double":
        images[i] = w[:j] + w[j] + w[j:]
    return rows, bracket(*images)


@settings(max_examples=1500, deadline=None)
@given(group_labels())
def test_matcher_agrees_with_the_dict_and_atom_judge(drawn):
    # the same matches, in the same order, as the length solve through a
    # dict per row and the patterns built atom by atom
    rows, m = drawn
    assert match_rows(rows, m) == matches_by_atoms(rows, m), m


def test_table_rows_solve_their_exponents():
    # solve_lengths reads k and l off the image lengths, which needs both:
    # at most one exponent variable per image, and every variable the row
    # uses in an image before the optional third
    for row in TABLE_ROWS:
        per_image = [{a.var for a in p if a.var} for p in row.atoms]
        assert all(len(v) <= 1 for v in per_image), row.rid
        leading = per_image[:-1] if row.opt3 else per_image
        assert row.uses == set().union(*leading), row.rid


def test_length_solve_agrees_with_brute_force():
    # every (k, l) that cond admits, up to past the longest image, gives the
    # image lengths of each image count the row takes, with and without the
    # optional third image; solve_lengths must find exactly those, and only
    # a negative exponent (an image that no assignment matches) may add one
    top = 3 * LEN_CAP
    grid = range(top + 4)
    solved = 0
    for row in TABLE_ROWS:
        for n in sorted(row.arities):
            atoms = row.atoms[:n]
            brute: dict[tuple[int, ...], list[tuple[int, int]]] = {}
            for k in grid if "k" in row.uses else (0,):
                for l in grid if "l" in row.uses else (0,):
                    if row.cond is not None and not row.cond(k, l):
                        continue
                    images = [_image(p, {}, k, l) for p in atoms]
                    if None not in images:
                        brute.setdefault(tuple(map(len, images)), []).append((k, l))
            for ns in itertools.product(range(top + 1), repeat=n):
                got = [(k, l) for r, k, l in solve_lengths((row,), ns) if r is row]
                want = brute.get(ns, [])
                assert len(got) <= 1 and want in ([], got), (row.rid, ns, got, want)
                if got and not want:
                    assert None in [_image(p, {}, *got[0]) for p in atoms], (row.rid, ns, got)
                solved += len(want)
        # a label with another image count is never solved
        for n in set(range(1, 5)) - row.arities:
            assert not any(solve_lengths((row,), ns)
                           for ns in itertools.product(range(LEN_CAP + 1), repeat=n)), row.rid
    # several rows, in order, one entry per row that solves
    got = solve_lengths(GPRIME_EDGES[("5/6", "1")], (3, 3))
    assert [(r.rid, k, l) for r, k, l in got] == [("C4.56.1e", 1, 0), ("C4.56.1f", 1, 0)]
    assert solved > 4000


def test_matcher_order_on_ambiguous_rows():
    # no table row matches a label twice, so pin the order (the
    # assignments in _ASSIGNMENTS order) on a row that does
    swap = Row("amb.xy", "", "", ("x^k 2", "y^k 2"), vars="xy01")
    got = match_rows((swap,), bracket("2", "2"))
    assert got == brute_matches(swap, bracket("2", "2"))
    assert [(m.sub, m.k, m.l) for m in got] == [({"x": "0", "y": "1"}, 0, None),
                                                ({"x": "1", "y": "0"}, 0, None)]


def test_matcher_never_solves_a_negative_exponent():
    # the table rows with a "^k+1" image have no cond to bound k, so the
    # length solve itself must refuse the k = -1 that the length of "1" gives
    row = Row("neg", "", "", ("0^k+1 1", "1"))
    assert match_rows((row,), bracket("1", "1")) == brute_matches(row, bracket("1", "1")) == []
    assert [m.k for m in match_rows((row,), bracket("01", "1"))] == [0]


def test_out_edges_index_the_edge_table():
    # every row out of a vertex is in some bucket, and each bucket keeps
    # the order of the edge table
    assert set(GPRIME_OUT_BY_LENGTHS) == {src for src, _ in GPRIME_EDGES}
    for src, buckets in GPRIME_OUT_BY_LENGTHS.items():
        out = [row for (s, _), rows in GPRIME_EDGES.items() if s == src for row in rows]
        assert {row for rows in buckets.values() for row in rows} == set(out)
        for rows in buckets.values():
            assert list(rows) == [row for row in out if row in rows]


def test_evolution_table_instances_decompose():
    for er in EVOLUTION_TABLE:
        for m, k, l in row_instances(er.row, pmax=3):
            word = decompose(m)
            assert restrict(compose_generators(word), m.domain).images == m.images, (er.row.rid, m)


def test_match_schema_examples():
    step = edge_step("1", "7/8", bracket("0", "110", "10"), entry_order=5)
    got = step.match
    assert got.row.rid == "C4.1.78" and got.k == 2
    assert got.sub == {"x": "0", "y": "1"}
    assert (step.src, step.dst, step.blocks, step.entry_order) == ("1", "7/8", 1, 5)
    assert step.line() == "1 -> 7/8 via C4.1.78 [k=2] 0->0;1->110;2->10"
    got = edge_step("1", "1", bracket("0", "10")).match
    assert got.row.rid == "C4.1.loopa"
    with pytest.raises(NoSchemaMatch, match="matches no row on edge 1 -> 1"):
        edge_step("1", "1", identity(3))
    with pytest.raises(NoSchemaMatch):
        edge_step("1", "1", identity(2))


def test_match_c2_loop_and_edges():
    got = edge_step("V0", "V0", bracket("0", "10", "20")).match
    assert got.row.instantiate({}) == compose(D(1, 0), D(2, 0))
    got = edge_step("V0", "V1", bracket("02", "1", "2")).match
    assert got.row.instantiate({}) == D(0, 2)
    got = edge_step("V0", "V1", bracket("01", "1", "201")).match
    assert got.row.instantiate({}) == compose(D(0, 1), D(2, 0))


def test_evolution_rows_filter():
    rows = evolution_rows(1, to_type=7, u_from="B")
    assert [er.row.rid for er in rows] == ["A1.78"]
    rows = evolution_rows(8, to_type=5)
    assert {er.row.rid for er in rows} == {"A8.56a", "A8.56b"}


def test_entry_rows_have_length_cases():
    # every entry into the two-loop region carries a length case, and
    # lengths.py gives each case's formulas with a loop count K >= 1 on
    # every instance of every row that carries it
    cases = set()
    for (src, dst), rows in GPRIME_EDGES.items():
        for row in rows:
            if dst == "7/8" and src != "7/8":
                assert row.kcase is not None, row.rid
            if row.kcase is None:
                continue
            cases.add(row.kcase)
            for m, _, _ in row_instances(row):
                match = unique_row_match((row,), m, row.rid)
                K = _region_values(row.kcase, identity(3), match, m)[-1]
                assert K >= 1, (row.rid, m, K)
    assert len(cases) == 26


# the Rauzy-graph types each refined-graph vertex stands for; type 9 is a
# pass-through shape, on no vertex
VERTEX_TYPES = {"2": {2}, "V0": {3}, "V1": {3}, "V2": {3}, "4B": {4}, "1": {1},
                "5/6": {5, 6}, "7/8": {7, 8}, "10B": {10}}


def type_consistent(er, src, dst):
    return er.from_type in VERTEX_TYPES[src] and er.to_types <= VERTEX_TYPES[dst]


def admitted(row):
    """The (k, l) up to 8 that the row's cond admits."""
    return [(k, l) for k in range(9) for l in range(9) if row.cond is None or row.cond(k, l)]


def test_one_evolution_rows_are_read_off_the_evolution_table():
    # a refined-graph row with the images, assignments, optional third image
    # and cond of a one-evolution row of matching vertex types is built from
    # that row, so the two tables cannot drift apart.  The C2 rows are
    # computed from the generators (the paper's F_x and F_xy), not spelled
    read = 0
    for row in GPRIME_ROWS:
        same = [er.row.rid for er in EVOLUTION_TABLE if type_consistent(er, row.src, row.dst)
                and (er.row.imgs, er.row.vars, er.row.opt3) == (row.imgs, row.vars, row.opt3)
                and admitted(er.row) == admitted(row)]
        if row.evolution is None:
            assert not same or GPRIME_COMPONENT[row.src] == "C2", (row.rid, same)
        else:
            assert row.evolution in same, (row.rid, row.evolution)
            assert row.cond is _EVOLUTION_ROW_BY_ID[row.evolution].cond, row.rid
            read += 1
    assert read == 37


def test_refined_graph_conds_add_to_the_offsets():
    # a cond that only restates the lower bound the exponent offsets of the
    # always-present images force is dead, since matching, _length_keys and
    # instantiate already refuse a negative exponent.  A row read off an
    # evolution row keeps that row's cond
    for row in GPRIME_ROWS:
        if row.cond is None or row.evolution is not None:
            continue
        atoms = row.atoms[:-1] if row.opt3 else row.atoms
        low = {v: max([0] + [-a.off for p in atoms for a in p if a.var == v]) for v in "kl"}
        forced = [(k, l) for k in range(9) for l in range(9) if k >= low["k"] and l >= low["l"]]
        assert admitted(row) != forced, row.rid


# the one-evolution instances that no refined-graph edge of matching vertex
# types reads; ROADMAP item 7 holds them for a decision
UNREAD = {
    ("A1.1a", ("1", "01")), ("A1.1b", ("10", "0")),
    ("A8.1a", ("0", "10")), ("A8.1b", ("10", "0")),
    ("A8.78b", ("0", "110", "10")), ("A8.78b", ("0", "110")),
    ("A8.78b", ("0", "1110", "110")), ("A8.78b", ("0", "1110")),
    ("A8.78b", ("1", "001", "01")), ("A8.78b", ("1", "001")),
    ("A8.78b", ("1", "0001", "001")), ("A8.78b", ("1", "0001")),
    ("A10.78b", ("0", "21")), ("A10.78b", ("0", "221")), ("A10.78b", ("0", "2221")),
}


def test_one_evolution_instances_are_read_on_the_refined_graph():
    # each instance (k, l <= 3) of an evolution row whose chain vertex is
    # never R is read by some edge whose vertex types match, except UNREAD
    on_vertices = set().union(*VERTEX_TYPES.values())
    instances, unread = 0, set()
    for er in EVOLUTION_TABLE:
        if "R" in (er.u_from, er.u_to) or not {er.from_type, *er.to_types} <= on_vertices:
            continue
        edges = [rows for (src, dst), rows in GPRIME_EDGES.items() if type_consistent(er, src, dst)]
        for m in {m for m, _, _ in row_instances(er.row)}:
            instances += 1
            if not any(match_rows(rows, m) for rows in edges):
                unread.add((er.row.rid, m.images))
    assert unread == UNREAD and instances == 382
