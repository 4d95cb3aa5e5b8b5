import itertools

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st
from judges import lasso_routings, prefix_routing

from rauzyadic.cli_impl import route_prefix
from rauzyadic.errors import (EnumerationBudgetExceeded, NotInCatalog, RauzyadicError,
                              UnsupportedCase)
from rauzyadic.lengths import compute_length_state
from rauzyadic.morphism import D, Morphism, bracket, classify, compose, first_right_proper
from rauzyadic.sadic import DirectiveWord, language_horizon, weak_primitivity_check
from rauzyadic.schemas import (GPRIME_COMPONENT, GPRIME_EDGES, GPRIME_OUT_BY_LENGTHS, GPRIME_ROWS,
                              GPRIME_VERTICES, LEN_CAP, _ASSIGNMENTS, Step, lengths_key,
                              match_rows)
from rauzyadic.validator import (
    MAX_BLOCK, BlockTable, _enumerate_routings, _route, _routing_verdict,
    _weak_primitivity_clause, cross_validate,
    sequences_equal_mod_exchange, start_vertex, valid_routings, validate_directive,
)
from rauzyadic.words import complexity_profile

B = bracket

# the round-trip suite: judged valid, languages within the complexity bound,
# extraction matching the routed cycle modulo exchanges
VALID_SUITE = {
    "sturmian-alt": DirectiveWord((), (B("0", "10"), B("01", "1"))),
    "ar-cycle": DirectiveWord((), (B("0", "10", "20"), B("01", "1", "21"), B("02", "12", "2"))),
    "ar-cycle-rev": DirectiveWord((), (B("02", "12", "2"), B("01", "1", "21"), B("0", "10", "20"))),
    "c2-triangle": DirectiveWord((B("0", "120", "20"),),
                                 (B("0", "10", "20"), B("01", "1", "2"),
                                  B("0", "1", "20"), B("0", "12", "2"))),
    "c2-singles": DirectiveWord((B("0", "120", "20"),),
                                (B("01", "1", "2"), B("0", "1", "20"), B("0", "12", "2"))),
    "c3-mix": DirectiveWord((B("0", "10", "120"),),
                            (B("0", "10", "20"), B("12", "0112", "012"))),
    "c4-osc": DirectiveWord((), (B("1", "02", "2"), B("0", "120", "10"))),
    "c4-osc-var": DirectiveWord((), (B("1", "02", "2"), B("0", "1220", "120"))),
    "c4-one-78": DirectiveWord((), (B("0", "110", "10"), B("01", "1"))),
    "c4-10b-loop": DirectiveWord((), (B("0", "20", "1"), B("12", "012", "02"))),
    "c4-10b-pre": DirectiveWord((B("01", "201", "21"), B("0", "21", "1")),
                                (B("1", "02", "2"), B("0", "120", "10"))),
}

INVALID_SUITE = {
    "non-primitive sturmian": (DirectiveWord((), (B("0", "10"),)), "weak primitivity"),
    "self-absorbed": (DirectiveWord((B("0", "110", "10"),), (B("0", "10", "20"),)),
                      "weak primitivity"),
    "ar-missing-one": (DirectiveWord((), (B("0", "10", "20"), B("01", "1", "21"))),
                       "weak primitivity fails at level 0 (occurrence products never "
                       "become positive)"),
    "c3-only-first-family": (DirectiveWord((B("0", "10", "120"),),
                                           (B("0", "10", "20"), B("0", "20", "10"))),
                             "weak primitivity fails at level 0 (occurrence products never "
                             "become positive)"),
    "10b-cycle-conforming": (DirectiveWord((), (B("1", "01", "2"), B("0", "21", "1"),
                                                B("1", "02", "2"))),
                             "configuration b"),
    "c4-route-pool-cfg-c": (DirectiveWord((), (B("21", "0221", "221"), B("20", "120", "10"))),
                            "configuration c"),
}


@pytest.mark.parametrize("name", sorted(VALID_SUITE))
def test_valid_suite(name):
    verdict = validate_directive(VALID_SUITE[name])
    assert verdict.status == "valid", (name, verdict.clause)


@pytest.mark.parametrize("name", sorted(INVALID_SUITE))
def test_invalid_suite(name):
    dw, fragment = INVALID_SUITE[name]
    verdict = validate_directive(dw)
    assert verdict.status == "invalid", name
    assert fragment.lower() in verdict.clause.lower(), (name, verdict.clause)


@pytest.mark.parametrize("name", ["sturmian-alt", "ar-cycle", "c2-triangle",
                                  "c3-mix", "c4-osc", "c4-10b-loop"])
def test_cross_validation(name):
    cross_validate(VALID_SUITE[name], horizon=14)


def test_cross_validation_c2_example():
    # a valid component-C2 directive: generated language has constant first
    # difference 2 and the extraction recovers the V-cycle
    cross_validate(VALID_SUITE["c2-singles"], horizon=12)


def test_prefix_validity_is_monotone():
    # every prefix of a valid eventually periodic directive routes
    dw = VALID_SUITE["c4-10b-pre"]
    for cut in range(2, 6):
        ms = [dw.morphism(i) for i in range(cut)]
        pre = DirectiveWord(tuple(ms))
        steps = route_prefix(pre)
        assert steps[-1].dst in ("7/8", "5/6")


def test_strict2_mode():
    assert validate_directive(VALID_SUITE["ar-cycle"], strict2=True).status == "valid"
    v = validate_directive(VALID_SUITE["sturmian-alt"], strict2=True)
    assert v.status == "invalid" and "exact-slope" in v.clause


def test_suffix_entry_fallback():
    # no routing starts at vertex 2, so the word is judged as the suffix of
    # a path entering the refined graph elsewhere, and the verdict says so
    dw = DirectiveWord((), (B("02", "1", "01"), B("1002", "02", "102"),
                            B("220", "12220", "1220")))
    v = validate_directive(dw)
    assert v.status == "valid", v.clause
    assert v.routing.start == "7/8"
    assert v.notes == ("validated as a suffix entered at vertex 7/8",)


def test_long_c4_cycle_verdict():
    # the exit gates compose the cycle's labels over six traversals, so this
    # one runs long when composition slows down (see --durations)
    dw = DirectiveWord((), (B("1", "001", "01"), B("1", "01"), B("1", "000001", "00001"),
                            B("01", "2", "02")))
    v = validate_directive(dw)
    assert v.status == "valid", v.clause
    assert v.routing.start == "1"


def test_undecidable_finite_prefix():
    v = validate_directive(DirectiveWord((B("0", "10"), B("01", "1"))))
    assert v.status == "undetermined"


def test_weak_primitivity_ignores_dead_optional_letter():
    dw = VALID_SUITE["c4-one-78"]
    assert weak_primitivity_check(dw).holds


def test_rejects_undecomposable_morphism():
    with pytest.raises(NotInCatalog):
        validate_directive(DirectiveWord((), (B("00", "11", "22"),)))


def test_sequences_equal_mod_exchange():
    a = [B("0", "10", "20"), B("01", "1", "21")]
    # conjugating every step by the exchange of 0 and 1 swaps the two labels
    b = [B("01", "1", "21"), B("0", "10", "20")]
    w = sequences_equal_mod_exchange(a, b)
    assert w is not None and w[0] == {"0": "1", "1": "0", "2": "2"}
    # all three Arnoux-Rauzy labels are exchange-conjugate, so use a
    # structurally different second sequence for the negative case
    assert sequences_equal_mod_exchange(a, [B("0", "10", "20"), B("0", "110", "10")]) is None


def test_exit_codes():
    assert validate_directive(VALID_SUITE["ar-cycle"]).exit_code == 0
    assert validate_directive(INVALID_SUITE["ar-missing-one"][0]).exit_code == 1
    assert validate_directive(DirectiveWord((B("0", "10"),))).exit_code == 2


def test_verdict_serialization():
    text = validate_directive(VALID_SUITE["c4-osc"]).serialize()
    assert "status: valid" in text and "cycle" in text
    text = validate_directive(INVALID_SUITE["non-primitive sturmian"][0]).serialize()
    assert "status: invalid" in text and "clause:" in text


def test_round_trip_slope_two_languages():
    # directives whose languages pass through the simultaneous double
    # explosion (split through the virtual vertex 1)
    for dw in (DirectiveWord((), (B("0", "110", "10"), B("1", "0"))),
               DirectiveWord((), (B("0", "110", "10"), B("0", "1"),
                                  B("0", "110", "10"), B("01", "1")))):
        assert validate_directive(dw).status == "valid"
        cross_validate(dw, horizon=12)


# accepting and rejecting eventually periodic witnesses per cyclic
# configuration of the last component
WITNESS_PAIRS = {
    "vertex 1": (VALID_SUITE["sturmian-alt"],
                 DirectiveWord((), (B("0", "10"),))),
    "vertices 1 and 7/8": (VALID_SUITE["c4-one-78"],
                           DirectiveWord((), (B("0", "110", "10"), B("0", "1")))),
    "no-loop and two-loop": (VALID_SUITE["c4-osc"],
                             DirectiveWord((), (B("1", "02", "2"), B("1", "02", "2")))),
    "three-circuit loop": (VALID_SUITE["c4-10b-loop"],
                           DirectiveWord((), (B("0", "20", "1"),))),
    "through all three": (VALID_SUITE["c4-10b-pre"],
                          DirectiveWord((), (B("1", "01", "2"), B("0", "21", "1"),
                                             B("1", "02", "2")))),
    "reaching the no-loop vertex from 1": (
        DirectiveWord((), (B("0", "110", "10"), B("1", "02", "2"), B("0", "10"))),
        DirectiveWord((B("0", "110", "10"),), (B("0", "10", "20"),))),
}


@pytest.mark.parametrize("name", sorted(WITNESS_PAIRS))
def test_configuration_witness_pairs(name):
    accept, reject = WITNESS_PAIRS[name]
    assert validate_directive(accept).status == "valid", name
    v = validate_directive(reject)
    assert v.status == "invalid", name
    assert "primitiv" in v.clause.lower() or "configuration" in v.clause.lower(), (name, v.clause)


def test_condition_iii_witness_round_trips():
    dw = WITNESS_PAIRS["reaching the no-loop vertex from 1"][0]
    rep = cross_validate(dw, horizon=12)
    moves = {(s.src, s.dst) for s in rep.verdict.routing.cycle}
    assert ("1", "7/8") in moves and ("7/8", "5/6") in moves and ("5/6", "1") in moves


def test_c2_tables_match_successor_lemma():
    # the split-vertex tables: loops carry the three double-addition labels,
    # the single-addition edge V_x -> V_y carries D(x,z), where the top loop
    # moves, and the paired edge label D(x,y) D(z,x) is right proper
    for x in range(3):
        y, z = sorted(set(range(3)) - {x})
        loops = GPRIME_EDGES[(f"V{x}", f"V{x}")]
        assert {row.instantiate({}) for row in loops} == {
            compose(D(y, x), D(z, x)), compose(D(x, y), D(z, y)), compose(D(x, z), D(y, z))}
        assert all(classify(row.instantiate({})).right_proper for row in loops)
        for to, third in ((y, z), (z, y)):
            paired = compose(D(x, to), D(third, x))
            labels = {row.instantiate({}) for row in GPRIME_EDGES[(f"V{x}", f"V{to}")]}
            assert labels == {D(x, third), paired}
            assert classify(paired).right_proper


def test_c3_requires_weak_primitivity():
    # the loop rows are not the two excluded families, but the occurrence
    # products from level 1 on never become positive
    dw = DirectiveWord((B("0", "10", "120"),), (B("0", "10", "20"), B("02", "12", "2")))
    v = validate_directive(dw)
    assert v.status == "invalid"
    assert v.clause.startswith("weak primitivity fails at level 1"), v.clause
    assert weak_primitivity_check(dw).fails_at == 1


def test_weak_primitivity_clause_names_a_fixed_live_letter():
    # the only live letter 1 is fixed by the period: its products are
    # positive, and the word is periodic (validation stops earlier, at "no path")
    fixed = DirectiveWord((), (B("01", "1"), B("111", "1")))
    assert _weak_primitivity_clause(fixed) == ("weak primitivity fails at level 0 (the period "
                                               "fixes its only live letter, so the word is periodic)")
    dw = DirectiveWord((B("0", "10", "120"),), (B("0", "10", "20"), B("02", "12", "2")))
    assert _weak_primitivity_clause(dw).endswith("(occurrence products never become positive)")
    assert _weak_primitivity_clause(VALID_SUITE["c4-osc"]) is None


# exit gate A after a plain 7/8 -> 5/6 arrival: the lengths come from the
# region entry one step before the arrival
GATE_A = DirectiveWord((), (B("1", "002", "02"), B("01", "2", "02"), B("0", "110", "10"),
                            B("01", "2", "02")))


def _rids(steps):
    return [s.match.row.rid for s in steps]


def test_gate_a_after_plain_arrival_reads_the_entry_case():
    assert validate_directive(GATE_A).exit_code == 2
    routing = next(r for r in _route(GATE_A)[0] if "C4.56.78a" in _rids(r.cycle))
    steps = list(routing.prefix) + list(routing.cycle) * 2
    assert _rids(steps[4:7]) == ["C4.56.78a", "C4.78.56a", "C4.56.78b"]
    assert compute_length_state(steps[:6]).case == "c56_direct"
    # the rotation routed from vertex 2 meets that gate first; c56_direct
    # is an unverified length case, so no routing of it is valid
    rotated = DirectiveWord((), GATE_A.period[1:] + GATE_A.period[:1])
    routing = next(r for r in _route(rotated)[0] if "C4.56.78a" in _rids(r.cycle))
    assert _routing_verdict(rotated, routing, False) == (
        "undetermined", "exit gate depends on unverified length case c56_direct at step 3")
    assert valid_routings(rotated) == []


def test_negative_length_is_a_refusal():
    # entered at V0 as a suffix, the v_bottom entry reads an empty
    # accumulated product, and its formulas give u1 = -1
    routing = _route(GATE_A)[0][0]
    steps = list(routing.prefix) + list(routing.cycle)
    assert _rids(steps[:2]) == ["T3.0.78b", "C4.78.56a"]
    with pytest.raises(UnsupportedCase, match="negative length u1=-1 in case v_bottom"):
        compute_length_state(steps[:2])
    v = validate_directive(GATE_A)
    assert v.status == "undetermined"
    assert v.clause == "length state unsupported at step 1: negative length u1=-1 in case v_bottom"


# gate A passes: a 7/8 -> 5/6 arrival left by the strong self-exit
# C4.56.78b.  The word's verdict comes from a suffix entry at vertex 1, so
# the routing from that vertex is judged, not the verdict
GATE_A_PASS = DirectiveWord((), (B("1", "001", "01"), B("0", "10", "20"), B("1", "02", "2")))


def test_gate_a_passes_on_equal_no_loop_lengths():
    routing = _enumerate_routings(BlockTable(GATE_A_PASS), "1")[0]
    steps = list(routing.prefix) + list(routing.cycle)
    assert _rids(steps) == ["C4.1.78", "C4.78.loop", "C4.78.56b", "C4.56.78b"]
    st = compute_length_state(steps[:3])
    assert (st.case, st.p1, st.p2) == ("type1_entry", 0, 0)
    assert _routing_verdict(GATE_A_PASS, routing, False) == ("valid", None)
    assert _routing_verdict(GATE_A_PASS, routing, True) == ("valid", None)


def test_gate_a_refuses_a_longer_far_side():
    # found by a random search over C4 cycles: routed from vertex 2 through
    # 4B, the first arrival at 5/6 is left by C4.56.78b with |p1| < |p2|
    dw = DirectiveWord((), (B("2", "01", "1"), B("20", "120", "10"), B("02", "112", "12"),
                            B("02", "1", "01"), B("0", "110", "10")))
    v = validate_directive(dw)
    assert v.status == "invalid" and not v.notes
    assert v.clause == "no-loop exit gate |p1| >= |p2| fails at step 2: p1=0 p2=2 (condition A)"
    assert _rids(v.routing.prefix) == ["T2.4Bc", "T4.78c"]
    assert _rids(v.routing.cycle)[:2] == ["C4.78.56a", "C4.56.78b"]
    assert _routing_verdict(dw, v.routing, True) == (
        "invalid", "no-loop exit gate |p1| = |p2| (exact-slope mode) fails at step 2: "
                   "p1=0 p2=2 (condition A)")


def test_gate_b_refuses_a_negative_margin():
    # the word is valid through its other routing, whose cycle leaves 7/8
    # by C4.78.1b, which no gate reads
    dw = DirectiveWord((), (B("0", "10"), B("0", "1110", "110"), B("1", "0")))
    routing = next(r for r in _enumerate_routings(BlockTable(dw), "1") if not r.prefix)
    assert _rids(routing.cycle) == ["C4.1.loopa", "C4.1.78", "C4.78.1c"]
    assert compute_length_state(routing.cycle[:2]).margin == -3
    assert _routing_verdict(dw, routing, False) == (
        "invalid", "two-loop exit gate inequality fails at step 1: margin -3 (condition B)")
    assert _routing_verdict(dw, routing, True) == (
        "invalid", "two-loop exit gate equality (exact-slope mode) fails at step 1: "
                   "margin -3 (condition B)")
    assert validate_directive(dw).status == "valid"


# instantiated labels of every refined-graph edge, parameters up to 3, with
# the optional third image, as scripts/explore_directives.py draws them
EDGE_LABELS = {
    (src, dst): [m for row in rows for assign in _ASSIGNMENTS[row.vars]
                 for k in range(4) for l in range(4)
                 if row.cond is None or row.cond(k, l)
                 if (m := row.instantiate(dict(assign), k, l, with_third=True)) is not None]
    for (src, dst), rows in GPRIME_EDGES.items()
}
COMPONENT_VERTICES = (("2",), ("V0", "V1", "V2"), ("4B",), ("1", "5/6", "7/8", "10B"))
# the preperiods scripts/explore_directives.py puts before cycles of C2 and C3
ENTRIES = {("V0", "V1", "V2"): (B("0", "120", "20"),), ("4B",): (B("0", "10", "120"),)}


@st.composite
def label_cycles(draw, max_length=6, vertices=None):
    """The labels of a random cycle within one component, as a period; half
    the cycles use only labels that are not right proper themselves."""
    if vertices is None:
        vertices = draw(st.sampled_from(COMPONENT_VERTICES))
    improper = draw(st.booleans())
    v0 = v = draw(st.sampled_from(vertices))
    length = draw(st.integers(1, max_length))
    labels = []
    for i in range(length):
        pools = {dst: [m for m in EDGE_LABELS[(v, dst)]
                       if not (improper and classify(m).right_proper)]
                 for src, dst in GPRIME_EDGES if src == v and dst in vertices}
        targets = [dst for dst, pool in pools.items() if pool and (i < length - 1 or dst == v0)]
        assume(targets)
        dst = draw(st.sampled_from(targets))
        labels.append(draw(st.sampled_from(pools[dst])))
        v = dst
    try:
        return list(DirectiveWord((), tuple(labels)).period)
    except (ValueError, RauzyadicError):
        assume(False)


def _window_right_proper_all_offsets(labels):
    """Every window of at most two traversals, from every start offset."""
    n = len(labels)
    doubled = labels * 2
    for i in range(n):
        acc = None
        for j in range(i, min(i + 2 * n, len(doubled))):
            acc = doubled[j] if acc is None else compose(acc, doubled[j])
            if classify(acc).right_proper:
                return True
    return False


@st.composite
def morphism_cycles(draw):
    """Random non-erasing morphisms over one alphabet: unlike the refined
    graph's cycles, these often have no right proper window at all."""
    d = draw(st.integers(2, 3))
    word = st.text(alphabet="012"[:d], min_size=1, max_size=3)
    level = st.builds(lambda ims: Morphism(tuple(ims), d), st.lists(word, min_size=d, max_size=d))
    return draw(st.lists(level, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.one_of(label_cycles(), morphism_cycles()))
def test_window_right_proper_matches_all_offsets(labels):
    # the running products from the first label of two traversals
    assert (first_right_proper(labels * 2) is not None) == _window_right_proper_all_offsets(labels)


@st.composite
def eventually_periodic_directives(draw):
    """A random cycle of one component as the period, after that component's
    entry label as the preperiod."""
    vertices = draw(st.sampled_from(COMPONENT_VERTICES))
    period = draw(label_cycles(max_length=4, vertices=vertices))
    try:
        return DirectiveWord(ENTRIES.get(vertices, ()), tuple(period))
    except (ValueError, RauzyadicError):
        assume(False)


@settings(max_examples=300, deadline=None)
@given(eventually_periodic_directives())
@example(VALID_SUITE["c4-10b-pre"])
def test_valid_directive_has_first_difference_one_or_two(dw):
    status = validate_directive(dw).status
    event(status)
    if status == "valid":
        assert set(complexity_profile(language_horizon(dw, 26), 24).s) <= {1, 2}


# the per-component stand-ins for weak primitivity that routing once
# checked, kept as a reference: each names a letter that some image never
# receives, so each must imply that the exact test fails


def _c2_received(rid):
    """The letters appended by the D factors of a C2 row's label: loop j of
    V_x receives the j-th of x and its two other letters in order, the
    single edge V_x -> V_y receives the third letter, the paired one y and x."""
    _, vertex, kind = rid.split(".")
    x = int(vertex[1])
    if kind.startswith("loop"):
        return {(x, *sorted({0, 1, 2} - {x}))[int(kind[4:])]}
    to = int(vertex[2])
    return {3 - x - to} if kind == "a" else {to, x}


def _products_fix_zero(labels):
    """Some rotation has every prefix product mapping letter 0 to "0"."""
    return any(all(acc.images[0] == "0" for acc in
                   itertools.accumulate(labels[r:] + labels[:r], compose))
               for r in range(len(labels)))


def _stand_ins(routing):
    """The names of the stand-ins that fire on the routing's cycle."""
    rids = {s.match.row.rid for s in routing.cycle}
    verts = {s.dst for s in routing.cycle}
    fired = []
    if verts == {"2"} and rids != {"C1.a", "C1.b", "C1.c"}:
        fired.append("C1: an Arnoux-Rauzy morphism missing")
    if verts <= {"V0", "V1", "V2"} and set().union(*map(_c2_received, rids)) != {0, 1, 2}:
        fired.append("C2 condition 3: a letter never receives")
    if rids <= {"C3.a", "C3.b"} or rids <= {"C3.e", "C3.f"}:
        fired.append("C3 condition 2: one excluded loop family")
    if verts == {"1"} and rids != {"C4.1.loopa", "C4.1.loopb"}:
        fired.append("C4 condition i: a Sturmian morphism missing")
    if verts <= {"1", "7/8"} and _products_fix_zero(
            [Morphism(s.label.images[:2], 2) for s in routing.cycle]):
        fired.append("C4 condition ii: products fix 0")
    if verts == {"7/8"}:
        fired.append("C4 configuration a: the cycle stays on 7/8")
    return fired


@settings(max_examples=300, deadline=None)
@given(eventually_periodic_directives())
@example(INVALID_SUITE["ar-missing-one"][0])
@example(DirectiveWord((B("0", "120", "20"),), (B("0", "10", "20"),)))
@example(INVALID_SUITE["c3-only-first-family"][0])
@example(INVALID_SUITE["non-primitive sturmian"][0])
@example(WITNESS_PAIRS["vertices 1 and 7/8"][1])
@example(WITNESS_PAIRS["reaching the no-loop vertex from 1"][1])
def test_stand_ins_imply_weak_primitivity_fails(dw):
    try:
        routings = _route(dw)[0]
    except EnumerationBudgetExceeded:
        assume(False)
    fired = {name for routing in routings for name in _stand_ins(routing)}
    for name in fired:
        event(name)
    if fired:
        assert weak_primitivity_check(dw).status == "fails", fired
        assert validate_directive(dw).clause == _weak_primitivity_clause(dw)


def test_components_are_the_strongly_connected_components():
    reach = {v: {v} for v in GPRIME_VERTICES}
    for _ in GPRIME_VERTICES:
        for src, dst in GPRIME_EDGES:
            reach[src] |= reach[dst]
    sccs = {frozenset(w for w in GPRIME_VERTICES if v in reach[w] and w in reach[v])
            for v in GPRIME_VERTICES}
    assert sccs == {frozenset(v for v in GPRIME_VERTICES if GPRIME_COMPONENT[v] == c)
                    for c in ("C1", "C2", "C3", "C4")}
    assert sccs == {frozenset(vs) for vs in COMPONENT_VERTICES}


def test_routing_cap_is_a_typed_refusal():
    # two lassos from vertex 2 read this period (a route-pool directive)
    dw = DirectiveWord((), (B("1", "02", "2"), B("1", "002", "02")))
    start, table = start_vertex(dw), BlockTable(dw)
    assert len(_enumerate_routings(table, start)) == 2
    assert len(_enumerate_routings(table, start, limit=2)) == 2
    with pytest.raises(EnumerationBudgetExceeded, match=f"more than 1 routings from vertex {start}"):
        _enumerate_routings(table, start, limit=1)


def _routings_outcome(search, dw, start, limit):
    try:
        return search(BlockTable(dw), start, limit)
    except EnumerationBudgetExceeded as exc:
        return str(exc)


def _lassos_agree_with_the_judge(dw):
    """From every vertex, at the default limit and at limits just below
    and at the number found, the routings or the refusal of the judge."""
    for v in GPRIME_VERTICES:
        want = _routings_outcome(lasso_routings, dw, v, 64)
        assert _routings_outcome(_enumerate_routings, dw, v, 64) == want, (dw, v)
        n = len(want) if isinstance(want, list) else 64
        for limit in {max(n - 1, 0), n}:
            assert (_routings_outcome(_enumerate_routings, dw, v, limit)
                    == _routings_outcome(lasso_routings, dw, v, limit)), (dw, v, limit)


def test_lasso_search_equals_the_judge_on_the_suites():
    for dw in [*VALID_SUITE.values(), *(dw for dw, _ in INVALID_SUITE.values())]:
        _lassos_agree_with_the_judge(dw)


@settings(max_examples=200, deadline=None)
@given(eventually_periodic_directives())
def test_lasso_search_equals_the_judge(dw):
    _lassos_agree_with_the_judge(dw)


def _prefix_outcome(search, dw):
    try:
        return search(dw)
    except UnsupportedCase as exc:
        return str(exc)


def _prefixes_agree_with_the_judge(dw):
    """On every cut of 1 to p + 2T levels, the routed prefix or the refusal
    of the judge; returns how many cuts route."""
    routed = 0
    for cut in range(1, len(dw.preperiod) + 2 * len(dw.period) + 1):
        prefix = DirectiveWord(tuple(map(dw.morphism, range(cut))))
        want = _prefix_outcome(prefix_routing, prefix)
        assert _prefix_outcome(route_prefix, prefix) == want, (dw, cut)
        routed += isinstance(want, list)
    return routed


def test_prefix_search_equals_the_judge_on_the_suites():
    routed = sum(_prefixes_agree_with_the_judge(dw) for dw in
                 [*VALID_SUITE.values(), *(dw for dw, _ in INVALID_SUITE.values())])
    assert routed > 0


@st.composite
def label_walks(draw):
    """The labels of a random walk of up to 6 edges from a start vertex, as
    a finite directive."""
    v = draw(st.sampled_from(("1", "2")))
    labels = []
    for _ in range(draw(st.integers(1, 6))):
        dst = draw(st.sampled_from([dst for src, dst in GPRIME_EDGES
                                    if src == v and EDGE_LABELS[(src, dst)]]))
        labels.append(draw(st.sampled_from(EDGE_LABELS[(v, dst)])))
        v = dst
    try:
        return DirectiveWord(tuple(labels))
    except (ValueError, RauzyadicError):
        assume(False)


@settings(max_examples=200, deadline=None)
@given(st.one_of(eventually_periodic_directives(), label_walks()))
def test_prefix_search_equals_the_judge(dw):
    event(f"cuts routed: {_prefixes_agree_with_the_judge(dw) > 0}")


# a search that takes one Python frame per routed step passes the
# recursion limit on 1,200 levels


def test_a_long_preperiod_gets_a_verdict():
    period = VALID_SUITE["ar-cycle"].period
    dw = DirectiveWord(tuple(period[i % 3] for i in range(1200)), period)
    assert validate_directive(dw).status == "valid"


def test_a_long_prefix_routes():
    period = VALID_SUITE["c4-osc"].period
    steps = route_prefix(DirectiveWord(tuple(period[i % 2] for i in range(1200))))
    assert len(steps) == 1199 and steps[-1].dst == "7/8"


def _scan_steps(dw, vertex, pos, end=None):
    """routed_steps by trying each composed label on every row out of the vertex."""
    steps, label = [], None
    for j in range(1, MAX_BLOCK + 1):
        if end is not None and pos + j > end:
            break
        m = dw.morphism(pos + j - 1)
        label = m if label is None else compose(label, m)
        steps += [Step(vertex, dst, label, match, j)
                  for (src, dst), rows in GPRIME_EDGES.items() if src == vertex
                  for match in match_rows(rows, label)]
    return steps


def _one_letter_off(m):
    """m with the first letter of one image moved to the next letter, for each image."""
    for i, w in enumerate(m.images):
        moved = str((int(w[0]) + 1) % m.codomain) + w[1:]
        yield Morphism(m.images[:i] + (moved,) + m.images[i + 1:], m.codomain)


# (row, instance) for every row with k, l <= LEN_CAP + 2, with and without the
# optional third image: routing looks labels up by image lengths clipped at
# LEN_CAP, so exponents run past the cap
ROW_INSTANCES = {(row, m) for row in GPRIME_ROWS for assign in _ASSIGNMENTS[row.vars]
                 for k in range(LEN_CAP + 3) for l in range(LEN_CAP + 3)
                 for third in {True, not row.opt3}
                 if row.cond is None or row.cond(k, l)
                 if (m := row.instantiate(dict(assign), k, l, with_third=third)) is not None}


def test_every_row_instance_lands_in_the_bucket_of_its_lengths():
    for row, m in ROW_INSTANCES:
        assert row in GPRIME_OUT_BY_LENGTHS[row.src].get(lengths_key(map(len, m.images)), ()), \
            (row.rid, m)


def test_routed_steps_equal_a_scan_of_every_out_edge():
    instances = {m for _, m in ROW_INSTANCES if not m.erasing}
    off = {o for m in instances for o in _one_letter_off(m)}
    four = {Morphism(m.images + (m.images[0] + "3",), 4) for m in instances if m.domain == 3}
    # every image repeated past the cap
    stretched = {Morphism(tuple(w * (LEN_CAP // len(w) + 1) for w in m.images), m.codomain)
                 for m in instances}
    counts, long_steps = {}, 0
    for m in sorted(instances | off | four | stretched, key=repr):
        dw = DirectiveWord((m,))
        for v in GPRIME_VERTICES:
            steps = list(BlockTable(dw).routed_steps(v, 0, 1))
            assert steps == _scan_steps(dw, v, 0, 1), (v, m)
            counts[m.domain] = counts.get(m.domain, 0) + len(steps)
            if min(map(len, m.images)) > LEN_CAP:
                long_steps += len(steps)
    assert counts[2] > 0 and counts[3] > 0 and counts[4] == 0
    # labels whose images are all longer than the cap route too
    assert long_steps > 0
    # composed blocks of up to MAX_BLOCK levels, from every level of the
    # suites up to p + 2T, through one table per directive, so that past
    # p + T the labels come from the table's phase keys
    for dw in [*VALID_SUITE.values(), *(dw for dw, _ in INVALID_SUITE.values())]:
        table = BlockTable(dw)
        for pos in range(len(dw.preperiod) + 2 * len(dw.period)):
            for v in GPRIME_VERTICES:
                assert list(table.routed_steps(v, pos)) == _scan_steps(dw, v, pos), (dw, v, pos)
    # a finite directive: no step at or past its end
    dw = VALID_SUITE["c4-10b-pre"]
    prefix = DirectiveWord(tuple(map(dw.morphism, range(5))))
    table = BlockTable(prefix)
    for pos in range(5):
        for v in GPRIME_VERTICES:
            assert list(table.routed_steps(v, pos, 5)) == _scan_steps(prefix, v, pos, 5)
            assert list(table.routed_steps(v, pos, 3)) == _scan_steps(prefix, v, pos, 3)
