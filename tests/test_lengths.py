"""Master test: the image-length bookkeeping equals direct measurement.

For directive languages covering every entry origin (vertex 2, the V
vertices, 4B, and arrivals within the last component), the computed
(u1, u2, v1, v2, K) at each two-loop arrival and (p1, p2) at each no-loop
arrival must equal what the brute-force reduced Rauzy graph measures.
"""

import pytest
from hypothesis import given, strategies as st
from judges import measure_no_loops, measure_two_loops
from test_rauzy import reduce_graph

from rauzyadic.errors import RauzyadicError
from rauzyadic.extraction import extract_directive
from rauzyadic.lengths import LengthState, common_suffix_len, compute_length_state
from rauzyadic.morphism import bracket
from rauzyadic.rauzy import build_graph, right_special_chain
from rauzyadic.sadic import DirectiveWord, language_horizon
from rauzyadic.validator import APPROX_CASES
from rauzyadic.words import common_prefix_len

OSC = (bracket("1", "02", "2"), bracket("0", "120", "10"))

LANGS = {
    "from-2 two-segment": DirectiveWord((), OSC),
    "from-2 grouped": DirectiveWord((bracket("0", "12120", "120"),), OSC),
    "from-V0 top": DirectiveWord((bracket("0", "120", "20"), bracket("0", "120", "10")), OSC),
    "from-V0 bottom": DirectiveWord((bracket("0", "120", "20"), bracket("1", "002", "02")), OSC),
    "from-4B direct": DirectiveWord((bracket("0", "10", "120"), bracket("0", "120", "20")), OSC),
    "from-4B through-10": DirectiveWord((bracket("0", "10", "120"), bracket("2", "0102", "02")), OSC),
    "within-C4 vertex 1": DirectiveWord((), (bracket("0", "110", "10"), bracket("01", "1"))),
    "within-C4 via 10B": DirectiveWord((bracket("01", "201", "21"), bracket("0", "21", "1")), OSC),
}


def _checked_arrivals(dw, horizon=72, upto=20):
    oracle = language_horizon(dw, horizon)
    rep = extract_directive(oracle, upto)
    chain = right_special_chain(oracle, min(upto + 2, oracle.horizon - 2))
    out = []
    for idx, step in enumerate(rep.path):
        if step.entry_order < 0 or step.entry_order >= len(chain):
            continue
        # the entry: this step, or the one before a plain arrival at 5/6,
        # then back over the 7/8 loop steps
        before = rep.path[: idx + 1]
        if step.dst == "5/6" and step.match.row.kcase is None:
            before = before[:-1]
        entry_case = None
        for s in reversed(before):
            if s.match.row.kcase is not None:
                entry_case = s.match.row.kcase
                break
            if not (s.src == "7/8" and s.dst == "7/8"):
                break
        if entry_case is None or entry_case in APPROX_CASES:
            continue
        if step.dst == "7/8" and step.src != "7/8":
            state = compute_length_state(rep.path[: idx + 1])
            meas = measure_two_loops(oracle, step.entry_order, chain[step.entry_order])
            out.append(("loops", entry_case, state, meas))
        elif step.dst == "5/6":
            state = compute_length_state(rep.path[: idx + 1])
            meas = measure_no_loops(oracle, step.entry_order, chain[step.entry_order])
            out.append(("ps", entry_case, state, meas))
    return out


@pytest.mark.parametrize("name", sorted(LANGS))
def test_length_state_equals_measurement(name):
    arrivals = _checked_arrivals(LANGS[name])
    assert arrivals, f"{name}: no measurable arrivals"
    for kind, case, state, meas in arrivals:
        assert state.case == case, (name, case)
        if kind == "loops":
            assert (state.u1, state.u2, state.v1, state.v2, state.K) == \
                (meas.u1, meas.u2, meas.v1, meas.v2, meas.K), (name, case)
        else:
            assert (state.p1, state.p2) == meas, (name, case)


@pytest.mark.parametrize("name", sorted(LANGS))
def test_measurements_match_the_condensed_order_n_graph(name, monkeypatch):
    # the measurements read the reduced graph off the language; condensing
    # the whole order-n graph measures the same, or refuses the same way,
    # at every order up to 22 from every right special
    oracle = language_horizon(LANGS[name], 72)

    def outcomes():
        out = []
        for n in range(23):
            for v in sorted(oracle.specials(n)[0]):
                for measure in (measure_two_loops, measure_no_loops):
                    try:
                        out.append(measure(oracle, n, v))
                    except RauzyadicError as exc:
                        out.append(type(exc).__name__)
        return out

    got = outcomes()
    assert any(not isinstance(x, str) for x in got), name
    monkeypatch.setattr("judges.reduced_graph", lambda o, n: reduce_graph(build_graph(o, n)))
    assert outcomes() == got


def test_entry_origin_coverage():
    # the prefixes above cover vertex 2, the V vertices, 4B and within-C4
    cases = set()
    prefixes = 0
    for dw in LANGS.values():
        arr = _checked_arrivals(dw)
        if arr:
            prefixes += 1
            cases |= {c for _, c, _, _ in arr}
    assert prefixes >= 5
    assert any(c.startswith("c2") for c in cases)        # from vertex 2
    assert any(c.startswith("v_") for c in cases)        # from a V vertex
    assert any(c.startswith("f4") for c in cases)        # from 4B
    assert any(c in ("type1_entry", "c10B_direct") or c.startswith("c56")
               for c in cases)                           # within the component


def test_identity_entry_values():
    # at the very first order the accumulated composition is the identity:
    # a strong explosion yields the degenerate region u1=u2=0, v1=v2=1
    dw = DirectiveWord((), (bracket("0", "110", "10"), bracket("01", "1")))
    oracle = language_horizon(dw, 40)
    rep = extract_directive(oracle, 10)
    first = next(s for s in rep.path if s.dst == "7/8")
    state = compute_length_state(rep.path[: rep.path.index(first) + 1])
    assert (state.u1, state.u2, state.v1, state.v2, state.K) == (0, 0, 1, 1, 1)
    assert state.case == "type1_entry" and state.h == 0


def test_exit_gate_margin_sign():
    # |u1| + h(|u1|+|v1|) against |u2| + (K-1)(|u2|+|v2|)
    assert LengthState(2, 0, 1, 1, 1, h=0, case="type1_entry").margin >= 0
    assert LengthState(0, 3, 1, 1, 2, h=0, case="type1_entry").margin < 0


def test_prefix_helpers():
    assert common_prefix_len("0120", "0102") == 2
    assert common_suffix_len("1020", "020") == 3


def _prefix_len_by_loop(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


@given(st.text("01", max_size=40), st.text("01", max_size=40), st.text("012", max_size=40),
       st.integers(0, 90))
def test_common_prefix_len_matches_loop(u, a, b, cap):
    # a shared prefix u makes long common prefixes likely
    for x, y in ((u + a, u + b), (u + a, u), (u, u + b), (a, b)):
        assert common_prefix_len(x, y) == _prefix_len_by_loop(x, y)
        assert common_prefix_len(x, y, cap) == min(_prefix_len_by_loop(x, y), cap)
