"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact (these are structural results, not
numerical ones).
"""

import itertools

import pytest
from judges import (DERIVED_EXPANSION, bilateral_order, circuit_path, compose_generators,
                    measure_no_loops, measure_two_loops, permutation, psi_project, restrict,
                    return_words, walk)

from rauzyadic.extraction import extract_directive
from rauzyadic.lengths import compute_length_state
from rauzyadic.morphism import (bracket, decompose, compose_all, D, E, G, M, GEN_M, GEN_E01,
                                derived)
from rauzyadic.rauzy import build_graph, circuits_from, reduced_graph, right_special_chain
from rauzyadic.sadic import DirectiveWord, generate_one_sided, language_horizon
from rauzyadic.validator import APPROX_CASES, cross_validate, validate_directive
from rauzyadic.words import complexity_profile, factors_of, named_oracle

B = bracket

STURMIAN = DirectiveWord((), (B("0", "10"), B("01", "1")))
AR_CYCLE = DirectiveWord((), (B("0", "10", "20"), B("01", "1", "21"), B("02", "12", "2")))
C4_OSC = DirectiveWord((), (B("1", "02", "2"), B("0", "120", "10")))

ROUND_TRIP_SUITE = {
    "C4 vertex 1 (Sturmian)": STURMIAN,
    "C1 Arnoux-Rauzy cycle": AR_CYCLE,
    "C1 Arnoux-Rauzy reversed": DirectiveWord((), (B("02", "12", "2"), B("01", "1", "21"),
                                                   B("0", "10", "20"))),
    "C2 triangle": DirectiveWord((B("0", "120", "20"),),
                                 (B("0", "10", "20"), B("01", "1", "2"),
                                  B("0", "1", "20"), B("0", "12", "2"))),
    "C2 single additions": DirectiveWord((B("0", "120", "20"),),
                                         (B("01", "1", "2"), B("0", "1", "20"),
                                          B("0", "12", "2"))),
    "C3 mixed loop": DirectiveWord((B("0", "10", "120"),),
                                   (B("0", "10", "20"), B("12", "0112", "012"))),
    "C4 5/6 and 7/8": C4_OSC,
    "C4 5/6 and 7/8 variant": DirectiveWord((), (B("1", "02", "2"), B("0", "1220", "120"))),
    "C4 vertices 1 and 7/8": DirectiveWord((), (B("0", "110", "10"), B("01", "1"))),
    "C4 10B loop": DirectiveWord((), (B("0", "20", "1"), B("12", "012", "02"))),
    "C4 10B then 5/6-7/8": DirectiveWord((B("01", "201", "21"), B("0", "21", "1")),
                                         (B("1", "02", "2"), B("0", "120", "10"))),
}


@pytest.fixture(scope="module")
def fib():
    return named_oracle("fibonacci", 80)


@pytest.fixture(scope="module")
def trib():
    return named_oracle("tribonacci", 110)


def test_criterion_1_figure_fidelity(fib):
    g0 = build_graph(fib, 0)
    assert g0.vertices == {""} and {e.full_label for e in g0.edges} == {"0", "1"}
    g1 = build_graph(fib, 1)
    assert g1.vertices == {"0", "1"} and {e.full_label for e in g1.edges} == {"00", "01", "10"}
    g2 = build_graph(fib, 2)
    assert g2.vertices == {"00", "01", "10"}
    assert {e.full_label for e in g2.edges} == {"001", "010", "100", "101"}
    tm = named_oracle("thue-morse", 12)
    g3 = build_graph(tm, 3)
    assert g3.vertices == {"001", "010", "011", "100", "101", "110"}
    assert {e.full_label for e in g3.edges} == {"0010", "0011", "0100", "0101", "0110",
                                               "1001", "1010", "1011", "1100", "1101"}
    print("ACCEPTANCE 1: PASS - order 0..2 graphs and the order-3 six-vertex graph exact")


def test_criterion_2_thue_morse_circuit_rejection():
    tm = named_oracle("thue-morse", 16)
    g3 = build_graph(tm, 3)
    loop = walk(g3, "010", "1" + "101" * 3 + "0")
    assert loop.start == loop.end == "010" and "010" not in loop.vertices[1:-1]
    assert "101101101" in loop.full_label and not tm.contains(loop.full_label)
    circs = circuits_from(reduced_graph(tm, 3), "010", tm)
    assert loop.right_label not in {c.right_label for c in circs}
    print("ACCEPTANCE 2: PASS - the triple-loop circuit is enumerable and not allowed")


def test_criterion_3_complexity_identities(fib, trib):
    c4 = language_horizon(C4_OSC, 34)
    for oracle in (fib, trib, c4):
        prof = complexity_profile(oracle, 32)  # asserts Eq 1, Eq 2 internally
        for n in range(31):
            right, left, _ = oracle.specials(n)
            rs = sum(len(oracle.right_extensions(u)) - 1 for u in right)
            ls = sum(len(oracle.left_extensions(u)) - 1 for u in left)
            assert rs == ls == prof.s[n]
        for n in range(30):
            total_m = sum(bilateral_order(oracle, u) for u in oracle.factors(n))
            assert prof.s[n + 1] - prof.s[n] == total_m
    print("ACCEPTANCE 3: PASS - both first-difference identities and the "
          "second-difference identity hold to order 30 on three languages")


def _formula_instances(kmax=5):
    out = []
    for x, y, z in itertools.permutations(range(3)):
        X, Y, Z = str(x), str(y), str(z)
        perm = permutation(f"{x}{y}{z}")
        for k in range(1, kmax + 1):
            if k >= 2:
                out.append((B(X, Y * k + X, Y * (k - 1) + X),
                            [M(z, x)] + [G(z, y)] * (k - 1) + [D(y, z), perm]))
                out.append((B(X, X + Y * k, X + Y * (k - 1)),
                            [M(z, x)] + [D(z, y)] * (k - 1) + [G(y, z), perm]))
            out.append((B(X, Y * k + Z, Y * (k - 1) + Z),
                        [G(z, y)] * (k - 1) + [D(y, z), perm]))
            out.append((B(X, Z + Y * k + X, Z + Y * (k - 1) + X),
                        [D(z, y)] * (k - 1) + [G(y, z), D(y, x), D(z, x), perm]))
            out.append((B(Y * k + X, Z + Y * k + X, Z + Y * (k - 1) + X),
                        [G(x, y)] * (k - 1) + [D(y, x), G(x, z), D(z, y), permutation(f"{y}{z}{x}")]))
            out.append((B(X + Y * k, X + Z + Y * k, X + Z + Y * (k - 1)),
                        [G(z, x)] + [D(z, y)] * (k - 1) + [D(x, y)] * k + [G(y, z), perm]))
            for l in range(0, kmax + 1):
                if l < k:
                    out.append((B(Y * l + X, Z + Y * k + X, Z + Y * (k - 1) + X),
                                [D(z, y)] * (k - l - 1) + [G(x, y)] * l
                                + [G(y, z), D(y, x), D(z, x), perm]))
                if l <= k:
                    out.append((B(X + Y * l + Z, Y * k + Z, Y * (k - 1) + Z),
                                [D(x, y)] * l + [D(x, z)] + [G(z, y)] * (k - 1) + [D(y, z), perm]))
                    out.append((B(Z + X + Y * l, Z + Y * k, Z + Y * (k - 1)),
                                [D(x, y)] * l + [G(x, z)] + [D(z, y)] * (k - 1) + [G(y, z), perm]))
    return out


def test_criterion_4_decomposition_suite():
    count = 0
    for m, factors in _formula_instances(kmax=5):
        assert compose_all(factors).images == m.images
        word = decompose(m)
        assert restrict(compose_generators(word), m.domain).images == m.images
        count += 1
    # the morphism-set formulas with the k-exponent
    for k in range(2, 6):
        m = compose_all([GEN_M] + [G(2, 1)] * (k - 2) + [D(2, 0), D(1, 2)])
        assert m.images == ("0", "1" * k + "0", "1" * (k - 1) + "0")
        assert compose_generators(decompose(m)).images == m.images
        m2 = compose_all([GEN_E01, m])
        assert m2.images == ("1", "0" * k + "1", "0" * (k - 1) + "1")
        assert compose_generators(decompose(m2)).images == m2.images
        count += 2
    # every derived-family identity of the proof table
    for name, word in DERIVED_EXPANSION.items():
        expected = E(0, 2) if name == "E02" else derived(name)
        assert compose_generators(word) == expected
        count += 1
    assert count >= 500
    print(f"ACCEPTANCE 4: PASS - {count} formula instances recompose after "
          "decomposition; all derived identities hold")


def test_criterion_5_characterization_round_trip():
    checked = 0
    for name, dw in ROUND_TRIP_SUITE.items():
        verdict = validate_directive(dw)
        assert verdict.status == "valid", (name, verdict.clause)
        oracle = language_horizon(dw, 28)
        prof = complexity_profile(oracle, 26)
        assert all(1 <= s <= 2 for s in prof.s[:26]), name
        cross_validate(dw, horizon=14)
        checked += 1
    assert checked >= 10
    print(f"ACCEPTANCE 5: PASS - {checked} valid directives round-trip "
          "(complexity in [1,2], extraction matches modulo exchanges)")


def test_criterion_6_invalidity_detection():
    v = validate_directive(DirectiveWord((), (B("0", "10"),)))
    assert v.status == "invalid" and "primitiv" in v.clause.lower()
    forced = DirectiveWord((B("0", "110", "10"),), (B("0", "10", "20"),))
    v2 = validate_directive(forced)
    assert v2.status == "invalid" and "primitiv" in v2.clause.lower()
    print("ACCEPTANCE 6: PASS - both non-weakly-primitive directives rejected "
          "with the weak-primitivity clause")


def test_criterion_7_known_complexities():
    fib_prefix = generate_one_sided(DirectiveWord((), (B("01", "0"),)), 50_000).prefix
    assert len(fib_prefix) >= 50_000
    for n in range(1, 21):
        assert len(factors_of(fib_prefix, n)) == n + 1
    trib_prefix = generate_one_sided(AR_CYCLE, 50_000).prefix
    assert len(trib_prefix) >= 50_000
    for n in range(1, 21):
        assert len(factors_of(trib_prefix, n)) == 2 * n + 1
    assert validate_directive(AR_CYCLE, strict2=True).status == "valid"
    v = validate_directive(STURMIAN, strict2=True)
    assert v.status == "invalid"
    print("ACCEPTANCE 7: PASS - p(n)=n+1 and p(n)=2n+1 from 50k-letter prefixes; "
          "exact-slope mode separates the two directives")


def test_criterion_8_structural_bounds(fib, trib):
    c4 = language_horizon(C4_OSC, 90)
    for oracle in (fib, trib, c4):
        chain = right_special_chain(oracle, 20)
        for n in range(21):
            circs = circuits_from(reduced_graph(oracle, n), chain[n], oracle)
            assert 2 <= len(circs) <= 3, (oracle.source, n)
        for n in range(1, 21):
            for u in oracle.factors(n):
                short = return_words(oracle, u, max_length=len(u) // 2)
                assert len(short) <= 1, (oracle.source, u)
    print("ACCEPTANCE 8: PASS - circuit counts in {2,3} and at most one short "
          "return word, all orders to 20 on three oracles")


def test_criterion_9_length_state_oracle_equivalence():
    OSC = (B("1", "02", "2"), B("0", "120", "10"))
    prefixes = {
        "entry from 2": DirectiveWord((), OSC),
        "entry from V0": DirectiveWord((B("0", "120", "20"), B("0", "120", "10")), OSC),
        "entry from 4B": DirectiveWord((B("0", "10", "120"), B("0", "120", "20")), OSC),
        "within C4 via 10B": DirectiveWord((B("01", "201", "21"), B("0", "21", "1")), OSC),
        "within C4 vertex 1": DirectiveWord((), (B("0", "110", "10"), B("01", "1"))),
        "within C4 through-10": DirectiveWord((B("0", "10", "120"), B("2", "0102", "02")), OSC),
    }
    compared = 0
    covered = set()
    for name, dw in prefixes.items():
        oracle = language_horizon(dw, 72)
        rep = extract_directive(oracle, 20)
        chain = right_special_chain(oracle, min(22, oracle.horizon - 2))
        local = 0
        for idx, step in enumerate(rep.path):
            if step.entry_order < 0 or step.entry_order >= len(chain):
                continue
            kc = step.match.row.kcase
            if step.dst == "7/8" and step.src != "7/8" and kc and kc not in APPROX_CASES:
                state = compute_length_state(rep.path[: idx + 1])
                assert state.case == kc, (name, idx)
                meas = measure_two_loops(oracle, step.entry_order, chain[step.entry_order])
                assert (state.u1, state.u2, state.v1, state.v2, state.K) == \
                    (meas.u1, meas.u2, meas.v1, meas.v2, meas.K), (name, kc)
                covered.add(kc)
                local += 1
            elif step.dst == "5/6":
                # the entry is the one the validator's exit gates read
                state = compute_length_state(rep.path[: idx + 1])
                if state.case in APPROX_CASES:
                    continue
                meas = measure_no_loops(oracle, step.entry_order, chain[step.entry_order])
                assert (state.p1, state.p2) == meas, (name, state.case)
                local += 1
        assert local > 0, name
        compared += 1
    assert compared >= 5
    assert any(c.startswith("c2") for c in covered)
    assert any(c.startswith("v_") for c in covered)
    assert any(c.startswith("f4") for c in covered)
    print(f"ACCEPTANCE 9: PASS - length bookkeeping equals graph measurement on "
          f"{compared} directive prefixes covering cases {sorted(covered)}")


def test_criterion_10_psi_bijection(fib, trib):
    checked = 0
    for oracle in (fib, trib):
        chain = right_special_chain(oracle, 16)
        for n in range(15):
            if oracle.specials(n)[2]:
                continue
            down = build_graph(oracle, n)
            cu = circuits_from(reduced_graph(oracle, n + 1), chain[n + 1], oracle)
            cd = circuits_from(reduced_graph(oracle, n), chain[n], oracle)
            proj = [psi_project(circuit_path(c), down) for c in cu]
            assert sorted(p.right_label for p in proj) == sorted(c.right_label for c in cd)
            assert all(p.start == chain[n] and p.end == chain[n] for p in proj)
            checked += 1
    assert checked >= 15
    print(f"ACCEPTANCE 10: PASS - the projection restricted to circuits is a "
          f"bijection at {checked} bispecial-free orders")
