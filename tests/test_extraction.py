from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from judges import factorize_letter_by_letter

from rauzyadic import extraction
from rauzyadic.cli import main
from rauzyadic.errors import RauzyadicError, RuleViolation
from rauzyadic.extraction import ExtractionReport, bispecial_orders, extract_directive
from rauzyadic.morphism import bracket, compose_all
from rauzyadic.sadic import DirectiveWord, language_horizon, parse_directive
from rauzyadic.words import NAMED_SOURCES, named_oracle

OSC_56_78 = DirectiveWord((), (bracket("1", "02", "2"), bracket("0", "120", "10")))
LOOP_10B = DirectiveWord((), (bracket("0", "20", "1"), bracket("12", "012", "02")))
# languages whose extracted paths split loops off at 7/8
LOOPS_THEN_56 = DirectiveWord((), (bracket("1002", "0002", "10002"),))
LOOP_THEN_1 = DirectiveWord((), (bracket("0", "1"), bracket("0", "10"), bracket("1", "0001", "001")))
COMMITTED = Path(__file__).resolve().parent.parent / "directives"


@pytest.fixture(scope="module")
def osc_oracle():
    return language_horizon(OSC_56_78, 64)


def test_bispecial_orders_fibonacci(fib):
    assert bispecial_orders(fib, 5) == [0, 1, 3]


def test_bispecial_orders_tribonacci(trib):
    orders = bispecial_orders(trib, 10)
    assert orders[:2] == [0, 1]
    for n in orders:
        assert trib.specials(n)[2]


def test_extract_fibonacci_stays_at_vertex_1(fib):
    rep = extract_directive(fib, 20)
    assert all(s.src == "1" and s.dst == "1" for s in rep.path)
    labels = [s.label.images for s in rep.path]
    assert set(labels) <= {("0", "10"), ("01", "1")}
    # alternation: the two Sturmian elementary steps both occur
    assert len(set(labels)) == 2


def test_extract_tribonacci_stays_at_vertex_2(trib):
    rep = extract_directive(trib, 25)
    assert all(s.src == "2" and s.dst == "2" for s in rep.path)
    labels = {s.label.images for s in rep.path}
    assert labels == {("0", "10", "20"), ("01", "1", "21"), ("02", "12", "2")}


def test_extract_gamma_matches_schema_per_step(fib, trib):
    for o, N in ((fib, 20), (trib, 20)):
        rep = extract_directive(o, N)
        for rec in rep.records:
            assert rec.shape_after.type_id in rec.schema.to_types
            assert rec.schema.from_type == rec.shape_before.type_id


def test_edgewise_theta_commutation(fib, trib, osc_oracle):
    # theta(gamma(a)) and psi(theta'(a)) have the same right labels
    for o, N in ((fib, 18), (trib, 18), (osc_oracle, 18)):
        rep = extract_directive(o, N)
        thetas = {t.order: t for t in rep.thetas}
        for rec in rep.records:
            low, up = thetas[rec.from_order], thetas[rec.to_order]
            for a, img in enumerate(rec.gamma.images):
                concat = "".join(low.circuits[int(c)].right_label for c in img)
                assert concat == up.circuits[a].right_label


def test_extract_c4_oscillation_round_trip(osc_oracle):
    rep = extract_directive(osc_oracle, 21)
    assert [s.src for s in rep.path][:2] == ["2", "7/8"]
    cyc = [(s.src, s.dst, s.label.images) for s in rep.path[1:]]
    assert cyc[0] == ("7/8", "5/6", ("1", "02", "2"))
    assert cyc[1] == ("5/6", "7/8", ("0", "120", "10"))
    assert cyc[2] == ("7/8", "5/6", ("1", "02", "2"))


def test_extract_10b_loop_language():
    o = language_horizon(LOOP_10B, 64)
    rep = extract_directive(o, 20)
    assert rep.path[0].src == "2" and rep.path[0].dst == "10B"
    loop_labels = {s.label.images for s in rep.path[1:] if (s.src, s.dst) == ("10B", "10B")}
    assert ("0", "20", "1") in loop_labels
    assert ("12", "012", "02") in loop_labels


def test_extraction_report_serializes(fib):
    rep = extract_directive(fib, 12)
    text = rep.serialize()
    assert "records" in text and "refined-graph path" in text
    assert "C4.1.loop" in text


def test_letter_to_letter_exits_move_the_vertex():
    # the two-loop exit [0,1] is the identity morphism but a real transition
    dw = DirectiveWord((), (bracket("0", "110", "10"), bracket("1", "0")))
    o = language_horizon(dw, 64)
    rep = extract_directive(o, 18)
    moves = [(s.src, s.dst) for s in rep.path]
    assert ("7/8", "1") in moves and ("1", "7/8") in moves
    labels = {s.label.images for s in rep.path if (s.src, s.dst) == ("7/8", "1")}
    assert labels <= {("0", "1"), ("1", "0")}


def test_extract_out_of_class_language_is_refused(tm, capsys):
    # Thue-Morse has four circuits at its first type-6 order; the two-circuit
    # rules refuse it with a typed error instead of failing to unpack
    with pytest.raises(RuleViolation, match="4 circuits"):
        extract_directive(tm, 16)
    assert main(["extract", "--source", "thue-morse", "--horizon", "60"]) == 3
    assert "RuleViolation" in capsys.readouterr().err


def test_loops_at_7_8_are_split_off_the_left():
    rep = extract_directive(language_horizon(LOOPS_THEN_56, 60), 16)
    assert [s.match.row.rid for s in rep.path] == [
        "T2.4Ba", "C3.a", "T4.78d", "C4.78.loop", "C4.78.loop", "C4.78.56a"]
    rep = extract_directive(language_horizon(LOOP_THEN_1, 60), 16)
    steps = [(s.src, s.dst, s.match.row.rid, s.label.images) for s in rep.path]
    i = steps.index(("7/8", "7/8", "C4.78.loop", ("0", "10")))
    assert steps[i + 1] == ("7/8", "1", "C4.78.1c", ("1", "0"))


def _extracted_languages(fib, trib):
    yield "fibonacci", fib
    yield "tribonacci", trib
    for name, dw in (("loops then 5/6", LOOPS_THEN_56), ("loop then 1", LOOP_THEN_1)):
        yield name, language_horizon(dw, 60)
    for f in sorted(COMMITTED.glob("*.dw")):
        if f.stem != "not_valid":
            yield f.stem, language_horizon(parse_directive(f.read_text()), 60)


def test_path_reads_a_prefix_of_the_records(fib, trib):
    # the path regroups the step morphisms and splits off loops, but its
    # product is the product of the records it has consumed
    for name, o in _extracted_languages(fib, trib):
        rep = extract_directive(o, 16)
        assert rep.path, name
        product = compose_all(s.label for s in rep.path).images
        prefixes = [compose_all(r.gamma for r in rep.records[:p]).images
                    for p in range(1, len(rep.records) + 1)]
        assert product in prefixes, name


# -- return words cut by substring search, against the letter-by-letter walk --


def _outcome(call):
    try:
        return call()
    except RauzyadicError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01", max_size=3), st.text(alphabet="01", max_size=12),
       st.lists(st.text(alphabet="01", min_size=1, max_size=5), max_size=4))
@example("", "", [])
@example("0", "10", ["10"])
@example("00", "000", ["0"])
@example("010", "10101", ["10", "101"])
def test_substring_cuts_factorize_as_the_letter_walk(lower_u, label, rights):
    letter = {r: str(i) for i, r in enumerate(dict.fromkeys(rights))}
    assert (_outcome(lambda: extraction._factorize(label, lower_u, letter))
            == _outcome(lambda: factorize_letter_by_letter(label, lower_u, letter)))


@pytest.mark.parametrize("name", [*sorted(NAMED_SOURCES),
                                  *(f.stem for f in sorted(COMMITTED.glob("*.dw"))
                                    if f.stem != "not_valid")])
def test_extraction_reports_match_the_letter_walk(name, monkeypatch):
    # Thue-Morse is refused at its first type-6 order; the others extract
    oracle = (named_oracle(name, 80) if name in NAMED_SOURCES
              else language_horizon(parse_directive((COMMITTED / f"{name}.dw").read_text()), 80))
    got = _outcome(lambda: extract_directive(oracle, 20))
    assert isinstance(got, ExtractionReport) == (name != "thue-morse")
    monkeypatch.setattr(extraction, "_factorize", factorize_letter_by_letter)
    assert got == _outcome(lambda: extract_directive(oracle, 20))
