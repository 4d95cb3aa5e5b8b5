import itertools

import pytest
from hypothesis import example, given, settings, strategies as st
from judges import left_proper, occurrence_matrix

from rauzyadic.errors import (EmptyProduct, ErasingMorphism, MalformedDirective,
                              MalformedMorphism, NoStabilization, NotContractible,
                              RauzyadicError)
from rauzyadic.morphism import Morphism, bracket, classify, compose_all, identity
from rauzyadic.sadic import (
    DirectiveWord, format_directive, generate_one_sided, language_horizon,
    parse_directive, parse_morphism_spec, proper_contraction, used_letters,
    weak_primitivity_check,
)
from rauzyadic.words import (
    LETTERS, complexity_profile, factors_of, named_oracle, substitutive_language,
)

STURMIAN_ALT = DirectiveWord((), (bracket("0", "10"), bracket("01", "1")))
AR_CYCLE = DirectiveWord((), (bracket("0", "10", "20"), bracket("01", "1", "21"),
                              bracket("02", "12", "2")))
FIB_DW = DirectiveWord((), (bracket("01", "0"),))


def test_generate_fibonacci_prefix():
    res = generate_one_sided(FIB_DW, 8)
    assert res.prefix == "01001010"


def test_generate_prefix_stable():
    a = generate_one_sided(STURMIAN_ALT, 30).prefix
    b = generate_one_sided(STURMIAN_ALT, 90).prefix
    assert b.startswith(a)


def test_generate_identity_non_growing():
    with pytest.raises(NoStabilization):
        generate_one_sided(DirectiveWord((), (identity(2),)), 10)


def test_generate_non_growing_seed():
    with pytest.raises(NoStabilization):
        generate_one_sided(DirectiveWord((), (bracket("0", "10"),)), 10)


def test_generate_unsettled_prefix_is_refused():
    # 0->10, 1->01: the images of 0 at consecutive levels begin with 1 and 0
    # in turn, so no prefix settles while the images double (the level cap
    # keeps them small should the refusal not come)
    with pytest.raises(NoStabilization, match="never begin with the same letter"):
        generate_one_sided(DirectiveWord((), (bracket("10", "01"),)), 1000, max_levels=20)
    # one such level before a period that keeps first letters settles
    res = generate_one_sided(DirectiveWord((bracket("10", "01"),), (bracket("01", "10"),)), 1000)
    assert res.prefix.startswith("1001")


# the seed letter 0 is dead: no level past the preperiod produces it
DEAD_SEED = parse_directive("preperiod:\n[01,11]\n[100,111]\nperiod:\n[00,101]\n[1,111]\n[1,1]\n")


def test_generate_sturmian_with_fixed_seed():
    # the seed's image keeps one letter for whole periods, yet the period
    # product is primitive: a Sturmian language, p(n) = n + 1
    dw = parse_directive("period:\n[2,1,0]\n[2,2,1]\n[2,0,2]\n[0,10,1]\n")
    res = generate_one_sided(dw, 60)
    assert len(res.prefix) == 60 and res.certified_horizon >= 1
    o = language_horizon(dw, 30)
    assert complexity_profile(o, 28).p == tuple(n + 1 for n in range(29))
    for j in range(res.certified_horizon + 1):
        assert factors_of(res.prefix, j) == o.factors(j)


def test_generate_dead_seed_certifies_the_language_only():
    # 01110 is a factor of the prefix but not of the language
    res = generate_one_sided(DEAD_SEED, 10)
    assert res.prefix == "1101011101" and res.certified_horizon == 3
    assert "01110" not in language_horizon(DEAD_SEED, 5)


def test_sturmian_language_complexity():
    o = language_horizon(STURMIAN_ALT, 12)
    prof = complexity_profile(o, 10)
    assert prof.p == tuple(n + 1 for n in range(11))


def test_ar_language_is_tribonacci():
    o = language_horizon(AR_CYCLE, 10)
    trib = named_oracle("tribonacci", 10)
    for n in range(11):
        assert o.factors(n) == trib.factors(n)


def test_fibonacci_directive_language(fib):
    o = language_horizon(FIB_DW, 8)
    assert o.factors(2) == {"00", "01", "10"}
    for n in range(9):
        assert o.factors(n) == fib.factors(n)


def test_language_horizon_identities():
    o = language_horizon(AR_CYCLE, 12)
    prof = complexity_profile(o, 10)
    assert prof.p[1:] == tuple(2 * n + 1 for n in range(1, 11))


def test_non_minimal_directive_no_stabilization():
    bad = DirectiveWord((), (bracket("0", "10"),))
    with pytest.raises(NoStabilization):
        language_horizon(bad, 4)


def test_weak_primitivity():
    assert weak_primitivity_check(AR_CYCLE).holds
    assert weak_primitivity_check(STURMIAN_ALT).holds
    v = weak_primitivity_check(DirectiveWord((), (bracket("0", "10"),)))
    assert v.status == "fails" and v.fails_at == 0
    v = weak_primitivity_check(DirectiveWord((), (identity(2),)))
    assert v.status == "fails" and v.fails_at == 0
    v = weak_primitivity_check(DirectiveWord((bracket("0", "10"),)))
    assert v.status == "undetermined"


def test_weak_primitivity_iff_primitive_contraction():
    # on these eventually periodic examples a weakly primitive word admits
    # a contraction whose blocks have positive occurrence products
    for dw in (AR_CYCLE, STURMIAN_ALT, FIB_DW):
        assert weak_primitivity_check(dw).holds
        block = compose_all([dw.morphism(i) for i in range(2 * dw.known_levels() + 2)])
        occ = occurrence_matrix(block)
        assert all(all(row) for row in occ)


def test_proper_contraction_sturmian():
    t = proper_contraction(STURMIAN_ALT)
    for m in list(t.preperiod) + list(t.period):
        rec = classify(m)
        assert rec.right_proper and left_proper(m)
    o1 = language_horizon(STURMIAN_ALT, 10)
    o2 = language_horizon(t, 10)
    for n in range(11):
        assert o1.factors(n) == o2.factors(n)


def test_proper_contraction_ar():
    t = proper_contraction(AR_CYCLE)
    for m in list(t.preperiod) + list(t.period):
        rec = classify(m)
        assert rec.right_proper and left_proper(m)
    o1 = language_horizon(AR_CYCLE, 8)
    o2 = language_horizon(t, 8)
    for n in range(9):
        assert o1.factors(n) == o2.factors(n)


def test_proper_contraction_needs_primitivity():
    with pytest.raises(NotContractible):
        proper_contraction(DirectiveWord((), (bracket("0", "10"),)))


def test_directive_file_round_trip():
    text = """
# alternating Sturmian
preperiod:
period:
[0,10]
0->01;1->1
"""
    dw = parse_directive(text)
    assert dw.period == (bracket("0", "10"), bracket("01", "1"))
    again = parse_directive(format_directive(dw))
    assert again == dw


def test_parse_morphism_spec_names():
    m = parse_morphism_spec("M D20 D12")
    assert m == bracket("0", "110", "10", codomain=3)
    m = parse_morphism_spec("M G21 D20 D12")
    assert m == bracket("0", "1110", "110", codomain=3)
    assert parse_morphism_spec("D10") == bracket("0", "10", "2", codomain=3)


# directive texts that once parsed as something else ("[0,10" as [0,1]) or
# raised an untyped error, each with the line it is refused at
MALFORMED = {
    "period:\n[0,10\n": 2,
    "period:\nx3\n": 2,
    "period:\n0\n": 2,
    "period:\n019\n": 2,
    "preperiod:\n[0,10]\nperiod:\nD01 9\n": 4,
    "period:\n[0,10]\n[01,]\n": 3,
    "[0,10]\nperiod:\n": 1,
    "period:\n0->0;0->10;1->1\n": 2,
}

# directive text line by line: section headers, brackets of digit words,
# rules, factor names, and lines of pieces of all of them and of junk
_PIECES = st.sampled_from([
    "preperiod:", "period:", " ", "#", "[", "]", ",", "->", ";",
    "0", "1", "2", "3", "9", "D01", "G21", "M", "E02", "D", "x3", "019",
    "a", "-", "^", "\u0663", "\u00b2",
])
_IMAGES = st.lists(st.text(st.sampled_from("0123"), min_size=1, max_size=3), min_size=1, max_size=4)
_DIRECTIVE_LINES = st.one_of(
    st.sampled_from(["preperiod:", "period:", "", "# comment"]),
    _IMAGES.map(lambda ws: "[" + ",".join(ws) + "]"),
    _IMAGES.map(lambda ws: ";".join(f"{i}->{w}" for i, w in enumerate(ws))),
    st.lists(st.sampled_from(["D01", "G21", "M", "E02", "D20", "M12", "G"]),
             min_size=1, max_size=3).map(" ".join),
    st.lists(_PIECES, max_size=8).map("".join),
)


@pytest.mark.parametrize("call, error, text", [
    (lambda: DirectiveWord(()), EmptyProduct, "empty directive word"),
    (lambda: DirectiveWord((), (bracket("01", ""),)), ErasingMorphism,
     "erasing morphism in directive word"),
    (lambda: parse_morphism_spec("[0,10"), MalformedDirective,
     r"'\[0,10': bracket not closed by '\]'"),
])
def test_directive_refusals_are_typed(call, error, text):
    with pytest.raises(error, match=f"^{text}$") as info:
        call()
    assert isinstance(info.value, RauzyadicError) and isinstance(info.value, ValueError)
    if error is MalformedDirective:
        # the parser reports the morphism text's own refusal
        assert isinstance(info.value.__cause__, MalformedMorphism)


@pytest.mark.parametrize("text", sorted(MALFORMED))
def test_malformed_directive_names_its_line(text):
    with pytest.raises(MalformedDirective, match=f"^line {MALFORMED[text]}: "):
        parse_directive(text)


@given(st.tuples(st.sampled_from(["period:", "preperiod:", ""]),
                 st.lists(_DIRECTIVE_LINES, max_size=8)).map(lambda t: "\n".join([t[0], *t[1]])))
@example("period:\n[0,10\n")
@example("period:\nx3\n")
@example("period:\n0\n")
@example("period:\n019\n")
@example("period:\nD01 9\n")
@example("period:\n[01,]\n")
@example("period:\n0->0;0->10;1->1\n")
@example("")
def test_parse_directive_returns_or_refuses(text):
    try:
        dw = parse_directive(text)
    except RauzyadicError:
        return
    assert dw.known_levels() >= 1


def test_non_primitive_word_has_no_primitive_contraction():
    # the converse direction: occurrence products of a non-weakly-primitive
    # directive never become positive over any block
    dw = DirectiveWord((), (bracket("0", "10"),))
    for span in (2, 5, 9):
        block = compose_all([dw.morphism(i) for i in range(span)])
        occ = occurrence_matrix(block)
        assert not all(all(row) for row in occ)


def test_proper_contraction_with_preperiod():
    dw = DirectiveWord((bracket("01", "201", "21"), bracket("0", "21", "1")),
                       (bracket("1", "02", "2"), bracket("0", "120", "10")))
    t = proper_contraction(dw)
    for m in list(t.preperiod) + list(t.period):
        rec = classify(m)
        assert rec.right_proper and left_proper(m)
    o1 = language_horizon(dw, 8)
    o2 = language_horizon(t, 8)
    for n in range(9):
        assert o1.factors(n) == o2.factors(n)


def _long_word(dw, letter, length):
    """m_0 m_1 ... m_{p+jT-1}(letter) for the least j that reaches the length,
    by plain level-by-level substitution, with tau^j(letter) kept from one j
    to the next (tau the period product)."""
    u = letter
    while True:
        w = u
        for m in reversed(dw.preperiod):
            w = m(w)
        if len(w) >= length:
            return w
        for m in reversed(dw.period):
            u = m(u)


def _live_period(dw):
    """Letters of level p that occur in deep images, and whether the period
    product is primitive and growing on them (brute force, no matrices)."""

    def tau(w):
        for m in reversed(dw.period):
            w = m(w)
        return w

    def next_level(w):
        # tau never erases, so the letters of tau^(j+1)(a) and whether it has
        # two letters follow from those of tau^j(a): past length 2, keep each
        # letter twice instead of the whole word
        u = tau(w)
        return u if len(u) < 2 else "".join(sorted(set(u))) * 2

    live = set(LETTERS[:dw.period[-1].domain])
    for _ in range(4):
        live = {c for a in live for c in tau(a)}
    words = {a: a for a in live}
    for _ in range(9):
        words = {a: next_level(w) for a, w in words.items()}
        if all(len(w) >= 2 and set(w) == live for w in words.values()):
            return min(live), True
    return min(live), False


@st.composite
def directives(draw):
    d = draw(st.integers(2, 3))
    word = st.text(alphabet=LETTERS[:d], min_size=1, max_size=3)
    level = st.builds(lambda ims: Morphism(tuple(ims), d), st.lists(word, min_size=d, max_size=d))
    return DirectiveWord(tuple(draw(st.lists(level, max_size=1))),
                         tuple(draw(st.lists(level, min_size=1, max_size=2))))


@settings(max_examples=60, deadline=None)
@given(directives(), st.integers(2, 9))
def test_language_matches_long_word(dw, n):
    letter, primitive = _live_period(dw)
    if not primitive:
        with pytest.raises(NoStabilization):
            language_horizon(dw, n)
        return
    o = language_horizon(dw, n)
    w = _long_word(dw, letter, 20_000)
    # one scan at length n: every shorter factor starts a length-n factor or
    # sits in the last n - 1 letters
    top = factors_of(w, n)
    assert o.factors(n) == top
    for m in range(n):
        assert o.factors(m) == {x[:m] for x in top} | factors_of(w[-(n - 1):], m)
    # factorial and bi-prolongable
    letters = o.alphabet.letters
    for m in range(1, n + 1):
        for u in o.factors(m):
            assert u[1:] in o.factors(m - 1) and u[:-1] in o.factors(m - 1)
    for m in range(n):
        for u in o.factors(m):
            assert any(u + a in o.factors(m + 1) for a in letters)
            assert any(a + u in o.factors(m + 1) for a in letters)


@settings(max_examples=150, deadline=None)
@given(directives(), st.integers(0, 400))
@example(DEAD_SEED, 10)
def test_generate_certificate_is_the_kernels(dw, length):
    # max_levels keeps the images of a prefix that never settles small
    cap = min(length // 2, 64)
    try:
        o = language_horizon(dw, cap)
    except NoStabilization:
        with pytest.raises(NoStabilization):
            generate_one_sided(dw, length, max_levels=12)
        return
    try:
        res = generate_one_sided(dw, length, max_levels=12)
    except NoStabilization:
        return
    h = res.certified_horizon
    assert len(res.prefix) == length and 0 <= h <= cap
    for j in range(h + 1):
        assert factors_of(res.prefix, j) == o.factors(j)
    if h < cap:
        assert factors_of(res.prefix, h + 1) != o.factors(h + 1)


POOL_CERTIFIED = parse_directive("preperiod:\n[0,10,120]\nperiod:\n[1,021,01]\n[0,10,20]\n[0,10,20]\n")
POOL_NOT_PRIMITIVE = parse_directive("preperiod:\n[0,10,120]\nperiod:\n[1,01,021]\n")


def test_pool_directive_certifies_at_crosscheck_horizon():
    # cross_validate at window 16 asks for n = 60; the old level-intersection
    # certificate refused this directive
    o = language_horizon(POOL_CERTIFIED, 60)
    assert o.certificate.letters == "012" and o.certificate.k >= 1
    w = _long_word(POOL_CERTIFIED, "0", 2_800_000)
    top = factors_of(w, 60)
    assert o.factors(60) == top
    for m in range(60):
        # every length-m factor starts a length-60 factor or sits in the tail
        assert o.factors(m) == {x[:m] for x in top} | factors_of(w[-59:], m)


def test_pool_directive_not_weakly_primitive_refuses():
    assert weak_primitivity_check(POOL_NOT_PRIMITIVE).status == "fails"
    with pytest.raises(NoStabilization):
        language_horizon(POOL_NOT_PRIMITIVE, 60)


def test_finite_directive_is_refused():
    dw = DirectiveWord((bracket("01", "0"), bracket("0", "10")))
    with pytest.raises(NoStabilization):
        language_horizon(dw, 6)
    with pytest.raises(NoStabilization):
        generate_one_sided(dw, 3)


@st.composite
def long_period_directives(draw):
    """Periods of up to 16 levels: a block repeated, then up to one more level."""
    d = draw(st.integers(2, 3))
    word = st.text(alphabet=LETTERS[:d], min_size=1, max_size=3)
    level = st.builds(lambda ims: Morphism(tuple(ims), d), st.lists(word, min_size=d, max_size=d))
    period = draw(st.lists(level, min_size=1, max_size=5)) * draw(st.integers(1, 3))
    return DirectiveWord(tuple(draw(st.lists(level, max_size=2))),
                         tuple(period + draw(st.lists(level, max_size=1))))


@settings(max_examples=200, deadline=None)
@given(long_period_directives())
def test_weak_primitivity_agrees_with_language_kernel(dw):
    # weak primitivity fails exactly when the kernel refuses the period
    # product on the letters level p keeps using
    wp = weak_primitivity_check(dw)
    assert wp.status in ("holds", "fails")
    letters = sorted(used_letters(dw)[len(dw.preperiod)])
    tau = compose_all(dw.period).images
    try:
        substitutive_language({str(a): tau[a] for a in letters}, 2)
        refused = False
    except NoStabilization:
        refused = True
    assert (wp.status == "fails") == refused


def test_one_live_fixed_letter_is_not_weakly_primitive():
    # the period keeps only the letter 1 and fixes it: the language is 1^w
    dw = DirectiveWord((), (bracket("01", "1"), bracket("111", "1")))
    assert used_letters(dw)[0] == {1}
    v = weak_primitivity_check(dw)
    assert v.status == "fails" and v.fails_at == 0
    with pytest.raises(NoStabilization):
        language_horizon(dw, 4)


def _bool_product(A, B):
    return tuple(tuple(any(A[a][b] and B[b][c] for b in range(len(B)))
                       for c in range(len(B[0]))) for a in range(len(A)))


def _products_verdict(dw):
    """(status, fails_at) from Boolean occurrence products: per start level,
    multiply until the product is positive on the used letters or a
    (product, phase) pair repeats."""
    p, T = len(dw.preperiod), len(dw.period)
    used = used_letters(dw)

    def u(level):
        return used[level] if level < p else used[p + (level - p) % T]

    def occ(m):
        return tuple(map(tuple, occurrence_matrix(m)))

    for r in range(p + T):
        P, s, seen = occ(dw.morphism(r)), r, set()
        while not all(P[a][b] for a in u(r) for b in u(s + 1)):
            s += 1
            if s >= p:
                if (P, (s - p) % T) in seen:
                    return "fails", r
                seen.add((P, (s - p) % T))
            P = _bool_product(P, occ(dw.morphism(s)))
    return "holds", None


@st.composite
def preperiod_directives(draw):
    """Preperiods of up to 3 levels, so that weak primitivity can fail
    before the period."""
    d = draw(st.integers(2, 3))
    word = st.text(alphabet=LETTERS[:d], min_size=1, max_size=3)
    level = st.builds(lambda ims: Morphism(tuple(ims), d), st.lists(word, min_size=d, max_size=d))
    return DirectiveWord(tuple(draw(st.lists(level, max_size=3))),
                         tuple(draw(st.lists(level, min_size=1, max_size=3))))


@settings(max_examples=300, deadline=None)
@given(preperiod_directives())
@example(DirectiveWord((bracket("0", "10", "120"),), (bracket("0", "10", "20"), bracket("02", "12", "2"))))
@example(DirectiveWord((bracket("01", "1"),), (bracket("01", "1"), bracket("111", "1"))))
def test_weak_primitivity_matches_occurrence_products(dw):
    wp = weak_primitivity_check(dw)
    status, fails_at = _products_verdict(dw)
    p = len(dw.preperiod)
    live = sorted(used_letters(dw)[p])
    if len(live) == 1 and compose_all(dw.period).images[live[0]] == LETTERS[live[0]]:
        # its products are positive, but the word it generates is periodic
        assert status == "holds" and (wp.status, wp.fails_at) == ("fails", p)
    else:
        assert (wp.status, wp.fails_at) == (status, fails_at)


def test_used_letters_reach_the_fixed_point_on_ten_letters():
    # the period shifts every letter up by one until 8 and 9, where it is
    # Thue-Morse; a fixed sweep of 4T+4 levels stopped at {7, 8, 9}
    dw = parse_directive("period:\n[0,1,2,3,4,5,6,7,8,9]\n[1,2,3,4,5,6,7,8,89,98]\n")
    assert used_letters(dw) == [{8, 9}] * 3
    assert weak_primitivity_check(dw).holds
    o = language_horizon(dw, 12)
    assert o.factors(3) == {"889", "898", "899", "988", "989", "998"}


def _letters_of(m, letters):
    return frozenset(int(c) for b in letters for c in m.images[b])


@st.composite
def wide_directives(draw):
    d = draw(st.integers(1, 10))
    word = st.text(alphabet=LETTERS[:d], min_size=1, max_size=2)
    level = st.builds(lambda ims: Morphism(tuple(ims), d), st.lists(word, min_size=d, max_size=d))
    return DirectiveWord(tuple(draw(st.lists(level, max_size=2))),
                         tuple(draw(st.lists(level, min_size=1, max_size=3))))


@settings(max_examples=100, deadline=None)
@given(wide_directives())
def test_used_letters_is_the_greatest_fixed_point(dw):
    p, T = len(dw.preperiod), len(dw.period)
    tau = compose_all(dw.period)
    d = tau.domain
    # the union of all fixed points of S -> letters of tau(S) is the greatest one
    brute = frozenset().union(*(s for k in range(1, d + 1)
                                for s in map(frozenset, itertools.combinations(range(d), k))
                                if _letters_of(tau, s) == s))
    used = used_letters(dw)
    assert len(used) == p + T + 1
    assert used[p] == used[p + T] == brute
    for i in range(p + T):
        assert used[i] == _letters_of(dw.morphism(i), used[i + 1])


def test_tribonacci_has_no_right_proper_block():
    # weakly primitive, but its last-letter map 0->1, 1->2, 2->0 is a
    # permutation, so no product of its levels is right proper
    dw = DirectiveWord((), (bracket("01", "02", "0"),))
    assert weak_primitivity_check(dw).holds
    with pytest.raises(NotContractible, match="no right proper block from level 0"):
        proper_contraction(dw)
