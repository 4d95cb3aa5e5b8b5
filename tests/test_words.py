from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from judges import (bilateral_order, is_aperiodic, language_by_block_sets, return_words,
                    return_words_by_scan)

from rauzyadic.errors import (BadAlphabet, HorizonExceeded, IdentityViolation, NegativeLength,
                              NoStabilization, NotInLanguage, NotProlongable, RauzyadicError)
from rauzyadic.morphism import compose_all
from rauzyadic.sadic import _live_period, language_horizon, parse_directive, used_letters
from rauzyadic.words import (
    LETTERS, NAMED_SOURCES, Alphabet, ComplexityProfile, FactorOracle, common_prefix_len,
    complexity_profile, eventual_support, factors_of, is_primitive, named_oracle,
    substitutive_language,
)

DIRECTIVES = Path(__file__).resolve().parents[1] / "directives"


def test_factor_sets(fib, tm):
    assert fib.factors(2) == {"00", "01", "10"}
    assert fib.factors(0) == {""}
    assert tm.factors(2) == {"00", "01", "10", "11"}


def test_horizon_refusal(fib):
    with pytest.raises(HorizonExceeded):
        fib.factors(fib.horizon + 1)


def test_factorial_closure(fib, tm, trib):
    for o in (fib, tm, trib):
        for n in range(1, 12):
            longer = o.factors(n)
            shorter = o.factors(n - 1)
            assert {w[1:] for w in longer} <= shorter
            assert {w[:-1] for w in longer} <= shorter


def _biext(oracle, u):
    return {(a, b) for a in oracle.left_extensions(u) for b in oracle.right_extensions(u)
            if oracle.contains(a + u + b)}


def test_extension_profile_examples(fib):
    assert fib.right_extensions("0") == {"0", "1"} and fib.left_extensions("0") == {"0", "1"}
    assert _biext(fib, "0") == {("0", "1"), ("1", "0"), ("1", "1")}
    assert bilateral_order(fib, "0") == 0
    assert fib.right_extensions("") == {"0", "1"} and len(_biext(fib, "")) == 3
    assert bilateral_order(fib, "") == 0
    assert fib.right_extensions("00") == {"1"} and not fib.is_right_special("00")


def test_suffix_of_right_special_is_right_special(fib, trib):
    for o in (fib, trib):
        for n in range(1, 15):
            for u in o.specials(n)[0]:
                assert o.is_right_special(u[1:])


def test_complexity_profiles(fib, trib):
    prof = complexity_profile(fib, 20)
    assert prof.p == tuple(n + 1 for n in range(21))
    prof = complexity_profile(trib, 20)
    assert prof.p[0] == 1
    assert prof.p[1:] == tuple(2 * n + 1 for n in range(1, 21))


def test_complexity_periodic_word():
    o = FactorOracle.from_prefix("01" * 50, horizon=8, source="(01)^inf")
    prof = complexity_profile(o, 6)
    assert prof.p == (1, 2, 2, 2, 2, 2, 2)
    assert not is_aperiodic(o, 4)


def test_identity_violation_on_bogus_oracle():
    # a top set that claims two factors of length 1 but only one of length
    # 2, with no special structure to pay for it
    o = FactorOracle(Alphabet(2), frozenset({"010", "1"}), 3, "bogus")
    assert [o.factors(n) for n in range(3)] == [{""}, {"0", "1"}, {"01"}]
    with pytest.raises(IdentityViolation):
        complexity_profile(o, 2)


def test_return_words(fib):
    assert return_words(fib, "0") == {"0", "10"}
    assert return_words(fib, "00") == {"100", "10100"}
    o = FactorOracle.from_prefix("01" * 60, horizon=10, source="(01)^inf")
    assert return_words(o, "01") == {"01"}


def test_return_words_match_scan(fib, trib):
    for o, tau in ((fib, NAMED_SOURCES["fibonacci"]), (trib, NAMED_SOURCES["tribonacci"])):
        w = _fixed_point(tau, 5000)
        for n in (1, 2, 4, 6):
            for u in sorted(o.factors(n))[:4]:
                assert return_words(o, u) == return_words_by_scan(w, u)


def test_short_return_word_unique(fib, tm, trib):
    # at most one return word of length <= |u|/2; Thue-Morse return words
    # grow ~4n, so its range is kept within the fixture horizon
    for o, upto in ((fib, 13), (tm, 6), (trib, 8)):
        for n in range(1, upto + 1):
            for u in o.factors(n):
                rws = return_words(o, u)
                assert sum(1 for r in rws if 2 * len(r) <= len(u)) <= 1
    # deeper orders via the capped enumeration, which only needs n + n/2 of horizon
    for o in (fib, trib):
        for n in range(14, 21):
            for u in o.factors(n):
                short = return_words(o, u, max_length=n // 2)
                assert len(short) <= 1


def test_aperiodicity(fib, trib):
    assert is_aperiodic(fib, 20)
    assert is_aperiodic(trib, 20)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["fibonacci", "thue-morse", "tribonacci"]), st.integers(1, 10))
def test_projection_property(name, n):
    o = named_oracle(name, 14)
    assert {w[1:] for w in o.factors(n)} == o.factors(n - 1)
    assert {w[:-1] for w in o.factors(n)} == o.factors(n - 1)


def test_factors_of():
    assert factors_of("0100", 2) == {"01", "10", "00"}
    assert factors_of("0100", 0) == {""}


def test_extension_profile_horizon_refusal(fib):
    with pytest.raises(HorizonExceeded):
        bilateral_order(fib, "0" * (fib.horizon - 1))


def test_substitution_requires_prolongable_seed():
    with pytest.raises(ValueError):
        FactorOracle.from_substitution({"0": "10", "1": "0"}, horizon=6)


@pytest.mark.parametrize("call, error, text", [
    (lambda fib: Alphabet(0), BadAlphabet, "alphabet size 0 out of range"),
    (lambda fib: Alphabet(11), BadAlphabet, "alphabet size 11 out of range"),
    (lambda fib: fib.factors(-1), NegativeLength, "negative factor length -1"),
    (lambda fib: FactorOracle.from_substitution({"0": "10", "1": "0"}, 6), NotProlongable,
     "not prolongable at seed '0'"),
    (lambda fib: return_words(fib, "11"), NotInLanguage, "'11' not in the language"),
])
def test_word_refusals_are_typed(fib, call, error, text):
    with pytest.raises(error, match=text) as exc:
        call(fib)
    # still a ValueError for callers that caught it as one
    assert isinstance(exc.value, RauzyadicError) and isinstance(exc.value, ValueError)


def _apply(tau, w):
    return "".join(tau[c] for c in w)


def _brute_primitive(tau):
    """Some power tau^e, e <= 8, maps every letter to a word of length >= 2
    holding every letter (for at most 3 letters Wielandt's bound is 5)."""
    words = dict(tau)
    for _ in range(8):
        if all(len(w) >= 2 and set(w) == set(tau) for w in words.values()):
            return True
        words = {a: _apply(tau, w) for a, w in words.items()}
    return False


@st.composite
def substitutions(draw, min_letters=1):
    d = draw(st.integers(min_letters, 3))
    word = st.text(alphabet=LETTERS[:d], min_size=1, max_size=3)
    return {LETTERS[a]: draw(word) for a in range(d)}


@settings(max_examples=60, deadline=None)
@given(substitutions(), st.integers(0, 9))
def test_kernel_matches_long_word(tau, n):
    if not _brute_primitive(tau):
        with pytest.raises(NoStabilization):
            substitutive_language(tau, n)
        return
    top, cert = substitutive_language(tau, n)
    oracle = FactorOracle(Alphabet(len(tau)), top, n, "kernel")
    w = _fixed_point(tau, 20_000)
    for m in range(n + 1):
        assert oracle.factors(m) == factors_of(w, m)
    assert cert.letters == "".join(sorted(tau)) and cert.pairs == len(factors_of(w, 2))


def _l2_closure_by_factors(tau):
    """L_2 and its round count, closing the 2-letter factors of the tau(a)
    under ab -> the 2-letter factors of tau(a)tau(b)."""
    pairs = frozenset(x for w in tau.values() for x in factors_of(w, 2))
    frontier, rounds = pairs, 0
    while frontier:
        rounds += 1
        frontier = frozenset(x for ab in frontier
                             for x in factors_of(tau[ab[0]] + tau[ab[1]], 2)) - pairs
        pairs |= frontier
    return pairs, rounds


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.fixed_dictionaries(
    {LETTERS[a]: st.text(alphabet=LETTERS[:d], min_size=1, max_size=5) for a in range(d)})))
def test_kernel_l2_closure_matches_factor_closure(tau):
    assume(is_primitive(tau))
    # at n = 2 every tau^0(a) is one letter, so L_2 is the closure itself
    top, cert = substitutive_language(tau, 2)
    pairs, rounds = _l2_closure_by_factors(tau)
    assert (top, cert.pairs, cert.rounds) == (pairs, len(pairs), rounds)


def test_finite_word_sets_are_not_derived():
    # L_1 of a finite word need not be the prefixes of its L_2
    assert FactorOracle.from_prefix("0001", 2).factors(1) == {"0", "1"}


def test_named_oracle_certificate(fib, trib):
    assert (fib.certificate.letters, fib.certificate.pairs) == ("01", 3)
    assert (trib.certificate.letters, trib.certificate.pairs) == ("012", 5)
    for o, tau in ((fib, NAMED_SOURCES["fibonacci"]), (trib, NAMED_SOURCES["tribonacci"])):
        assert factors_of(_fixed_point(tau, 20_000), o.horizon) == o.factors(o.horizon)


def test_primitivity_needs_no_power_bound():
    # Wielandt's matrix on ten letters first becomes positive at the power
    # 82 = 9^2 + 1; without the chord it is a cycle and never does
    cycle = {LETTERS[a]: LETTERS[(a + 1) % 10] for a in range(10)}
    assert is_primitive(cycle | {"9": "01"})
    assert not is_primitive(cycle)
    assert len(set(eventual_support(cycle).values())) == 10
    assert not is_primitive({"0": "0"}) and is_primitive({"0": "00"})
    assert not is_primitive({"0": "01"})     # 1 is not one of its letters


def test_kernel_refuses_non_primitive():
    for tau in ({"0": "01", "1": "1"}, {"0": "0"}, {"0": "1", "1": "0"}, {"0": "02", "1": "1"}):
        with pytest.raises(NoStabilization):
            substitutive_language(tau, 5)


def _language_by_pairs(tau, n, lift=None):
    """Reference for substitutive_language: the same construction, with L_n
    the union of the factors of each whole concatenation mu tau^k(ab) over
    ab in L_2.  Returns (L_n, certificate) or the NoStabilization text."""
    letters = "".join(sorted(tau))
    if not is_primitive(tau):
        return f"substitution {tau} is not primitive on the letters {letters}"
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
    top = frozenset().union(*(factors_of(imgs[ab[0]] + imgs[ab[1]], n) for ab in pairs))
    return top, (letters, len(pairs), rounds, k)


def _language_by_blocks(tau, n, lift=None):
    try:
        top, cert = substitutive_language(tau, n, lift)
    except NoStabilization as exc:
        return str(exc)
    return top, (cert.letters, cert.pairs, cert.rounds, cert.k)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40, 150])
@pytest.mark.parametrize("name", sorted(NAMED_SOURCES))
def test_kernel_slices_blocks_and_junctions_as_the_pairs_do(name, n):
    tau = NAMED_SOURCES[name]
    assert _language_by_blocks(tau, n) == _language_by_pairs(tau, n)


@pytest.mark.parametrize("path", sorted(DIRECTIVES.glob("*.dw")), ids=lambda f: f.stem)
def test_kernel_of_a_directive_language_slices_as_the_pairs_do(path):
    # tau and the lift mu as language_horizon takes them
    dw = parse_directive(path.read_text())
    tau = _live_period(dw, used_letters(dw))
    mu = compose_all(dw.preperiod, dw.period[0].codomain).images
    lift = {a: mu[int(a)] for a in tau}
    got = _language_by_blocks(tau, 100, lift)
    assert got == _language_by_pairs(tau, 100, lift)
    if isinstance(got, str):
        with pytest.raises(NoStabilization):
            language_horizon(dw, 100)
    else:
        assert got[0] == language_horizon(dw, 100).factors(100)


@settings(max_examples=200, deadline=None)
@given(substitutions(), st.booleans(), st.integers(0, 60), st.data())
def test_kernel_slices_random_substitutions_as_the_pairs_do(tau, lifted, n, data):
    lift = data.draw(st.fixed_dictionaries(
        {a: st.text(alphabet=LETTERS[:3], min_size=1, max_size=3) for a in tau})) if lifted else None
    assert _language_by_blocks(tau, n, lift) == _language_by_pairs(tau, n, lift)


def lifted_substitutions():
    """A primitive substitution on two or three letters, and a non-erasing
    lift of it into three letters or None."""
    return substitutions(min_letters=2).filter(is_primitive).flatmap(lambda tau: st.tuples(
        st.just(tau), st.none() | st.fixed_dictionaries(
            {a: st.text(alphabet=LETTERS[:3], min_size=1, max_size=3) for a in tau})))


@settings(max_examples=200, deadline=None)
@given(lifted_substitutions(), st.integers(0, 40))
@example(({"0": "01", "1": "0"}, None), 0)
@example(({"0": "01", "1": "0"}, None), 1)
@example(({"0": "01", "1": "02", "2": "0"}, {"0": "1", "1": "20", "2": "0"}), 0)
@example(({"0": "01", "1": "02", "2": "0"}, {"0": "1", "1": "20", "2": "0"}), 1)
def test_kernel_reads_the_windows_the_block_sets_hold(drawn, n):
    # n = 0 reads only the empty window and n = 1 only the letters; the
    # junction windows add nothing there
    tau, lift = drawn
    assert substitutive_language(tau, n, lift) == language_by_block_sets(tau, n, lift)


def _profile_per_factor(oracle, N):
    """The complexity profile from one bilateral order per factor."""
    p = tuple(len(oracle.factors(n)) for n in range(N + 1))
    s = tuple(p[n + 1] - p[n] for n in range(N))
    for n in range(N):
        right, left, _ = oracle.specials(n)
        rs = sum(len(oracle.right_extensions(u)) - 1 for u in right)
        ls = sum(len(oracle.left_extensions(u)) - 1 for u in left)
        if not rs == ls == s[n]:
            raise IdentityViolation(f"first-difference identity fails at n={n}: s={s[n]} right={rs} left={ls}")
    for n in range(N - 1):
        total_m = sum(bilateral_order(oracle, u) for u in oracle.factors(n))
        if s[n + 1] - s[n] != total_m:
            raise IdentityViolation(f"second-difference identity fails at n={n}: "
                                    f"ds={s[n + 1] - s[n]} sum m={total_m}")
    return ComplexityProfile(p, s)


def _fixed_point(tau, length):
    w = "0"
    while len(w) < length:
        w = _apply(tau, w)
    return w


_FIXED_POINTS = [_fixed_point(tau, 200) for tau in NAMED_SOURCES.values()]


@st.composite
def prefix_oracles(draw):
    """The oracle of a random word, a repeated root or a piece of a named
    fixed point, and an N up to its horizon."""
    d = draw(st.integers(1, 3))
    text = st.text(alphabet=LETTERS[:d], min_size=1, max_size=40)
    word = draw(st.one_of(
        text,
        st.builds(lambda root, k: root * k, st.text(alphabet=LETTERS[:d], min_size=1, max_size=6),
                  st.integers(1, 12)),
        st.builds(lambda w, i, k: w[i:i + k], st.sampled_from(_FIXED_POINTS),
                  st.integers(0, 60), st.integers(1, 120))))
    horizon = draw(st.integers(0, min(len(word), 14)))
    return FactorOracle.from_prefix(word, horizon), draw(st.integers(0, horizon))


@st.composite
def derived_sets(draw):
    """(alphabet, top, horizon) with top words of length horizon alone: the
    kernel language of a random primitive substitution on two or three
    letters, whose shorter sets are exact, or the factors of one length of a
    random finite word, whose prefix sets are not right-extendable and so
    usually fail the closure test."""
    if draw(st.booleans()):
        tau = draw(substitutions(min_letters=2).filter(is_primitive))
        n = draw(st.integers(0, 12))
        return Alphabet(len(tau)), substitutive_language(tau, n)[0], n
    d = draw(st.integers(1, 3))
    word = draw(st.text(alphabet=LETTERS[:d], min_size=1, max_size=40))
    n = draw(st.integers(0, min(len(word), 14)))
    return Alphabet(d), factors_of(word, n), n


def _fresh(drawn):
    alphabet, top, horizon = drawn
    return FactorOracle(alphabet, top, horizon, "derived")


def _with_length(drawn):
    oracle = _fresh(drawn)
    return st.tuples(st.just(oracle), st.integers(0, oracle.horizon))


ORACLES = st.one_of(prefix_oracles(), derived_sets().flatmap(_with_length))


def _outcome(profile, oracle, N):
    try:
        return profile(oracle, N)
    except IdentityViolation as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(ORACLES)
# both first differences hold, and the second fails on a missing suffix
@example((FactorOracle(Alphabet(3), frozenset({"21"}), 2, "toy"), 2))
# L_1 is the suffix set of L_2 but not its prefix set, and the reverse
@example((FactorOracle.from_prefix("0001", 2), 2))
@example((_fresh((Alphabet(2), factors_of("1000", 2), 2)), 2))
def test_complexity_profile_matches_per_factor_sums(drawn):
    oracle, N = drawn
    assert _outcome(complexity_profile, oracle, N) == _outcome(_profile_per_factor, oracle, N)


def _counted_three_ways(make, N):
    """complexity_profile's outcome on a fresh oracle, after checking that
    _profile_per_factor gives the same on another, and that a third, whose
    every L_n is built, has the same counts, and is_aperiodic with them."""
    got = _outcome(complexity_profile, make(), N)
    assert _outcome(_profile_per_factor, make(), N) == got
    fresh = make()
    p = tuple(len(fresh.factors(n)) for n in range(N + 1))
    if isinstance(got, ComplexityProfile):
        assert got.p == p
    assert is_aperiodic(make(), N) == all(pn >= n + 1 for n, pn in enumerate(p))
    return got


@pytest.mark.parametrize("horizon", [0, 1, 2, 7, 40, 150])
@pytest.mark.parametrize("name", sorted(NAMED_SOURCES))
def test_profile_of_a_named_source_matches_the_counts(name, horizon):
    for N in sorted({0, horizon // 2, horizon}):
        got = _counted_three_ways(lambda: named_oracle(name, horizon), N)
        assert isinstance(got, ComplexityProfile)


@pytest.mark.parametrize("path", [f for f in sorted(DIRECTIVES.glob("*.dw"))
                                  if f.stem != "not_valid"], ids=lambda f: f.stem)
def test_profile_of_a_directive_language_matches_the_counts(path):
    dw = parse_directive(path.read_text())
    got = _counted_three_ways(lambda: language_horizon(dw, 100), 100)
    assert isinstance(got, ComplexityProfile)


def _top_differs(oracle):
    top = oracle.factors(oracle.horizon)
    return {w[:-1] for w in top} != {w[1:] for w in top}


@st.composite
def kernel_oracles(draw):
    """A maker of fresh oracles for the kernel language of a random
    primitive substitution on two or three letters, lifted or not, and an
    N up to its horizon."""
    tau = draw(substitutions(min_letters=2).filter(is_primitive))
    lift = draw(st.none() | st.fixed_dictionaries(
        {a: st.text(alphabet=LETTERS[:3], min_size=1, max_size=3) for a in tau}))
    n = draw(st.integers(0, 30))
    top = substitutive_language(tau, n, lift)[0]
    alphabet = Alphabet(len(tau) if lift is None else 3)
    return (lambda: FactorOracle(alphabet, top, n, "kernel")), draw(st.integers(0, n))


@settings(max_examples=200, deadline=None)
@given(kernel_oracles())
def test_profile_of_a_kernel_language_matches_the_counts(drawn):
    make, N = drawn
    # a language is bi-extendable, so its top set certifies the closure
    assert not _top_differs(make())
    assert isinstance(_counted_three_ways(make, N), ComplexityProfile)


# top sets of one length of finite words whose prefix and suffix sets
# differ: the per-length test then fails just below the top, passes below
# N < M, or fails further down
@pytest.mark.parametrize("word, m, N", [("1000", 2, 2), ("0001", 3, 1), ("0001", 3, 3),
                                        ("01101", 4, 4), ("0010", 3, 2)])
def test_profile_of_a_finite_top_set_falls_through(word, m, N):
    def make():
        return FactorOracle(Alphabet(2), factors_of(word, m), m, "finite top set")
    assert _top_differs(make())
    _counted_three_ways(make, N)


def test_profile_of_an_empty_top_set():
    def make():
        return FactorOracle(Alphabet(2), frozenset(), 3, "empty top set")
    for N in range(4):
        assert _counted_three_ways(make, N) == ComplexityProfile((0,) * (N + 1), (0,) * N)


def test_aperiodicity_fails_at_the_first_short_count():
    # (01)^inf has p = 1, 2, 2, ...: p(n) >= n + 1 first fails at n = 2, on
    # the suffixes of a prefix or on its factors of one length
    word = "01" * 10
    for oracle in (FactorOracle.from_prefix(word, 6),
                   FactorOracle(Alphabet(2), factors_of(word, 6), 6, "top set")):
        assert is_aperiodic(oracle, 1) and not is_aperiodic(oracle, 2)


def test_profile_of_a_language_builds_no_shorter_set():
    oracle = named_oracle("tribonacci", 40)
    assert complexity_profile(oracle, 40).p[-1] == 81 and is_aperiodic(oracle, 40)
    assert not oracle._factors


def _special_by_probe(oracle, u):
    """(right, left, bi) special, probing u + a and a + u in L_{|u|+1} for
    every letter a of the alphabet."""
    longer, letters = oracle.factors(len(u) + 1), oracle.alphabet.letters
    right = sum(u + a in longer for a in letters) >= 2
    left = sum(a + u in longer for a in letters) >= 2
    return right, left, right and left


def _specials_by_probe(oracle, n):
    kinds = {u: _special_by_probe(oracle, u) for u in oracle.factors(n)}
    return tuple(frozenset(u for u, k in kinds.items() if k[side]) for side in range(3))


def _raised_or(call):
    try:
        return call()
    except HorizonExceeded:
        return "HorizonExceeded"


@settings(max_examples=200, deadline=None)
@given(ORACLES)
def test_special_table_matches_probe(drawn):
    oracle, _ = drawn
    for n in range(oracle.horizon + 1):
        probe = _raised_or(lambda: _specials_by_probe(oracle, n))
        assert _raised_or(lambda: oracle.specials(n)) == probe
        if n == oracle.horizon:
            continue
        # every word that can have an extension in L_{n+1}, factor or not
        longer = oracle.factors(n + 1)
        for u in oracle.factors(n) | {w[:-1] for w in longer} | {w[1:] for w in longer}:
            assert (oracle.is_right_special(u), oracle.is_left_special(u),
                    oracle.is_bispecial(u)) == _special_by_probe(oracle, u)


def test_special_queries_at_the_horizon_raise(fib):
    u = sorted(fib.factors(fib.horizon))[0]
    for query in (fib.is_right_special, fib.is_left_special, fib.is_bispecial):
        with pytest.raises(HorizonExceeded):
            query(u)
    for query in (fib.specials, fib.special_tables):
        with pytest.raises(HorizonExceeded):
            query(fib.horizon)


def _one_letter_mutations(w, letters):
    return {w[:i] + a + w[i + 1:] for i in range(len(w)) for a in letters}


@settings(max_examples=150, deadline=None)
@given(derived_sets(), st.booleans(), st.data())
def test_derived_membership_matches_factor_sets(drawn, rising, data):
    # the reference reads every L_n; the oracle under test answers by a
    # prefix search in its top set, before and after it builds L_n
    oracle, reference = _fresh(drawn), _fresh(drawn)
    letters = oracle.alphabet.letters
    lengths = range(oracle.horizon + 1)
    for n in lengths if rising else reversed(lengths):
        factors = reference.factors(n)
        words = set(factors).union(*(_one_letter_mutations(w, letters) for w in factors))
        words |= set(data.draw(st.lists(st.text(alphabet=letters, min_size=n, max_size=n),
                                        max_size=5)))
        longer = reference.factors(n + 1) if n < oracle.horizon else None
        for w in sorted(words):
            assert oracle.contains(w) == (w in factors)
            if longer is not None:
                assert oracle.right_extensions(w) == {a for a in letters if w + a in longer}
                assert oracle.left_extensions(w) == {a for a in letters if a + w in longer}
        oracle.factors(n)
    with pytest.raises(HorizonExceeded):
        oracle.contains("0" * (oracle.horizon + 1))


# -- the special tables of every order from one pass, against per-order counts --


def _one_pass_matches_counting(make, N):
    """On a fresh oracle, special_tables(N) reads the tables of every order
    up to N off the top set, with no factor set built; each equals the
    per-order count of a single query on another fresh oracle and the
    probe's special factors, as sets.  A second call returns the same
    tables, not rebuilt ones."""
    oracle, reference = make(), make()
    tables = oracle.special_tables(N)
    assert set(oracle._specials) == set(range(N + 1))
    assert not oracle._factors
    assert all(a is b for a, b in zip(oracle.special_tables(N), tables, strict=True))
    for n in range(N + 1):
        assert oracle.specials(n) == reference.specials(n), n
        assert tables[n] == _specials_by_probe(reference, n), n


@pytest.mark.parametrize("name", sorted(NAMED_SOURCES))
def test_one_pass_special_tables_of_the_named_sources(name):
    _one_pass_matches_counting(lambda: named_oracle(name, 62), 60)


@pytest.mark.parametrize("path", [f for f in sorted(DIRECTIVES.glob("*.dw"))
                                  if f.stem != "not_valid"], ids=lambda f: f.stem)
def test_one_pass_special_tables_of_directive_languages(path):
    dw = parse_directive(path.read_text())
    _one_pass_matches_counting(lambda: language_horizon(dw, 62), 60)


@settings(max_examples=60, deadline=None)
@given(substitutions(min_letters=2).filter(is_primitive), st.integers(1, 30), st.data())
def test_one_pass_special_tables_of_kernel_languages(tau, horizon, data):
    top = substitutive_language(tau, horizon)[0]
    N = data.draw(st.integers(0, horizon - 1))
    _one_pass_matches_counting(lambda: FactorOracle(Alphabet(len(tau)), top, horizon, "kernel"), N)


@settings(max_examples=100, deadline=None)
@given(derived_sets(), st.data())
def test_one_pass_special_tables_of_finite_top_sets(drawn, data):
    # the top set of a finite word is neither factorial nor bi-extendable
    alphabet, top, horizon = drawn
    assume(horizon >= 1)
    N = data.draw(st.integers(0, horizon - 1))
    _one_pass_matches_counting(lambda: FactorOracle(alphabet, top, horizon, "derived"), N)


@settings(max_examples=150, deadline=None)
@given(prefix_oracles(), st.data())
def test_one_pass_special_tables_of_prefix_oracles(drawn, data):
    # the top words of a prefix are its suffixes cut to the horizon, so
    # they have every length up to it
    oracle, _ = drawn
    assume(oracle.horizon >= 1)
    N = data.draw(st.integers(0, oracle.horizon - 1))
    top = frozenset(oracle._top)
    _one_pass_matches_counting(
        lambda: FactorOracle(oracle.alphabet, top, oracle.horizon, "prefix"), N)


@settings(max_examples=150, deadline=None)
@given(ORACLES)
def test_continuation_is_a_factor_led_by_the_least_extension(drawn):
    oracle, _ = drawn
    for n in range(oracle.horizon):
        for u in oracle.factors(n):
            run = oracle.continuation(u)
            assert run[:1] == min(oracle.right_extensions(u), default="")
            assert oracle.contains(u + run)


def test_one_pass_special_tables_of_short_top_words_with_one_key():
    # 01 and 11 differ in their first letter and share the key 1, shorter
    # than the order 2: only the orders up to 1 see them
    _one_pass_matches_counting(
        lambda: FactorOracle(Alphabet(2), frozenset({"01", "11", "000"}), 3, "short tops"), 2)


def _pairwise_lcps(oracle):
    top = oracle._top
    return [common_prefix_len(u, v) for u, v in zip(top, top[1:])]


@st.composite
def drawn_top_sets(draw):
    """(top, horizon): words of mixed lengths up to the horizon over up to
    three digits."""
    letters = LETTERS[:draw(st.integers(1, 3))]
    horizon = draw(st.integers(0, 70))
    words = st.text(alphabet=letters, max_size=horizon)
    return frozenset(draw(st.lists(words, min_size=1, max_size=40))), horizon


@settings(max_examples=300, deadline=None)
@given(st.one_of(prefix_oracles().map(lambda drawn: (frozenset(drawn[0]._top), drawn[0].horizon)),
                 derived_sets().map(lambda drawn: drawn[1:]), drawn_top_sets()))
@example((frozenset({"0120"}), 4))
@example((frozenset({"", "0"}), 1))
def test_adjacent_lcps_equal_the_pairwise_bisection(drawn):
    # prefix oracles have short top words at the end of the prefix, derived
    # sets words of one length, drawn sets any lengths and letters
    top, horizon = drawn
    oracle = FactorOracle(Alphabet(3), top, horizon, "drawn")
    assert oracle._lcps == _pairwise_lcps(oracle)
    assert len(oracle._lcps) == len(top) - 1


@pytest.mark.parametrize("name", sorted(NAMED_SOURCES))
def test_adjacent_lcps_of_a_named_source_equal_the_pairwise_bisection(name):
    oracle = named_oracle(name, 60)
    assert oracle._lcps == _pairwise_lcps(oracle)
