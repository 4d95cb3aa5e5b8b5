import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st
from judges import (DERIVED_EXPANSION, compose_generators, left_proper, parse_generator_word,
                    permutation, restrict)

from rauzyadic.errors import (AlphabetMismatch, EmptyProduct, MalformedMorphism, NotInCatalog,
                              NotRightProper, RauzyadicError)
from rauzyadic.morphism import (
    D, E, G, GEN_E01, GEN_E12, GEN_G, GEN_M, M, Morphism,
    bracket, classify, compose, compose_all, decompose, derived, identity, left_conjugate,
    parse_rules,
)
from rauzyadic.words import LETTERS

PERMS3 = list(itertools.permutations(range(3)))


def perm_m(x, y, z):
    """The letter-to-letter morphism 0->x, 1->y, 2->z."""
    return permutation(f"{x}{y}{z}")


def br3(*images):
    return bracket(*images, codomain=3)


def test_apply_examples():
    assert GEN_G("01") == "101"
    assert GEN_M("012") == "011"
    assert identity(3)("0120") == "0120"


def test_compose_examples():
    m = compose(GEN_M, compose(D(2, 0), D(1, 2)))
    assert m == br3("0", "110", "10")
    assert compose(GEN_E01, GEN_E01) == identity(3)
    assert compose(GEN_E12, GEN_E12) == identity(3)
    e02 = compose_all([GEN_E01, GEN_E12, GEN_E01])
    assert compose_all([e02, D(0, 2), e02]) == D(2, 0) == br3("0", "1", "20")


def test_compose_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        compose(bracket("01", "1"), bracket("0", "1", "2"))


def test_classify():
    m = bracket("0", "10", "20")
    rec = classify(m)
    assert rec.right_proper and rec.ending == "0" and not left_proper(m)
    rec = classify(GEN_E01)
    assert all(len(w) == 1 for w in GEN_E01.images) and not rec.right_proper
    m = bracket("01", "1")
    rec = classify(m)
    assert rec.right_proper and rec.ending == "1" and not left_proper(m)


def test_left_conjugate():
    assert left_conjugate(bracket("0", "10", "20")) == bracket("0", "01", "02")
    assert left_conjugate(bracket("01", "1")) == bracket("10", "1")
    assert left_conjugate(bracket("0", "110", "10")) == bracket("0", "011", "01")
    with pytest.raises(NotRightProper):
        left_conjugate(GEN_E01)


def test_rule_string_round_trip():
    m = bracket("01", "0")
    assert parse_rules(m.rule_string()) == m
    assert parse_rules("0 -> 01; 1 -> 0") == m
    with pytest.raises(ValueError, match="two rules for letter 0"):
        parse_rules("0->0;0->10;1->1")


@pytest.mark.parametrize("call, error, text", [
    (lambda: parse_rules("01->0"), MalformedMorphism, "bad rule '01->0'"),
    (lambda: parse_rules("0->0;0->10;1->1"), MalformedMorphism, "two rules for letter 0"),
    (lambda: parse_rules("0->0;2->1"), MalformedMorphism,
     r"rules do not cover a dense alphabet: \[0, 2\]"),
    (lambda: compose_all([]), EmptyProduct, "empty product needs an alphabet size"),
    (lambda: derived("D33"), MalformedMorphism, "unknown factor name 'D33'"),
    (lambda: parse_generator_word("G D01"), MalformedMorphism, "unknown generator 'D01'"),
])
def test_morphism_refusals_are_typed(call, error, text):
    with pytest.raises(error, match=f"^{text}$") as info:
        call()
    # still a ValueError for callers that caught it as one
    assert isinstance(info.value, RauzyadicError) and isinstance(info.value, ValueError)


def test_derived_expansions_hold():
    # every derived-family identity of the decomposition table
    for name, word in DERIVED_EXPANSION.items():
        if name == "E02":
            assert compose_generators(word) == E(0, 2) == br3("2", "1", "0")
        else:
            assert compose_generators(word) == derived(name), name


def test_exchange_involutions():
    for x, y in [(0, 1), (1, 2), (0, 2)]:
        assert compose(E(x, y), E(x, y)) == identity(3)


@given(st.permutations(range(3)), st.permutations(range(3)), st.permutations(range(3)))
def test_compose_associative(p, q, r):
    a, b, c = perm_m(*p), perm_m(*q), perm_m(*r)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


# -- the decomposition formula catalog --------------------------------
#
# Each entry: (pattern builder, factor builder, parameter predicate).
# x, y, z is a permutation of 0, 1, 2; L is the digit function.


def L(*ints):
    return "".join(str(i) for i in ints)


def formula_instances(kmax=5):
    """All (morphism, factors) pairs of the ten proof formulas, k,l <= kmax."""
    out = []
    for x, y, z in PERMS3:
        X, Y, Z = str(x), str(y), str(z)
        perm = perm_m(x, y, z)
        for k in range(1, kmax + 1):
            if k >= 2:
                out.append((br3(X, Y * k + X, Y * (k - 1) + X),
                            [M(z, x)] + [G(z, y)] * (k - 1) + [D(y, z), perm]))
                out.append((br3(X, X + Y * k, X + Y * (k - 1)),
                            [M(z, x)] + [D(z, y)] * (k - 1) + [G(y, z), perm]))
            out.append((br3(X, Y * k + Z, Y * (k - 1) + Z),
                        [G(z, y)] * (k - 1) + [D(y, z), perm]))
            out.append((br3(X, Z + Y * k + X, Z + Y * (k - 1) + X),
                        [D(z, y)] * (k - 1) + [G(y, z), D(y, x), D(z, x), perm]))
            out.append((br3(Y * k + X, Z + Y * k + X, Z + Y * (k - 1) + X),
                        [G(x, y)] * (k - 1) + [D(y, x), G(x, z), D(z, y), perm_m(y, z, x)]))
            out.append((br3(X + Y * k, X + Z + Y * k, X + Z + Y * (k - 1)),
                        [G(z, x)] + [D(z, y)] * (k - 1) + [D(x, y)] * k + [G(y, z), perm]))
            for l in range(0, kmax + 1):
                if l < k:
                    out.append((br3(Y * l + X, Z + Y * k + X, Z + Y * (k - 1) + X),
                                [D(z, y)] * (k - l - 1) + [G(x, y)] * l
                                + [G(y, z), D(y, x), D(z, x), perm]))
                if l <= k:
                    out.append((br3(X + Y * l + Z, Y * k + Z, Y * (k - 1) + Z),
                                [D(x, y)] * l + [D(x, z)] + [G(z, y)] * (k - 1) + [D(y, z), perm]))
                    # first factor D(x,y)^l, not G(x,y)^l as misprinted in the source table
                    out.append((br3(Z + X + Y * l, Z + Y * k, Z + Y * (k - 1)),
                                [D(x, y)] * l + [G(x, z)] + [D(z, y)] * (k - 1) + [G(y, z), perm]))
    return out


def test_formula_identities():
    # the displayed decomposition formulas hold as morphism equalities
    inst = formula_instances()
    assert len(inst) > 450
    for m, factors in inst:
        assert compose_all(factors) == m, m


def test_section_4_formulas():
    # M G21^{k-2} D20 D12 and friends
    for k in range(2, 6):
        prod = compose_all([GEN_M] + [G(2, 1)] * (k - 2) + [D(2, 0), D(1, 2)])
        assert prod == br3("0", "1" * k + "0", "1" * (k - 1) + "0")
        prod = compose_all([GEN_E01, GEN_M] + [G(2, 1)] * (k - 2) + [D(2, 0), D(1, 2)])
        assert prod == br3("1", "0" * k + "1", "0" * (k - 1) + "1")
        prod = compose_all([GEN_M] + [G(2, 1)] * (k - 2) + [G(2, 0), G(1, 2)])
        assert prod == br3("0", "0" + "1" * k, "0" + "1" * (k - 1))


def test_decompose_examples():
    word = decompose(bracket("0", "110", "10"))
    assert compose_generators(word) == br3("0", "110", "10")
    assert decompose(identity(3)) == ()
    assert decompose(identity(2)) == ()
    # [x, y^k x, y^{k-1} x] for (x,y,k)=(1,0,3)
    m = br3("1", "0001", "001")
    assert compose_generators(decompose(m)) == m


def test_decompose_formula_instances():
    for m, _ in formula_instances(kmax=4):
        word = decompose(m)
        assert restrict(compose_generators(word), m.domain).images == m.images, m


def test_decompose_two_letter():
    for m in [bracket("0", "10"), bracket("01", "1"), bracket("10", "0"), bracket("1", "01"),
              bracket("120", "20"), bracket("20", "120"), bracket("0", "1100")]:
        word = decompose(m)
        comp = compose_generators(word)
        assert comp.images[:2] == m.images, m


def test_decompose_rejects_non_catalog():
    with pytest.raises(NotInCatalog):
        decompose(bracket("00", "11", "22"))


def test_decompose_products_of_derived():
    # a membership judge that needs no search: every product of at most
    # three of the 21 derived factors (D, G and M of each ordered letter
    # pair, and the three exchanges) is in the monoid, so decompose accepts
    # it, and its word composes back to it
    names = sorted(DERIVED_EXPANSION)
    products = {compose_all([derived(n) for n in factors])
                for r in range(1, 4) for factors in itertools.product(names, repeat=r)}
    products.discard(identity(3))
    assert len(names) == 21 and len(products) == 2636
    for m in products:
        assert compose_generators(decompose(m)) == m, m


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(sorted(DERIVED_EXPANSION)), min_size=1, max_size=6),
       st.sampled_from((2, 3)))
def test_decompose_accepts_products_of_derived_factors(names, domain):
    # a product of derived factors is a member by construction, so it needs
    # no reference search: decompose accepts it, and the word composes back
    m = restrict(compose_all([derived(n) for n in names]), domain)
    assert restrict(compose_generators(decompose(m)), domain).images == m.images


_M_NAMES = sorted(n for n in DERIVED_EXPANSION if n.startswith("M"))
_NON_M_NAMES = sorted(set(DERIVED_EXPANSION) - set(_M_NAMES))


@st.composite
def _products_with_m(draw, max_size=8, max_m=2):
    """Derived names of a product with up to max_m M factors."""
    names = draw(st.lists(st.sampled_from(_NON_M_NAMES), max_size=max_size))
    for _ in range(draw(st.integers(0 if names else 1, max_m))):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(_M_NAMES)))
    return names


@settings(max_examples=300, deadline=None)
@given(_products_with_m(), st.sampled_from((2, 3)))
def test_decompose_random_products(names, domain):
    # decompose then compose_generators is the identity on products of D, G,
    # E and up to two M factors, restricted to 2 or 3 letters
    m = restrict(compose_all([compose_generators(DERIVED_EXPANSION[n]) for n in names]), domain)
    assert restrict(compose_generators(decompose(m)), domain) == m


def test_decompose_product_with_many_letters_of_one_kind():
    # M02 D20 D02 D21 G12 G10 D10: thirteen 2s in the images, which a search
    # over subsets of the 2 positions does not reach
    names = ["M02", "D20", "D02", "D21", "G12", "G10", "D10"]
    m = bracket("222", "2222211222", "221")
    assert compose_all([derived(n) for n in names]) == m
    assert compose_generators(decompose(m)) == m


def test_decompose_peels_past_the_recursion_limit():
    # 1500 peels D10, one per 0 of the second image: a search that recurses
    # once per peel ends in RecursionError
    long = "1" + "0" * 1500
    word = decompose(bracket("0", long))
    assert word.count("D") == 1500
    assert restrict(compose_generators(word), 2).images == ("0", long)


@pytest.mark.parametrize("images, codomain, sizes", [
    (("0",), 1, "domain 1 and codomain 1"),
    (("0", "1", "2", "3"), 4, "domain 4 and codomain 4"),
    (("0", "13"), 4, "domain 2 and codomain 4"),
])
def test_decompose_refusal_names_the_alphabet_that_fails(images, codomain, sizes):
    m = Morphism(images, codomain)
    text = (f"{m}: decomposition needs a domain of 2 or 3 letters and a codomain of at most 3, "
            f"got {sizes}")
    with pytest.raises(NotInCatalog, match=f"^{re.escape(text)}$"):
        decompose(m)
    with pytest.raises(NotInCatalog, match=f"^{re.escape(text)}$"):
        _ref_decompose(m)


def test_left_conjugate_preserves_factor_sets():
    from rauzyadic.words import factors_of
    m = bracket("0", "110", "10", codomain=3)
    lc = left_conjugate(m)
    w = "0102101102"
    for n in range(1, 6):
        # images differ by a one-letter shift, so interior factors agree
        a, b = m(w), lc(w)
        assert factors_of(a[1:-1], n) == factors_of(b[1:-1], n)


# -- translate-based application against a per-letter reference ------------

# non-digits, and an Arabic-Indic three: int() reads it as 3, but it is not
# an ASCII digit, so it is refused like the others
OTHER = "a -٣"


def _ref_check(images, codomain):
    letters = LETTERS[:max(codomain, 0)]
    for w in images:
        for c in w:
            if c not in letters:
                raise AlphabetMismatch(f"image letter {c} outside codomain {codomain}")
    return images


def _ref_apply(images, w):
    out = []
    for c in w:
        if c not in LETTERS[:len(images)]:
            raise AlphabetMismatch(f"letter {c} outside domain {len(images)}")
        out.append(images[int(c)])
    return "".join(out)


def _ref_compose(sigma, tau):
    if tau.codomain != sigma.domain:
        raise AlphabetMismatch(f"cannot compose: inner codomain {tau.codomain} "
                               f"!= outer domain {sigma.domain}")
    return _ref_check(tuple(_ref_apply(sigma.images, w) for w in tau.images), sigma.codomain)


def _outcome(fn, *args):
    """("ok", value), or the exception's type and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc), str(exc)


def _words(n):
    """Words over the first n digits, or over any digit and other letters."""
    return (st.text(st.sampled_from(LETTERS[:n]), max_size=5)
            | st.text(st.sampled_from(LETTERS + OTHER), max_size=5))


@st.composite
def _morphisms(draw, codomain=None):
    """Valid morphisms on 1 to 10 letters."""
    codomain = codomain or draw(st.integers(1, 10))
    images = draw(st.lists(st.text(st.sampled_from(LETTERS[:codomain]), min_size=1, max_size=4),
                           min_size=1, max_size=10))
    return Morphism(tuple(images), codomain)


@given(st.integers(-1, 11), st.data())
def test_construction_agrees_with_per_letter_reference(codomain, data):
    images = tuple(data.draw(st.lists(_words(max(codomain, 1)), max_size=10)))
    assert _outcome(lambda: Morphism(images, codomain).images) == \
        _outcome(_ref_check, images, codomain)


@given(_morphisms(), st.data())
def test_apply_agrees_with_per_letter_reference(m, data):
    w = data.draw(_words(m.domain))
    assert _outcome(m, w) == _outcome(_ref_apply, m.images, w)


@given(_morphisms(), st.data())
def test_compose_agrees_with_per_letter_reference(sigma, data):
    tau = data.draw(_morphisms(codomain=sigma.domain) | _morphisms())
    assert _outcome(lambda: compose(sigma, tau).images) == _outcome(_ref_compose, sigma, tau)


# -- right peels against a left, per-character peel search ----------------
#
# The reference is the left peel search that decompose replaced: it peels
# D and G when every x is followed (preceded) by y, and M by trying subsets
# of the y positions, with a cap.  It is incomplete, so the test below
# checks membership one way; products of derived factors, which are members
# by construction, are judged without it above.


def _ref_peel_D(images, x, y):
    cx, cy = LETTERS[x], LETTERS[y]
    out, changed = {}, False
    for a, w in images.items():
        t, i = [], 0
        while i < len(w):
            t.append(w[i])
            if w[i] == cx:
                if i + 1 >= len(w) or w[i + 1] != cy:
                    return None
                i += 2
                changed = True
            else:
                i += 1
        out[a] = "".join(t)
    return out if changed else None


def _ref_peel_G(images, x, y):
    cx, cy = LETTERS[x], LETTERS[y]
    out, changed = {}, False
    for a, w in images.items():
        t = []
        for c in w:
            if c == cx:
                if not t or t[-1] != cy:
                    return None
                t.pop()
                changed = True
            t.append(c)
        out[a] = "".join(t)
    return out if changed else None


def _ref_m_candidates(images, x, y, cap=4096):
    cy = LETTERS[y]
    positions = {a: [i for i, c in enumerate(w) if c == cy] for a, w in images.items()}
    if 2 ** sum(map(len, positions.values())) > cap:
        return
    keys = sorted(images)
    choices = [list(itertools.chain.from_iterable(
        itertools.combinations(positions[a], r) for r in range(len(positions[a]) + 1)))
        for a in keys]
    for combo in itertools.product(*choices):
        if not any(combo):
            continue
        out = {}
        for a, chosen in zip(keys, combo):
            w = list(images[a])
            for i in chosen:
                w[i] = LETTERS[x]
            out[a] = "".join(w)
        yield out


_REF_PERMS = {"012": (), "102": ("E01",), "021": ("E12",), "210": ("E01", "E12", "E01"),
              "120": ("E01", "E12"), "201": ("E12", "E01")}


def _ref_finish_permutation(images):
    if any(len(w) != 1 for w in images.values()) or len(set(images.values())) != len(images):
        return None
    perm = dict(images)
    missing = [a for a in range(3) if a not in perm]
    free = [c for c in "012" if c not in perm.values()]
    perm.update(zip(missing, free))
    return _REF_PERMS["".join(perm[a] for a in range(3))]


def _ref_peel_search(images, m_budget, seen):
    done = _ref_finish_permutation(images)
    if done is not None:
        return list(done)
    key = tuple(sorted(images.items()))
    if key in seen:
        return None
    seen.add(key)
    for x, y in itertools.permutations(range(3), 2):
        for kind, peel in (("D", _ref_peel_D), ("G", _ref_peel_G)):
            nxt = peel(images, x, y)
            rest = nxt and _ref_peel_search(nxt, m_budget, seen)
            if rest is not None:
                return [f"{kind}{x}{y}"] + rest
    if m_budget > 0:
        present = set("".join(images.values()))
        for x, y in itertools.permutations(range(3), 2):
            if LETTERS[x] in present:
                continue
            for cand in _ref_m_candidates(images, x, y):
                rest = _ref_peel_search(cand, m_budget - 1, seen)
                if rest is not None:
                    return [f"M{x}{y}"] + rest
    return None


def _ref_decompose(m):
    """decompose with per-image dicts, per-character peels and a
    verification by composing the generator word."""
    if m.domain not in (2, 3) or m.codomain > 3:
        raise NotInCatalog(f"{m}: decomposition needs a domain of 2 or 3 letters and a "
                           f"codomain of at most 3, got domain {m.domain} and codomain "
                           f"{m.codomain}")
    if m.erasing:
        raise NotInCatalog(f"{m} is erasing")
    factors = _ref_peel_search(dict(enumerate(m.images)), 2, set())
    if factors is None:
        raise NotInCatalog(f"no decomposition found for {m}")
    word = tuple(g for name in factors for g in DERIVED_EXPANSION.get(name) or (name,))
    if restrict(compose_generators(word), m.domain).images != m.images:
        raise NotInCatalog(f"internal error: decomposition of {m} failed verification")
    return word


def _images(n, size):
    return st.lists(st.text(st.sampled_from(LETTERS[:n]), min_size=1, max_size=size),
                    min_size=2, max_size=3)


@settings(max_examples=300, deadline=None)
@given(_images(3, 5) | _images(2, 6))
def test_decompose_agrees_with_per_character_peeling(images):
    # arbitrary images, most of them no member: decompose accepts wherever
    # the reference does, each accepted word composes back, and a refusal is
    # also the reference's, with the same text
    m = br3(*images)
    got = _outcome(decompose, m)
    if got[0] == "ok":
        assert restrict(compose_generators(got[1]), m.domain).images == m.images
    else:
        assert got == _outcome(_ref_decompose, m)
