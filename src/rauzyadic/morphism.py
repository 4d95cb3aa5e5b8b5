"""Free-monoid morphisms and the five-morphism generator set.

A morphism is stored by its letter images over digit alphabets.  The
generator set is

    G : 0->10          D : 0->01          M : 2->1
    E01: swap 0,1      E12: swap 1,2

on the three-letter alphabet, together with the derived one-parameter
families D(x,y): x->xy, G(x,y): x->yx, M(x,y): x->y and the exchanges
E(x,y), each of which expands into a fixed word over the generators.
``decompose`` inverts products of these factors by peeling them off the
left, with backtracking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (AlphabetMismatch, EmptyProduct, MalformedMorphism, NotInCatalog,
                     NotRightProper)
from .words import LETTERS, Word

_ORDS = tuple(map(ord, LETTERS))


@dataclass(frozen=True)
class Morphism:
    """images[i] is the image of letter i; codomain is an alphabet size."""

    images: tuple[Word, ...]
    codomain: int

    def __post_init__(self):
        letters = LETTERS[:max(self.codomain, 0)]
        plain = True
        for w in self.images:
            # the letter test runs per letter only when some letter is not a
            # digit of the codomain; it raises on the first that is out of range
            if w.lstrip(letters):
                plain = False
                for c in w:
                    if int(c) >= self.codomain:
                        raise AlphabetMismatch(f"image letter {c} outside codomain {self.codomain}")
        # the str.translate table of the images, built at once: nearly every
        # morphism built is applied, and before Python 3.12 a cached_property
        # takes a lock on each first read.  _plain records that every image
        # letter is an ASCII digit of the codomain, which lets compose skip
        # the letter test of its product
        object.__setattr__(self, "_table", dict(zip(_ORDS, self.images)))
        object.__setattr__(self, "_plain", plain)

    @property
    def domain(self) -> int:
        return len(self.images)

    @property
    def erasing(self) -> bool:
        return any(w == "" for w in self.images)

    def image(self, letter: str) -> Word:
        i = int(letter)
        if i >= self.domain:
            raise AlphabetMismatch(f"letter {letter} outside domain {self.domain}")
        return self.images[i]

    def __call__(self, w: Word) -> Word:
        if w.lstrip(LETTERS[:len(self.images)]):
            # some letter is not a digit of the domain: apply letter by
            # letter, which raises on the first out-of-range letter
            return "".join(self.image(c) for c in w)
        return w.translate(self._table)

    def __repr__(self):
        return f"[{','.join(w if w else 'eps' for w in self.images)}]"

    # -- structure ---------------------------------------------------

    def is_identity(self) -> bool:
        return all(w == LETTERS[i] for i, w in enumerate(self.images))

    def rule_string(self) -> str:
        return ";".join(f"{LETTERS[i]}->{w}" for i, w in enumerate(self.images))

    def bracket(self) -> str:
        return f"[{','.join(self.images)}]"


def bracket(*images: Word, codomain: int | None = None) -> Morphism:
    """[u,v] / [u,v,w] constructor; codomain inferred from the letters used."""
    if codomain is None:
        codomain = max((int(c) for w in images for c in w), default=-1) + 1
        codomain = max(codomain, 1)
    return Morphism(tuple(images), codomain)


def identity(n: int) -> Morphism:
    return Morphism(tuple(LETTERS[:n]), n)


def parse_rules(text: str) -> Morphism:
    """Parse the text form "0->01;1->0" (whitespace ignored)."""
    rules = {}
    for part in text.replace(" ", "").replace("\t", "").split(";"):
        if not part:
            continue
        lhs, _, rhs = part.partition("->")
        if len(lhs) != 1 or lhs not in LETTERS:
            raise MalformedMorphism(f"bad rule {part!r}")
        if int(lhs) in rules:
            raise MalformedMorphism(f"two rules for letter {lhs}")
        rules[int(lhs)] = rhs
    if sorted(rules) != list(range(len(rules))):
        raise MalformedMorphism(f"rules do not cover a dense alphabet: {sorted(rules)}")
    return bracket(*[rules[i] for i in range(len(rules))])


def compose(sigma: Morphism, tau: Morphism) -> Morphism:
    """compose(s, t)(a) = s(t(a)); in products the leftmost factor applies last.

    When the images of both factors are ASCII digits of their codomains,
    tau's letters are digits of sigma's domain, so the product is tau's
    images translated by sigma's table, its letters are digits of sigma's
    codomain, and it is built without the letter test.  A factor with any
    other letter, such as a non-ASCII digit, takes the checked path."""
    if tau.codomain != sigma.domain:
        raise AlphabetMismatch(f"cannot compose: inner codomain {tau.codomain} != outer domain {sigma.domain}")
    if not (sigma._plain and tau._plain):
        return Morphism(tuple(sigma(w) for w in tau.images), sigma.codomain)
    table = sigma._table
    images = tuple(w.translate(table) for w in tau.images)
    product = object.__new__(Morphism)
    product.__dict__.update(images=images, codomain=sigma.codomain,
                            _table=dict(zip(_ORDS, images)), _plain=True)
    return product


def compose_all(ms, n: int | None = None) -> Morphism:
    """Product m0 m1 ... mk, the rightmost applied first; n sizes the empty product."""
    ms = list(ms)
    if not ms:
        if n is None:
            raise EmptyProduct("empty product needs an alphabet size")
        return identity(n)
    out = ms[0]
    for m in ms[1:]:
        out = compose(out, m)
    return out


# -- properness -----------------------------------------------------


@dataclass(frozen=True)
class ProperRecord:
    right_proper: bool
    ending: str | None


def classify(m: Morphism) -> ProperRecord:
    """Right properness: every image is non-empty and they all end with one
    letter, the ending."""
    lasts = {w[-1] for w in m.images if w}
    right = len(lasts) == 1 and not m.erasing
    return ProperRecord(right, lasts.pop() if right else None)


def left_conjugate(m: Morphism) -> Morphism:
    """Move the common final letter of a right proper morphism to the front."""
    rec = classify(m)
    if not rec.right_proper:
        raise NotRightProper(f"{m} is not right proper")
    r = rec.ending
    return Morphism(tuple(r + w[:-1] for w in m.images), m.codomain)


# -- generator set and derived families ------------------------------

GEN_G = Morphism(("10", "1", "2"), 3)
GEN_D = Morphism(("01", "1", "2"), 3)
GEN_M = Morphism(("0", "1", "1"), 3)
GEN_E01 = Morphism(("1", "0", "2"), 3)
GEN_E12 = Morphism(("0", "2", "1"), 3)

GENERATORS = {"G": GEN_G, "D": GEN_D, "M": GEN_M, "E01": GEN_E01, "E12": GEN_E12}


def D(x: int, y: int) -> Morphism:
    """x -> xy, other letters fixed (three-letter alphabet)."""
    imgs = list(LETTERS[:3])
    imgs[x] = LETTERS[x] + LETTERS[y]
    return Morphism(tuple(imgs), 3)


def G(x: int, y: int) -> Morphism:
    """x -> yx, other letters fixed."""
    imgs = list(LETTERS[:3])
    imgs[x] = LETTERS[y] + LETTERS[x]
    return Morphism(tuple(imgs), 3)


def M(x: int, y: int) -> Morphism:
    """x -> y, other letters fixed."""
    imgs = list(LETTERS[:3])
    imgs[x] = LETTERS[y]
    return Morphism(tuple(imgs), 3)


def E(x: int, y: int) -> Morphism:
    """Exchange of the letters x and y."""
    imgs = list(LETTERS[:3])
    imgs[x], imgs[y] = imgs[y], imgs[x]
    return Morphism(tuple(imgs), 3)


_FAMILIES = {"D": D, "G": G, "M": M, "E": E}

GeneratorWord = tuple[str, ...]


def _build_derived_expansions() -> dict[str, GeneratorWord]:
    """Expansion of each derived morphism into the five generators.

    These are the identities of the decomposition table: each row below is
    literally how the derived family is obtained from G, D, M, E01, E12.
    """
    e01, e12 = ("E01",), ("E12",)
    e02 = e01 + e12 + e01                      # E(0,2) = E01 E12 E01
    exp: dict[str, GeneratorWord] = {
        "E01": e01, "E12": e12, "E02": e02,
        "D01": ("D",), "G01": ("G",),
        "D02": e12 + ("D",) + e12, "G02": e12 + ("G",) + e12,
        "D10": e01 + ("D",) + e01, "G10": e01 + ("G",) + e01,
    }
    exp["D12"] = e01 + exp["D02"] + e01
    exp["G12"] = e01 + exp["G02"] + e01
    exp["D20"] = e02 + exp["D02"] + e02
    exp["G20"] = e02 + exp["G02"] + e02
    exp["D21"] = e12 + exp["D12"] + e12
    exp["G21"] = e12 + exp["G12"] + e12
    exp["M21"] = ("M",)
    exp["M01"] = e02 + ("M",) + e02
    exp["M10"] = e01 + exp["M01"]
    exp["M02"] = e01 + e12 + ("M",) + e01
    exp["M20"] = e02 + exp["M02"]
    exp["M12"] = e12 + ("M",)
    return exp


DERIVED_EXPANSION = _build_derived_expansions()


def derived(name: str) -> Morphism:
    """Morphism of a derived-family name such as "D12", "E02" or "G"."""
    if name in GENERATORS:
        return GENERATORS[name]
    if len(name) != 3 or name[0] not in _FAMILIES or name[1] not in "012" or name[2] not in "012":
        raise MalformedMorphism(f"unknown factor name {name!r}")
    return _FAMILIES[name[0]](int(name[1]), int(name[2]))


def generator_word_string(word: GeneratorWord) -> str:
    return " ".join(word)


# -- decomposition by peeling ----------------------------------------
#
# The search works on one string: the images joined by commas, so that a
# factor's condition and its removal are one count and one replace over
# all images at once.  The commas keep an image's ends apart from its
# neighbours'.

# A permutation of {0,1,2} written as its image string, with a fixed
# expansion into exchanges.
_PERM_EXPANSION = {
    "012": (),
    "102": ("E01",),
    "021": ("E12",),
    "210": ("E01", "E12", "E01"),
    "120": ("E01", "E12"),
    "201": ("E12", "E01"),
}


def _peel_D(w: str, x: int, y: int) -> str | None:
    """If sigma = D(x,y) . tau, return tau's images, else None: every x of
    sigma is followed by y, and tau drops those y."""
    cx = LETTERS[x]
    xy = cx + LETTERS[y]
    n = w.count(cx)
    return w.replace(xy, cx) if n and n == w.count(xy) else None


def _peel_G(w: str, x: int, y: int) -> str | None:
    """If sigma = G(x,y) . tau, return tau's images, else None: every x of
    sigma is preceded by y, and tau drops those y."""
    cx = LETTERS[x]
    yx = LETTERS[y] + cx
    n = w.count(cx)
    return w.replace(yx, cx) if n and n == w.count(yx) else None


def _m_candidates(w: str, x: int, y: int, cap: int = 4096):
    """Reconstructions tau with sigma = M(x,y) . tau: rewrite some
    occurrences of y back to x, at least one in total.  Each image takes
    its subsets of y positions by size, then lexicographically, and the
    images vary in itertools.product order."""
    cy = LETTERS[y]
    if 2 ** w.count(cy) > cap:
        return
    choices, start = [], 0
    for part in w.split(","):
        pos = [start + i for i, c in enumerate(part) if c == cy]
        choices.append(list(itertools.chain.from_iterable(
            itertools.combinations(pos, r) for r in range(len(pos) + 1))))
        start += len(part) + 1
    cx, chars = LETTERS[x], list(w)
    for combo in itertools.product(*choices):
        if not any(combo):
            continue
        t = chars.copy()
        for chosen in combo:
            for i in chosen:
                t[i] = cx
        yield "".join(t)


_PAIRS = [(x, y) for x in range(3) for y in range(3) if x != y]


def _finish_permutation(w: str) -> GeneratorWord | None:
    """Complete a (possibly partial) letter-to-letter injective map to a
    permutation of {0,1,2} and return its expansion."""
    parts = w.split(",")
    if any(len(p) != 1 for p in parts) or len(set(parts)) != len(parts):
        return None
    # the missing letters of the domain are the last ones, in order
    free = "".join(c for c in "012" if c not in parts)
    return _PERM_EXPANSION["".join(parts) + free]


def _peel_search(w: str, m_budget: int, seen: set) -> list[str] | None:
    """DFS for a factorization of the comma-joined images w; returns a
    list of derived names, or None."""
    done = _finish_permutation(w)
    if done is not None:
        return list(done)
    if w in seen:
        return None
    seen.add(w)
    for x, y in _PAIRS:
        for kind, peel in (("D", _peel_D), ("G", _peel_G)):
            nxt = peel(w, x, y)
            if nxt is not None:
                rest = _peel_search(nxt, m_budget, seen)
                if rest is not None:
                    return [f"{kind}{x}{y}"] + rest
    if m_budget > 0:
        for x in range(3):
            if LETTERS[x] in w:
                continue
            for y in range(3):
                if y == x:
                    continue
                for cand in _m_candidates(w, x, y):
                    rest = _peel_search(cand, m_budget - 1, seen)
                    if rest is not None:
                        return [f"M{x}{y}"] + rest
    return None


def decompose(m: Morphism) -> GeneratorWord:
    """Write m as a word over {G, D, M, E01, E12} (leftmost applied last).

    For a two-letter-domain morphism the returned word composes to a
    three-letter morphism whose restriction to {0,1} is m.  Raises
    NotInCatalog when the peeling search fails: only products of the
    derived families are claimed to be decomposable.  The word is checked
    by applying its generators, the rightmost first, to the images of the
    identity.
    """
    if m.domain not in (2, 3) or m.codomain > 3:
        raise NotInCatalog(f"{m}: decomposition is defined over alphabets of size <= 3")
    if m.erasing:
        raise NotInCatalog(f"{m} is erasing")
    factors = _peel_search(",".join(m.images), m_budget=2, seen=set())
    if factors is None:
        raise NotInCatalog(f"no decomposition found for {m}")
    word: tuple[str, ...] = ()
    for name in factors:
        word += DERIVED_EXPANSION.get(name) or (name,)
    check = "0,1,2"
    for name in reversed(word):
        check = check.translate(GENERATORS[name]._table)
    if tuple(check.split(",")[:m.domain]) != m.images:
        raise NotInCatalog(f"internal error: decomposition of {m} failed verification")
    return word
