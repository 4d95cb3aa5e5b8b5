"""Free-monoid morphisms and the five-morphism generator set.

A morphism is stored by its letter images over digit alphabets.  The
generator set is

    G : 0->10          D : 0->01          M : 2->1
    E01: swap 0,1      E12: swap 1,2

on the three-letter alphabet, together with the derived one-parameter
families D(x,y): x->xy, G(x,y): x->yx, M(x,y): x->y and the exchanges
E(x,y), each of which expands into a fixed word over the generators.
``decompose`` decides membership in the monoid these generate: it peels
factors off the right, each peel one suffix, prefix or equality test of
two images, and backtracks over the peels that apply.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

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
        # a letter is an ASCII digit below the codomain: lstrip stops at the
        # first letter that is not
        if rest := "".join(self.images).lstrip(letters):
            raise AlphabetMismatch(f"image letter {rest[0]} outside codomain {self.codomain}")
        # the str.translate table of the images, built at once: nearly every
        # morphism built is applied, and before Python 3.12 a cached_property
        # takes a lock on each first read
        object.__setattr__(self, "_table", dict(zip(_ORDS, self.images)))

    @property
    def domain(self) -> int:
        return len(self.images)

    @property
    def erasing(self) -> bool:
        return "" in self.images

    def __call__(self, w: Word) -> Word:
        if rest := w.lstrip(LETTERS[:len(self.images)]):
            raise AlphabetMismatch(f"letter {rest[0]} outside domain {self.domain}")
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
    """[u,v] / [u,v,w] constructor; codomain inferred from the letters used,
    which must then be ASCII digits."""
    if codomain is None:
        letters = "".join(images)
        if rest := letters.lstrip(LETTERS):
            raise MalformedMorphism(f"letter {rest[0]!r} is not a digit 0-9")
        codomain = int(max(letters, default="0")) + 1
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

    tau's image letters are digits of its codomain, which is sigma's domain,
    so the product is tau's images translated by sigma's table; its letters
    are digits of sigma's codomain, and it is built without the letter test."""
    if tau.codomain != sigma.domain:
        raise AlphabetMismatch(f"cannot compose: inner codomain {tau.codomain} != outer domain {sigma.domain}")
    table = sigma._table
    images = tuple(w.translate(table) for w in tau.images)
    product = object.__new__(Morphism)
    product.__dict__.update(images=images, codomain=sigma.codomain, _table=dict(zip(_ORDS, images)))
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


class ProperRecord(NamedTuple):
    right_proper: bool
    ending: str | None


def classify(m: Morphism) -> ProperRecord:
    """Right properness: every image is non-empty and they all end with one
    letter, the ending."""
    lasts = {w[-1] for w in m.images if w}
    right = len(lasts) == 1 and not m.erasing
    return ProperRecord(right, lasts.pop() if right else None)


def first_right_proper(ms) -> tuple[int, Morphism] | None:
    """The first right proper running product m0 m1 ... mj of the
    morphisms ms, with its number of factors j + 1; None if there is none."""
    for j, product in enumerate(itertools.accumulate(ms, compose), 1):
        if classify(product).right_proper:
            return j, product
    return None


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


def derived(name: str) -> Morphism:
    """Morphism of a derived-family name such as "D12", "E02" or "G"."""
    if name in GENERATORS:
        return GENERATORS[name]
    if len(name) != 3 or name[0] not in _FAMILIES or name[1] not in "012" or name[2] not in "012":
        raise MalformedMorphism(f"unknown factor name {name!r}")
    return _FAMILIES[name[0]](int(name[1]), int(name[2]))


def generator_word_string(word: GeneratorWord) -> str:
    return " ".join(word)


# -- decomposition by right peels ------------------------------------
#
# The search works on partial morphisms: a tuple of the three letter
# images, where "" marks a free letter, whose image is not yet fixed.  A
# peel is named like its derived family, "D10" for D(1,0).

# A permutation of {0,1,2} written as its image string, with a shortest
# expansion into exchanges.
_PERM_EXPANSION = {
    "012": (),
    "102": ("E01",),
    "021": ("E12",),
    "210": ("E01", "E12", "E01"),
    "120": ("E01", "E12"),
    "201": ("E12", "E01"),
}

_PAIRS = [(x, y) for x in range(3) for y in range(3) if x != y]
_FIXED_PEELS = [(x, y, f"D{x}{y}", f"G{x}{y}") for x, y in _PAIRS]
# s(x) = s(y) is symmetric, and one M peel per pair of letters is enough
_M_PEELS = ((1, 0, "M10"), (2, 0, "M20"), (2, 1, "M21"))


def _steps() -> dict[tuple[str, str], tuple[GeneratorWord, str]]:
    """(p, peel) -> (word, q) for a permutation p and a peel kind(x,y).

    kind(x,y) = c . g . c^-1 for the generator g = D = D(0,1), G = G(0,1)
    or M = M(2,1) and the permutation c with c(0) = x, c(1) = y (D, G) or
    c(2) = x, c(1) = y (M).  So p . kind(x,y) is the word of exchanges of
    p c, then g, and it leaves q = c^-1 to the right of g."""
    steps = {}
    for kind in "DGM":
        for x, y in _PAIRS:
            z = 3 - x - y
            c = f"{z}{y}{x}" if kind == "M" else f"{x}{y}{z}"
            inverse = "".join(str(c.index(a)) for a in LETTERS[:3])
            for p in _PERM_EXPANSION:
                pc = "".join(p[int(a)] for a in c)
                steps[p, f"{kind}{x}{y}"] = (_PERM_EXPANSION[pc] + (kind,), inverse)
    return steps


_STEPS = _steps()


def _with(s: tuple[Word, ...], x: int, wx: Word, f: int | None = None,
          wf: Word = "") -> tuple[Word, ...]:
    """s with the image of x set to wx, and that of f to wf."""
    t = list(s)
    t[x] = wx
    if f is not None:
        t[f] = wf
    return tuple(t)


def _peels(s: tuple[Word, ...]):
    """The peels of the partial morphism s, as (name, tau) in the order the
    search tries them.  An M peel is tried alone, since s and its tau are
    in the monoid together.  Otherwise the D and G peels of two fixed
    letters come first, then those that fix a free letter."""
    for x, y, name in _M_PEELS:
        if s[x] and s[x] == s[y]:
            yield name, _with(s, x, "")
            return
    for x, y, d, g in _FIXED_PEELS:
        a, b = s[x], s[y]
        if b and len(a) > len(b):
            if a.endswith(b):
                yield d, _with(s, x, a[:-len(b)])
            if a.startswith(b):
                yield g, _with(s, x, a[len(b):])
    if "" in s:
        # two free letters are exchangeable, so only the first one is fixed
        f = s.index("")
        for u in range(3):
            a = s[u]
            for i in range(1, len(a)):
                yield f"D{u}{f}", _with(s, u, a[:i], f, a[i:])
                yield f"G{u}{f}", _with(s, u, a[-i:], f, a[:-i])


def _peel_search(s: tuple[Word, ...]) -> list[str] | None:
    """Depth-first search for a factorization of the partial morphism s:
    the image string of a permutation, then the peels, leftmost applied
    last; or None.  The path is an explicit stack of states with their
    untried peels, so its depth is not bounded by the recursion limit;
    failed holds the states whose search failed."""
    failed: set[tuple[Word, ...]] = set()
    path: list[tuple[tuple[Word, ...], Iterator]] = []
    names: list[str] = []       # names[i] leads from path[i] to the next state
    while True:
        if max(map(len, s)) < 2:
            perm = "".join(s)
            if len(set(perm)) == len(perm):
                # a partial permutation: the free letters take the unused ones
                unused = iter([c for c in LETTERS[:3] if c not in perm])
                return ["".join(w or next(unused) for w in s), *reversed(names)]
        if s in failed:
            names.pop()
        else:
            path.append((s, _peels(s)))
        while path:
            peel = next(path[-1][1], None)
            if peel is not None:
                name, s = peel
                names.append(name)
                break
            failed.add(path.pop()[0])
            if names:
                names.pop()
        else:
            return None


def decompose(m: Morphism) -> GeneratorWord:
    """Write m as a word over {G, D, M, E01, E12} (leftmost applied last).

    For a two-letter-domain morphism the returned word composes to a
    three-letter morphism whose restriction to {0,1} is m.  Raises
    NotInCatalog when m is not in the monoid the generators span.  The
    word is checked by applying its generators, the rightmost first, to
    the images of the identity.

    The search peels factors off the right.  Its states are partial
    morphisms s: the letters of the domain have fixed images, the other
    letters are free, and s is in the monoid when some element of it
    agrees with s on the fixed letters.  A two-letter m starts with the
    letter 2 free.  Each peel s = tau . rho is one suffix, prefix or
    equality test:

    - rho = D(x,y) with x, y fixed exactly when s(y) is a proper suffix of
      s(x); tau(x) is s(x) with that suffix removed;
    - rho = G(x,y) likewise with a proper prefix;
    - rho = M(x,y) with x, y fixed exactly when s(x) = s(y); x is free in
      tau;
    - rho = D(u,f) or G(u,f) with u fixed and f free sets tau(f) to a
      proper suffix or prefix of s(u), and tau(u) to the rest.

    The search backtracks over these peels and ends at a partial
    permutation: fixed images of one letter each, all different.

    Completeness.  Every element of the monoid is pi . rho_1 ... rho_k,
    with pi a permutation and each rho_i a D, G or M of two letters: a
    permutation moves left past such a factor and turns it into another
    one.  Each peel shortens the fixed images in total, or keeps the total
    and fixes a free letter, so the search ends, and the search from s
    succeeds whenever s is in the monoid, by induction in that order:

    - if s(x) = s(y), an element that agrees with s agrees with tau, and
      e . M(x,y) agrees with s when e agrees with tau, so s and tau are in
      the monoid together, and the search tries that one peel alone;
    - otherwise take a product that agrees with s, with k least.  If
      k = 0, s is a partial permutation.  Else let rho_k have letters
      (x,y) and p = pi . rho_1 ... rho_(k-1).  If x is free in s, p agrees
      with s; if rho_k = M(x,y) with y free, p . E(x,y) does; both have
      k-1 factors.  rho_k = M(x,y) with y fixed gives s(x) = s(y).  So
      rho_k is a D or G peel, and p agrees with its tau.  When it fixes a
      free letter other than the first, exchanging the two free letters
      turns it into a peel that the search tries.

    A partial morphism whose search failed is thus not in the monoid.
    """
    if m.domain not in (2, 3) or m.codomain > 3:
        raise NotInCatalog(f"{m}: decomposition needs a domain of 2 or 3 letters and a "
                           f"codomain of at most 3, got domain {m.domain} and codomain "
                           f"{m.codomain}")
    if m.erasing:
        raise NotInCatalog(f"{m} is erasing")
    factors = _peel_search((m.images + ("",))[:3])
    if factors is None:
        raise NotInCatalog(f"no decomposition found for {m}")
    perm, *peels = factors
    word: list[str] = []
    for peel in peels:
        gens, perm = _STEPS[perm, peel]
        word += gens
    word += _PERM_EXPANSION[perm]
    check = "0,1,2"
    for name in reversed(word):
        check = check.translate(GENERATORS[name]._table)
    if tuple(check.split(",")[:m.domain]) != m.images:
        raise NotInCatalog(f"internal error: decomposition of {m} failed verification")
    return tuple(word)
