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

from .errors import AlphabetMismatch, NotInCatalog, NotRightProper
from .words import LETTERS, Word

_ORDS = tuple(map(ord, LETTERS))


@dataclass(frozen=True)
class Morphism:
    """images[i] is the image of letter i; codomain is an alphabet size."""

    images: tuple[Word, ...]
    codomain: int

    def __post_init__(self):
        letters = LETTERS[:max(self.codomain, 0)]
        for w in self.images:
            # the letter test runs per letter only when some letter is not a
            # digit of the codomain; it raises on the first that is out of range
            if w.lstrip(letters):
                for c in w:
                    if int(c) >= self.codomain:
                        raise AlphabetMismatch(f"image letter {c} outside codomain {self.codomain}")
        # the str.translate table of the images, built at once: nearly every
        # morphism built is applied, and before Python 3.12 a cached_property
        # takes a lock on each first read
        object.__setattr__(self, "_table", dict(zip(_ORDS, self.images)))

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

    def is_letter_to_letter(self) -> bool:
        return all(len(w) == 1 for w in self.images)

    def occurrence_matrix(self) -> list[list[bool]]:
        """occ[a][b] iff letter a occurs in the image of letter b."""
        return [[LETTERS[a] in self.images[b] for b in range(self.domain)]
                for a in range(self.codomain)]

    def restrict(self, domain: int) -> "Morphism":
        return Morphism(self.images[:domain], self.codomain)

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
            raise ValueError(f"bad rule {part!r}")
        rules[int(lhs)] = rhs
    if sorted(rules) != list(range(len(rules))):
        raise ValueError(f"rules do not cover a dense alphabet: {sorted(rules)}")
    return bracket(*[rules[i] for i in range(len(rules))])


def compose(sigma: Morphism, tau: Morphism) -> Morphism:
    """compose(s, t)(a) = s(t(a)); in products the leftmost factor applies last."""
    if tau.codomain != sigma.domain:
        raise AlphabetMismatch(f"cannot compose: inner codomain {tau.codomain} != outer domain {sigma.domain}")
    return Morphism(tuple(sigma(w) for w in tau.images), sigma.codomain)


def compose_all(ms, n: int | None = None) -> Morphism:
    """Product m0 m1 ... mk, the rightmost applied first; n sizes the empty product."""
    ms = list(ms)
    if not ms:
        if n is None:
            raise ValueError("empty product needs an alphabet size")
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
    left_proper: bool
    leading: str | None
    letter_to_letter: bool


def classify(m: Morphism) -> ProperRecord:
    lasts = {w[-1] for w in m.images if w}
    firsts = {w[0] for w in m.images if w}
    right = len(lasts) == 1 and not m.erasing
    left = len(firsts) == 1 and not m.erasing
    return ProperRecord(right, lasts.pop() if right else None,
                        left, firsts.pop() if left else None,
                        m.is_letter_to_letter())


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


def permutation(images: str) -> Morphism:
    """Letter-to-letter permutation 0->images[0], ..."""
    return Morphism(tuple(images), 3)


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
    kind, x, y = name[0], int(name[1]), int(name[2])
    return {"D": D, "G": G, "M": M, "E": E}[kind](x, y)


def compose_generators(word: GeneratorWord, n: int = 3) -> Morphism:
    """Compose a generator word (leftmost applied last) into a morphism."""
    return compose_all([GENERATORS[name] for name in word], n)


def generator_word_string(word: GeneratorWord) -> str:
    return " ".join(word)


def parse_generator_word(text: str) -> GeneratorWord:
    names = tuple(text.split())
    for name in names:
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
    return names


# -- decomposition by peeling ----------------------------------------

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


def _peel_D(images: dict[int, Word], x: int, y: int) -> dict[int, Word] | None:
    """If sigma = D(x,y) . tau, return tau's images, else None."""
    cx, cy = LETTERS[x], LETTERS[y]
    out = {}
    changed = False
    for a, w in images.items():
        t = []
        i = 0
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


def _peel_G(images: dict[int, Word], x: int, y: int) -> dict[int, Word] | None:
    """If sigma = G(x,y) . tau, return tau's images, else None."""
    cx, cy = LETTERS[x], LETTERS[y]
    out = {}
    changed = False
    for a, w in images.items():
        t = []
        i = 0
        while i < len(w):
            if w[i] == cx:
                if not t or t[-1] != cy:
                    return None
                t.pop()
                changed = True
            t.append(w[i])
            i += 1
        out[a] = "".join(t)
    return out if changed else None


def _m_candidates(images: dict[int, Word], x: int, y: int, cap: int = 4096):
    """Reconstructions tau with sigma = M(x,y) . tau: rewrite some
    occurrences of y back to x, at least one in total."""
    cy = LETTERS[y]
    positions = {a: [i for i, c in enumerate(w) if c == cy] for a, w in images.items()}
    total = 1
    for pos in positions.values():
        total *= 2 ** len(pos)
    if total > cap:
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


_PAIRS = [(x, y) for x in range(3) for y in range(3) if x != y]


def _finish_permutation(images: dict[int, Word]) -> GeneratorWord | None:
    """Complete a (possibly partial) letter-to-letter injective map to a
    permutation of {0,1,2} and return its expansion."""
    if any(len(w) != 1 for w in images.values()):
        return None
    if len(set(images.values())) != len(images):
        return None
    perm = dict(images)
    missing = [a for a in range(3) if a not in perm]
    free = [c for c in "012" if c not in perm.values()]
    for a, c in zip(sorted(missing), sorted(free)):
        perm[a] = c
    return _PERM_EXPANSION["".join(perm[a] for a in range(3))]


def _peel_search(images: dict[int, Word], m_budget: int, seen: set) -> list[str] | None:
    """DFS for a factorization; returns a list of derived names, or None."""
    done = _finish_permutation(images)
    if done is not None:
        return list(done)
    key = tuple(sorted(images.items()))
    if key in seen:
        return None
    seen.add(key)
    for x, y in _PAIRS:
        for kind, peel in (("D", _peel_D), ("G", _peel_G)):
            nxt = peel(images, x, y)
            if nxt is not None:
                rest = _peel_search(nxt, m_budget, seen)
                if rest is not None:
                    return [f"{kind}{x}{y}"] + rest
    if m_budget > 0:
        present = set().union(*[set(w) for w in images.values()]) if images else set()
        for x in range(3):
            if LETTERS[x] in present:
                continue
            for y in range(3):
                if y == x:
                    continue
                for cand in _m_candidates(images, x, y):
                    rest = _peel_search(cand, m_budget - 1, seen)
                    if rest is not None:
                        return [f"M{x}{y}"] + rest
    return None


def decompose(m: Morphism) -> GeneratorWord:
    """Write m as a word over {G, D, M, E01, E12} (leftmost applied last).

    For a two-letter-domain morphism the returned word composes to a
    three-letter morphism whose restriction to {0,1} is m.  Raises
    NotInCatalog when the peeling search fails: only products of the
    derived families are claimed to be decomposable.
    """
    if m.domain not in (2, 3) or m.codomain > 3:
        raise NotInCatalog(f"{m}: decomposition is defined over alphabets of size <= 3")
    if m.erasing:
        raise NotInCatalog(f"{m} is erasing")
    images = {a: m.images[a] for a in range(m.domain)}
    factors = _peel_search(images, m_budget=2, seen=set())
    if factors is None:
        raise NotInCatalog(f"no decomposition found for {m}")
    word: tuple[str, ...] = ()
    for name in factors:
        word += DERIVED_EXPANSION.get(name) or (name,)
    check = compose_generators(word)
    if check.restrict(m.domain).images != m.images:
        raise NotInCatalog(f"internal error: decomposition of {m} failed verification")
    return word
