"""Directive words and the languages they generate.

A directive word is a finite prefix plus an optional period of morphisms,
each mapping the alphabet of its level into the one below.  Eventual
periodicity is the only infinite-directive encoding, which makes every
"infinitely often" condition decidable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (AlphabetMismatch, EmptyProduct, ErasingMorphism, MalformedDirective,
                     MalformedMorphism, NegativeLength, NoStabilization, NotContractible)
from .morphism import (Morphism, bracket, compose, compose_all, derived, first_right_proper,
                       left_conjugate, parse_rules)
from .words import (Alphabet, FactorOracle, Word, eventual_support, factors_of, is_primitive,
                    substitutive_language)


@dataclass(frozen=True)
class DirectiveWord:
    """Morphism sequence preperiod + period^omega (period may be empty)."""

    preperiod: tuple[Morphism, ...]
    period: tuple[Morphism, ...] = ()

    def __post_init__(self):
        ms = list(self.preperiod) + list(self.period)
        if not ms:
            raise EmptyProduct("empty directive word")
        # normalize codomains so consecutive levels chain exactly: a step
        # out of a three-letter level may use only two letters in its images
        p = len(self.preperiod)
        targets = [ms[0].codomain]
        for i in range(1, len(ms)):
            targets.append(ms[i - 1].domain)
        if self.period:
            wrap = ms[-1].domain
            if p == 0:
                targets[0] = wrap
            elif targets[p] != wrap:
                raise AlphabetMismatch(
                    f"period does not close up: needs codomain {targets[p]} and {wrap}")
        fixed = []
        for m, t in zip(ms, targets):
            try:
                fixed.append(m if m.codomain == t else Morphism(m.images, t))
            except AlphabetMismatch as exc:
                raise AlphabetMismatch(f"level mismatch at {m}: {exc}") from exc
        for m in fixed:
            if m.erasing:
                raise ErasingMorphism("erasing morphism in directive word")
        object.__setattr__(self, "preperiod", tuple(fixed[:p]))
        object.__setattr__(self, "period", tuple(fixed[p:]))

    @property
    def eventually_periodic(self) -> bool:
        return bool(self.period)

    def level(self, n: int) -> int:
        """The index in preperiod + period of the morphism at level n."""
        p = len(self.preperiod)
        if n < p:
            return n
        if not self.period:
            raise IndexError(f"finite directive word has no level {n}")
        return p + (n - p) % len(self.period)

    def morphism(self, n: int) -> Morphism:
        i, p = self.level(n), len(self.preperiod)
        return self.preperiod[i] if i < p else self.period[i - p]

    def known_levels(self) -> int:
        return len(self.preperiod) + len(self.period)

    @property
    def alphabet_size(self) -> int:
        return (self.preperiod or self.period)[0].codomain

    def __repr__(self):
        pre = " ".join(m.bracket() for m in self.preperiod)
        per = " ".join(m.bracket() for m in self.period)
        return f"DirectiveWord({pre} | ({per})^w)" if per else f"DirectiveWord({pre})"


# the letter whose limit word is generated
SEED = "0"


class GenerationResult(NamedTuple):
    prefix: Word
    certified_horizon: int
    levels_used: int


def generate_one_sided(dw: DirectiveWord, target_len: int,
                       max_levels: int = 200) -> GenerationResult:
    """Prefix of the limit word m_0 m_1 ... m_n(SEED^omega), truncated once
    two consecutive levels agree on it.  The certified horizon is the
    largest h <= min(target_len // 2, 64) such that the prefix has the
    factors of the directive's language (:func:`language_horizon`) at every
    length up to h; a directive that the kernel refuses is refused."""
    if target_len < 0:
        raise NegativeLength(f"negative prefix length {target_len}")
    cap = min(target_len // 2, 64)
    oracle = language_horizon(dw, cap)
    prev = None
    # the running products m_0 ... m_n, images of the letters of level n + 1
    products = itertools.accumulate(map(dw.morphism, itertools.count()), compose)
    for n, product in zip(range(max_levels), products):
        u = product.images[int(SEED)]
        cand = (u * (target_len // len(u) + 1))[:target_len]
        if prev is not None and len(u) >= target_len and cand == prev:
            h = 0
            while h < cap and factors_of(cand, h + 1) == oracle.factors(h + 1):
                h += 1
            return GenerationResult(cand, h, n + 1)
        if len(u) >= target_len > 0 and not _prefixes_can_meet(dw, n, product, target_len):
            agree = ("begin with the same letter" if not _prefixes_can_meet(dw, n, product, 1)
                     else f"agree on their first {target_len} letters")
            raise NoStabilization(f"no prefix of length {target_len} settles: past level {n} "
                                  f"the images of {SEED} at consecutive levels never {agree}")
        prev = cand
    raise NoStabilization(f"no stable prefix of length {target_len} within {max_levels} levels")


def _prefixes_can_meet(dw: DirectiveWord, n: int, product: Morphism, L: int) -> bool:
    """Whether m_0 ... m_j (SEED) and m_0 ... m_{j-1} (SEED) can agree on
    their first L letters at some level j > n, as two equal prefixes must;
    ``product`` is m_0 ... m_n.

    The two words begin with product(b) and product(c), for b and c the
    first letters of m_{n+1} ... m_j (SEED) and m_{n+1} ... m_{j-1} (SEED),
    so those images must agree on min(L, their lengths) letters; once both
    are L letters long, that agreement is exact.  b is G_j(SEED), for G_j
    the product of the first-letter maps from level n + 1 on; G_{j-1} and
    the phase of j in the period fix every later G, so the levels are
    walked until that pair repeats."""
    images, a = product.images, int(SEED)

    def agree(b, c):
        k = min(L, len(images[b]), len(images[c]))
        return images[b][:k] == images[c][:k]

    G = tuple(range(len(images)))
    seen = set()
    for j in itertools.count(n + 1):
        state = (dw.level(j), G)
        if state in seen:
            return False
        seen.add(state)
        before, G = G[a], tuple(G[int(w[0])] for w in dw.morphism(j).images)
        if agree(G[a], before):
            return True


def language_horizon(dw: DirectiveWord, n: int) -> FactorOracle:
    """Exact factor oracle of the directive's language up to length n: the
    language mu(X_tau) of :func:`substitutive_language`, where tau is the
    period product on the letters that level p keeps using and mu is the
    preperiod product."""
    if not dw.period:
        raise NoStabilization("a finite directive word has no limit language")
    tau = _live_period(dw, used_letters(dw))
    mu = compose_all(dw.preperiod, dw.period[0].codomain).images
    top, cert = substitutive_language(tau, n, {a: mu[int(a)] for a in tau})
    return FactorOracle(Alphabet(dw.alphabet_size), top, n, f"directive {dw!r}",
                        certificate=cert)


def _live_period(dw: DirectiveWord, used: list[frozenset[int]]) -> dict[str, Word]:
    """The period product tau on the letters level p keeps using."""
    tau = compose_all(dw.period).images
    return {str(a): tau[a] for a in sorted(used[len(dw.preperiod)])}


# -- weak primitivity -------------------------------------------------


class PrimitivityVerdict(NamedTuple):
    status: str            # "holds" | "fails" | "undetermined"
    fails_at: int | None = None

    @property
    def holds(self):
        return self.status == "holds"


def _sweep(ms, top: frozenset[int]) -> list[frozenset[int]]:
    """The set ``top`` of the level after ms, then the letter sets that the
    levels of ms reach from it, last level first."""
    sets = [top]
    for m in reversed(ms):
        sets.append(frozenset(int(c) for b in sets[-1] for c in m.images[b]))
    return sets


def used_letters(dw: DirectiveWord) -> list[frozenset[int]]:
    """Letters of levels 0..p+T that later levels keep producing.

    An optional circuit letter may exist at one level and never occur in
    any image afterwards; such dead components are ignored throughout
    (they carry no part of the language).  This is the greatest fixed
    point: the period is swept backward from the full alphabet until one
    whole period leaves level p's set unchanged, then the preperiod once.
    A finite prefix keeps its last level's full alphabet."""
    top = frozenset(range((dw.period or dw.preperiod)[-1].domain))
    while (period := _sweep(dw.period, top))[-1] != top:
        top = period[-1]
    return (period + _sweep(dw.preperiod, top)[1:])[::-1]


def weak_primitivity_check(dw: DirectiveWord) -> PrimitivityVerdict:
    """Exact for eventually periodic directive words; a finite prefix is
    undetermined.

    Every start level r needs a product m_r ... m_s positive on the used
    letters.  Positivity is kept by every later factor, which maps used
    letters to non-empty words of used letters (so no used row is ever
    empty), and a rotation of a primitive period product is primitive.
    So weak primitivity holds exactly when the period product tau on the
    used letters of level p is primitive (:func:`words.is_primitive`).
    Otherwise level p fails, and a level r < p fails iff m_r ... m_{p-1}
    of the eventual support of tau leaves out a used letter of level r:
    that support lies on the cycle of tau^j's letter sets, and one point
    of the cycle decides them all.  ``fails_at`` is the first failing
    level; one used letter that the period fixes fails at p.
    """
    if not dw.period:
        return PrimitivityVerdict("undetermined")
    used = used_letters(dw)
    tau = _live_period(dw, used)
    if is_primitive(tau):
        return PrimitivityVerdict("holds")
    p = len(dw.preperiod)
    reach = [_sweep(dw.preperiod, frozenset(map(int, s)))[::-1]
             for s in eventual_support(tau).values()]
    return PrimitivityVerdict("fails", fails_at=next(
        (r for r in range(p) if any(not used[r] <= x[r] for x in reach)), p))


# -- proper contraction -----------------------------------------------


def proper_contraction(dw: DirectiveWord) -> DirectiveWord:
    """Contract into blocks tau_j = block_{2j} . leftconj(block_{2j+1}) so
    that every resulting morphism is both left and right proper.

    Requires an eventually periodic, weakly primitive directive word; the
    result is eventually periodic again (block boundaries repeat once the
    phase within the period recurs at an even pairing index).

    A block is right proper once its composed last-letter map is constant.
    That map's image only shrinks, and it is final d-1 periods after the
    first period boundary at or past max(start, p), so max(p - start, 0)
    + d*T levels decide whether a block from ``start`` exists.
    """
    if not dw.eventually_periodic:
        raise NotContractible("finite directive words are not contracted")
    if not weak_primitivity_check(dw).holds:
        raise NotContractible("directive word is not weakly primitive")
    p, T = len(dw.preperiod), len(dw.period)
    d = dw.period[-1].domain

    def right_proper_block(start: int) -> tuple[int, Morphism]:
        levels = range(start, start + max(p - start, 0) + d * T)
        found = first_right_proper(map(dw.morphism, levels))
        if found is None:
            raise NotContractible(f"no right proper block from level {start}")
        j, prod = found
        return start + j, prod

    taus: list[Morphism] = []
    start = 0
    states: dict[int, int] = {}
    pre_count = None
    per_count = None
    while True:
        if start >= p:
            key = dw.level(start)
            if key in states:
                pre_count = states[key]
                per_count = len(taus) - pre_count
                break
            states[key] = len(taus)
        mid, first = right_proper_block(start)
        nxt, second = right_proper_block(mid)
        taus.append(compose(first, left_conjugate(second)))
        start = nxt
    return DirectiveWord(tuple(taus[:pre_count]), tuple(taus[pre_count:pre_count + per_count]))


# -- directive files ---------------------------------------------------


def parse_morphism_spec(text: str) -> Morphism:
    """One morphism: a rule string, a bracket, or composed factor names.

    Examples: "0->01;1->0", "[0,10,20]", "M G21 D20 D12", "D10".  Text
    that is none of these is refused with MalformedDirective.
    """
    text = text.strip()
    try:
        if "->" in text:
            return parse_rules(text)
        if text.startswith("["):
            if not text.endswith("]"):
                raise MalformedMorphism("bracket not closed by ']'")
            return bracket(*text[1:-1].split(","))
        return compose_all([derived(name) for name in text.split()])
    except ValueError as exc:
        raise MalformedDirective(f"{text!r}: {exc}") from exc


def parse_directive(text: str) -> DirectiveWord:
    """Directive file: a "preperiod:" block then a "period:" block, each a
    list of one-morphism lines; blank lines and #-comments ignored.  Text
    that does not parse is refused with MalformedDirective, which names
    the offending line."""
    section = None
    pre: list[Morphism] = []
    per: list[Morphism] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() in ("preperiod:", "period:"):
            section = line.lower().rstrip(":")
            continue
        if section is None:
            raise MalformedDirective(f"line {number}: {line!r}: directive line before a "
                                     "section header")
        try:
            m = parse_morphism_spec(line)
        except MalformedDirective as exc:
            raise MalformedDirective(f"line {number}: {exc}") from exc
        if m.erasing:
            raise MalformedDirective(f"line {number}: {line!r}: erasing morphism in directive word")
        (pre if section == "preperiod" else per).append(m)
    if not pre and not per:
        raise MalformedDirective("no morphism line: empty directive word")
    return DirectiveWord(tuple(pre), tuple(per))


def format_directive(dw: DirectiveWord) -> str:
    lines = ["preperiod:"]
    lines += [m.bracket() for m in dw.preperiod]
    lines.append("period:")
    lines += [m.bracket() for m in dw.period]
    return "\n".join(lines) + "\n"
