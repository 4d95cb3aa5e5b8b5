"""Directive words and the languages they generate.

A directive word is a finite prefix plus an optional period of morphisms,
each mapping the alphabet of its level into the one below.  Eventual
periodicity is the only infinite-directive encoding, which makes every
"infinitely often" condition decidable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (AlphabetMismatch, NoStabilization, NonGrowing,
                     NotContractible)
from .morphism import (Morphism, bracket, compose, compose_all, derived,
                       left_conjugate, classify, parse_rules)
from .words import Alphabet, FactorOracle, Word, factors_of, substitutive_language


@dataclass(frozen=True)
class DirectiveWord:
    """Morphism sequence preperiod + period^omega (period may be empty)."""

    preperiod: tuple[Morphism, ...]
    period: tuple[Morphism, ...] = ()

    def __post_init__(self):
        ms = list(self.preperiod) + list(self.period)
        if not ms:
            raise ValueError("empty directive word")
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
                raise ValueError("erasing morphism in directive word")
        object.__setattr__(self, "preperiod", tuple(fixed[:p]))
        object.__setattr__(self, "period", tuple(fixed[p:]))

    @property
    def eventually_periodic(self) -> bool:
        return bool(self.period)

    def morphism(self, n: int) -> Morphism:
        if n < len(self.preperiod):
            return self.preperiod[n]
        if not self.period:
            raise IndexError(f"finite directive word has no level {n}")
        return self.period[(n - len(self.preperiod)) % len(self.period)]

    def known_levels(self) -> int:
        return len(self.preperiod) + len(self.period)

    @property
    def alphabet_size(self) -> int:
        return (self.preperiod or self.period)[0].codomain

    def prefix(self, n: int) -> list[Morphism]:
        return [self.morphism(i) for i in range(n)]

    def __repr__(self):
        pre = " ".join(m.bracket() for m in self.preperiod)
        per = " ".join(m.bracket() for m in self.period)
        return f"DirectiveWord({pre} | ({per})^w)" if per else f"DirectiveWord({pre})"


def _letter_images(dw: DirectiveWord):
    """Yields, for n = 0, 1, ..., imgs[a] = m_0 ... m_n (a) for the letters a
    of level n+1."""
    imgs = None
    for n in itertools.count():
        imgs = {str(a): w if imgs is None else "".join(imgs[c] for c in w)
                for a, w in enumerate(dw.morphism(n).images)}
        yield imgs


@dataclass(frozen=True)
class GenerationResult:
    prefix: Word
    certified_horizon: int
    levels_used: int


def generate_one_sided(dw: DirectiveWord, target_len: int, seed: str = "0",
                       max_levels: int = 200) -> GenerationResult:
    """Prefix of the limit word m_0 m_1 ... m_n(seed^omega), truncated once
    two consecutive levels agree on it."""
    if not dw.period:
        raise NonGrowing("a finite directive word has no limit word")
    window = 2 * max(4, dw.known_levels())
    prev = None
    prev_len_hist: list[int] = []
    for n, imgs in zip(range(max_levels), _letter_images(dw)):
        u = imgs[seed]
        prev_len_hist.append(len(u))
        if len(prev_len_hist) > window and prev_len_hist[-1] <= prev_len_hist[-1 - window]:
            raise NonGrowing(f"|images(seed)| stuck at {len(u)} over {window} levels")
        cand = (u * (target_len // max(1, len(u)) + 1))[:target_len]
        if prev is not None and len(u) >= target_len and cand == prev:
            certified = _certified_factor_horizon(prev, u)
            return GenerationResult(cand, certified, n + 1)
        prev = cand
    raise NonGrowing(f"no stable prefix of length {target_len} within {max_levels} levels")


def _certified_factor_horizon(prefix: Word, longer: Word) -> int:
    h = 0
    cap = min(len(prefix) // 2, 64)
    while h + 1 <= cap and factors_of(prefix, h + 1) == factors_of(longer, h + 1):
        h += 1
    return h


def language_horizon(dw: DirectiveWord, n: int) -> FactorOracle:
    """Exact factor oracle of the directive's language up to length n: the
    language mu(X_tau) of :func:`substitutive_language`, where tau is the
    period product on the letters that level p keeps using and mu is the
    preperiod product."""
    if not dw.period:
        raise NoStabilization("a finite directive word has no limit language")
    letters = sorted(used_letters(dw)[len(dw.preperiod)])
    tau = compose_all(dw.period).images
    mu = compose_all(dw.preperiod, dw.period[0].codomain).images
    sets, cert, witness = substitutive_language(
        {str(a): tau[a] for a in letters}, n, {str(a): mu[a] for a in letters})
    return FactorOracle(Alphabet(dw.alphabet_size), sets, n, f"directive {dw!r}",
                        witness=witness, certificate=cert)


# -- weak primitivity -------------------------------------------------


@dataclass(frozen=True)
class PrimitivityVerdict:
    status: str            # "holds" | "fails" | "undetermined"
    fails_at: int | None = None

    @property
    def holds(self):
        return self.status == "holds"


def _bool_mul(A, B):
    return tuple(tuple(any(A[a][b] and B[b][c] for b in range(len(B)))
                       for c in range(len(B[0]))) for a in range(len(A)))


def _occ(m: Morphism):
    return tuple(tuple(r) for r in m.occurrence_matrix())


def used_letters(dw: DirectiveWord) -> list[frozenset[int]]:
    """Letters of each level that later levels keep producing.

    An optional circuit letter may exist at one level and never occur in
    any image afterwards; such dead components are ignored throughout
    (they carry no part of the language).  Computed as a greatest fixed
    point over the period: each level's set depends only on the next
    one, so one backward sweep from a full alphabet several periods
    ahead reaches it."""
    p, T = len(dw.preperiod), len(dw.period)
    n = p + max(T, 1)
    total = n + 4 * max(T, 1) + 4 if T else p
    sets = [frozenset(range(dw.morphism(total - 1).domain))]
    for i in range(total - 1, -1, -1):
        m = dw.morphism(i)
        sets.append(frozenset(int(c) for b in sets[-1] if b < m.domain
                              for c in m.images[b]))
    sets.reverse()
    return sets[: n + 2]


def weak_primitivity_check(dw: DirectiveWord) -> PrimitivityVerdict:
    """Exact for eventually periodic directive words.

    Products of occurrence matrices, restricted to the letters that stay
    in use, are tracked per start level; an all-positive product is
    absorbing, and a product with a dead used-row can never recover, so
    either outcome decides the start level.  For an eventually periodic
    word a repeated (product, phase) pair decides failure, and there are
    at most 2^(d*d) * T such pairs, so every start level is decided; only
    finite prefixes come back undetermined, unless a row dies.  The first
    failing start level is reported as ``fails_at``.
    """
    p, T = len(dw.preperiod), len(dw.period)
    starts = range(p + T) if T else range(p)
    used = used_letters(dw)

    def u(level):
        if level < len(used):
            return used[level]
        return used[p + (level - p) % T] if T else used[-1]

    def decided_for(P, r, s):
        rows, cols = u(r), u(s + 1)
        if all(P[a][b] for a in rows for b in cols):
            return True
        if any(not any(P[a][b] for b in cols) for a in rows):
            return False
        return None

    undetermined = False
    for r in starts:
        P, s, seen = _occ(dw.morphism(r)), r, set()
        while (decided := decided_for(P, r, s)) is None:
            s += 1
            if s >= p:
                if not T:
                    break               # a finite prefix runs out undecided
                key = (P, (s - p) % T)
                if key in seen:
                    decided = False
                    break
                seen.add(key)
            P = _bool_mul(P, _occ(dw.morphism(s)))
        if decided is False:
            return PrimitivityVerdict("fails", fails_at=r)
        undetermined |= decided is None
    return PrimitivityVerdict("undetermined" if undetermined else "holds")


# -- proper contraction -----------------------------------------------


def proper_contraction(dw: DirectiveWord, max_block: int | None = None) -> DirectiveWord:
    """Contract into blocks tau_j = block_{2j} . leftconj(block_{2j+1}) so
    that every resulting morphism is both left and right proper.

    Requires an eventually periodic, weakly primitive directive word; the
    result is eventually periodic again (block boundaries repeat once the
    phase within the period recurs at an even pairing index).
    """
    if not dw.eventually_periodic:
        raise NotContractible("finite directive words are not contracted")
    if not weak_primitivity_check(dw).holds:
        raise NotContractible("directive word is not weakly primitive")
    p, T = len(dw.preperiod), len(dw.period)
    if max_block is None:
        max_block = 8 * (p + T) + 16

    def right_proper_block(start: int) -> tuple[int, Morphism]:
        prod = dw.morphism(start)
        end = start + 1
        while not classify(prod).right_proper:
            if end - start >= max_block:
                raise NotContractible(f"no right proper block from level {start}")
            prod = compose(prod, dw.morphism(end))
            end += 1
        return end, prod

    taus: list[Morphism] = []
    start = 0
    states: dict[int, int] = {}
    pre_count = None
    per_count = None
    while True:
        if start >= p:
            key = (start - p) % T
            if key in states:
                pre_count = states[key]
                per_count = len(taus) - pre_count
                break
            states[key] = len(taus)
        mid, first = right_proper_block(start)
        nxt, second = right_proper_block(mid)
        taus.append(compose(first, left_conjugate(second)))
        start = nxt
        if len(taus) > 4 * max_block:
            raise NotContractible("pairing did not close up")
    return DirectiveWord(tuple(taus[:pre_count]), tuple(taus[pre_count:pre_count + per_count]))


# -- directive files ---------------------------------------------------


def parse_morphism_spec(text: str) -> Morphism:
    """One morphism: a rule string, a bracket, or composed factor names.

    Examples: "0->01;1->0", "[0,10,20]", "M G21 D20 D12", "D10".
    """
    text = text.strip()
    if "->" in text:
        return parse_rules(text)
    if text.startswith("["):
        inner = text.strip()[1:-1]
        return bracket(*inner.split(","))
    names = text.split()
    return compose_all([derived(name) for name in names])


def parse_directive(text: str) -> DirectiveWord:
    """Directive file: a "preperiod:" block then a "period:" block, each a
    list of one-morphism lines; blank lines and #-comments ignored."""
    section = None
    pre: list[Morphism] = []
    per: list[Morphism] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() in ("preperiod:", "period:"):
            section = line.lower().rstrip(":")
            continue
        if section is None:
            raise ValueError("directive line before a section header")
        (pre if section == "preperiod" else per).append(parse_morphism_spec(line))
    return DirectiveWord(tuple(pre), tuple(per))


def format_directive(dw: DirectiveWord) -> str:
    lines = ["preperiod:"]
    lines += [m.bracket() for m in dw.preperiod]
    lines.append("period:")
    lines += [m.bracket() for m in dw.period]
    return "\n".join(lines) + "\n"
