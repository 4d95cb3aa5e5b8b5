"""Finite words, factor languages, complexity and special-factor analysis.

Words are plain ``str`` over the ASCII digits ``'0'..'9'`` (dense integer
letters, lexicographic order of the string equals lexicographic order of
the letter sequence).  A :class:`FactorOracle` provides the exact factor
sets of an infinite word or subshift language up to a certified horizon;
everything downstream is a pure function of factor sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .errors import (AlphabetMismatch, BadAlphabet, HorizonExceeded, IdentityViolation,
                     NegativeLength, NoStabilization, NotProlongable)

Word = str

LETTERS = "0123456789"


@dataclass(frozen=True)
class Alphabet:
    """Dense integer letters 0..size-1, written as digit characters."""

    size: int

    def __post_init__(self):
        if not 1 <= self.size <= 10:
            raise BadAlphabet(f"alphabet size {self.size} out of range 1..10")

    @property
    def letters(self) -> str:
        return LETTERS[: self.size]


def common_prefix_len(u: Word, v: Word, cap: int | None = None) -> int:
    """The length of the longest common prefix of u and v, or cap if that
    is shorter.  Bisection on slices: each test compares only the letters
    not yet known to agree, so the per-letter work stays in C.  It serves
    single pairs: the long composed images that ``lengths`` compares, where
    encoding both words as integers would cost more than the few slices,
    and the capped keys of the left-special pass.  :func:`adjacent_lcps`
    reads the many short adjacent pairs of a top set from integers instead."""
    lo, hi = 0, min(len(u), len(v))
    if cap is not None:
        hi = min(hi, cap)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if u[lo:mid] == v[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def adjacent_lcps(words: list[Word]) -> list[int]:
    """The longest common prefix lengths of the adjacent words of a list.

    Each word is read once as a big-endian integer of its ASCII bytes, one
    byte a letter; a letter that is not ASCII fails the encoding.  For a
    pair, the longer word is shifted down to the shorter length; the
    letters past the lcp are then the bytes that the XOR of the two
    reaches.  The words of a top set are short and many, so one encoding
    per word and one XOR per pair cost less than a bisection per pair."""
    nums = [int.from_bytes(w.encode("ascii"), "big") for w in words]
    lens = list(map(len, words))
    out = []
    for a, b, m, n in zip(nums, nums[1:], lens, lens[1:]):
        if m > n:
            a >>= 8 * (m - n)
            m = n
        elif n > m:
            b >>= 8 * (n - m)
        out.append(m - ((a ^ b).bit_length() + 7) // 8)
    return out


def factors_of(w: Word, n: int) -> frozenset[Word]:
    """All length-n factors of the finite word w."""
    if n == 0:
        return frozenset({""})
    return frozenset(w[i : i + n] for i in range(len(w) - n + 1))


class FactorOracle:
    """Exact-up-to-horizon factor sets of an infinite word or subshift.

    The oracle holds one set of top words over the alphabet, each at most
    ``horizon`` letters long and each letter an ASCII digit, and L_n,
    n <= horizon, is the set of the n-prefixes of the top words of n
    letters or more.  A substitutive language passes its L_horizon and an
    explicit prefix its suffixes cut to the horizon, so each is factorial.  ``factors(n)`` is exact for
    ``n <= horizon`` as far as the constructor guarantees (see ``source``;
    a substitutive language records its :class:`LanguageCertificate` in
    ``certificate``); queries past the horizon raise :class:`HorizonExceeded`.

    In the sorted top set the words that share an n-prefix are adjacent, so
    ``contains``, ``continuation`` and ``complete_return_words`` are prefix
    searches.  ``specials(n)`` is the one special-factor query: the right,
    left and bispecial factors of order n as frozensets, cached per order
    and never sorted; a reader that needs an order sorts.  One order comes
    from one count of the extension letters over L_{n+1}.

    The counts p(0..N+1), ``special_tables(N)`` and the closure certificate
    of ``complexity_profile(N)`` read L_0..L_{N+1} only, so they read the
    top set cut to N + 1 letters, sorted and deduplicated, and its adjacent
    lcps (:func:`adjacent_lcps`), built once and kept for the largest
    length asked, which a shorter one reads too (``_top_cut``).  ``counts``
    reads every p(n) off those lcps, and ``special_tables(N)`` fills every
    order n <= N in one pass over the cut: an adjacent pair whose longest
    common prefix is shorter than both words makes that prefix right
    special, and in the cut sorted on ``w[1:]`` an adjacent pair with
    different first letters makes every prefix of their common key left
    special.
    """

    def __init__(self, alphabet: Alphabet, top: frozenset[Word], horizon: int, source: str,
                 certificate: LanguageCertificate | None = None):
        self.alphabet = alphabet
        self._top = sorted(top)
        self._short = [w for w in self._top if len(w) < horizon]
        self._factors: dict[int, frozenset[Word]] = {}
        self._specials: dict[int, tuple[frozenset[Word], ...]] = {}
        self._cut: tuple[int, list[Word], list[int], list[int]] = (-1, [], [], [])
        self.horizon = horizon
        self.source = source
        self.certificate = certificate

    def __repr__(self):
        return f"FactorOracle({self.source!r}, horizon={self.horizon})"

    # -- core queries ------------------------------------------------

    def _check_length(self, n: int) -> None:
        if n < 0:
            raise NegativeLength(f"negative factor length {n}")
        if n > self.horizon:
            raise HorizonExceeded(f"factors({n}) beyond horizon {self.horizon} ({self.source})")

    def factors(self, n: int) -> frozenset[Word]:
        if n not in self._factors:
            self._check_length(n)
            # a top word shorter than n is its own n-prefix, and no factor
            prefixes = frozenset(map(itemgetter(slice(n)), self._top))
            if shorter := [w for w in self._short if len(w) < n]:
                prefixes = prefixes.difference(shorter)
            self._factors[n] = prefixes
        return self._factors[n]

    def contains(self, w: Word) -> bool:
        # w is a prefix of a top word iff of the first one not below it
        self._check_length(len(w))
        j = bisect_left(self._top, w)
        return j < len(self._top) and self._top[j].startswith(w)

    __contains__ = contains

    def right_extensions(self, u: Word) -> frozenset[str]:
        return frozenset(a for a in self.alphabet.letters if self.contains(u + a))

    def left_extensions(self, u: Word) -> frozenset[str]:
        return frozenset(a for a in self.alphabet.letters if self.contains(a + u))

    def specials(self, n: int) -> tuple[frozenset[Word], ...]:
        """(right, left, bi): the words of length n with two or more right,
        two or more left, and both kinds of extension letters in L_{n+1}."""
        if n not in self._specials:
            longer = self.factors(n + 1)
            right = Counter(map(itemgetter(slice(-1)), longer))
            left = Counter(map(itemgetter(slice(1, None)), longer))
            rs = frozenset(u for u, d in right.items() if d >= 2)
            ls = frozenset(u for u, d in left.items() if d >= 2)
            self._specials[n] = (rs, ls, rs & ls)
        return self._specials[n]

    def special_tables(self, N: int) -> list[tuple[frozenset[Word], ...]]:
        """``specials(n)`` for every order n <= N, from one pass over the
        top set cut to N + 1 letters (see the class docstring) where N is
        below the horizon."""
        if N < self.horizon and any(n not in self._specials for n in range(N + 1)):
            self._specials.update(self._special_pass(N))
        return [self.specials(n) for n in range(N + 1)]

    def _special_pass(self, n: int) -> dict[int, tuple[frozenset[Word], ...]]:
        """The special tables of every order k <= n, read off the top set
        cut to n + 1 letters or more, sorted, and sorted on ``w[1:]``; see
        the class docstring.  A pair makes a factor of order k special only
        where both its words have k + 1 letters or more."""
        words, lcps, _ = self._top_cut(n + 1)
        right: list[set[Word]] = [set() for _ in range(n + 1)]
        left: list[set[Word]] = [set() for _ in range(n + 1)]
        for u, k in zip(words, lcps):
            # u sorts first, so k is shorter than the other word
            if k <= n and k < len(u):
                right[k].add(u[:k])
        by_key = sorted(filter(None, words), key=lambda w: w[1:])
        for x, y in zip(by_key, by_key[1:]):
            if x[0] != y[0]:
                # the left specials are prefix-closed: stop at the first
                # prefix already marked, from the longest down
                for k in range(common_prefix_len(x[1:], y[1:], n), -1, -1):
                    if x[1:k + 1] in left[k]:
                        break
                    left[k].add(x[1:k + 1])
        return {k: (frozenset(rs), frozenset(ls), frozenset(rs & ls))
                for k, (rs, ls) in enumerate(zip(right, left))}

    def is_right_special(self, u: Word) -> bool:
        return u in self.specials(len(u))[0]

    def is_left_special(self, u: Word) -> bool:
        return u in self.specials(len(u))[1]

    def is_bispecial(self, u: Word) -> bool:
        return u in self.specials(len(u))[2]

    def _top_cut(self, m: int) -> tuple[list[Word], list[int], list[int]]:
        """(words, lcps, p): the top words cut to m letters or more, sorted
        and deduplicated, their adjacent lcps, and p(0..m) counted off them.

        For n <= m, L_n is the n-prefixes of the cut words as of the top
        words, so one cut serves every order up to m: it is kept for the
        largest m asked, and a smaller m reads it.  p(n) is the number of
        cut words w with lcp(previous word, w) < n <= |w|, read off a
        difference array (the first word's lcp is -1)."""
        if self._cut[0] < m:
            # cutting keeps the order, so equal cuts are adjacent
            words = list(dict.fromkeys(map(itemgetter(slice(m)), self._top)))
            lcps = adjacent_lcps(words)
            diff = [0] * (m + 2)
            for k, w in zip([-1, *lcps], words):
                diff[k + 1] += 1
                diff[len(w) + 1] -= 1
            self._cut = (m, words, lcps, list(accumulate(diff[:-1])))
        return self._cut[1:]

    def counts(self, N: int) -> tuple[int, ...]:
        """p(0..N), the sizes of L_0..L_N, read off the top set cut to
        N + 1 letters, the cut that ``special_tables(N)`` and
        ``complexity_profile`` read, with no L_n built (see ``_top_cut``)."""
        self._check_length(N)
        return tuple(self._top_cut(min(N + 1, self.horizon))[2][:N + 1])

    def count(self, n: int) -> int:
        """p(n), the size of L_n: of the built set, or read off the kept
        cut if it has n letters or more, else off the top set cut to n."""
        if n in self._factors:
            return len(self._factors[n])
        self._check_length(n)
        return self._top_cut(n)[2][n]

    def continuation(self, u: Word) -> Word:
        """Letters that follow u in one word of the language, empty when u
        has no right extension: the rest of the first top word longer than
        u that starts with u.  Its first letter is the least right extension
        of u, so where u has only one, it is that one."""
        j = bisect_right(self._top, u)
        return self._top[j][len(u):] if j < len(self._top) and self._top[j].startswith(u) else ""

    def complete_return_words(self, u: Word) -> list[Word]:
        """The complete return words to u, sorted: the factors that start and
        end with u and hold no other u, each the first return of the top
        words that start with it, which one bisect passes over.  A top word
        of ``horizon`` letters with no second u raises HorizonExceeded, as
        its return may be longer; a shorter one ends the language there."""
        top, out = self._top, []
        j = bisect_left(top, u)
        while j < len(top) and top[j].startswith(u):
            i = top[j].find(u, 1)
            if i >= 0:
                out.append(r := top[j][:i + len(u)])
                j = bisect_left(top, r[:-1] + chr(ord(r[-1]) + 1), j)
            elif len(top[j]) < self.horizon:
                j += 1
            else:
                raise HorizonExceeded(f"return word to {u!r} grew past horizon {self.horizon}")
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def from_prefix(cls, prefix: Word, horizon: int,
                    source: str = "explicit prefix") -> "FactorOracle":
        """Oracle backed by an explicit prefix, whose top words are its
        suffixes cut to the horizon; exactness is the caller's claim.  The
        alphabet is the least one that holds the prefix's digits."""
        if prefix.lstrip(LETTERS):
            raise AlphabetMismatch(f"prefix letters {sorted(set(prefix) - set(LETTERS))} "
                                   "are not digits 0-9")
        if len(prefix) < horizon:
            raise HorizonExceeded(f"prefix of length {len(prefix)} shorter than horizon {horizon}")
        top = frozenset(prefix[i:i + horizon] for i in range(len(prefix) + 1))
        return cls(Alphabet(int(max(prefix, default="0")) + 1), top, horizon, source)

    @classmethod
    def from_substitution(cls, images: dict[str, Word], horizon: int,
                          source: str | None = None) -> "FactorOracle":
        """Oracle for the one-sided fixed point, from letter 0, of a
        primitive substitution.

        The fixed point's language is the substitution's language, so the
        factor sets come from :func:`substitutive_language`, which is exact
        and raises NoStabilization unless the substitution is primitive.
        """
        if (letters := "".join(images.values())).lstrip(LETTERS):
            raise AlphabetMismatch(f"image letters {sorted(set(letters) - set(LETTERS))} "
                                   "are not digits 0-9")
        if not images["0"].startswith("0"):
            raise NotProlongable("substitution not prolongable at seed '0'")
        size = int(max(letters)) + 1
        top, cert = substitutive_language(images, horizon)
        return cls(Alphabet(size), top, horizon, source or f"substitution fixed point {images}",
                   certificate=cert)


class LanguageCertificate(NamedTuple):
    """tau is primitive on ``letters``, its 2-letter language has ``pairs``
    words after ``rounds`` closure rounds, and each mu tau^k(a) has length
    at least n-1."""

    letters: str
    pairs: int
    rounds: int
    k: int


def eventual_support(tau: dict[str, Word]) -> dict[str, frozenset[str]]:
    """The letter sets of tau^j(a), for each letter a, at the first j >= 1
    where the tuple of them repeats.  tau maps its letters into themselves;
    each tuple fixes the next, so the one returned lies on their cycle."""
    step = {a: frozenset(w) for a, w in tau.items()}
    support, seen = step, set()
    while (key := tuple(support.values())) not in seen:
        seen.add(key)
        support = {a: frozenset().union(*(step[b] for b in s)) for a, s in support.items()}
    return support


def is_primitive(tau: dict[str, Word]) -> bool:
    """tau maps its letters into themselves, grows, and some power tau^j
    maps every letter to a word holding every letter: a positive power
    stays positive, so this is the eventual support being full."""
    letters = frozenset(tau)
    # a one-letter tau must also grow
    return (all(set(w) <= letters for w in tau.values()) and len("".join(tau.values())) >= 2
            and all(s == letters for s in eventual_support(tau).values()))


def substitutive_language(tau: dict[str, Word], n: int, lift: dict[str, Word] | None = None
                          ) -> tuple[frozenset[Word], LanguageCertificate]:
    """Exact factor set L_n of mu(X_tau) for a primitive substitution tau
    and a non-erasing lift mu (identity if None), after Queffelec (LNM 1294)
    and Pytheas Fogg (LNM 1794, ch. 1).

    L_2 is the closure of the 2-letter factors of the tau(a) under ab ->
    2-letter factors of tau(ab).  Once every mu tau^k(a) is n-1 letters or
    longer, a length-n factor of mu tau^k(ab), ab in L_2, lies in one block
    or spans the junction: L_n is the set of the length-n windows of the
    sources, each block mu tau^k(a), a a letter of L_2, and each junction,
    the last n-1 letters of mu tau^k(a) then the first n-1 of mu tau^k(b),
    all read into one set.  A source that is a factor of a longer one, or
    of an equal one kept before it, has no window the other lacks, so its
    windows are not read.  The blocks grow by ``str.translate`` with the
    table of the current ones, as a :class:`~rauzyadic.morphism.Morphism`
    applies itself.  The language is right-extendable, so each shorter L_m is the
    length-m prefixes of L_n, as :class:`FactorOracle` reads its top set.
    Returns L_n and the certificate; no witness word is built.  Raises
    NoStabilization unless :func:`is_primitive` holds, which follows the
    letter sets of tau^j to their cycle instead of bounding the power.
    """
    letters = "".join(sorted(tau))
    if not is_primitive(tau):
        raise NoStabilization(f"substitution {tau} is not primitive on the letters {letters}")
    # the 2-letter factors of tau(ab) are those of tau(a), those of tau(b)
    # and the junction tau(a)[-1] tau(b)[0], so a round adds junctions only
    pairs = frozenset(x + y for x in letters for y in letters
                      if any(x + y in w for w in tau.values()))
    frontier, rounds = pairs, 0
    while frontier:
        rounds += 1
        frontier = frozenset(tau[ab[0]][-1] + tau[ab[1]][0] for ab in frontier) - pairs
        pairs |= frontier
    imgs = {a: lift[a] if lift else a for a in letters}
    k = 0
    while min(map(len, imgs.values())) < n - 1:
        table = str.maketrans(imgs)
        imgs = {a: tau[a].translate(table) for a in letters}
        k += 1
    sources = [imgs[a] for a in set("".join(pairs))]
    sources += [imgs[a][len(imgs[a]) - n + 1:] + imgs[b][:n - 1] for a, b in pairs]
    # F_n(x) is in F_n(y) when x is a factor of y: longest first, a source
    # inside one kept before it adds no window
    windows: list[Word] = []
    for w in sorted(sources, key=len, reverse=True):
        if not any(w in v for v in windows):
            windows.append(w)
    cert = LanguageCertificate(letters, len(pairs), rounds, k)
    return frozenset(w[i:i + n] for w in windows for i in range(len(w) - n + 1)), cert


# Built-in named substitutions.
FIBONACCI = {"0": "01", "1": "0"}
THUE_MORSE = {"0": "01", "1": "10"}
TRIBONACCI = {"0": "01", "1": "02", "2": "0"}

NAMED_SOURCES = {
    "fibonacci": FIBONACCI,
    "thue-morse": THUE_MORSE,
    "tribonacci": TRIBONACCI,
}


def named_oracle(name: str, horizon: int) -> FactorOracle:
    return FactorOracle.from_substitution(NAMED_SOURCES[name], horizon, source=name)


# -- analysis operations --------------------------------------------


class ComplexityProfile(NamedTuple):
    p: tuple[int, ...]
    s: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["n,p,s"]
        for n, pn in enumerate(self.p):
            sn = self.s[n] if n < len(self.s) else ""
            lines.append(f"{n},{pn},{sn}")
        return "\n".join(lines) + "\n"


def complexity_profile(oracle: FactorOracle, N: int) -> ComplexityProfile:
    """p(0..N) and s(n)=p(n+1)-p(n), with the special-factor identities asserted.

    Raises IdentityViolation if either first-difference identity or the
    second-difference bilateral-order identity fails, that is if the oracle's
    factor sets are inconsistent (insufficient horizon).

    When L_n is both the prefix set and the suffix set of L_{n+1} for every
    n < N, the identities hold by construction: each first-difference count
    is p(n+1) - p(n) = s(n), and every word of L_{n+2} is a bi-extension of
    its middle, so sum m(u) = p(n+2) - 2p(n+1) + p(n) = s(n+1) - s(n).

    The counts are ``oracle.counts(N)``, read off the top set cut to
    m = min(N + 1, horizon) letters.  When every cut word has m letters,
    that is L_m, and one comparison certifies the closure: if P = {w[:-1]}
    equals S = {w[1:]} over L_m, then L_n, the n-prefixes of L_m, is the
    prefix set of L_{n+1} and, as the n-prefixes of S = P, its suffix set
    too, for every n < m.  Otherwise, or if P != S, the identities are
    counted."""
    if N > oracle.horizon:
        raise HorizonExceeded(f"complexity to {N} beyond horizon {oracle.horizon}")
    p = oracle.counts(N)
    s = tuple(p[n + 1] - p[n] for n in range(N))
    # the cut that the counts read, or a longer one: the comparison cuts it to m
    m = min(N + 1, oracle.horizon)
    cut = oracle._top_cut(m)[0]
    if (all(len(w) >= m for w in cut)
            and {w[:m - 1] for w in cut} == {w[1:m] for w in cut}):
        return ComplexityProfile(p, s)
    L = [oracle.factors(n) for n in range(N + 1)]
    degrees = []    # d+(u) + d-(u) summed over L_n: sum m(u) = #biext - degrees + p(n)
    for n in range(N):
        right = Counter(w[:-1] for w in L[n + 1] if w[:-1] in L[n])
        left = Counter(w[1:] for w in L[n + 1] if w[1:] in L[n])
        rs, ls = right.total() - len(right), left.total() - len(left)
        if not rs == ls == s[n]:
            raise IdentityViolation(f"first-difference identity fails at n={n}: s={s[n]} right={rs} left={ls}")
        degrees.append(right.total() + left.total())
    for n in range(N - 1):
        biext = sum(w[1:-1] in L[n] and w[:-1] in L[n + 1] and w[1:] in L[n + 1] for w in L[n + 2])
        if s[n + 1] - s[n] != (total_m := biext - degrees[n] + p[n]):
            raise IdentityViolation(f"second-difference identity fails at n={n}: ds={s[n + 1] - s[n]} sum m={total_m}")
    return ComplexityProfile(p, s)
