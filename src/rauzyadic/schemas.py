"""Evolution-morphism schemas, the graph of graphs, and its refinement.

Every morphism that can label a Rauzy-graph evolution is an instance of a
parametric bracket pattern over symbols x, y, z (a permutation of the
letters) with loop exponents k and l.  This module holds:

  * the pattern language and matcher;
  * the evolution tables per source type (used to verify extraction);
  * the refined graph with vertices 2, V0, V1, V2, 4B, 1, 5/6, 7/8, 10B,
    its edge labels, and the two reads of it that routing, extraction and
    the length bookkeeping share: the steps out of a vertex that a label
    reads (``out_steps``) and the step of a label on a given edge
    (``edge_step``).

Rows that enter the two-loop region carry the case key for the length
bookkeeping, whose formulas and loop count live in ``lengths``.  The label
configurations that component C4 excludes are tables of rows too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import AmbiguousMatch, NoSchemaMatch
from .morphism import D, Morphism, bracket, compose

# -- pattern language -------------------------------------------------


class Atom(NamedTuple):
    sym: str                 # "x", "y", "z", "i", "0".."2", or a group like "xy"
    var: str | None = None   # exponent variable "k" / "l", or None for constant
    off: int = 1             # exponent offset (constant value when var is None)


def _parse_atom(tok: str) -> Atom:
    if "^" in tok:
        base, exp = tok.split("^")
    else:
        base, exp = tok, None
    base = base.strip("()")
    if exp is None:
        return Atom(base, None, 1)
    exp = exp.strip()
    for v in ("k", "l"):
        if exp.startswith(v):
            off = int(exp[len(v):]) if len(exp) > len(v) else 0
            return Atom(base, v, off)
    return Atom(base, None, int(exp))


@lru_cache(maxsize=None)
def parse_pattern(text: str) -> tuple[Atom, ...]:
    return tuple(_parse_atom(t) for t in text.split())


def _image(atoms: tuple[Atom, ...], assign: dict[str, str], k: int, l: int) -> str | None:
    out = []
    for a in atoms:
        base = "".join(assign.get(c, c) for c in a.sym)
        e = a.off if a.var is None else (k if a.var == "k" else l) + a.off
        if e < 0:
            return None
        out.append(base * e)
    return "".join(out)


@lru_cache(maxsize=None)
def _image_lengths(text: str) -> tuple[str | None, int, int]:
    """(variable, fixed, step) of an image pattern: the image has fixed +
    step * e letters when its variable is e.  An image holds at most one
    variable (the unpacking fails otherwise); a constant image has None
    and 0."""
    atoms = parse_pattern(text)
    (var,) = {a.var for a in atoms if a.var} or {None}
    return (var, sum(len(a.sym) * a.off for a in atoms),
            sum(len(a.sym) for a in atoms if a.var))


_ASSIGNMENTS = {
    "lit": ({},),
    "xyz": tuple({"x": str(x), "y": str(y), "z": str(z)}
                 for x, y, z in itertools.permutations(range(3))),
    "xy01": ({"x": "0", "y": "1"}, {"x": "1", "y": "0"}),
    "xy12": ({"x": "1", "y": "2"}, {"x": "2", "y": "1"}),
    "ixy0": ({"i": "0", "x": "1", "y": "2"}, {"i": "0", "x": "2", "y": "1"}),
    "ixy1": ({"i": "1", "x": "0", "y": "2"}, {"i": "1", "x": "2", "y": "0"}),
    "ixy2": ({"i": "2", "x": "0", "y": "1"}, {"i": "2", "x": "1", "y": "0"}),
}


class Match(NamedTuple):
    row: "Row"
    assign: tuple[tuple[str, str], ...]
    k: int | None
    l: int | None

    @property
    def sub(self) -> dict[str, str]:
        return dict(self.assign)


@dataclass(frozen=True)
class Row:
    """One table row: a parametric morphism schema on one edge."""

    rid: str
    src: str
    dst: str
    imgs: tuple[str, ...]
    vars: str = "lit"
    opt3: bool = False
    cond: object = None            # callable (k, l) -> bool
    kcase: str | None = None       # length-bookkeeping case for 7/8 or 5/6 entries
    evolution: str | None = None   # the EVOLUTION_TABLE row a refined-graph row is read off

    @cached_property
    def atoms(self) -> tuple[tuple[Atom, ...], ...]:
        return tuple(parse_pattern(t) for t in self.imgs)

    @cached_property
    def uses(self) -> frozenset[str]:
        return frozenset(a.var for p in self.atoms for a in p if a.var)

    def instantiate(self, assign: dict[str, str], k: int = 0, l: int = 0,
                    with_third: bool = True) -> Morphism | None:
        atoms = self.atoms
        if self.opt3 and not with_third:
            atoms = atoms[:-1]
        imgs = []
        for p in atoms:
            w = _image(p, assign, k, l)
            if w is None:
                return None
            imgs.append(w)
        return bracket(*imgs)

    @cached_property
    def arities(self) -> frozenset[int]:
        """The image counts of the labels the row can match."""
        n = len(self.imgs)
        return frozenset({n, n - 1} if self.opt3 else {n})

    @cached_property
    def solver(self) -> tuple[frozenset[int], tuple[tuple[str | None, int, int], ...], object]:
        """What solve_lengths reads of the row: its arities, the (var,
        fixed, step) of each image (see _image_lengths) and cond."""
        return self.arities, tuple(map(_image_lengths, self.imgs)), self.cond

    @cached_property
    def tables(self) -> tuple[tuple[tuple[tuple[str, str], ...], dict[int, str]], ...]:
        """Per assignment, in order: its sorted items and its str.translate
        table from the pattern symbols to letters."""
        return tuple((tuple(sorted(assign.items())), str.maketrans(assign))
                     for assign in _ASSIGNMENTS[self.vars])

    @cached_property
    def parts(self) -> tuple[tuple[str | None, object], ...]:
        """Per image, what matches builds its pattern from, with the pattern
        symbols left in: (None, the image) for a constant image, and for a
        variable one (var, its atoms), each atom (symbol, offset), or
        (its text, None) when its exponent is constant."""
        out = []
        for atoms in self.atoms:
            var = next((a.var for a in atoms if a.var), None)
            if var is None:
                out.append((None, "".join(a.sym * a.off for a in atoms)))
            else:
                out.append((var, tuple((a.sym, a.off) if a.var else (a.sym * a.off, None)
                                       for a in atoms)))
        return tuple(out)

    def matches(self, m: Morphism, k: int, l: int) -> list[Match]:
        """The matches, in assignment order, under which the row's images
        at exponents k and l are m's; k and l are the ones solve_lengths
        reads off m's image lengths (match_rows does both).

        The images are built once with the pattern symbols left in, from
        the per-image ``parts`` made on first use: they depend on k and l
        alone, and an assignment's images are their translations.  A
        negative exponent gives an empty part, so that image is longer
        than the label's and matches under no assignment."""
        pattern = []
        for var, part in self.parts[:len(m.images)]:
            if var is None:
                pattern.append(part)
            else:
                e = k if var == "k" else l
                pattern.append("".join(sym if off is None else sym * (e + off)
                                       for sym, off in part))
        uses = self.uses
        out = []
        for assign, table in self.tables:
            for s, w in zip(pattern, m.images):
                if s.translate(table) != w:
                    break
            else:
                out.append(Match(self, assign, k if "k" in uses else None,
                                 l if "l" in uses else None))
        return out


def solve_lengths(rows, ns: tuple[int, ...]) -> list[tuple[Row, int, int]]:
    """The rows, in order, that have an image-length solution ns, each
    with its k and l: the rows worth matching against a label whose image
    lengths are ns.

    Each image of a row holds at most one exponent variable, and every
    variable the row uses occurs in an image before the optional third, so
    the lengths fix k and l; an unused exponent is 0, and cond must hold.
    A constant image must have its one length.  Each row is read through
    its ``solver`` record, built on first use, and k and l are two locals.
    The loop over rows is written out here, not called per row, because
    routing runs it on every bucket it looks up."""
    n = len(ns)
    out = []
    for row in rows:
        arities, images, cond = row.solver
        if n not in arities:
            continue
        k = l = None
        for (var, fixed, step), length in zip(images, ns):
            if var is None:
                if length != fixed:
                    break
                continue
            e, r = divmod(length - fixed, step or 1)
            if r or e < 0:
                break
            if var == "k":
                if k is None:
                    k = e
                elif k != e:
                    break
            elif l is None:
                l = e
            elif l != e:
                break
        else:
            k, l = k or 0, l or 0
            if cond is None or cond(k, l):
                out.append((row, k, l))
    return out


def match_rows(rows, m: Morphism, ns: tuple[int, ...] | None = None) -> list[Match]:
    """The matches of m on the rows, in order; only rows whose image
    lengths solve are matched.  ns, m's image lengths, is read off m unless
    the caller has it."""
    if ns is None:
        ns = tuple(map(len, m.images))
    out = []
    for row, k, l in solve_lengths(rows, ns):
        out.extend(row.matches(m, k, l))
    return out


def unique_row_match(rows, m: Morphism, where: str) -> Match:
    ms = match_rows(rows, m)
    rids = {x.row.rid for x in ms}
    if not ms:
        raise NoSchemaMatch(f"{m} matches no row {where}")
    if len(rids) > 1:
        raise AmbiguousMatch(f"{m} matches several rows {sorted(rids)} {where}")
    return ms[0]


# -- evolution tables per source type -----------------------------------
#
# u_from / u_to: role of the chain vertex before and after ('B', 'R' or '*').


class EvolutionRow(NamedTuple):
    from_type: int
    to_types: frozenset[int]
    u_from: str
    u_to: str
    row: Row


def _ev(ft, tts, uf, ut, rid, imgs, vars="lit", opt3=False, cond=None):
    return EvolutionRow(ft, frozenset(tts), uf, ut,
                        Row(rid, f"type{ft}", "/".join(map(str, sorted(tts))),
                            tuple(imgs), vars=vars, opt3=opt3, cond=cond))


EVOLUTION_TABLE: tuple[EvolutionRow, ...] = (
    # from type 1
    _ev(1, {1}, "B", "B", "A1.1a", ("x", "y x"), "xy01"),
    _ev(1, {1}, "B", "B", "A1.1b", ("y x", "x"), "xy01"),
    _ev(1, {7, 8}, "B", "*", "A1.78", ("x", "y^k x", "y^k-1 x"), "xy01", True,
        lambda k, l: k >= 2),
    # from type 2
    _ev(2, {1}, "B", "B", "A2.1a", ("x", "y z x"), "xyz"),
    _ev(2, {1}, "B", "B", "A2.1b", ("y z x", "x"), "xyz"),
    _ev(2, {1}, "B", "B", "A2.1c", ("x y", "z y"), "xyz"),
    _ev(2, {1}, "B", "B", "A2.1d", ("x y", "z x y"), "xyz"),
    _ev(2, {1}, "B", "B", "A2.1e", ("z x y", "x y"), "xyz"),
    _ev(2, {2}, "B", "B", "A2.2a", ("0", "1 0", "2 0")),
    _ev(2, {2}, "B", "B", "A2.2b", ("0 1", "1", "2 1")),
    _ev(2, {2}, "B", "B", "A2.2c", ("0 2", "1 2", "2")),
    _ev(2, {3}, "B", "B", "A2.3a", ("0", "1 0", "2 1 0")),
    _ev(2, {3}, "B", "B", "A2.3b", ("0", "1 2 0", "2 0")),
    _ev(2, {3}, "B", "B", "A2.3c", ("0 1", "1", "2 0 1")),
    _ev(2, {3}, "B", "B", "A2.3d", ("0 2 1", "1", "2 1")),
    _ev(2, {3}, "B", "B", "A2.3e", ("0 2", "1 0 2", "2")),
    _ev(2, {3}, "B", "B", "A2.3f", ("0 1 2", "1 2", "2")),
    _ev(2, {4}, "B", "R", "A2.4a", ("x y^k z", "y^l z", "x y^k-1 z"), "xyz", True,
        lambda k, l: k >= l >= 1 and k + l >= 3),
    _ev(2, {4}, "B", "R", "A2.4b", ("y^k z", "x y^l z", "y^k-1 z"), "xyz", True,
        lambda k, l: k >= l >= 1 and k + l >= 3),
    _ev(2, {4}, "B", "B", "A2.4c", ("x", "y x", "y z x"), "xyz"),
    _ev(2, {4}, "B", "B", "A2.4d", ("x", "y z x", "y x"), "xyz"),
    _ev(2, {7, 8}, "B", "*", "A2.78a", ("x", "y^k z x", "y^k-1 z x"), "xyz", True,
        lambda k, l: k >= 2),
    _ev(2, {7, 8}, "B", "*", "A2.78b", ("x", "z y^k x", "z y^k-1 x"), "xyz", True,
        lambda k, l: k >= 2),
    _ev(2, {7, 8}, "B", "*", "A2.78c", ("x", "(yz)^k x", "(yz)^k-1 x"), "xyz", True,
        lambda k, l: k >= 2),
    _ev(2, {7, 8}, "B", "*", "A2.78d", ("x", "(yz)^k y x", "(yz)^k-1 y x"), "xyz", True,
        lambda k, l: k >= 1),
    _ev(2, {7, 8}, "B", "*", "A2.78e", ("x y", "z^k x y", "z^k-1 x y"), "xyz", True,
        lambda k, l: k >= 2),
    _ev(2, {7, 8}, "B", "*", "A2.78f", ("x y", "z^k y", "z^k-1 y"), "xyz", True,
        lambda k, l: k >= 2),
    _ev(2, {10}, "B", "R", "A2.10a", ("(xy)^k z", "y (xy)^l z"), "xyz", False,
        lambda k, l: k >= 1 and l >= 0 and k + l >= 2),
    _ev(2, {10}, "B", "R", "A2.10b", ("(xy)^k z", "y (xy)^l z", "(xy)^k-1 z"), "xyz", False,
        lambda k, l: k >= 2 and k > l >= 0),
    _ev(2, {10}, "B", "R", "A2.10c", ("(xy)^k z", "y (xy)^l z", "y (xy)^l-1 z"), "xyz", False,
        lambda k, l: l >= k >= 1),
    _ev(2, {10}, "B", "B", "A2.10d", ("x y", "z x y", "z y"), "xyz"),
    # from type 3
    _ev(3, {1}, "B", "B", "A3.1a", ("x y", "z y"), "xyz"),
    _ev(3, {1}, "B", "B", "A3.1b", ("x y", "z"), "xyz"),
    _ev(3, {1}, "B", "B", "A3.1c", ("x", "y z"), "xyz"),
    _ev(3, {3}, "B", "B", "A3.3a", ("0", "1 0", "2 0")),
    _ev(3, {3}, "B", "B", "A3.3b", ("0", "1 0", "2")),
    _ev(3, {3}, "B", "B", "A3.3c", ("0", "1", "2 0")),
    _ev(3, {3}, "B", "B", "A3.3d", ("0 1", "1", "2 1")),
    _ev(3, {3}, "B", "B", "A3.3e", ("0 1", "1", "2")),
    _ev(3, {3}, "B", "B", "A3.3f", ("0", "1", "2 1")),
    _ev(3, {3}, "B", "B", "A3.3g", ("0 2", "1 2", "2")),
    _ev(3, {3}, "B", "B", "A3.3h", ("0 2", "1", "2")),
    _ev(3, {3}, "B", "B", "A3.3i", ("0", "1 2", "2")),
    _ev(3, {7, 8}, "B", "*", "A3.78a", ("x", "y z^k x", "y z^k-1 x"), "xyz", True,
        lambda k, l: k >= 1),
    _ev(3, {7, 8}, "B", "*", "A3.78b", ("x", "y^k z", "y^k-1 z"), "xyz", True,
        lambda k, l: k >= 2),
    _ev(3, {10}, "B", "B", "A3.10a", ("x", "y x", "y z"), "xyz"),
    _ev(3, {10}, "B", "R", "A3.10b", ("x^k y", "z x^l y"), "xyz", False,
        lambda k, l: k >= 1 and l >= 0 and k + l >= 2),
    _ev(3, {10}, "B", "R", "A3.10c", ("x^k y", "z x^l y", "x^k-1 y"), "xyz", True,
        lambda k, l: k >= 2 and k > l >= 0),
    _ev(3, {10}, "B", "R", "A3.10d", ("x^k y", "z x^l y", "z x^l-1 y"), "xyz", True,
        lambda k, l: l >= k >= 1),
    # from type 4
    _ev(4, {1}, "R", "B", "A4.1", ("x", "y"), "xy01"),
    _ev(4, {4}, "R", "R", "A4.4a", ("0", "1", "2"), "lit", True),
    _ev(4, {4}, "B", "B", "A4.4b", ("0", "1 0", "2 0")),
    _ev(4, {4}, "B", "B", "A4.4c", ("0", "2 0", "1 0")),
    _ev(4, {4}, "R", "B", "A4.4d", ("1", "0", "2")),
    _ev(4, {4}, "R", "B", "A4.4e", ("1", "2", "0")),
    _ev(4, {4}, "B", "R", "A4.4f", ("0 x^k y", "x^l y", "0 x^k-1 y"), "xy12", True,
        lambda k, l: k >= 1 and k >= l >= 0),
    _ev(4, {4}, "B", "R", "A4.4g", ("x^k y", "0 x^l y", "x^k-1 y"), "xy12", True,
        lambda k, l: k >= 1 and k >= l >= 0),
    _ev(4, {7, 8}, "R", "*", "A4.78a", ("1", "0", "2"), "lit", True),
    _ev(4, {7, 8}, "B", "*", "A4.78b", ("0", "x^k y 0", "x^k-1 y 0"), "xy12", True,
        lambda k, l: k >= 1),
    _ev(4, {10}, "R", "B", "A4.10a", ("1", "0", "2")),
    _ev(4, {10}, "B", "R", "A4.10b", ("0 (x0)^k y", "(x0)^l y"), "xy12", False,
        lambda k, l: k >= 0 and l >= 0 and k + l >= 1),
    _ev(4, {10}, "B", "R", "A4.10c", ("0 (x0)^k y", "(x0)^l y", "0 (x0)^k-1 y"), "xy12", False,
        lambda k, l: k >= 1 and k >= l >= 0),
    _ev(4, {10}, "B", "R", "A4.10d", ("0 (x0)^k y", "(x0)^l y", "(x0)^l-1 y"), "xy12", False,
        lambda k, l: l > k >= 0),
    # from type 5
    _ev(5, {1}, "R", "B", "A5.1", ("x", "y"), "xy01"),
    _ev(5, {10}, "R", "B", "A5.10a", ("1", "2", "0")),
    _ev(5, {10}, "B", "R", "A5.10b", ("1", "0 1", "2")),
    _ev(5, {10}, "B", "R", "A5.10c", ("0^k 2", "1", "0^k-1 2"), "lit", True,
        lambda k, l: k >= 1),
    _ev(5, {10}, "B", "R", "A5.10d", ("2^k 0", "1 2^l 0"), "lit", False,
        lambda k, l: k >= 0 and l >= 0 and k + l >= 1),
    _ev(5, {10}, "B", "R", "A5.10e", ("2^k 0", "1 2^l 0", "2^k-1 0"), "lit", False,
        lambda k, l: k >= l >= 0 and k >= 1),
    _ev(5, {10}, "B", "R", "A5.10f", ("2^k 0", "1 2^l 0", "1 2^l-1 0"), "lit", False,
        lambda k, l: l > k >= 0),
    # from type 6
    _ev(6, {1}, "*", "B", "A6.1a", ("x", "y x"), "xy01"),
    _ev(6, {1}, "*", "B", "A6.1b", ("y x", "x"), "xy01"),
    _ev(6, {7, 8}, "*", "*", "A6.78a", ("1", "0^k 2", "0^k-1 2"), "lit", True,
        lambda k, l: k >= 1),
    _ev(6, {7, 8}, "*", "*", "A6.78b", ("x", "y^k x", "y^k-1 x"), "xy01", True,
        lambda k, l: k >= 2),
    _ev(6, {10}, "*", "B", "A6.10a", ("1", "0 1", "2")),
    _ev(6, {10}, "*", "R", "A6.10b", ("1 2^k 0", "2^l 0"), "lit", False,
        lambda k, l: k >= 0 and l >= 0 and k + l >= 1),
    _ev(6, {10}, "*", "R", "A6.10c", ("1 2^k 0", "2^l 0", "1 2^k-1 0"), "lit", False,
        lambda k, l: k >= l >= 0 and k >= 1),
    _ev(6, {10}, "*", "R", "A6.10d", ("1 2^k 0", "2^l 0", "2^l-1 0"), "lit", False,
        lambda k, l: l > k >= 0),
    # from type 7
    _ev(7, {1}, "R", "B", "A7.1", ("x", "y"), "xy01"),
    _ev(7, {7, 8}, "R", "*", "A7.78a", ("0", "1", "2"), "lit", True),
    _ev(7, {7, 8}, "B", "*", "A7.78b", ("0", "1 0", "2 0"), "lit", True),
    _ev(7, {9}, "R", "B", "A7.9a", ("0", "x", "y"), "xy12"),
    _ev(7, {9}, "B", "R", "A7.9b", ("0 1", "1", "0 2"), "lit", True),
    _ev(7, {9}, "B", "R", "A7.9c", ("1", "0 1", "2"), "lit", True),
    _ev(7, {9}, "B", "R", "A7.9d", ("0 1", "2", "0 2"), "lit", True),
    _ev(7, {9}, "B", "R", "A7.9e", ("1", "0 2", "2"), "lit", True),
    # from type 8
    _ev(8, {1}, "*", "B", "A8.1a", ("x", "y x"), "xy01"),
    _ev(8, {1}, "*", "B", "A8.1b", ("y x", "x"), "xy01"),
    _ev(8, {5, 6}, "*", "*", "A8.56a", ("0 x", "y", "0 y"), "xy12", True),
    _ev(8, {5, 6}, "*", "*", "A8.56b", ("x", "0 y", "y"), "xy12", True),
    _ev(8, {7, 8}, "*", "*", "A8.78a", ("0", "1 0", "2 0"), "lit", True),
    _ev(8, {7, 8}, "*", "*", "A8.78b", ("x", "y^k x", "y^k-1 x"), "xy01", True,
        lambda k, l: k >= 2),
    _ev(8, {9}, "*", "B", "A8.9a", ("0", "x 0", "y 0"), "xy12"),
    _ev(8, {9}, "*", "R", "A8.9b", ("0 1", "1", "0 2"), "lit", True),
    _ev(8, {9}, "*", "R", "A8.9c", ("1", "0 1", "2"), "lit", True),
    _ev(8, {9}, "*", "R", "A8.9d", ("0 1", "2", "0 2"), "lit", True),
    _ev(8, {9}, "*", "R", "A8.9e", ("1", "0 2", "2"), "lit", True),
    # from type 9
    _ev(9, {1}, "R", "B", "A9.1", ("x", "y"), "xy01"),
    _ev(9, {5, 6}, "R", "*", "A9.56a", ("0", "1", "2"), "lit", True),
    _ev(9, {5, 6}, "R", "*", "A9.56b", ("2", "1", "0")),
    _ev(9, {5, 6}, "B", "*", "A9.56c", ("0 x", "y", "0 y"), "xy12", True),
    _ev(9, {5, 6}, "B", "*", "A9.56d", ("x", "0 y", "y"), "xy12", True),
    _ev(9, {9}, "R", "R", "A9.9a", ("0", "1", "2"), "lit", True),
    _ev(9, {9}, "B", "B", "A9.9b", ("0", "x 0", "y 0"), "xy12"),
    # from type 10
    _ev(10, {1}, "R", "B", "A10.1", ("x", "y"), "xy01"),
    _ev(10, {7, 8}, "R", "*", "A10.78a", ("1", "0", "2"), "lit", True),
    _ev(10, {7, 8}, "B", "*", "A10.78b", ("0", "2^k 1", "2^k-1 1"), "lit", True,
        lambda k, l: k >= 1),
    _ev(10, {10}, "R", "R", "A10.10a", ("1", "0", "2"), "lit", True),
    _ev(10, {10}, "B", "B", "A10.10b", ("0", "2 0", "1")),
    _ev(10, {10}, "R", "B", "A10.10c", ("0", "1", "2")),
    _ev(10, {10}, "B", "R", "A10.10d", ("0 1^k 2", "1^l 2"), "lit", False,
        lambda k, l: k >= 0 and l >= 0 and k + l >= 1),
    _ev(10, {10}, "B", "R", "A10.10e", ("0 1^k 2", "1^l 2", "0 1^k-1 2"), "lit", False,
        lambda k, l: k >= 1 and k >= l >= 0),
    _ev(10, {10}, "B", "R", "A10.10f", ("0 1^k 2", "1^l 2", "1^l-1 2"), "lit", False,
        lambda k, l: l > k >= 0),
)


def evolution_rows(from_type: int, to_type: int | None = None,
                   u_from: str | None = None) -> list[EvolutionRow]:
    out = []
    for er in EVOLUTION_TABLE:
        if er.from_type != from_type:
            continue
        if to_type is not None and to_type not in er.to_types:
            continue
        if u_from is not None and er.u_from not in ("*", u_from):
            continue
        out.append(er)
    return out


# -- the refined graph ---------------------------------------------------

# each vertex with its strongly connected component of the refined graph,
# named C1-C4 as in the paper
GPRIME_COMPONENT = {"2": "C1", "V0": "C2", "V1": "C2", "V2": "C2", "4B": "C3",
                    "1": "C4", "5/6": "C4", "7/8": "C4", "10B": "C4"}
GPRIME_VERTICES = tuple(GPRIME_COMPONENT)


_EVOLUTION_ROW_BY_ID = {er.row.rid: er.row for er in EVOLUTION_TABLE}


def _read(rid, src, dst, evolution, kcase=None):
    """The edge src -> dst labelled by one evolution: the EVOLUTION_TABLE
    row ``evolution``, with its images, assignments, optional third image
    and cond."""
    return replace(_EVOLUTION_ROW_BY_ID[evolution], rid=rid, src=src, dst=dst,
                   kcase=kcase, evolution=evolution)


def _c2_rows() -> list[Row]:
    """Loops and edges of the three-way split of the type-3 vertex.

    F_x  = { D(y,x) D(z,x),  D(x,y) D(z,y) both orders }
    F_xy = { D(x,z),  D(x,y) D(z,x) }   with z the third letter.
    """
    rows = []
    for x in range(3):
        y, z = sorted(set(range(3)) - {x})
        loops = (compose(D(y, x), D(z, x)), compose(D(x, y), D(z, y)),
                 compose(D(x, z), D(y, z)))
        for j, m in enumerate(loops):
            rows.append(Row(f"C2.V{x}.loop{j}", f"V{x}", f"V{x}",
                             tuple(" ".join(w) for w in m.images)))
    for x, yv in itertools.permutations(range(3), 2):
        z = next(iter(set(range(3)) - {x, yv}))
        single = D(x, z)
        paired = compose(D(x, yv), D(z, x))
        rows.append(Row(f"C2.V{x}{yv}.a", f"V{x}", f"V{yv}",
                         tuple(" ".join(w) for w in single.images)))
        rows.append(Row(f"C2.V{x}{yv}.b", f"V{x}", f"V{yv}",
                         tuple(" ".join(w) for w in paired.images)))
    return rows


def _gprime_rows() -> list[Row]:
    """The refined-graph rows in GPRIME_EDGES order.  A row that is one
    evolution of the graph of graphs is read off its EVOLUTION_TABLE row
    (``_read``); the others are spelled here.  A cond states only what the
    exponent offsets of the always-present images do not already force."""
    r = []
    # C1: the Arnoux-Rauzy loop on vertex 2
    r += [_read(f"C1.{c}", "2", "2", f"A2.2{c}") for c in "abc"]
    # C2
    r += _c2_rows()
    # C3: the loop on 4B
    r += [_read("C3.a", "4B", "4B", "A4.4b"),
          _read("C3.b", "4B", "4B", "A4.4c")]
    for rid, imgs in (("C3.c", ("x^k-1 y", "0 x^k y", "0 x^k-1 y")),
                      ("C3.d", ("x^k-1 y", "0 x^k-1 y", "0 x^k y")),
                      ("C3.e", ("0 x^k-1 y", "x^k y", "x^k-1 y")),
                      ("C3.f", ("0 x^k-1 y", "x^k-1 y", "x^k y"))):
        r.append(Row(rid, "4B", "4B", imgs, vars="xy12"))
    # C4, inner edges (table of labels within the last component)
    r += [Row("C4.1.loopa", "1", "1", ("0", "1 0")),
          Row("C4.1.loopb", "1", "1", ("0 1", "1")),
          _read("C4.1.78", "1", "7/8", "A1.78", kcase="type1_entry")]
    r += [_read("C4.56.1a", "5/6", "1", "A6.1a"),
          _read("C4.56.1b", "5/6", "1", "A6.1b"),
          Row("C4.56.1c", "5/6", "1", ("1 2^k 0", "2^k 0"), cond=lambda k, l: k >= 1),
          Row("C4.56.1d", "5/6", "1", ("2^k 0", "1 2^k 0"), cond=lambda k, l: k >= 1),
          Row("C4.56.1e", "5/6", "1", ("1 2^k 0", "2^k+1 0")),
          Row("C4.56.1f", "5/6", "1", ("2^k+1 0", "1 2^k 0"))]
    r += [_read("C4.56.78a", "5/6", "7/8", "A6.78a", kcase="c56_direct"),
          _read("C4.56.78b", "5/6", "7/8", "A6.78b", kcase="type1_entry"),
          Row("C4.56.78c", "5/6", "7/8", ("2^l 0", "1 2^k 0", "1 2^k-1 0"), opt3=True,
               cond=lambda k, l: k > l >= 0, kcase="c56_10R_a"),
          Row("C4.56.78d", "5/6", "7/8", ("1 2^k 0", "2^l 0", "2^l-1 0"), opt3=True,
               cond=lambda k, l: l > k + 1 >= 1, kcase="c56_10R_b")]
    r += [_read("C4.56.10a", "5/6", "10B", "A6.10a"),
          Row("C4.56.10b", "5/6", "10B", ("2^k 0", "1 2^k 0", "1 2^k-1 0")),
          Row("C4.56.10c", "5/6", "10B", ("1 2^k 0", "2^k+1 0", "2^k 0"))]
    r += [Row("C4.78.1a", "7/8", "1", ("0 1", "1")),
          Row("C4.78.1b", "7/8", "1", ("1", "0 1")),
          _read("C4.78.1c", "7/8", "1", "A7.1"),
          _read("C4.78.56a", "7/8", "5/6", "A8.56a"),
          _read("C4.78.56b", "7/8", "5/6", "A8.56b"),
          _read("C4.78.loop", "7/8", "7/8", "A8.78a")]
    r += [Row("C4.10B.1a", "10B", "1", ("0 1^k 2", "1^k 2"), cond=lambda k, l: k >= 1),
          Row("C4.10B.1b", "10B", "1", ("1^k 2", "0 1^k 2"), cond=lambda k, l: k >= 1),
          Row("C4.10B.1c", "10B", "1", ("0 1^k 2", "1^k+1 2")),
          Row("C4.10B.1d", "10B", "1", ("1^k+1 2", "0 1^k 2"))]
    r += [Row("C4.10B.78a", "10B", "7/8", ("0", "2^k 1", "2^k-1 1"), kcase="c10B_direct"),
          Row("C4.10B.78b", "10B", "7/8", ("1^l 2", "0 1^k 2", "0 1^k-1 2"), opt3=True,
               cond=lambda k, l: k > l >= 0, kcase="c10B_10R_a"),
          Row("C4.10B.78c", "10B", "7/8", ("0 1^k 2", "1^l 2", "1^l-1 2"), opt3=True,
               cond=lambda k, l: l > k + 1 >= 1, kcase="c10B_10R_b")]
    r += [_read("C4.10B.10a", "10B", "10B", "A10.10b"),
          Row("C4.10B.10b", "10B", "10B", ("1^k 2", "0 1^k 2", "0 1^k-1 2")),
          Row("C4.10B.10c", "10B", "10B", ("0 1^k 2", "1^k+1 2", "1^k 2"))]
    # the two right-proper composite edges added to the component
    r += [Row("C4.56.loopa", "5/6", "5/6", ("1 0^k 2", "0^k-1 2", "1 0^k-1 2"), kcase="c56_loop"),
          Row("C4.56.loopb", "5/6", "5/6", ("1 0^k-1 2", "0^k 2", "1 0^k 2"), kcase="c56_loop"),
          Row("C4.56.loopc", "5/6", "5/6", ("0^k 2", "1 0^k-1 2", "0^k-1 2"), kcase="c56_loop"),
          Row("C4.56.loopd", "5/6", "5/6", ("0^k-1 2", "1 0^k 2", "0^k 2"), kcase="c56_loop")]
    r += [Row("C4.10B.56a", "10B", "5/6", ("0 2^k 1", "2^k-1 1", "0 2^k-1 1"), kcase="c10B_56"),
          Row("C4.10B.56b", "10B", "5/6", ("0 2^k-1 1", "2^k 1", "0 2^k 1"), kcase="c10B_56"),
          Row("C4.10B.56c", "10B", "5/6", ("2^k 1", "0 2^k-1 1", "2^k-1 1"), kcase="c10B_56"),
          Row("C4.10B.56d", "10B", "5/6", ("2^k-1 1", "0 2^k 1", "2^k 1"), kcase="c10B_56")]
    # black edges from 2
    r += [_read(f"T2.1{c}", "2", "1", f"A2.1{c}") for c in "abcde"]
    r += [Row("T2.1f", "2", "1", ("y z^k x", "z^k x"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.1g", "2", "1", ("z^k x", "y z^k x"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.1h", "2", "1", ("y z^k x", "z^k-1 x"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.1i", "2", "1", ("z^k-1 x", "y z^k x"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.1j", "2", "1", ("y z^k-1 x", "z^k x"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.1k", "2", "1", ("z^k x", "y z^k-1 x"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.1l", "2", "1", ("(xy)^k z", "y (xy)^k z"), vars="xyz",
               cond=lambda k, l: k >= 1),
          Row("T2.1m", "2", "1", ("y (xy)^k z", "(xy)^k z"), vars="xyz",
               cond=lambda k, l: k >= 1),
          Row("T2.1n", "2", "1", ("(xy)^k z", "y (xy)^k-1 z"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.1o", "2", "1", ("y (xy)^k-1 z", "(xy)^k z"), vars="xyz",
               cond=lambda k, l: k >= 2)]
    r += [_read("T2.4Ba", "2", "4B", "A2.4c"),
          _read("T2.4Bb", "2", "4B", "A2.4d"),
          Row("T2.4Bc", "2", "4B", ("y^k-1 z", "x y^k z", "x y^k-1 z"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.4Bd", "2", "4B", ("y^k-1 z", "x y^k-1 z", "x y^k z"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.4Be", "2", "4B", ("x y^k-1 z", "y^k z", "y^k-1 z"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.4Bf", "2", "4B", ("x y^k-1 z", "y^k-1 z", "y^k z"), vars="xyz",
               cond=lambda k, l: k >= 2)]
    r += [_read("T2.V0a", "2", "V0", "A2.3b"),
          _read("T2.V0b", "2", "V0", "A2.3a"),
          _read("T2.V1a", "2", "V1", "A2.3c"),
          _read("T2.V1b", "2", "V1", "A2.3d"),
          _read("T2.V2a", "2", "V2", "A2.3e"),
          _read("T2.V2b", "2", "V2", "A2.3f")]
    r += [_read("T2.78a", "2", "7/8", "A2.78a", kcase="c2_two_seg"),
          _read("T2.78b", "2", "7/8", "A2.78b", kcase="c2_two_seg"),
          _read("T2.78c", "2", "7/8", "A2.78c", kcase="c2_group"),
          _read("T2.78d", "2", "7/8", "A2.78e", kcase="c2_pairfirst"),
          _read("T2.78e", "2", "7/8", "A2.78d", kcase="c2_group_odd"),
          _read("T2.78f", "2", "7/8", "A2.78f", kcase="c2_pairsplit"),
          Row("T2.78g", "2", "7/8", ("z^l x", "y z^k x", "y z^k-1 x"), vars="xyz",
               opt3=True, cond=lambda k, l: k - 1 > l >= 1, kcase="c2_4R_a"),
          Row("T2.78h", "2", "7/8", ("y z^l x", "z^k x", "z^k-1 x"), vars="xyz",
               opt3=True, cond=lambda k, l: k - 1 > l >= 1, kcase="c2_4R_b"),
          Row("T2.78i", "2", "7/8", ("y (xy)^l z", "(xy)^k z", "(xy)^k-1 z"), vars="xyz",
               opt3=True, cond=lambda k, l: k - 1 > l >= 0, kcase="c2_10R_a"),
          Row("T2.78j", "2", "7/8", ("(xy)^k z", "y (xy)^l z", "y (xy)^l-1 z"), vars="xyz",
               opt3=True, cond=lambda k, l: l > k >= 1, kcase="c2_10R_b")]
    r += [_read("T2.10Ba", "2", "10B", "A2.10d"),
          Row("T2.10Bb", "2", "10B", ("z^k x", "y z^k x", "y z^k-1 x"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.10Bc", "2", "10B", ("y z^k x", "z^k x", "z^k-1 x"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.10Bd", "2", "10B", ("y (xy)^k-1 z", "(xy)^k z", "(xy)^k-1 z"), vars="xyz",
               cond=lambda k, l: k >= 2),
          Row("T2.10Be", "2", "10B", ("(xy)^k z", "y (xy)^k z", "y (xy)^k-1 z"), vars="xyz")]
    # black edges from V_i
    for i in range(3):
        v, dom = f"V{i}", f"ixy{i}"
        r += [Row(f"T3.{i}.1a", v, "1", ("x", "i y"), vars=dom),
              Row(f"T3.{i}.1b", v, "1", ("i y", "x"), vars=dom),
              Row(f"T3.{i}.1c", v, "1", ("x i", "y i"), vars=dom),
              Row(f"T3.{i}.1d", v, "1", ("x y^k i", "y^k i"), vars=dom,
                   cond=lambda k, l: k >= 1),
              Row(f"T3.{i}.1e", v, "1", ("y^k i", "x y^k i"), vars=dom,
                   cond=lambda k, l: k >= 1),
              Row(f"T3.{i}.1f", v, "1", ("x y^k i", "y^k-1 i"), vars=dom,
                   cond=lambda k, l: k >= 2),
              Row(f"T3.{i}.1g", v, "1", ("y^k-1 i", "x y^k i"), vars=dom,
                   cond=lambda k, l: k >= 2),
              Row(f"T3.{i}.78a", v, "7/8", ("i", "x y^k i", "x y^k-1 i"), vars=dom,
                   opt3=True, cond=lambda k, l: k >= 1, kcase="v_top"),
              Row(f"T3.{i}.78b", v, "7/8", ("x", "i^k y", "i^k-1 y"), vars=dom,
                   opt3=True, cond=lambda k, l: k >= 2, kcase="v_bottom"),
              Row(f"T3.{i}.78c", v, "7/8", ("x y^l i", "y^k i", "y^k-1 i"), vars=dom,
                   opt3=True, cond=lambda k, l: k - 1 > l >= 0, kcase="v_10R_a"),
              Row(f"T3.{i}.78d", v, "7/8", ("y^k i", "x y^l i", "x y^l-1 i"), vars=dom,
                   opt3=True, cond=lambda k, l: l > k >= 1, kcase="v_10R_b"),
              Row(f"T3.{i}.10Ba", v, "10B", ("x", "i x", "i y"), vars=dom),
              Row(f"T3.{i}.10Bb", v, "10B", ("x y^k-1 i", "y^k i", "y^k-1 i"), vars=dom,
                   cond=lambda k, l: k >= 2),
              Row(f"T3.{i}.10Bc", v, "10B", ("y^k i", "x y^k i", "x y^k-1 i"), vars=dom)]
    # black edges from 4B
    r += [Row("T4.1a", "4B", "1", ("x^k y", "0 x^k y"), vars="xy12",
               cond=lambda k, l: k >= 1),
          Row("T4.1b", "4B", "1", ("0 x^k y", "x^k y"), vars="xy12",
               cond=lambda k, l: k >= 1),
          Row("T4.1c", "4B", "1", ("x^k-1 y", "0 x^k y"), vars="xy12"),
          Row("T4.1d", "4B", "1", ("0 x^k y", "x^k-1 y"), vars="xy12"),
          Row("T4.1e", "4B", "1", ("x^k y", "0 x^k-1 y"), vars="xy12"),
          Row("T4.1f", "4B", "1", ("0 x^k-1 y", "x^k y"), vars="xy12"),
          Row("T4.1g", "4B", "1", ("0 (x0)^k y", "(x0)^k y"), vars="xy12",
               cond=lambda k, l: k >= 1),
          Row("T4.1h", "4B", "1", ("(x0)^k y", "0 (x0)^k y"), vars="xy12",
               cond=lambda k, l: k >= 1),
          Row("T4.1i", "4B", "1", ("0 (x0)^k-1 y", "(x0)^k y"), vars="xy12"),
          Row("T4.1j", "4B", "1", ("(x0)^k y", "0 (x0)^k-1 y"), vars="xy12")]
    r += [_read("T4.78a", "4B", "7/8", "A4.78b", kcase="f4_direct"),
          Row("T4.78b", "4B", "7/8", ("x^l y", "0 x^k y", "0 x^k-1 y"), vars="xy12",
               opt3=True, cond=lambda k, l: k - 1 > l >= 0, kcase="f4_4R"),
          Row("T4.78c", "4B", "7/8", ("0 x^l y", "x^k y", "x^k-1 y"), vars="xy12",
               opt3=True, cond=lambda k, l: k - 1 > l >= 0, kcase="f4_4R"),
          Row("T4.78d", "4B", "7/8", ("(x0)^l y", "0 (x0)^k y", "0 (x0)^k-1 y"),
               vars="xy12", opt3=True, cond=lambda k, l: k > l >= 0, kcase="f4_10R_a"),
          Row("T4.78e", "4B", "7/8", ("0 (x0)^k y", "(x0)^l y", "(x0)^l-1 y"),
               vars="xy12", opt3=True, cond=lambda k, l: l - 1 > k >= 0, kcase="f4_10R_b")]
    r += [Row("T4.10Ba", "4B", "10B", ("x^k y", "0 x^k y", "0 x^k-1 y"), vars="xy12"),
          Row("T4.10Bb", "4B", "10B", ("0 x^k y", "x^k y", "x^k-1 y"), vars="xy12"),
          Row("T4.10Bc", "4B", "10B", ("(x0)^k y", "0 (x0)^k y", "0 (x0)^k-1 y"),
               vars="xy12"),
          Row("T4.10Bd", "4B", "10B", ("0 (x0)^k-1 y", "(x0)^k y", "(x0)^k-1 y"),
               vars="xy12")]
    return r


GPRIME_ROWS: tuple[Row, ...] = tuple(_gprime_rows())

GPRIME_EDGES: dict[tuple[str, str], tuple[Row, ...]] = {}
for _r in GPRIME_ROWS:
    GPRIME_EDGES.setdefault((_r.src, _r.dst), ())
    GPRIME_EDGES[(_r.src, _r.dst)] += (_r,)

GPRIME_ROW_BY_ID: dict[str, Row] = {_r.rid: _r for _r in GPRIME_ROWS}


def _cfg_rows(name: str, pats: dict) -> dict[tuple[str, str], tuple[Row, ...]]:
    return {edge: tuple(Row(f"{name}.{i}", *edge, imgs) for i, imgs in enumerate(ps))
            for edge, ps in pats.items()}


# the label configurations that component C4 condition iv excludes, each the
# edges a cycle may use with the labels it may carry on them: in b, each
# literal label is a pattern of one-atom images; in c, the labels are
# families, and the edge 5/6 -> 10B takes any of its labels.  Configuration
# a, a path that stays on the two-loop vertex, reads only its loop label
# [0,10,20], which fixes 0, so validation refuses it by weak primitivity
# before it routes
C4_CONFIG_B = _cfg_rows("cfg-b", {
    ("5/6", "5/6"): (("02", "12", "2"), ("102", "2", "12")),
    ("5/6", "7/8"): (("1", "02", "2"),),
    ("5/6", "10B"): (("1", "01", "2"),),
    ("7/8", "5/6"): (("1", "02", "2"), ("01", "2", "02")),
    ("10B", "10B"): (("0", "20", "1"), ("02", "12", "2")),
    ("10B", "5/6"): (("21", "01", "1"), ("021", "1", "01")),
})
C4_CONFIG_C = {**_cfg_rows("cfg-c", {
    ("5/6", "5/6"): (("0^k 2", "1 0^k-1 2", "0^k-1 2"), ("0^k-1 2", "1 0^k 2", "0^k 2")),
    ("10B", "10B"): (("1 2^k 0", "2^k+1 0", "2^k 0"),),
    ("5/6", "7/8"): (("1", "0^k 2", "0^k-1 2"), ("1 2^k 0", "2^l 0", "2^l-1 0")),
    ("7/8", "5/6"): (("1", "0 2", "2"), ("2", "0 1", "1")),
    ("10B", "5/6"): (("2^k 1", "0 2^k-1 1", "2^k-1 1"), ("2^k-1 1", "0 2^k 1", "2^k 1")),
    ("10B", "7/8"): (("0", "2^k 1", "2^k-1 1"),),
}), ("5/6", "10B"): GPRIME_EDGES[("5/6", "10B")]}

# label image lengths are looked up clipped at LEN_CAP: a row's exponent at
# the cap stands for every larger one
LEN_CAP = 4


def lengths_key(lengths) -> int:
    """The image lengths, each clipped at LEN_CAP, packed into one small int;
    a leading 1 keeps image counts apart."""
    key = 1
    for n in lengths:
        key = key * (LEN_CAP + 1) + min(n, LEN_CAP)
    return key


def _length_keys(row: Row) -> set[int]:
    """The lengths_key of every instance of the row.  Exponents run up to
    LEN_CAP; cond applies below the cap and is skipped at it, since an
    exponent at the cap stands for every larger one.  That is sound because
    a variable image has at least e letters at exponent e >= 1, so from the
    cap on its length clips to LEN_CAP; a row where that fails is refused.

    The patterns are read through the per-pattern caches; nothing is cached
    on the row itself."""
    atoms = [parse_pattern(t) for t in row.imgs]
    lengths = [_image_lengths(t) for t in row.imgs]
    if any(var and (step < 1 or fixed + step < 1) for var, fixed, step in lengths):
        raise AssertionError(f"row {row.rid}: a variable image has fewer than e letters "
                             "at some exponent e >= 1, so its length cannot be clipped")

    def values(var):
        """From the least value with no negative exponent; 0 when unused."""
        offs = [a.off for p in atoms for a in p if a.var == var]
        return range(max(0, -min(offs)), LEN_CAP + 1) if offs else (0,)

    keys = set()
    for k, l in itertools.product(values("k"), values("l")):
        if k < LEN_CAP and l < LEN_CAP and row.cond is not None and not row.cond(k, l):
            continue
        key = lengths_key([fixed + step * (k if var == "k" else l)
                           for var, fixed, step in lengths])
        keys.add(key)
        if row.opt3:    # without the third image: the last digit dropped
            keys.add(key // (LEN_CAP + 1))
    return keys


# the rows out of each vertex, in GPRIME_EDGES order, keyed by the
# lengths_key of a label: each bucket keeps only the rows with an instance of
# those clipped lengths, so a label is tried only on rows that can match it
GPRIME_OUT_BY_LENGTHS: dict[str, dict[int, tuple[Row, ...]]] = {}
for (_src, _), _rows in GPRIME_EDGES.items():
    _hits = GPRIME_OUT_BY_LENGTHS.setdefault(_src, {})
    for _r in _rows:
        for _key in _length_keys(_r):
            _hits[_key] = _hits.get(_key, ()) + (_r,)
del _hits


class Step(NamedTuple):
    """One step of a refined-graph path: the edge src -> dst, its label and
    the row match that reads the label.  ``blocks`` counts the directive
    levels a routed label composes; ``entry_order`` is the first order of
    the landing region of an extracted step, -1 when unknown."""

    src: str
    dst: str
    label: Morphism
    match: Match
    blocks: int = 1
    entry_order: int = -1

    def line(self) -> str:
        p = ",".join(f"{n}={v}" for n, v in (("k", self.match.k), ("l", self.match.l))
                     if v is not None)
        return f"{self.src} -> {self.dst} via {self.match.row.rid} [{p}] {self.label.rule_string()}"


def out_steps(src: str, label: Morphism, blocks: int) -> list[Step]:
    """The steps out of src that read label, a composition of ``blocks``
    directive levels, in GPRIME_EDGES order; the only out-edge lookup.

    The label's image lengths, clipped at LEN_CAP, pick the bucket of rows
    out of src; match_rows then solves k and l from the exact lengths and
    matches the patterns only on the rows whose lengths solve."""
    ns = tuple(map(len, label.images))
    rows = GPRIME_OUT_BY_LENGTHS[src].get(lengths_key(ns))
    if rows is None:
        return []
    return [Step(src, match.row.dst, label, match, blocks)
            for match in match_rows(rows, label, ns)]


def edge_step(src: str, dst: str, label: Morphism, entry_order: int = -1) -> Step:
    """The step of label on the edge src -> dst, read by the edge's unique
    matching row; NoSchemaMatch or AmbiguousMatch otherwise."""
    match = unique_row_match(GPRIME_EDGES.get((src, dst), ()), label, f"on edge {src} -> {dst}")
    return Step(src, dst, label, match, entry_order=entry_order)
