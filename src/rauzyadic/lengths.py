"""Path-length bookkeeping computed from accumulated morphism images.

At an arrival in the two-loop region the quantities |u1|, |u2|, |v1|,
|v2| and the maximal loop count are linear in the letter-image lengths of
the composition of all earlier steps, together with common-prefix /
common-suffix data; an arrival in the no-loop region adds |p1| and |p2|.
Nothing here rebuilds Rauzy graphs: that is what the measurement oracle
in the test suite is for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

from .errors import UnsupportedCase
from .morphism import Morphism, compose_all
from .schemas import GPRIME_ROW_BY_ID, Match, Step
from .words import common_prefix_len


@dataclass(frozen=True)
class LengthState:
    """The region lengths at an arrival, with ``case`` the ``kcase`` of the
    region entry they were computed from and ``h`` the loop steps since.
    A negative length means the case's formulas do not apply, so it is
    refused with UnsupportedCase."""

    u1: int
    u2: int
    v1: int
    v2: int
    K: int
    h: int
    case: str
    p1: int | None = None
    p2: int | None = None

    def __post_init__(self):
        for f in fields(self):
            if isinstance(value := getattr(self, f.name), int) and value < 0:
                raise UnsupportedCase(f"negative length {f.name}={value} in case {self.case}")

    @property
    def margin(self) -> int:
        """|u1| + h(|u1|+|v1|) - (|u2| + (K-1)(|u2|+|v2|)); the two-loop exit
        gate asks for it to be >= 0, and exact-slope mode for it to be 0."""
        u1, u2, v1, v2, K, h = self.u1, self.u2, self.v1, self.v2, self.K, self.h
        return (u1 + h * (u1 + v1)) - (u2 + (K - 1) * (u2 + v2))


def common_suffix_len(a: str, b: str) -> int:
    return common_prefix_len(a[::-1], b[::-1])


def _power_suffix(g: Morphism, a: str, b: str) -> int:
    """|CS(g(a)^i, g(b)^j)| with the powers long enough to stabilize."""
    bound = 2 * max(len(w) for w in g.images) + 2
    wa, wb = g(a), g(b)
    pa = wa * (bound // max(1, len(wa)) + 2)
    pb = wb * (bound // max(1, len(wb)) + 2)
    return common_suffix_len(pa, pb)


def _type3_q(g: Morphism, top: str, x: str, y: str) -> int:
    """Length of the simple path from the left special vertex to the
    bispecial one in a one-right-special three-circuit graph.

    All three quantities are stabilized common suffixes of letter-image
    powers; the two pairs through the top loop pin the graph order."""
    order = min(_power_suffix(g, top, x), _power_suffix(g, top, y))
    return _power_suffix(g, x, y) - order


def _type10_data(g: Morphism) -> tuple[int, int]:
    """(order, left-to-bispecial path length) at a three-circuit loop
    vertex, from common suffixes of letter-image powers."""
    order = _power_suffix(g, "1", "2")
    q = _power_suffix(g, "0", "1") - order
    return order, q


def _region_values(kcase: str, g: Morphism, match: Match,
                  entry: Morphism) -> tuple[int, int, int, int, int]:
    """(u1, u2, v1, v2, K) of the arrival region per the entry case, K the
    loop count of the entry: each case's formulas and K, stated once.

    g is the composition of the steps before the entry; match is the entry
    step's row match, whose assignment and exponents the formulas read;
    entry is the morphism of the entry step itself (for composite rows, of
    its embedded loop-region part)."""
    L = lambda w: len(g(w))
    x, y, z, i = (match.sub.get(c) for c in "xyzi")
    k, l = match.k or 0, match.l or 0
    img0 = entry.images[0]
    if kcase in ("type1_entry", "c2_two_seg"):
        return L(x) - 1, L(y) - 1, 1, 1, k - 1
    if kcase == "c2_group":
        return L(x) - 1, L(y + z) - 1, 1, 1, k - 1
    if kcase == "c2_pairfirst":
        return L(x + y) - 1, L(z) - 1, 1, 1, k - 1
    if kcase == "c2_group_odd":
        return L(x) - 1, L(y) - 1, 1, L(z) + 1, k
    if kcase == "c2_pairsplit":
        return L(y) - 1, L(z) - 1, L(x) + 1, 1, k - 1
    if kcase in ("c2_4R_a", "c2_4R_b"):
        u1 = L(x) - common_prefix_len(g(z), g(x)) - 1
        return u1, L(z) - 1, L(img0) - u1, 1, k - l - 1
    if kcase == "c2_10R_a":
        u1, u2 = L(z) - 1, L(x) - 1
        return u1, u2, L(img0) - u1, L(x + y) - u2, k - l - 1
    if kcase == "c2_10R_b":
        u1, u2 = L(z) - 1, L(y) - 1
        return u1, u2, L(img0) - u1, L(x) + 1, l - k
    if kcase == "v_top":
        q = _type3_q(g, i, x, y)
        u1, u2 = L(i) - 1, q - 1
        return u1, u2, 1, L(y) - u2, k
    if kcase == "v_bottom":
        q = _type3_q(g, i, x, y)
        u1, u2 = q - 1, L(i) - 1
        return u1, u2, L(x) - u1, 1, k - 1
    if kcase == "v_10R_a":
        q = _type3_q(g, i, x, y)
        u1, u2 = L(i) - 1, L(y) - q - 1
        return u1, u2, L(img0) - u1, L(y) - u2, k - l - 1
    if kcase == "v_10R_b":
        q = _type3_q(g, i, x, y)
        u1, u2 = L(i) - 1, q - 1
        return u1, u2, L(img0) - u1, L(y) - u2, l - k
    if kcase == "f4_direct":
        cp = common_prefix_len(g(x), g(y))
        u1, u2 = L("0") - 1, cp - 1
        return u1, u2, 1, L(x) - u2, k
    if kcase == "f4_4R":
        cp = common_prefix_len(g(x), g(y))
        u1, u2 = L(y) - cp - 1, L(x) - 1
        return u1, u2, L(img0) - u1, 1, k - l - 1
    if kcase == "f4_10R_a":
        cp = common_prefix_len(g(x), g(y))
        u1, u2 = L(y) - cp - 1, L("0") - 1
        return u1, u2, L(img0) - u1, L(x + "0") - u2, k - l
    if kcase == "f4_10R_b":
        cp = common_prefix_len(g(x), g(y))
        u1, u2 = L(y) - cp - 1, L(x) - 1
        return u1, u2, L(img0) - u1, L("0") + 1, l - k - 1
    if kcase in ("c56_direct", "c56_loop"):
        cp = common_prefix_len(g("0"), g("2"))
        u1, u2 = L("2") - cp - 1, cp - 1
        return u1, u2, L(img0) - u1, L("0") - u2, k
    if kcase == "c56_10R_a":
        cp = common_prefix_len(g("0"), g("2"))
        q = _power_suffix(g, "1", "2") - min(_power_suffix(g, "0", "1"),
                                             _power_suffix(g, "0", "2"))
        u1, u2 = L("0") - cp - 1, q - 1
        return u1, u2, L(img0) - u1, L("2") - u2, k - l
    if kcase == "c56_10R_b":
        cp = common_prefix_len(g("0"), g("2"))
        u1, u2 = L("0") - cp - 1, L("2") - cp - 1
        return u1, u2, L(img0) - u1, cp + 1, l - k - 1
    if kcase in ("c10B_direct", "c10B_56"):
        cp = common_prefix_len(g("1"), g("2"))
        _, q = _type10_data(g)
        u1, u2 = q - 1, cp - 1
        return u1, u2, L(img0) - u1, L("2") - u2, k
    if kcase == "c10B_10R_a":
        cp = common_prefix_len(g("1"), g("2"))
        _, q = _type10_data(g)
        u1, u2 = L("2") - cp - 1, q - 1
        return u1, u2, L(img0) - u1, L("1") - u2, k - l
    if kcase == "c10B_10R_b":
        cp = common_prefix_len(g("1"), g("2"))
        u1, u2 = L("2") - cp - 1, L("0") - 1
        return u1, u2, L(img0) - u1, L("1") - u2, l - k - 1
    raise UnsupportedCase(f"no length formulas for case {kcase!r}")


# the composite 5/6 arrivals, by case: each embeds the entry of the row
# named here, at the arrival's k
_EMBEDDED_ENTRY = {"c56_loop": "C4.56.78a", "c10B_56": "C4.10B.78a"}


def _is_loop_step(step: Step) -> bool:
    return step.src == "7/8" and step.dst == "7/8"


def compute_length_state(steps: Sequence[Step]) -> LengthState:
    """LengthState of a matched step prefix ending at 7/8 or 5/6, as
    produced by extraction or by directive routing.

    The region entry is found by one walk back over the 7/8 loop steps,
    from the last step, or from the one before it on a plain arrival at
    5/6 (one whose row does not embed its own entry).  Raises
    UnsupportedCase when there is no entry or a length comes out negative.
    """
    if not steps:
        raise UnsupportedCase("empty step prefix")
    last = steps[-1]
    if last.dst not in ("7/8", "5/6"):
        raise UnsupportedCase(f"prefix ends at {last.dst}, not 7/8 or 5/6")
    plain_56 = last.dst == "5/6" and last.match.row.kcase not in _EMBEDDED_ENTRY
    top = e = len(steps) - 2 if plain_56 else len(steps) - 1
    while e >= 0 and _is_loop_step(steps[e]):
        e -= 1
    if e < 0 or steps[e].match.row.kcase is None:
        raise UnsupportedCase("no region entry before the no-loop arrival" if plain_56
                              else "no region entry before the loop steps")
    step = steps[e]
    match = step.match
    case = match.row.kcase
    g = compose_all([s.label for s in steps[:e]], n=step.label.codomain)
    entry = (GPRIME_ROW_BY_ID[_EMBEDDED_ENTRY[case]].instantiate({}, match.k)
             if case in _EMBEDDED_ENTRY else step.label)
    st = LengthState(*_region_values(case, g, match, entry), h=top - e, case=case)
    if last.dst == "5/6":
        # the accumulated images include the loop explosions before the exit
        gam = compose_all([g, entry] + [s.label for s in steps[e + 1 : -1]])
        p1, p2 = _p_lengths(gam, st)
        st = replace(st, p1=p1, p2=p2)
    return st


def _p_lengths(gam: Morphism, st: LengthState) -> tuple[int, int]:
    """|p1| (chain side) and |p2| of the no-loop region after st.h loop steps.

    gam is the accumulated composition through the last loop explosion;
    the excess term counts from the h-th chain-side explosion (adjudicated
    against direct measurement; the source text uses the l-th, the first
    explosion count at which the margin turns non-negative)."""
    u1, u2, v1, v2, K, h = st.u1, st.u2, st.v1, st.v2, st.K, st.h
    cp = common_prefix_len(gam.images[1], gam.images[2])
    if st.margin < 0:
        kp = 0
        while u2 + kp * (u2 + v2) < u1 + h * (u1 + v1):
            kp += 1
        other = cp - (K - 1 - kp) * (u2 + v2) - (u2 + kp * (u2 + v2) - (u1 + h * (u1 + v1))) - 1
        mine = len(gam.images[2]) - cp - 1
    else:
        other = cp - 1
        mine = len(gam.images[2]) - cp - st.margin - 1
    return mine, other
