"""Switching-law algebra: signs, simplification, and full enumeration of
the order-n catalog of augmented switching laws.

The catalog has one filter beyond ``Asl`` construction (which rejects
adjacent bound-riding behaviors, markers not flanked by saturation stages
and broken sign chains): every virtual group holds an even number of
even-valued members.  The paper's other structural rules cannot remove a
candidate that ``enumerate_af`` builds:

- candidates are unsigned, so the sign rules (marker flanks share the
  marker's sign, a group's last member opposes the stage after it, the
  chain crosses a group) constrain only ``assign_signs``, which keeps them;
- a marker is built at state index n with degree d < n;
- a candidate whose group lacks its context (a stage before it, a
  saturation stage after it) or whose last member is not the unique
  highest ride also breaks the parity rule, through order 4.
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from .model import (
    Asl,
    AslElement,
    AslError,
    Behavior,
    TangentMarker,
    VirtualGroup,
    expected_prev_sign,
)


class LawEnumerationError(RuntimeError):
    """Catalog construction exceeded its candidate cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"enumeration of order {order} exceeded cap {cap}")
        self.order = order
        self.cap = cap


@cache
def assign_signs(asl: Asl, last_sign: int) -> Asl:
    """Attach the unique sign assignment fixed by the final element's sign.

    Signs propagate right to left, in one pass: a predecessor copies the
    sign across an odd-valued successor and flips across an even-valued
    one; a tangent marker takes the sign of the stage after it, and so does
    the stage before it; a virtual group is transparent to the main chain,
    its last member opposes the stage after the group and its interior
    chains by the same rule.  Laws are frozen, so each (law, sign) is
    signed once and its result cached.
    """
    if last_sign not in (1, -1):
        raise ValueError(f"last_sign must be +1 or -1, got {last_sign}")
    out: list[AslElement] = []
    succ: Optional[Behavior] = None              # next plain behavior rightward
    bridge_marker = False                        # a marker sits between e and succ
    for e in reversed(asl.unsigned().elements):
        if isinstance(e, Behavior):
            if succ is None:
                s = last_sign
            elif bridge_marker:
                s = succ.sign
            else:
                s = expected_prev_sign(succ)
            succ = Behavior(e.value, s)
            out.append(succ)
            bridge_marker = False
        elif isinstance(e, TangentMarker):
            # Asl construction puts a saturation stage after every marker,
            # so succ is that stage
            out.append(TangentMarker(Behavior(e.behavior.value, succ.sign),
                                     e.degree))
            bridge_marker = True
        else:
            if succ is None:
                raise AslError("virtual group has no following stage",
                               "group-context")
            members: list[Behavior] = []
            s = -succ.sign
            for m in reversed(e.members):
                members.append(Behavior(m.value, s))
                s = expected_prev_sign(members[-1])
            out.append(VirtualGroup(tuple(reversed(members))))
            bridge_marker = False
    return Asl(tuple(reversed(out)))


def _even_evens(law: Asl) -> bool:
    """Every virtual group holds an even number of even-valued members."""
    return all(sum(m.value % 2 == 0 for m in e.members) % 2 == 0
               for e in law.elements if isinstance(e, VirtualGroup))


def simplify(asl: Asl) -> Asl:
    """Drop zero-dimension group suffixes; empty groups vanish. Idempotent."""
    out: list[AslElement] = []
    for e in asl.elements:
        if not isinstance(e, VirtualGroup):
            out.append(e)
            continue
        members = list(e.members)
        cut = len(members)
        running = 0
        for j in range(len(members) - 1, -1, -1):
            running += 1 - members[j].value
            if running == 0:
                cut = j
        members = members[:cut]
        if members:
            out.append(VirtualGroup(tuple(members)))
    return Asl(tuple(out))


def canonical(asl: Asl) -> str:
    """Canonical catalog form: unsigned compact serialization."""
    return asl.unsigned().text()


# the most splice candidates a catalog may be built from: order 4 splices
# 24^2 order-3 pairs, order 5 would splice 4,320^2
ENUMERATION_CAP = 10 ** 6


@cache
def enumerate_af(n: int) -> tuple[Asl, ...]:
    """The order-n catalog of augmented switching laws, unsigned and canonical.

    Built recursively: the order-1 catalog is the single saturation stage;
    each step splices a bound-riding behavior between two lower-order laws,
    wraps a split suffix plus the riding behavior into a virtual group, or
    prefixes a tangent-marker construction with a low-order reach law.  For
    order >= 4 the construction is a superset claim only; nothing beyond it
    is generated.  Each candidate is simplified and kept when every virtual
    group holds an even number of even-valued members, the catalog's only
    filter (a candidate that breaks a rule ``Asl`` construction enforces
    never forms).  Results are deduplicated, sorted, and cached by order.
    Raises LawEnumerationError at once when the splice candidates,
    len(lower)^2, exceed ENUMERATION_CAP.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return (Asl((Behavior(0),)),)
    lower = enumerate_af(n - 1)
    if len(lower) ** 2 > ENUMERATION_CAP:
        raise LawEnumerationError(n, ENUMERATION_CAP)
    k = n - 1
    pool: dict[str, Asl] = {}

    def push(elements: tuple[AslElement, ...], into: dict[str, Asl]) -> None:
        try:
            law = simplify(Asl(elements))
        except AslError:
            return
        if _even_evens(law):
            into.setdefault(canonical(law), law)

    ride = Behavior(k)
    for s1 in lower:
        for s2 in lower:
            push(s1.elements + (ride,) + s2.elements, pool)
    for law in lower:
        elems = law.elements
        for i in range(len(elems) + 1):
            suffix = elems[i:]
            if not all(isinstance(e, Behavior) for e in suffix):
                continue
            group = VirtualGroup(tuple(suffix) + (ride,))
            for s3 in lower:
                push(elems[:i] + (group,) + s3.elements, pool)
    marker_pool: dict[str, Asl] = {}
    for d in range(2, n, 2):
        reach = enumerate_af(d)
        for s1 in reach:
            for key in sorted(pool):
                s2 = pool[key]
                marker = TangentMarker(Behavior(n), d)
                push(s1.elements + (marker,) + s2.elements, marker_pool)
    pool.update(marker_pool)
    return tuple(pool[key] for key in sorted(pool))
