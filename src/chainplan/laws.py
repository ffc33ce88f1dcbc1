"""Switching-law algebra: dimension, signs, validation, simplification,
and full enumeration of the order-n catalog of augmented switching laws.
``validate`` is the one filter on catalog candidates.

Rule identifiers used in validation messages:

==================  =========================================================
adjacent-nonzero    two adjacent behaviors both ride bounds
sign-chain          predecessor sign must copy across an odd value, flip
                    across an even one
marker-flanks       a tangent marker sits between two saturation stages
marker-flank-sign   both marker flanks carry the marker's own sign
marker-degree       marker degree is even, positive, and at most the state
                    index; planner-made markers are strictly below it
group-context       a virtual group needs a behavior before it and a
                    saturation stage after it
group-tail-max      the last group member rides the unique highest bound
                    among the members
group-even-evens    a group holds an even number of even-valued members
group-sign          the last member's sign opposes the stage after the
                    group; members chain by the usual sign rule
==================  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
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


def dimension(asl: Asl) -> int:
    """Degrees of freedom carried by a law.

    Each plain behavior contributes 1 minus its value, each virtual-group
    member does the same, and a tangent marker removes its degree.
    """
    total = 0
    for e in asl.elements:
        if isinstance(e, Behavior):
            total += 1 - e.value
        elif isinstance(e, VirtualGroup):
            total += sum(1 - m.value for m in e.members)
        else:
            total -= e.degree
    return total


def assign_signs(asl: Asl, last_sign: int) -> Asl:
    """Attach the unique sign assignment fixed by the final element's sign.

    Signs propagate right to left: a predecessor copies the sign across an
    odd-valued successor and flips across an even-valued one; both flanks of
    a tangent marker share the marker's sign; a virtual group is transparent
    to the main chain, its last member opposes the stage after the group and
    its interior chains by the same rule.
    """
    if last_sign not in (1, -1):
        raise ValueError(f"last_sign must be +1 or -1, got {last_sign}")
    elems = list(asl.unsigned().elements)
    out: list[Optional[AslElement]] = [None] * len(elems)
    succ: Optional[Behavior] = None              # next plain behavior rightward
    marker_indices: list[int] = []
    group_succ: dict[int, Behavior] = {}
    bridge_marker = False                        # a marker sits between i and succ
    for i in range(len(elems) - 1, -1, -1):
        e = elems[i]
        if isinstance(e, Behavior):
            if succ is None:
                s = last_sign
            elif bridge_marker:
                s = succ.sign
            else:
                s = expected_prev_sign(succ)
            signed = Behavior(e.value, s)
            out[i] = signed
            succ = signed
            bridge_marker = False
        elif isinstance(e, TangentMarker):
            # Asl construction puts a saturation stage after every marker
            marker_indices.append(i)
            bridge_marker = True
        else:
            if succ is None:
                raise AslError("virtual group has no following stage",
                               "group-context")
            group_succ[i] = succ
            bridge_marker = False
    for i in marker_indices:
        e = elems[i]
        after = out[i + 1]
        out[i] = TangentMarker(Behavior(e.behavior.value, after.sign), e.degree)
    for i, after in group_succ.items():
        members = list(elems[i].members)
        signed_members: list[Optional[Behavior]] = [None] * len(members)
        nxt: Optional[Behavior] = None
        for j in range(len(members) - 1, -1, -1):
            if nxt is None:
                s = -after.sign
            else:
                s = expected_prev_sign(nxt)
            signed_members[j] = Behavior(members[j].value, s)
            nxt = signed_members[j]
        out[i] = VirtualGroup(tuple(signed_members))
    return Asl(tuple(out))


@dataclass(frozen=True)
class RuleViolation:
    rule: str
    index: int
    message: str


def _check_group(i: int, g: VirtualGroup, after: Optional[Behavior],
                 out: list[RuleViolation]) -> None:
    tail = g.members[-1]
    if tail.value == 0:
        out.append(RuleViolation("group-tail-max", i,
                                 "last group member does not ride a bound"))
    elif any(m.value >= tail.value for m in g.members[:-1]):
        out.append(RuleViolation("group-tail-max", i,
                                 "last group member is not the unique maximum"))
    evens = sum(1 for m in g.members if m.value % 2 == 0)
    if evens % 2 != 0:
        out.append(RuleViolation("group-even-evens", i,
                                 f"group has {evens} even-valued members"))
    if after is not None and after.sign is not None:
        if tail.sign is not None and tail.sign != -after.sign:
            out.append(RuleViolation("group-sign", i,
                                     "last member must oppose the following stage"))
    for a, b in zip(g.members, g.members[1:]):
        if a.value != 0 and b.value != 0:
            out.append(RuleViolation("adjacent-nonzero", i,
                                     f"group members {a.text()} {b.text()} adjacent"))
        want = expected_prev_sign(b)
        if want is not None and a.sign is not None and a.sign != want:
            out.append(RuleViolation("group-sign", i,
                                     f"member {a.text()} inconsistent before {b.text()}"))


def validate(asl: Asl) -> list[RuleViolation]:
    """Check every structural and sign rule; empty list means valid.

    ``Asl`` construction already rejects marker-flanks, and adjacent-nonzero
    and sign-chain between two plain behaviors; the rules left are checked
    here.
    """
    out: list[RuleViolation] = []
    elems = asl.elements
    for i, e in enumerate(elems):
        before = elems[i - 1] if i > 0 else None
        after = elems[i + 1] if i + 1 < len(elems) else None
        if isinstance(e, TangentMarker):
            if e.degree >= e.behavior.value:
                out.append(RuleViolation("marker-degree", i,
                                         f"marker degree {e.degree} not below "
                                         f"state index {e.behavior.value}"))
            if e.behavior.sign is not None:
                for side in (before, after):
                    if isinstance(side, Behavior) and side.sign is not None \
                            and side.sign != e.behavior.sign:
                        out.append(RuleViolation("marker-flank-sign", i,
                                                 "marker flank sign differs from marker"))
        elif isinstance(e, VirtualGroup):
            if before is None or not isinstance(before, Behavior):
                out.append(RuleViolation("group-context", i,
                                         "virtual group needs a stage before it"))
            if not (isinstance(after, Behavior) and after.value == 0):
                out.append(RuleViolation("group-context", i,
                                         "virtual group must precede a saturation stage"))
            _check_group(i, e, after if isinstance(after, Behavior) else None, out)
        elif isinstance(after, VirtualGroup):
            # the group is transparent to the main chain
            nxt = elems[i + 2] if i + 2 < len(elems) else None
            if isinstance(nxt, Behavior):
                want = expected_prev_sign(nxt)
                if want is not None and e.sign is not None and e.sign != want:
                    out.append(RuleViolation("sign-chain", i,
                                             f"{e.text()} inconsistent across group"))
    return out


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
    is generated.  Each candidate is simplified and kept when ``validate``
    finds no violation, the catalog's only filter (a candidate that breaks
    a rule ``Asl`` construction enforces never forms).  Results are
    deduplicated, sorted, and cached by order.  Raises LawEnumerationError
    at once when the splice candidates, len(lower)^2, exceed
    ENUMERATION_CAP.
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
        if not validate(law):
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
