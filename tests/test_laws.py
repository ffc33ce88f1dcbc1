import hashlib
import time

import pytest
from hypothesis import given, strategies as st

from chainplan import laws
from chainplan.model import (
    Asl,
    Behavior,
    TangentMarker,
    VirtualGroup,
    asl_parse,
    asl_to_string,
    expected_prev_sign,
)

from helpers import dimension

AF2_EXPECTED = {"00", "010"}

AF3_EXPECTED = {
    "000", "0010", "0100", "01010",
    "00200", "002010", "010200", "0102010",
    "00(3,2)000", "00(3,2)0010", "00(3,2)0100", "00(3,2)01010",
    "00(3,2)00200", "00(3,2)002010", "00(3,2)010200", "00(3,2)0102010",
    "010(3,2)000", "010(3,2)0010", "010(3,2)0100", "010(3,2)01010",
    "010(3,2)00200", "010(3,2)002010", "010(3,2)010200", "010(3,2)0102010",
}


class TestDimension:
    @pytest.mark.parametrize("text,dim", [
        ("0", 1),
        ("10", 1),
        ("2010", 1),
        ("00", 2),
        ("1010", 2),
        ("02010", 2),
        ("000", 3),
        ("0010", 3),
        ("0102010", 3),
        ("010(4,2)0102010(3)0102010", 4),
        ("0102010(3)0100", 4),
    ])
    def test_catalog_values(self, text, dim):
        assert dimension(asl_parse(text)) == dim

    def test_signed_same_as_unsigned(self):
        law = asl_parse("0102010")
        assert dimension(laws.assign_signs(law, 1)) == 3


class TestAssignSigns:
    def test_odd_successor_copies(self):
        assert asl_to_string(laws.assign_signs(asl_parse("010"), 1)) == "-0 -1 +0"

    def test_adjacent_zeros_alternate(self):
        assert asl_to_string(laws.assign_signs(asl_parse("00"), 1)) == "-0 +0"

    def test_even_successor_flips(self):
        assert asl_to_string(laws.assign_signs(asl_parse("020"), -1)) == "-0 +2 -0"

    def test_marker_bridges_same_sign(self):
        out = laws.assign_signs(asl_parse("00(4,2)000"), -1)
        assert asl_to_string(out) == "+0 -0 (-4,2) -0 +0 -0"

    def test_group_last_member_opposes_follower(self):
        out = laws.assign_signs(asl_parse("0102010(3)0100"), 1)
        assert asl_to_string(out) == "-0 -1 +0 -2 +0 +1 -0 ( -3 ) +0 +1 -0 +0"

    def test_group_members_chain(self):
        # catalog groups through order 4 are the single member (3); a longer
        # group chains its members by the plain rule
        out = laws.assign_signs(asl_parse("0102(0103)0102010"), 1)
        assert asl_to_string(out) == \
            "-0 -1 +0 -2 ( +0 +1 -0 -3 ) +0 +1 -0 +2 -0 -1 +0"

    def test_each_law_and_sign_is_signed_once(self):
        # the result is cached: the same (law, sign), or an equal law built
        # anew, gives the identical object
        for order in (1, 2, 3):
            for law in laws.enumerate_af(order):
                for sign in (1, -1):
                    first = laws.assign_signs(law, sign)
                    assert laws.assign_signs(law, sign) is first
                    assert laws.assign_signs(asl_parse(law.text()),
                                             sign) is first
                    assert laws.assign_signs(law, -sign) is not first

    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_mirror(self, order, data):
        catalog = laws.enumerate_af(order)
        law = catalog[data.draw(st.integers(0, len(catalog) - 1))]
        plus = laws.assign_signs(law, 1)
        minus = laws.assign_signs(law, -1)
        assert minus == Asl(tuple(e.negated() for e in plus.elements))

    def test_assigned_laws_validate(self):
        # every catalog law through order 4, with both signs
        checked = 0
        for order in (1, 2, 3, 4):
            for law in laws.enumerate_af(order):
                for sign in (1, -1):
                    assert _sign_rule_breaks(laws.assign_signs(law, sign)) == []
                    checked += 1
        assert checked == 8694


def _sign_rule_breaks(law):
    """Indices where a signed law breaks a sign rule that ``Asl``
    construction leaves to ``assign_signs``: marker flanks share the
    marker's sign, a group's last member opposes the stage after it, and
    the chain crosses a group.  Every group through order 4 is the single
    member (3), so no rule chains members inside a group."""
    elems = law.elements
    out = []
    for i, e in enumerate(elems):
        if isinstance(e, TangentMarker):
            if {elems[i - 1].sign, elems[i + 1].sign} != {e.behavior.sign}:
                out.append(i)
        elif isinstance(e, VirtualGroup):
            before, after = elems[i - 1], elems[i + 1]
            if i == 0 or e.members != (Behavior(3, -after.sign),) \
                    or before.sign != expected_prev_sign(after):
                out.append(i)
    return out


class TestGroupParity:
    def test_odd_evens_rejected(self):
        bad = Asl((Behavior(0), VirtualGroup((Behavior(0), Behavior(1))),
                   Behavior(0)))
        assert not laws._even_evens(bad)
        good = Asl((Behavior(0), VirtualGroup((Behavior(0), Behavior(2))),
                    Behavior(0)))
        assert laws._even_evens(good)


class TestSimplify:
    def test_zero_dimension_suffix_dropped(self):
        out = laws.simplify(asl_parse("0102(0103)0102010"))
        assert asl_to_string(out) == "01020102010"

    def test_surviving_group_untouched(self):
        text = "0102(3)0102010"
        assert asl_to_string(laws.simplify(asl_parse(text))) == text

    def test_no_groups_identity(self):
        law = asl_parse("0102010")
        assert laws.simplify(law) == law

    def test_idempotent(self):
        once = laws.simplify(asl_parse("0102(0103)0102010"))
        assert laws.simplify(once) == once


class TestEnumerate:
    def test_order_1(self):
        assert {laws.canonical(a) for a in laws.enumerate_af(1)} == {"0"}

    def test_order_2(self):
        assert {laws.canonical(a) for a in laws.enumerate_af(2)} == AF2_EXPECTED

    def test_order_3_exact(self):
        got = {laws.canonical(a) for a in laws.enumerate_af(3)}
        assert got == AF3_EXPECTED

    def test_order_3_count(self):
        assert len(laws.enumerate_af(3)) == 24

    def test_order_4_catalog_pinned(self):
        catalog = laws.enumerate_af(4)
        text = "\n".join(laws.canonical(law) for law in catalog) + "\n"
        assert len(catalog) == 4320
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "6d33e84295358183cd234f96cb02ef1de0a267eed859ee7de7c803b3016093c2"

    def test_order_4_contains_known_catalog_entries(self):
        got = {laws.canonical(a) for a in laws.enumerate_af(4)}
        assert "0000" in got
        assert "010(4,2)0102010(3)0102010" in got

    def test_enumerated_laws_have_full_dimension(self):
        for n in (1, 2, 3, 4):
            for law in laws.enumerate_af(n):
                assert dimension(law) == n

    def test_cap_exceeded(self):
        # order 5 would splice 4,320^2 pairs of order-4 laws; it must fail
        # before building any of them
        laws.enumerate_af(4)
        start = time.perf_counter()
        with pytest.raises(laws.LawEnumerationError):
            laws.enumerate_af(5)
        assert time.perf_counter() - start < 1.0

    def test_memoized(self):
        assert laws.enumerate_af(3) is laws.enumerate_af(3)

    def test_canonical_round_trip(self):
        for law in laws.enumerate_af(3):
            assert asl_parse(laws.canonical(law)) == law
