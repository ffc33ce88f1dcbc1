import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chainplan import laws, sampling
from chainplan.kinematics import propagate
from chainplan.model import (
    Asl,
    AslError,
    Behavior,
    InfeasibleError,
    ParseError,
    Problem,
    TangentMarker,
    VirtualGroup,
    asl_parse,
    asl_to_string,
)

from helpers import draw_feasible, piecewise


class TestSerialization:
    def test_signed_plain(self):
        a = Asl((Behavior(0, -1), Behavior(1, -1), Behavior(0, 1)))
        assert asl_to_string(a) == "-0 -1 +0"

    def test_signed_with_marker(self):
        a = Asl((
            Behavior(0, 1), Behavior(0, -1),
            TangentMarker(Behavior(4, -1), 2),
            Behavior(0, -1), Behavior(0, 1), Behavior(0, -1),
        ))
        assert asl_to_string(a) == "+0 -0 (-4,2) -0 +0 -0"

    def test_empty(self):
        assert asl_to_string(Asl(())) == ""

    def test_unsigned_compact(self):
        a = asl_parse("010(3,2)0102010")
        assert asl_to_string(a) == "010(3,2)0102010"

    def test_group_signed(self):
        a = asl_parse("-0 ( -3 ) +0")
        assert asl_to_string(a) == "-0 ( -3 ) +0"


class TestParse:
    def test_three_elements(self):
        a = asl_parse("-0 -1 +0")
        assert len(a) == 3
        assert a.elements[1] == Behavior(1, -1)

    def test_group(self):
        a = asl_parse("+0 ( -3 ) +0")
        assert isinstance(a.elements[1], VirtualGroup)
        assert a.elements[1].members == (Behavior(3, -1),)

    def test_adjacent_nonzero_rejected(self):
        with pytest.raises(AslError) as e:
            asl_parse("-1 -2")
        assert e.value.rule == "adjacent-nonzero"

    def test_sign_chain_rejected(self):
        # the predecessor of an even value must flip; +0 +0 cannot stand
        with pytest.raises(AslError) as e:
            asl_parse("+0 +0")
        assert e.value.rule == "sign-chain"

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as e:
            asl_parse("-0 x +0")
        assert e.value.pos == 3

    def test_unterminated_group(self):
        with pytest.raises(ParseError):
            asl_parse("+0 ( -3 ")

    def test_unmatched_close(self):
        with pytest.raises(ParseError):
            asl_parse("+0 ) +0")

    def test_nested_group(self):
        with pytest.raises(ParseError):
            asl_parse("+0 ( ( -3 ) ) +0")

    def test_marker_inside_group(self):
        with pytest.raises(ParseError):
            asl_parse("+0 ( (-3,2) ) +0")

    def test_empty_string(self):
        assert asl_parse("") == Asl(())


class TestStructuralRules:
    def test_marker_needs_flanks(self):
        with pytest.raises(AslError) as e:
            Asl((TangentMarker(Behavior(3, 1), 2), Behavior(0, 1)))
        assert e.value.rule == "marker-flanks"

    def test_marker_degree_even(self):
        with pytest.raises(AslError):
            TangentMarker(Behavior(4, 1), 3)

    def test_marker_degree_at_most_value(self):
        with pytest.raises(AslError):
            TangentMarker(Behavior(3, 1), 4)

    def test_marker_value_at_least_three(self):
        with pytest.raises(AslError):
            TangentMarker(Behavior(2, 1), 2)

    def test_group_nonempty(self):
        with pytest.raises(AslError):
            VirtualGroup(())

    def test_mixed_signs_rejected(self):
        with pytest.raises(AslError) as e:
            Asl((Behavior(0, 1), Behavior(0)))
        assert e.value.rule == "mixed-signs"


@st.composite
def _catalog_law(draw):
    order = draw(st.integers(min_value=1, max_value=3))
    catalog = laws.enumerate_af(order)
    law = catalog[draw(st.integers(min_value=0, max_value=len(catalog) - 1))]
    if draw(st.booleans()):
        law = laws.assign_signs(law, draw(st.sampled_from((1, -1))))
    return law


class TestRoundTrip:
    @given(_catalog_law())
    def test_parse_inverts_serialize(self, law):
        assert asl_parse(asl_to_string(law)) == law

    def test_signed_group_round_trip(self):
        text = "-0 -1 +0 -2 +0 +1 -0 ( -3 ) +0 +1 -0 +0"
        assert asl_to_string(asl_parse(text)) == text


class TestProblem:
    def test_valid(self):
        p = Problem(2, (0.0, 1.0), (0.0, 0.0), (1.0, 1.0, None))
        assert p.M[2] is None

    def test_state_outside_bound(self):
        with pytest.raises(InfeasibleError):
            Problem(2, (2.0, 0.0), (0.0, 0.0), (1.0, 1.0, None))

    def test_terminal_outside_bound(self):
        with pytest.raises(InfeasibleError):
            Problem(2, (0.0, 0.0), (0.0, 9.0), (1.0, 1.0, 4.0))

    def test_m0_must_be_finite(self):
        with pytest.raises(ValueError):
            Problem(1, (0.0,), (1.0,), (None, None))

    def test_nonpositive_bound(self):
        with pytest.raises(ValueError):
            Problem(1, (0.0,), (1.0,), (0.0, None))

    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            Problem(2, (0.0,), (0.0, 0.0), (1.0, 1.0, None))
        with pytest.raises(ValueError):
            Problem(2, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))

    def test_nonfinite_state(self):
        with pytest.raises(ValueError):
            Problem(1, (float("nan"),), (0.0,), (1.0, None))

    def test_infinity_normalizes_to_unbounded(self):
        p = Problem(1, (0.0,), (0.5,), (1.0, float("inf")))
        assert p.M[1] is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_negative_infinity_is_not_unbounded(self, k):
        # only +inf means unbounded: -inf is a bound that is not positive
        M = [1.0, 1.0, 1.5, 4.0]
        M[k] = -math.inf
        with pytest.raises(ValueError,
                           match=f"bound M{k} must be strictly positive"):
            Problem(3, (0.0, 0.0, 0.0), (0.5, 0.3, 1.0), tuple(M))


def scan_state_at(traj, t):
    """State at t by a linear scan over the segments, summing durations as
    it goes: the reference that ``Trajectory.state_at`` matches bit for
    bit."""
    if not traj.segments:
        return traj.problem.x0
    if t <= 0.0:
        return traj.segments[0].start
    elapsed = 0.0
    for seg in traj.segments:
        if t <= elapsed + seg.duration:
            return propagate(seg.start, seg.u, t - elapsed)
        elapsed += seg.duration
    last = traj.segments[-1]
    return propagate(last.start, last.u, last.duration)


def _planned():
    out = []
    for n, count in ((1, 3), (2, 6), (3, 8), (4, 3)):
        rng = np.random.default_rng(20 + n)
        for _ in range(count):
            out.append(draw_feasible(n, sampling.default_bounds(n), rng)[1])
    return out


class TestTrajectoryTime:
    def test_ends_are_running_sums(self):
        traj = piecewise([(1.0, 0.1), (-1.0, 0.2), (0.0, 0.3)])
        assert traj.ends == (0.1, 0.1 + 0.2, (0.1 + 0.2) + 0.3)
        assert piecewise([]).ends == ()

    def test_control_is_right_continuous(self):
        traj = piecewise([(1.0, 0.5), (0.0, 0.0), (-1.0, 0.25)])
        assert traj.control_at(-1.0) == 1.0
        assert traj.control_at(0.0) == 1.0
        # the switching instant belongs to the segment that starts there;
        # a zero-length segment never acts
        assert traj.control_at(0.5) == -1.0
        assert traj.control_at(math.nextafter(0.5, 0.0)) == 1.0

    def test_control_past_the_end_is_the_last(self):
        traj = piecewise([(1.0, 0.5), (-0.5, 0.25)])
        assert traj.control_at(0.75) == -0.5
        assert traj.control_at(10.0) == -0.5

    def test_control_without_segments_is_zero(self):
        assert piecewise([]).control_at(0.0) == 0.0
        assert piecewise([]).control_at(1.0) == 0.0

    def test_state_at_matches_a_linear_scan(self):
        for traj in _planned() + [
                piecewise([(1.0, 0.5), (0.0, 0.0), (-1.0, 0.25)], 3),
                piecewise([])]:
            times = [-1.0, 0.0, traj.t_f, traj.t_f + 1.0]
            for end in traj.ends:
                times += [end, math.nextafter(end, -math.inf),
                          math.nextafter(end, math.inf)]
            for a, b in zip((0.0,) + traj.ends, traj.ends):
                times += [0.5 * (a + b), a + 0.3 * (b - a)]
            for t in times:
                got = traj.state_at(t)
                want = scan_state_at(traj, t)
                assert [v.hex() for v in got] == [v.hex() for v in want], \
                    (traj.asl.text(), t)
