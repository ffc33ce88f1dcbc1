import itertools
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chainplan import kinematics
from chainplan.kinematics import (
    Polynomial,
    Violation,
    bisect_root,
    brake_peak,
    plan2,
    plan2_top,
    propagate,
    real_roots,
    segment_bound_check,
    state_polynomial,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
short = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


class TestPropagate:
    def test_unit_input_from_rest(self):
        assert propagate((0.0, 0.0, 0.0), 1.0, 1.0) == \
            (1.0, 0.5, pytest.approx(1.0 / 6.0, abs=1e-15))

    def test_zero_time_identity(self):
        x = (0.3, -0.2, 7.0)
        assert propagate(x, -1.0, 0.0) == x

    def test_semigroup_example(self):
        x = (0.3, -0.2)
        once = propagate(x, -1.0, 0.5)
        twice = propagate(propagate(x, -1.0, 0.2), -1.0, 0.3)
        assert twice == pytest.approx(once, rel=1e-12)

    @given(st.lists(finite, min_size=1, max_size=6), finite, short, short)
    def test_semigroup_property(self, x, u, s, t):
        x = tuple(x)
        joint = propagate(x, u, s + t)
        split = propagate(propagate(x, u, s), u, t)
        for a, b in zip(split, joint):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def _taylor_reference(x, u, t):
    """The propagation loop as first written: one Taylor sum per state."""
    out = []
    for k in range(1, len(x) + 1):
        acc = 0.0
        term = 1.0
        for i in range(k):
            acc += x[k - 1 - i] * term
            term *= t / (i + 1)
        acc += u * term
        out.append(acc)
    return tuple(out)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


class TestPurePropagateBits:
    """The unrolled kernel must give the reference loop's exact bits, and the
    top-state integral must equal the reference loop's extra state."""

    M0 = 1.5

    @staticmethod
    def _check(x, u, t):
        assert _bits(kinematics.propagate(x, u, t)) == \
            _bits(_taylor_reference(x, u, t))
        assert _bits((kinematics.integral_top(x, u, t),)) == \
            _bits(_taylor_reference(x + (0.0,), u, t)[-1:])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_states(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(500):
            x = tuple(float(v) for v in rng.uniform(-5.0, 5.0, n))
            t = float(rng.uniform(0.0, 4.0))
            for u in (-self.M0, 0.0, self.M0):
                self._check(x, u, t)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_time_and_signed_zeros(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(200):
            x = tuple(float(rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0))))
                      for _ in range(n))
            for t in (0.0, -0.0, float(rng.uniform(0.0, 2.0))):
                for u in (-self.M0, -0.0, 0.0, self.M0):
                    self._check(x, u, t)


def _check_p2_bound(x0, stages, M2, bound_eps):
    """The planner's order-2 position-bound check as it stood before
    ``plan2_top`` folded it in; raises ValueError on a violation."""
    cur = x0
    lim = M2 + bound_eps
    for u, t in stages:
        if abs(cur[1]) > lim:
            raise ValueError("position bound exceeded")
        if u != 0.0:
            ts = -cur[0] / u
            if 0.0 < ts < t and abs(propagate(cur, u, ts)[1]) > lim:
                raise ValueError("position bound exceeded")
        cur = propagate(cur, u, t)
    if abs(cur[1]) > lim:
        raise ValueError("position bound exceeded")


class TestPlan2Top:
    """``plan2_top`` must give ``plan2``'s clipped stages, the integral of a
    stage-by-stage ``integral_top``/``propagate`` loop to the bit, and None
    exactly where the old order-2 bound check raised."""

    EPS = 1e-9

    def _check(self, v0, p0, vf, pf, M0, M1, M2):
        stages = tuple((u, max(0.0, t)) for u, t in
                       plan2(v0, p0, vf, pf, M0, M1, self.EPS))
        got = plan2_top(v0, p0, vf, pf, M0, M1, M2, self.EPS, self.EPS)
        if M2 is not None:
            try:
                _check_p2_bound((v0, p0), stages, M2, self.EPS)
            except ValueError:
                assert got is None
                return None
        assert got is not None
        got_stages, got_total = got
        assert [_bits(s) for s in got_stages] == [_bits(s) for s in stages]
        total = 0.0
        cur = (v0, p0)
        for u, t in stages:
            total += kinematics.integral_top(cur, u, t)
            cur = propagate(cur, u, t)
        assert _bits((got_total,)) == _bits((total,))
        return got

    @given(st.floats(min_value=0.2, max_value=3.0),
           st.one_of(st.none(), st.floats(min_value=0.2, max_value=3.0)),
           st.one_of(st.none(), st.floats(min_value=0.2, max_value=6.0)),
           st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, M0, M1, M2, data):
        vcap = M1 if M1 is not None else 3.0
        pcap = M2 if M2 is not None else 6.0
        vel = st.floats(min_value=-vcap, max_value=vcap)
        pos = st.floats(min_value=-pcap, max_value=pcap)
        self._check(data.draw(vel), data.draw(pos), data.draw(vel),
                    data.draw(pos), M0, -1.0 if M1 is None else M1, M2)

    def test_start_equals_goal(self):
        assert self._check(0.3, -0.2, 0.3, -0.2, 1.0, 1.0, 1.5) == ((), 0.0)

    def test_unbounded_velocity_and_position(self):
        assert len(self._check(0.0, 5.0, 0.0, 0.0, 1.0, -1.0, None)[0]) == 2

    def test_cruise_stage(self):
        stages, _ = self._check(0.0, 2.0, 0.0, 0.0, 1.0, 1.0, 2.5)
        assert [u for u, _ in stages] == [-1.0, 0.0, 1.0]

    def test_interior_velocity_zero_crossing(self):
        # turning around from speed 1 peaks at position 2.0 mid-stage
        assert self._check(1.0, 1.5, -1.0, 1.5, 1.0, 1.0, 1.9) is None
        assert self._check(1.0, 1.5, -1.0, 1.5, 1.0, 1.0, 2.1) is not None

    def test_signed_zeros(self):
        for v0, p0 in itertools.product((0.0, -0.0), repeat=2):
            for vf, pf in ((0.0, 0.0), (-0.0, 0.5), (0.5, -0.0)):
                for M2 in (None, 1.0):
                    self._check(v0, p0, vf, pf, 1.0, 1.0, M2)


def _stepped_brake(x, M0, M1, count=4000):
    """Largest s * x3 of the hardest brake on a grid of ``propagate`` steps,
    s being the brake's side, and the grid's bound on how far it can fall
    short of the brake's peak."""
    x1, x2, _ = x
    s = 1.0 if x2 > 0.0 or (x2 == 0.0 and x1 > 0.0) else -1.0
    a, v = s * x1, s * x2
    # x2 turns within the ramp time to v = 0 plus, with M1, the ride from
    # the ramp's end at the largest speed the ramp can reach
    horizon = (2.0 * abs(a) + (2.0 * M0 * v) ** 0.5) / M0
    if M1 is not None:
        ramp = (a + M1) / M0
        horizon += ramp + (v + a * a / (2.0 * M0)) / M1
    horizon = 1.5 * horizon + 0.01
    best = -float("inf")
    for i in range(count + 1):
        t = horizon * i / count
        if M1 is None or t <= ramp:
            state = propagate(x, -s * M0, t)
        else:
            state = propagate(propagate(x, -s * M0, ramp), 0.0, t - ramp)
        best = max(best, s * state[2])
    h = horizon / count
    return s, best, (abs(a) + M0 * horizon) * h * h + 1e-9


@st.composite
def brake_cases(draw):
    M0 = draw(st.floats(min_value=0.2, max_value=3.0))
    M1 = draw(st.one_of(st.none(), st.floats(min_value=0.2, max_value=2.0)))
    cap = 2.0 if M1 is None else M1
    x1 = draw(st.one_of(st.floats(min_value=-cap, max_value=cap),
                        st.sampled_from((cap, -cap, 0.0, -0.0))))
    x2 = draw(st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                        st.sampled_from((0.0, -0.0))))
    x3 = draw(st.floats(min_value=-4.0, max_value=4.0))
    return (x1, x2, x3), M0, M1


class TestBrakePeak:
    """``brake_peak`` is the extreme x3 of the hardest brake, which ramps x1
    away from x2's side at -M0, rides x1 = -M1, and stops when x2 turns."""

    @given(brake_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_stepped_brake(self, case):
        x, M0, M1 = case
        peak = brake_peak(x, M0, M1)
        if x[0] == 0.0 and x[1] == 0.0:
            assert peak == x[2]
            return
        s, best, tol = _stepped_brake(x, M0, M1)
        assert best <= s * peak + 1e-9
        assert s * peak <= best + tol

    @given(brake_cases())
    @settings(max_examples=150, deadline=None)
    def test_mirror_negates_to_the_bit(self, case):
        x, M0, M1 = case
        assert brake_peak(tuple(-v for v in x), M0, M1) == -brake_peak(x, M0, M1)

    def test_signed_zeros(self):
        for x1, x2 in itertools.product((0.0, -0.0), repeat=2):
            assert brake_peak((x1, x2, 1.25), 1.0, 1.0) == 1.25
        # x2 = -0 leaves the side to x1: x1 ramps 1 -> -1, x2 turns at t = 2
        # with x3 = 2 - 8/6
        assert brake_peak((1.0, -0.0, 0.0), 1.0, None) == \
            pytest.approx(2.0 / 3.0, abs=1e-15)
        assert brake_peak((-1.0, 0.0, 0.0), 1.0, None) == \
            pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_ride_at_the_x1_bound(self):
        # x1 already at -M1: ride, and x3 gains v^2 / (2 M1)
        assert brake_peak((-1.0, 2.0, 0.5), 1.0, 1.0) == 2.5
        assert brake_peak((1.0, -2.0, -0.5), 1.0, 1.0) == -2.5


class TestStatePolynomial:
    def test_rest_to_motion(self):
        p = state_polynomial((0.0, 0.0), 1.0, 2)
        assert p.coeffs == (0.0, 0.0, 0.5)

    def test_constant_velocity(self):
        p = state_polynomial((1.0, 0.0), 0.0, 2)
        assert p.coeffs == (0.0, 1.0, 0.0)

    def test_coefficients(self):
        p = state_polynomial((1.0, 2.0, 3.0), -1.0, 3)
        assert p.coeffs == (3.0, 2.0, 0.5, pytest.approx(-1.0 / 6.0))

    @given(st.lists(finite, min_size=2, max_size=5), finite,
           st.data())
    def test_derivative_matches_lower_state(self, x, u, data):
        x = tuple(x)
        k = data.draw(st.integers(min_value=2, max_value=len(x)))
        upper = state_polynomial(x, u, k).derivative()
        lower = state_polynomial(x, u, k - 1)
        for a, b in zip(upper.coeffs, lower.coeffs):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    @given(st.lists(finite, min_size=1, max_size=5), finite, short, st.data())
    def test_evaluation_matches_propagate(self, x, u, t, data):
        x = tuple(x)
        k = data.draw(st.integers(min_value=1, max_value=len(x)))
        assert state_polynomial(x, u, k)(t) == \
            pytest.approx(propagate(x, u, t)[k - 1], rel=1e-12, abs=1e-12)


class TestRealRoots:
    def test_parabola(self):
        assert real_roots(Polynomial((-1.0, 0.0, 1.0)), (0.0, 2.0)) == \
            [pytest.approx(1.0, abs=1e-12)]

    def test_cubic(self):
        roots = real_roots(Polynomial((0.0, -1.0, 0.0, 1.0)), (-2.0, 2.0))
        assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_double_root_reported_once(self):
        roots = real_roots(Polynomial((0.09, -0.6, 1.0)), (0.0, 1.0))
        assert roots == [pytest.approx(0.3, abs=1e-10)]

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError, match="identically zero"):
            real_roots(Polynomial((0.0, 0.0)), (0.0, 1.0))

    def test_constant_has_no_roots(self):
        assert real_roots(Polynomial((2.0,)), (0.0, 1.0)) == []

    def test_endpoint_roots(self):
        roots = real_roots(Polynomial((0.0, 1.0)), (0.0, 1.0))
        assert roots == [0.0]


class _NoPlan(Exception):
    """Stands in for the PlanError that a failed gap evaluation raises."""


def _old_refine_root(p, lo, hi, tol):
    # kinematics._refine_root as it was before bisect_root replaced it
    flo = p(lo)
    if flo == 0.0:
        return lo
    fhi = p(hi)
    if fhi == 0.0:
        return hi
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = p(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _old_intercept_bisect(g, lo, g_lo, hi, tol):
    # the loop of Planner._bisect as it was; g raises _NoPlan for PlanError
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        try:
            g_mid = g(mid)
        except _NoPlan:
            break
        if g_mid == 0.0:
            lo = hi = mid
            break
        if (g_lo < 0.0) != (g_mid < 0.0):
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def _old_ride_bisect(g, lo, g_lo, hi, tol):
    # the bisection half of Planner._ride_root as it was
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            lo = hi = mid
            break
        if (g_lo < 0.0) != (g_mid < 0.0):
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


tols = st.sampled_from((0.0, 1e-12, 1e-11, 1e-6, 0.1))


@st.composite
def bracketed_polynomials(draw):
    """A polynomial with a sign change on [lo, hi], nonzero at both ends."""
    coeffs = draw(st.lists(finite, min_size=2, max_size=6))
    lo = draw(st.floats(min_value=-5.0, max_value=5.0))
    hi = lo + draw(st.floats(min_value=1e-9, max_value=10.0))
    r = draw(st.floats(min_value=lo, max_value=hi))
    coeffs[0] -= Polynomial(tuple(coeffs))(r)
    p = Polynomial(tuple(coeffs))
    flo, fhi = p(lo), p(hi)
    assume(flo != 0.0 and fhi != 0.0 and (flo < 0.0) != (fhi < 0.0))
    return p, lo, hi


class TestBisectRoot:
    """bisect_root replaces three loops; it must return their bits."""

    @given(bracketed_polynomials(), tols)
    @settings(max_examples=300, deadline=None)
    def test_polynomial_matches_old_loops(self, case, tol):
        p, lo, hi = case
        got = bisect_root(p, lo, p(lo), hi, tol).hex()
        assert got == _old_refine_root(p, lo, hi, tol).hex()
        assert got == _old_intercept_bisect(p, lo, p(lo), hi, tol).hex()
        assert got == _old_ride_bisect(p, lo, p(lo), hi, tol).hex()

    @given(bracketed_polynomials(), tols, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_none_stops_like_plan_error(self, case, tol, w):
        p, lo, hi = case
        cut = lo + w * (hi - lo)

        def g_none(t):
            return p(t) if t <= cut else None

        def g_raise(t):
            if t > cut:
                raise _NoPlan
            return p(t)

        assert bisect_root(g_none, lo, p(lo), hi, tol).hex() == \
            _old_intercept_bisect(g_raise, lo, p(lo), hi, tol).hex()

    @given(st.integers(-40, 40), st.integers(1, 40), st.integers(1, 30),
           st.data(), st.sampled_from((1.0, -3.0)),
           st.sampled_from((0.0, 1e-12)))
    @settings(max_examples=300, deadline=None)
    def test_exact_zero_returned_at_once(self, a, b, m, data, slope, tol):
        # dyadic ends and root: some midpoint lands on the root exactly
        lo, hi = a / 8.0, a / 8.0 + b / 8.0
        k = data.draw(st.integers(0, 2 ** (m - 1) - 1)) * 2 + 1
        r = lo + (hi - lo) * k / 2.0 ** m

        def f(t):
            return slope * (t - r)

        got = bisect_root(f, lo, f(lo), hi, tol)
        assert got == r
        assert got.hex() == _old_refine_root(f, lo, hi, tol).hex()
        assert got.hex() == _old_intercept_bisect(f, lo, f(lo), hi, tol).hex()
        assert got.hex() == _old_ride_bisect(f, lo, f(lo), hi, tol).hex()

    def test_stops_at_tolerance(self):
        calls = []

        def f(t):
            calls.append(t)
            return t - 0.3

        t = bisect_root(f, 0.0, -0.3, 1.0, 0.25)
        assert calls == [0.5, 0.25]
        assert t == 0.375


class TestSegmentBoundCheck:
    def test_peak_inside_bound(self):
        assert segment_bound_check((1.0, 0.0), -1.0, 2.0, (1.0, 1.0, 0.6)) is None

    def test_peak_violation(self):
        v = segment_bound_check((1.0, 0.0), -1.0, 2.0, (1.0, 1.0, 0.4))
        assert v == Violation(2, pytest.approx(1.0, abs=1e-9),
                              pytest.approx(0.5, abs=1e-12))

    def test_zero_duration(self):
        assert segment_bound_check((0.5, 0.2), 1.0, 0.0, (1.0, 1.0, 1.0)) is None

    def test_unbounded_states_skipped(self):
        assert segment_bound_check((1.0, 0.0), 1.0, 50.0, (1.0, None, None)) is None

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2,
                    max_size=4),
           st.sampled_from((-1.0, 0.0, 1.0)),
           st.floats(min_value=0.01, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_sampling(self, x, u, T):
        x = tuple(x)
        n = len(x)
        M = (1.0,) + (2.0,) * n
        verdict = segment_bound_check(x, u, T, M, 1e-9)
        dense_bad = None
        for i in range(10_001):
            t = T * i / 10_000
            s = propagate(x, u, t)
            for k in range(1, n + 1):
                if abs(s[k - 1]) > 2.0 + 1e-7:
                    dense_bad = (k, t)
                    break
            if dense_bad:
                break
        assert (verdict is None) == (dense_bad is None)
