import itertools
import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chainplan import kinematics
from chainplan.kinematics import (
    EPS_PROPER,
    Violation,
    bracket_root,
    brake_peak,
    horner,
    plan2,
    plan2_top,
    propagate,
    real_roots,
    segment_bound_check,
    segment_range,
    segment_samples,
    state_polynomial,
    touch_roots,
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
                       plan2(v0, p0, vf, pf, M0, M1))
        got = plan2_top(v0, p0, vf, pf, M0, M1, M2, self.EPS)
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
                    data.draw(pos), M0, M1, M2)

    def test_start_equals_goal(self):
        assert self._check(0.3, -0.2, 0.3, -0.2, 1.0, 1.0, 1.5) == ((), 0.0)

    def test_unbounded_velocity_and_position(self):
        assert len(self._check(0.0, 5.0, 0.0, 0.0, 1.0, None, None)[0]) == 2

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


def _two_pass_plan2(v0, p0, vf, pf, M0, M1):
    """``plan2`` as it stood with its mirror loop: a start above the
    manifold ran the manifold test again on the mirrored start."""
    mirror = 1.0
    while True:
        if v0 >= vf:
            disp = (v0 * v0 - vf * vf) / (2.0 * M0)
        else:
            disp = (vf * vf - v0 * v0) / (2.0 * M0)
        pstar = pf - disp
        gap = p0 - pstar
        scale = max(1.0, math.fabs(pstar))
        if math.fabs(gap) <= EPS_PROPER * scale:
            if v0 == vf and p0 == pf:
                return ()
            u = mirror * M0 if vf >= v0 else -mirror * M0
            return ((u, math.fabs(vf - v0) / M0),)
        if gap > 0.0:
            v0, p0, vf, pf = -v0, -p0, -vf, -pf
            mirror = -mirror
            continue
        break
    w2 = M0 * (pf - p0) + 0.5 * (v0 * v0 + vf * vf)
    if w2 < 0.0:
        w2 = 0.0
    w = math.sqrt(w2)
    if M1 is None or w <= M1:
        return ((mirror * M0, (w - v0) / M0), (-mirror * M0, (w - vf) / M0))
    t1 = (M1 - v0) / M0
    t3 = (M1 - vf) / M0
    tr = (pf - p0 - (M1 * M1 - v0 * v0) / (2.0 * M0)
          - (M1 * M1 - vf * vf) / (2.0 * M0)) / M1
    return ((mirror * M0, t1), (0.0, tr), (-mirror * M0, t3))


@st.composite
def plan2_cases(draw):
    """Order-2 problems, among them equal velocities, signed zeros and
    starts on the ramp's manifold (the one-ramp case), or beside it by
    less than eps or by a little more, on either side."""
    M0 = draw(st.floats(min_value=0.2, max_value=3.0))
    M1 = draw(st.one_of(st.none(), st.floats(min_value=0.2, max_value=3.0)))
    vel = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                    st.sampled_from((0.0, -0.0)))
    pos = st.one_of(st.floats(min_value=-6.0, max_value=6.0),
                    st.sampled_from((0.0, -0.0)))
    v0, pf = draw(vel), draw(pos)
    vf = draw(st.one_of(vel, st.just(v0), st.just(-v0)))
    where = draw(st.sampled_from(("free", "on", "beside", "goal")))
    if where == "goal":
        return vf, pf, vf, pf, M0, M1
    if where == "free":
        return v0, draw(pos), vf, pf, M0, M1
    disp = (v0 * v0 - vf * vf) if v0 >= vf else (vf * vf - v0 * v0)
    p0 = pf - disp / (2.0 * M0)
    if where == "beside":
        p0 += draw(st.sampled_from((-2e-9, -5e-10, 5e-10, 2e-9)))
    return v0, p0, vf, pf, M0, M1


@pytest.mark.seeded
class TestPlan2OnePass:
    """Seeded: ``plan2`` tests the manifold once and mirrors a start above
    it in place, where the mirror loop tested the mirrored start again.
    Its stages must be the loop's, bit for bit."""

    @staticmethod
    def _stage_bits(stages):
        return [_bits(s) for s in stages]

    @given(plan2_cases())
    @settings(max_examples=600, deadline=None)
    def test_matches_mirror_loop(self, case):
        assert self._stage_bits(plan2(*case)) == \
            self._stage_bits(_two_pass_plan2(*case))

    def test_each_branch_is_reached(self):
        rng = np.random.default_rng(37)
        seen = set()
        for _ in range(2000):
            v0, vf = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
            p0, pf = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
            for M1 in (None, 0.5):
                stages = plan2(v0, p0, vf, pf, 1.0, M1)
                assert self._stage_bits(stages) == self._stage_bits(
                    _two_pass_plan2(v0, p0, vf, pf, 1.0, M1))
                seen.add((len(stages), stages[0][0] > 0.0))
        # two ramps and the cruise, each from below and mirrored from above
        assert seen >= {(2, True), (2, False), (3, True), (3, False)}


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

    @given(brake_cases(), st.floats(min_value=0.0, max_value=8.0))
    @settings(max_examples=150, deadline=None)
    def test_until_follows_the_brake(self, case, until):
        # the brake's x3 at ``until`` while its x2 keeps its side, then its
        # peak, which no earlier value exceeds
        x, M0, M1 = case
        assume(x[0] != 0.0 or x[1] != 0.0)
        s = 1.0 if x[1] > 0.0 or (x[1] == 0.0 and x[0] > 0.0) else -1.0
        ramp = None if M1 is None else (s * x[0] + M1) / M0
        if ramp is None or until <= ramp:
            state = propagate(x, -s * M0, until)
        else:
            state = propagate(propagate(x, -s * M0, ramp), 0.0, until - ramp)
        value = brake_peak(x, M0, M1, until)
        peak = brake_peak(x, M0, M1)
        expected = state[2] if s * state[1] >= 0.0 else peak
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-9)
        assert s * value <= s * peak + 1e-12

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


def _derivative(p):
    """The coefficient sequence of the derivative of p."""
    return tuple(i * c for i, c in enumerate(p) if i > 0)


@pytest.mark.seeded
class TestStatePolynomial:
    """Seeded: it pins the coefficient sequences that segment_samples
    takes."""

    def test_rest_to_motion(self):
        assert state_polynomial((0.0, 0.0), 1.0, 2) == (0.0, 0.0, 0.5)

    def test_constant_velocity(self):
        assert state_polynomial((1.0, 0.0), 0.0, 2) == (0.0, 1.0, 0.0)

    def test_coefficients(self):
        assert state_polynomial((1.0, 2.0, 3.0), -1.0, 3) == \
            (3.0, 2.0, 0.5, pytest.approx(-1.0 / 6.0))

    @given(st.lists(finite, min_size=2, max_size=5), finite,
           st.data())
    def test_derivative_matches_lower_state(self, x, u, data):
        x = tuple(x)
        k = data.draw(st.integers(min_value=2, max_value=len(x)))
        upper = _derivative(state_polynomial(x, u, k))
        lower = state_polynomial(x, u, k - 1)
        assert len(upper) == len(lower)
        for a, b in zip(upper, lower):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    @given(st.lists(finite, min_size=1, max_size=5), finite, short, st.data())
    def test_evaluation_matches_propagate(self, x, u, t, data):
        x = tuple(x)
        k = data.draw(st.integers(min_value=1, max_value=len(x)))
        assert horner(state_polynomial(x, u, k), t) == \
            pytest.approx(propagate(x, u, t)[k - 1], rel=1e-12, abs=1e-12)


@pytest.mark.seeded
class TestRealRoots:
    """Seeded: it pins the coefficient sequences that real_roots takes."""

    def test_parabola(self):
        assert real_roots((-1.0, 0.0, 1.0), (0.0, 2.0)) == \
            [pytest.approx(1.0, abs=1e-12)]

    def test_cubic(self):
        roots = real_roots((0.0, -1.0, 0.0, 1.0), (-2.0, 2.0))
        assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_double_root_reported_once(self):
        roots = real_roots((0.09, -0.6, 1.0), (0.0, 1.0))
        assert roots == [pytest.approx(0.3, abs=1e-10)]

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError, match="identically zero"):
            real_roots((0.0, 0.0), (0.0, 1.0))

    def test_constant_has_no_roots(self):
        assert real_roots((2.0,), (0.0, 1.0)) == []

    def test_endpoint_roots(self):
        roots = real_roots((0.0, 1.0), (0.0, 1.0))
        assert roots == [0.0]

    @pytest.mark.parametrize("degree, interval", [(3, (-1.0, 1.0)),
                                                  (5, (0.0, 1.0))],
                             ids=["cubic", "quintic"])
    def test_sign_change_beside_a_near_zero_point(self, degree, interval):
        # t^k - 1e-14 is within the zero tolerance at its stationary point
        # t = 0, and changes sign just beyond it, at 1e-14^(1/k)
        p = (-1e-14,) + (0.0,) * (degree - 1) + (1.0,)
        root = 1e-14 ** (1.0 / degree)
        assert real_roots(p, interval) == [0.0,
                                           pytest.approx(root, rel=1e-9)]


EPS = 2.0 ** -52


def _bisect_root(f, lo, f_lo, hi, tol):
    # the bisection that interception and root polishing shared before
    # bracket_root replaced it
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid is None:
            break
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _recorded(f):
    """f, and the list of (t, f(t)) it appends each call to."""
    calls = []

    def g(t):
        v = f(t)
        calls.append((t, v))
        return v

    return g, calls


def _stop_width(tol, t):
    # bracket_root stops once its bracket is at most tol + 4 eps |b| wide
    return tol + 4.0 * EPS * abs(t)


TOLS = (0.0, 1e-13, 1e-12, 1e-11, 1e-6, 0.1)
tols = st.sampled_from(TOLS)


@st.composite
def bracketed_polynomials(draw):
    """A polynomial with a sign change on [lo, hi], nonzero at both ends."""
    coeffs = draw(st.lists(finite, min_size=2, max_size=6))
    lo = draw(st.floats(min_value=-5.0, max_value=5.0))
    hi = lo + draw(st.floats(min_value=1e-9, max_value=10.0))
    r = draw(st.floats(min_value=lo, max_value=hi))
    coeffs[0] -= horner(coeffs, r)
    p = tuple(coeffs)
    flo, fhi = horner(p, lo), horner(p, hi)
    assume(flo != 0.0 and fhi != 0.0 and (flo < 0.0) != (fhi < 0.0))
    return p, lo, hi


def _noise(p, r):
    """A bound on the rounding error of p near r: where |p| is below it,
    rounding alone can flip the sign of p."""
    return 8.0 * EPS * sum(abs(c) * max(1.0, abs(r)) ** i
                           for i, c in enumerate(p))


def _times(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def simple_root_cases(draw):
    """(p, lo, hi, r, tol): p = lead (t - r) prod((t - s)^2 + h) with h > 0,
    so r is its only real root and a simple one, inside [lo, hi].  tol is
    one of TOLS at which the rounding noise near r, over the slope there,
    stays below 1e-3 max(tol, 1e-12)."""
    r = draw(st.floats(min_value=-5.0, max_value=5.0))
    lo = r - draw(st.floats(min_value=0.01, max_value=5.0))
    hi = r + draw(st.floats(min_value=0.01, max_value=5.0))
    coeffs = [-r, 1.0]
    pairs = st.tuples(st.floats(min_value=-5.0, max_value=5.0),
                      st.floats(min_value=0.1, max_value=4.0))
    for s, h in draw(st.lists(pairs, max_size=2)):
        coeffs = _times(coeffs, [s * s + h, -2.0 * s, 1.0])
    lead = draw(st.floats(min_value=0.1, max_value=10.0)) \
        * draw(st.sampled_from((1.0, -1.0)))
    p = tuple(lead * c for c in coeffs)
    ratio = _noise(p, r) / abs(horner(_derivative(p), r))
    tol = draw(st.sampled_from(
        [t for t in TOLS if ratio <= 1e-3 * max(t, 1e-12)]))
    return p, lo, hi, r, tol


# t^3 at tol = 0 (hypothesis seeds 1, 3, 13, 19 and 27): the bracket must
# shrink to the underflow of t^3 before the stop rule is met
_CUBE = (0.0, 0.0, 0.0, 1.0)
# a simple root at -0.5758 and a double root at 1, the first midpoint of
# the bracket (hypothesis seed 7)
_DOUBLE_AT_MIDPOINT = ((-3.25, 1.0, 8.0, -6.0, 0.25), -2.0, 4.0)


@pytest.mark.seeded
class TestBracketRoot:
    """The contract every caller relies on: a point within tol (plus the
    relative term) of a sign change of f, inside the bracket.

    Seeded: hypothesis seeds found its three failure modes (the tol = 0
    evaluation cap, a double root taken for a simple one, filtering that
    tripped the health check)."""

    @given(bracketed_polynomials(), tols)
    @example(case=(_CUBE, -1.0, 2.0), tol=0.0)
    @example(case=(_CUBE, -0.25, 0.75), tol=0.0)
    @example(case=(_CUBE, -0.75, 0.25), tol=0.0)
    @example(case=_DOUBLE_AT_MIDPOINT, tol=1e-11)
    @settings(max_examples=300, deadline=None)
    def test_sign_change_within_tol(self, case, tol):
        coeffs, lo, hi = case
        p = partial(horner, coeffs)
        f, calls = _recorded(p)
        got = bracket_root(f, lo, p(lo), hi, p(hi), tol)
        assert lo <= got <= hi
        seen = dict([(lo, p(lo)), (hi, p(hi))] + calls)
        f_got = seen[got]
        if f_got != 0.0:
            w = _stop_width(tol, got)
            assert any(abs(t - got) <= w and (v < 0.0) != (f_got < 0.0)
                       for t, v in seen.items())

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1e308), (-1e308, 1.0)])
    def test_tol_zero_from_the_widest_brackets(self, lo, hi):
        # Brent's steps alone take 3,337 evaluations from [-1, 1e308]; the
        # bisections after its budget reach the exact zero within the cap
        def cube(t):
            return t ** 3 if abs(t) < 1e100 else math.copysign(1e300, t)

        f, calls = _recorded(cube)
        got = bracket_root(f, lo, cube(lo), hi, cube(hi), 0.0)
        assert len(calls) <= kinematics._ROOT_EVALS
        assert cube(got) == 0.0

    @given(st.integers(-40, 40), st.integers(1, 40), st.data(),
           st.sampled_from((1.0, -3.0)), tols)
    @settings(max_examples=300, deadline=None)
    def test_exact_zero_returned_at_once(self, a, b, data, slope, tol):
        # f vanishes on a plateau of a quarter of the bracket: the first
        # evaluation that lands there is returned
        lo, hi = a / 8.0, a / 8.0 + b / 8.0
        z0 = lo + (hi - lo) * data.draw(st.floats(0.05, 0.7))
        z1 = z0 + 0.25 * (hi - lo)

        def plateau(t):
            return slope * (t - z0 if t < z0 else t - z1 if t > z1 else 0.0)

        f, calls = _recorded(plateau)
        got = bracket_root(f, lo, plateau(lo), hi, plateau(hi), tol)
        zeros = [i for i, (_, v) in enumerate(calls) if v == 0.0]
        # until an evaluation lands on the plateau, the bracket holds all of it
        assert zeros or tol >= z1 - z0
        if zeros:
            assert zeros == [len(calls) - 1]
            assert got == calls[-1][0]
        assert bracket_root(f, lo, -1.0, hi, 0.0, tol) == hi
        assert bracket_root(f, lo, 0.0, hi, 1.0, tol) == lo

    @given(bracketed_polynomials(), tols, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_none_stops_inside_bracket(self, case, tol, w):
        coeffs, lo, hi = case
        p = partial(horner, coeffs)
        cut = lo + w * (hi - lo)
        f, calls = _recorded(lambda t: p(t) if t <= cut else None)
        got = bracket_root(f, lo, p(lo), hi, p(hi), tol)
        nones = [i for i, (_, v) in enumerate(calls) if v is None]
        assert nones in ([], [len(calls) - 1])
        assert lo <= got <= hi
        assert got in [lo, hi] + [t for t, v in calls if v is not None]

    @given(bracketed_polynomials(), tols)
    @example(case=_DOUBLE_AT_MIDPOINT, tol=1e-11)
    @settings(max_examples=300, deadline=None)
    def test_negated_f_gives_same_bits(self, case, tol):
        # criterion 9's mirror symmetry needs the mirrored gap's crossing to
        # be the same float
        coeffs, lo, hi = case
        p = partial(horner, coeffs)
        q = partial(horner, tuple(-c for c in coeffs))
        assert bracket_root(q, lo, q(lo), hi, q(hi), tol).hex() == \
            bracket_root(p, lo, p(lo), hi, p(hi), tol).hex()

    @given(simple_root_cases())
    # t^5 - 1: well enough conditioned for tol = 0
    @example(case=((-1.0, 0.0, 0.0, 0.0, 0.0, 1.0), 0.5, 1.5,
                   1.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_bisection_on_a_simple_root(self, case):
        coeffs, lo, hi, r, tol = case
        # where rounding alone can flip the sign of p, either solver may stop
        slope = abs(horner(_derivative(coeffs), r))
        noise = _noise(coeffs, r)
        assert noise / slope <= 1e-3 * max(tol, 1e-12)
        p = partial(horner, coeffs)
        got = bracket_root(p, lo, p(lo), hi, p(hi), tol)
        old = _bisect_root(p, lo, p(lo), hi, tol)
        assert abs(got - old) <= tol + _stop_width(tol, r) + 2.0 * noise / slope

    @pytest.mark.parametrize("slope, root", [
        (1.0, 0.3), (-3.0, 0.3), (1e-3, 0.999), (250.0, 1e-7), (2.0, 0.5)])
    @pytest.mark.parametrize("tol", [0.0, 1e-13, 1e-6])
    def test_linear_takes_at_most_two_evaluations(self, slope, root, tol):
        f, calls = _recorded(lambda t: slope * (t - root))
        got = bracket_root(f, 0.0, f(0.0), 1.0, f(1.0), tol)
        del calls[:2]
        assert len(calls) <= 2
        assert abs(got - root) <= _stop_width(tol, got)

    @pytest.mark.parametrize("step", [0.3, 0.5, 0.7071, 1e-9, 1.0 - 1e-9])
    @pytest.mark.parametrize("heights", [(-1.0, 1.0), (-1e-6, 5.0), (-7.0, 1e-3)])
    @pytest.mark.parametrize("tol", [1e-13, 1e-6, 0.01])
    # at t near 1e3 a float step is 1.1e-13: without the relative term in
    # the stopping rule, tol = 1e-13 would spin until the evaluation cap
    @pytest.mark.parametrize("lo, hi", [(-2.0, 3.0), (1000.0, 1024.0)])
    def test_step_costs_at_most_twice_bisection(self, step, heights, tol,
                                                lo, hi):
        root = lo + step * (hi - lo)
        f, calls = _recorded(
            lambda t: heights[0] if t < root else heights[1])
        got = bracket_root(f, lo, heights[0], hi, heights[1], tol)
        assert len(calls) <= 2 * math.ceil(math.log2((hi - lo) / tol)) + 2
        assert abs(got - root) <= _stop_width(tol, got)


@st.composite
def touch_legs(draw, n):
    """(x, ua, ub, top, a, b): a start x from which the stages (ua, a) and
    (ub, b) end on a touch, x_{n-1} = 0 and x_n = top with x_{n-2} opposing
    top (the tangency a marker leg needs); x is found by propagating the
    touch state backwards.  The first stage ramps (law 00) or rides at zero
    control (law 010); the second ramps.

    At the touch, a moves x_n at rate (ua - ub) b^(n-1) / (n-1)! only, so
    rounding moves the durations by about 1e-16 over that rate; drawn legs
    keep the rate above 1e-5, where 1e-9 is within reach."""
    top = draw(st.floats(min_value=0.5, max_value=5.0)) \
        * draw(st.sampled_from((1.0, -1.0)))
    low = [draw(st.floats(min_value=-2.0, max_value=2.0)) for _ in range(n - 3)]
    inward = -math.copysign(draw(st.floats(min_value=0.1, max_value=2.0)), top)
    z = tuple(low) + (inward, 0.0, top)
    ub = draw(st.floats(min_value=0.5, max_value=2.0)) \
        * draw(st.sampled_from((1.0, -1.0)))
    ua = draw(st.sampled_from((-ub, 0.0)))
    a = draw(st.floats(min_value=0.05, max_value=2.0))
    b = draw(st.floats(min_value=0.05, max_value=2.0))
    assume(abs(ua - ub) * b ** (n - 1) / math.factorial(n - 1) >= 1e-5)
    x = propagate(propagate(z, ub, -b), ua, -a)
    return x, ua, ub, top, a, b


@pytest.mark.seeded
class TestTouchRoots:
    """The exact two-duration touch solve behind degree-2 marker legs.

    Seeded: TestBracketRoot's seeds and seeds 4 and 23 found order-5 legs
    that its guarded Newton polish and its [0, 2 tau] resultant piece
    missed."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_recovers_the_durations(self, n, data):
        x, ua, ub, top, a, b = data.draw(touch_legs(n))
        got = touch_roots(x, ua, ub, top, 2.5, 2.5)
        assert any(abs(p - a) <= 1e-9 and abs(q - b) <= 1e-9
                   for p, q in got), (a, b, got)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_negated_inputs_give_same_bits(self, n, data):
        x, ua, ub, top, _, _ = data.draw(touch_legs(n))
        got = touch_roots(x, ua, ub, top, 2.5, 2.5)
        neg = touch_roots(tuple(-v for v in x), -ua, -ub, -top, 2.5, 2.5)
        assert [(p.hex(), q.hex()) for p, q in got] == \
            [(p.hex(), q.hex()) for p, q in neg]

    @pytest.mark.parametrize("n", [3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_open_box_is_the_stay_within_top(self, n, data):
        # no box given: each duration is bounded by the last time its stage
        # alone keeps |x_n| <= |top|, which a leg keeping that bound cannot
        # outlast; that box can be many durations wide
        x, ua, ub, top, a, b = data.draw(touch_legs(n))
        M = (1.0,) + (None,) * (n - 1) + (abs(top),)
        assume(segment_bound_check(x, ua, a, M) is None)
        assume(segment_bound_check(propagate(x, ua, a), ub, b, M) is None)
        got = touch_roots(x, ua, ub, top)
        assert any(abs(p - a) <= 1e-9 and abs(q - b) <= 1e-9
                   for p, q in got), (a, b, got)

    @pytest.mark.parametrize("x, ua, top, a, b, box", [
        # resultant roots where guarded Newton steps stall near 5e-7 off the
        # touch
        ((2.375, -0.3046875, -0.7333984375, 0.427581787109375,
          0.8740954081217448), -1.0, 1.0, 0.5, 0.125, None),
        # resultants on [0, 2 tau] that are flat to 1e-13 across the touch,
        # with roots 0.1 to 0.25 s from it
        ((1.0, -0.203125, -0.13671875, 0.07462565104166667,
          0.9815877278645833), -0.75, 1.0, 0.25, 0.25, None),
        ((0.375, -0.4296875, 0.1103515625, 0.006032307942708329,
          0.9905708312988281), -1.0, 1.0, 0.5, 0.125, None),
        ((0.25, -0.484375, 0.055338541666666664, 0.012715657552083332,
          0.995514424641927), -2.0, 1.0, 0.25, 0.125, 2.5),
    ], ids=["polish-stall", "flat-open", "flat-open-short", "flat-box"])
    def test_ill_conditioned_fifth_order_legs(self, x, ua, top, a, b, box):
        got = touch_roots(x, ua, -ua, top, box, box)
        assert any(abs(p - a) <= 1e-9 and abs(q - b) <= 1e-9
                   for p, q in got), got

    def test_boundary_root(self):
        # the order-3 leg of the fourth-order touch-and-cruise profile: x3
        # reaches 4 as x2 reaches 0 at the end of the first ramp, so b = 0,
        # where both durations move x3 at rate x2 = 0 and the Jacobian is
        # singular; the root must survive the polish
        got = touch_roots((1.0, -0.375, 4.0), -1.0, 1.0, 4.0, 2.0, 2.0)
        assert any(b == 0.0 and abs(a - 1.5) <= 1e-12 for a, b in got), got


def _from_roots(lead, roots, pair):
    """Coefficients of lead * prod(t - r) over roots, times the factor
    (t - re)^2 + im^2 where pair = (re, im) is given."""
    p = [lead]
    factors = [(-r, 1.0) for r in roots]
    if pair is not None:
        re, im = pair
        factors.append((re * re + im * im, -2.0 * re, 1.0))
    for f in factors:
        out = [0.0] * (len(p) + len(f) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(f):
                out[i + j] += a * b
        p = out
    return tuple(p)


@st.composite
def _derivatives(draw):
    """A derivative polynomial of degree 1 to 3, a duration T and its real
    roots: simple, at least 0.25 apart and 1e-3 from 0 and T."""
    degree = draw(st.integers(1, 3))
    pair = None
    if degree >= 2 and draw(st.booleans()):
        pair = (draw(st.floats(-1.0, 4.0)), draw(st.floats(0.25, 2.0)))
    roots = sorted(draw(st.lists(st.floats(-1.0, 4.0),
                                 min_size=degree - 2 * (pair is not None),
                                 max_size=degree - 2 * (pair is not None))))
    T = draw(st.floats(0.5, 3.0))
    assume(all(b - a >= 0.25 for a, b in zip(roots, roots[1:])))
    assume(all(abs(r) >= 1e-3 and abs(r - T) >= 1e-3 for r in roots))
    lead = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 2.0))
    return _from_roots(lead, roots, pair), T, roots


@pytest.mark.seeded
class TestStationaryPoints:
    """kinematics._stationary_points: the sign changes of a scanned state's
    derivative, which segment_samples keeps inside (0, T).

    Seeded: it checks the closed-form stationary points of the bound scans
    (derivatives of degree <= 3) against real_roots."""

    @staticmethod
    def inside(d, T):
        return sorted(t for t in kinematics._stationary_points(d, T)
                      if 0.0 < t < T)

    @given(_derivatives())
    @settings(max_examples=200, deadline=None)
    def test_matches_real_roots(self, case):
        d, T, roots = case
        # every root is simple, so every root real_roots finds is a sign change
        expected = [t for t in real_roots(d, (0.0, T)) if 0.0 < t < T]
        got = self.inside(d, T)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx([r for r in roots if 0.0 < r < T],
                                    abs=1e-9)

    def test_small_root_without_cancellation(self):
        # t = 1e-10 is a root of -1e-10 + t + 1e-8 t^2; the textbook
        # (-b + sqrt(disc)) / 2a takes sqrt(1 + 4e-18) = 1 and gives 0
        assert self.inside((-1e-10, 1.0, 1e-8), 1.0) == \
            [pytest.approx(1e-10, rel=1e-12)]
        # x3's derivative x2 is that polynomial
        times = [t for t, _ in segment_samples((1.0, -1e-10, 0.0), 2e-8,
                                               1.0, 3)]
        assert times == [0.0, pytest.approx(1e-10, rel=1e-12), 1.0]

    def test_negative_discriminant(self):
        assert kinematics._stationary_points((1.0, 0.0, 1.0), 2.0) == []
        times = [t for t, _ in segment_samples((0.0, 1.0, 0.0), 2.0, 2.0, 3)]
        assert times == [0.0, 2.0]

    def test_double_root_adds_no_extreme(self):
        # (t - 0.5)^2: x3 = 0.25 t - t^2 / 2 + t^3 / 3 only pauses at 0.5
        assert kinematics._stationary_points((0.25, -1.0, 1.0), 1.0) == \
            [0.5, 0.5]
        values = [v for _, v in segment_samples((-1.0, 0.25, 0.0), 2.0,
                                                1.0, 3)]
        assert values == sorted(values)

    def test_triple_root_at_a_cut(self):
        # (t - 1)^3 changes sign at 1, where its derivative's double root
        # cuts [0, 2]: neither piece changes sign strictly
        assert self.inside((-1.0, 3.0, -3.0, 1.0), 2.0) == [1.0]

    def test_cubic_pieces(self):
        # t (t - 1)(t - 2) - 0.1 changes sign three times on [0, 3]
        d = (-0.1, 2.0, -3.0, 1.0)
        assert self.inside(d, 3.0) == pytest.approx(real_roots(d, (0.0, 3.0)),
                                                    abs=1e-12)
        assert len(self.inside(d, 3.0)) == 3

    @pytest.mark.parametrize("x, k, root", [((2.0, -1.0, 0.0), 3, 0.5),
                                            ((2.0, -2.0, 0.0, 0.0), 4, 2.0)],
                             ids=["linear", "quadratic"])
    def test_zero_control_drops_the_degree(self, x, k, root):
        # with u = 0 the derivative's top coefficient is 0
        times = [t for t, _ in segment_samples(x, 0.0, 3.0, k)]
        assert times == [0.0, pytest.approx(root, abs=1e-12), 3.0]

    def test_roots_outside_the_segment(self):
        # (t + 1)(t - 3), and t (t + 1) with a root at the start
        assert self.inside((-3.0, -2.0, 1.0), 2.0) == []
        assert self.inside((0.0, 1.0, 1.0), 2.0) == []
        times = [t for t, _ in segment_samples((-2.0, -3.0, 0.0), 2.0, 2.0, 3)]
        assert times == [0.0, 2.0]

    def test_quartic_takes_real_roots(self):
        d = _from_roots(1.0, (0.5, 1.0, 1.5, 2.5), None)
        assert self.inside(d, 2.0) == real_roots(d, (0.0, 2.0))


@pytest.mark.seeded
class TestSegmentBoundCheck:
    """Seeded: it checks the bound scans against dense sampling."""

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

    def test_flags_excess_below_the_grid_tolerance(self):
        # x2 ends at -2.000000002, 2e-9 beyond M2 = 2: above eps = 1e-9,
        # and below the 1e-7 that dense sampling can tell from rounding
        assert segment_bound_check((-1e-9, 0.0), -1.0, 2.0, (1.0, 2.0, 2.0),
                                   1e-9) == Violation(2, 2.0, -2.000000002)

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2,
                    max_size=4),
           st.sampled_from((-1.0, 0.0, 1.0)),
           st.floats(min_value=0.01, max_value=4.0))
    @example([-1e-9, 0.0], -1.0, 2.0)
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_sampling(self, x, u, T):
        # the check flags excess above eps = 1e-9 at each state's extremes,
        # and 10,001 grid points miss an extreme by at most h^2/8 times the
        # state's second derivative (h = T / 10,000), below 3e-7 here.
        # So every grid excess above 1e-7 is flagged, and every flagged
        # excess above 1e-6 is seen on the grid; between them the two
        # verdicts may differ
        x = tuple(x)
        n = len(x)
        M = (1.0,) + (2.0,) * n
        verdict = segment_bound_check(x, u, T, M, 1e-9)
        excess = [-math.inf] * (n + 1)
        for i in range(10_001):
            s = propagate(x, u, T * i / 10_000)
            for k in range(1, n + 1):
                excess[k] = max(excess[k], abs(s[k - 1]) - 2.0)
        if max(excess) > 1e-7:
            assert verdict is not None
        if verdict is not None and abs(verdict.value) - 2.0 > 1e-6:
            assert excess[verdict.k] > 0.0


def _sample_range(x, u, T, k):
    """The least and the largest of the samples' values by min and max,
    NaN skipped; (inf, -inf) where every value is NaN."""
    values = [v for _, v in segment_samples(x, u, T, k) if v == v]
    if not values:
        return math.inf, -math.inf
    return min(values), max(values)


@pytest.mark.seeded
class TestScanBits:
    """``segment_range``'s unrolled scans of states 1-3 must give the bits
    of min and max over the generic ``segment_samples``, signed zeros
    included.

    Seeded, although its draws are seeded, so every seed repeats them."""

    M0 = 1.5
    CONTROLS = (-M0, -0.0, 0.0, M0)

    @staticmethod
    def _check(x, u, T):
        for k in (1, 2, 3):
            assert _bits(segment_range(x, u, T, k)) == \
                _bits(_sample_range(x, u, T, k)), (x, u, T, k)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_random_chains(self, n):
        rng = np.random.default_rng(90 + n)
        interior = {2: 0, 3: 0}
        for _ in range(400):
            x = tuple(float(v) for v in rng.uniform(-3.0, 3.0, n))
            T = float(rng.uniform(0.0, 4.0))
            for u in self.CONTROLS:
                self._check(x, u, T)
                for k in (2, 3):
                    interior[k] += len(segment_samples(x, u, T, k)) > 2
        # the closed-form stationary points are reached, not only the ends
        assert interior[2] > 100 and interior[3] > 100

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_signed_zeros_and_zero_time(self, n):
        rng = np.random.default_rng(95 + n)
        for _ in range(200):
            x = tuple(float(rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0))))
                      for _ in range(n))
            for T in (0.0, -0.0, float(rng.uniform(0.0, 2.0))):
                for u in self.CONTROLS + (5e-324, -5e-324):
                    self._check(x, u, T)

    @pytest.mark.parametrize("x, u, times", [
        # x1 = 0 and u = 0: x2 is constant, x3 linear; no interior point
        ((0.0, 0.5, -1.0), 0.0, {1: 2, 2: 2, 3: 2}),
        ((-0.0, -0.5, 1.0), -0.0, {1: 2, 2: 2, 3: 2}),
        # u / 2 underflows to 0: x2's degree drops to 1, and x3 peaks at
        # -x2 / x1 = 1; x2 has no interior point, -x1 / u is far past T
        ((-1.0, 1.0, 0.0), 5e-324, {1: 2, 2: 2, 3: 3}),
        ((1.0, -1.0, 0.0), -5e-324, {1: 2, 2: 2, 3: 3}),
    ], ids=["x1-zero-u-zero", "signed-zeros", "u-underflows",
            "u-underflows-mirrored"])
    def test_degree_drops(self, x, u, times):
        self._check(x, u, 2.0)
        for k, count in times.items():
            assert len(segment_samples(x, u, 2.0, k)) == count

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_violation_matches_reference(self, n):
        # segment_bound_check reports the first (k, t, value) that
        # segment_samples puts past the bound, to the bit
        rng = np.random.default_rng(100 + n)
        hits = 0
        for _ in range(300):
            x = tuple(float(rng.choice((-0.0, rng.uniform(-2.0, 2.0))))
                      for _ in range(n))
            M = (self.M0,) + tuple(
                None if rng.random() < 0.2 else float(rng.uniform(0.5, 3.0))
                for _ in range(n))
            T = float(rng.choice((0.0, rng.uniform(0.0, 3.0))))
            for u in self.CONTROLS:
                expected = None
                for k in range(1, n + 1):
                    if M[k] is None:
                        continue
                    expected = next(((k, t.hex(), v.hex())
                                     for t, v in segment_samples(x, u, T, k)
                                     if abs(v) > M[k] + 1e-9), None)
                    if expected:
                        break
                got = segment_bound_check(x, u, T, M, 1e-9)
                if got is not None:
                    got = (got.k, got.t.hex(), got.value.hex())
                    hits += 1
                assert got == expected
        assert hits > 100


# a state component: finite, a signed zero, tiny or NaN
_component = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                       st.sampled_from((0.0, -0.0, 5e-324, math.nan)))


@pytest.mark.seeded
class TestSegmentRange:
    """Seeded: ``segment_range`` must give the bits of min and max of the
    ``segment_samples`` values (the first of equal ones, so +0.0 and -0.0
    as min and max give them), with NaN values skipped, for states 1-5."""

    @given(st.lists(_component, min_size=1, max_size=5),
           st.one_of(st.sampled_from((-1.5, -0.0, 0.0, 1.5, 5e-324)),
                     st.floats(min_value=-2.0, max_value=2.0)),
           st.one_of(st.sampled_from((0.0, -0.0, -1.0)),
                     st.floats(min_value=0.0, max_value=4.0)))
    @example([0.0, -0.0, -0.0], 0.0, 0.0)
    @example([math.nan, 0.5, 1.0], 1.5, 2.0)
    @example([math.nan, math.nan, math.nan], 1.5, 2.0)
    @settings(max_examples=500, deadline=None)
    def test_matches_samples(self, x, u, T):
        x = tuple(x)
        for k in range(1, len(x) + 1):
            assert _bits(segment_range(x, u, T, k)) == \
                _bits(_sample_range(x, u, T, k)), (x, u, T, k)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_random_chains(self, n):
        rng = np.random.default_rng(110 + n)
        for _ in range(300):
            x = tuple(float(rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
                      for _ in range(n))
            T = float(rng.choice((0.0, rng.uniform(0.0, 4.0))))
            for u in TestScanBits.CONTROLS:
                for k in range(1, n + 1):
                    assert _bits(segment_range(x, u, T, k)) == \
                        _bits(_sample_range(x, u, T, k))

    @pytest.mark.parametrize("u, first", [(-1.0, -0.0), (1.0, 0.0)])
    def test_signed_zero_ties_keep_the_first(self, u, first):
        # at T = -0.0 state 1 reads -0.0 and +0.0, in an order set by u:
        # both the least and the largest are the first of the two
        x = (-0.0, 0.0, 0.0)
        values = [v for _, v in segment_samples(x, u, -0.0, 1)]
        assert values == [0.0, 0.0] and _bits(values[:1]) == _bits((first,))
        assert _bits(segment_range(x, u, -0.0, 1)) == _bits((first, first))
