import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainplan import kinematics
from chainplan.kinematics import (
    Polynomial,
    Violation,
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
