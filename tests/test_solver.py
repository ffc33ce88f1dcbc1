import itertools
import math
from array import array

import numpy as np
import pytest

from chainplan import kinematics, laws, oracle, sampling, solver
from chainplan.model import (
    Asl,
    Behavior,
    Problem,
    Segment,
    TangentMarker,
    Trajectory,
    asl_parse,
)
from chainplan.solver import AssembleError, Solved, assemble, solve_times, verify

from helpers import stage_trajectory

M2 = (1.0, 1.0, None)
FIG7A = dict(x0=(1.0, -0.375, 4.0), xf=(0.0, 0.0, 0.0), M=(1.0, 1.0, 1.5, 4.0))


class TestAssemble:
    def test_counts_second_order(self):
        sys = assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                       (1.0, 1.0, None))
        assert sys.num_unknowns == 3
        assert sys.num_equations == 3

    def test_counts_first_order(self):
        sys = assemble(asl_parse("-0"), (1.0,), (0.0,), (1.0, None))
        assert sys.num_unknowns == sys.num_equations == 1

    def test_marker_law_counts(self):
        sys = assemble(asl_parse("+0 -0 (-3,2) -0 +0 -0"),
                       (0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (1.0, 1.0, 1.5, 4.0))
        assert sys.num_unknowns == sys.num_equations == 5

    def test_riding_unbounded_state_rejected(self):
        with pytest.raises(AssembleError):
            assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                     (1.0, None, None))

    def test_unsigned_rejected(self):
        with pytest.raises(AssembleError):
            assemble(asl_parse("010"), (0.0, 2.0), (0.0, 0.0), (1.0, 1.0, None))

    def test_freedom_mismatch_rejected(self):
        with pytest.raises(AssembleError):
            assemble(asl_parse("-0"), (0.0, 2.0), (0.0, 0.0), (1.0, 1.0, None))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_balance_across_catalog(self, order):
        x0 = tuple(0.1 * (k + 1) for k in range(order))
        xf = tuple(0.0 for _ in range(order))
        M = (1.0, 1.0, 1.5, 4.0, 20.0)[: order + 1]
        for law in laws.enumerate_af(order):
            signed = laws.assign_signs(law, 1)
            sys = assemble(signed, x0, xf, M)
            assert sys.num_unknowns == sys.num_equations


class TestSolveTimes:
    def test_double_integrator_cruise(self):
        sys = assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                       (1.0, 1.0, None))
        sol = solve_times(sys)
        assert sol.times == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_zero_motion(self):
        sys = assemble(asl_parse("-0 +0"), (0.0, 1.0), (0.0, 1.0), M2)
        sol = solve_times(sys)
        assert sol.times == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_symmetric_two_bang(self):
        sys = assemble(asl_parse("-0 +0"), (0.0, 0.5), (0.0, 0.0), M2)
        sol = solve_times(sys)
        r = math.sqrt(0.5)
        assert sol.times == pytest.approx((r, r), abs=1e-9)

    def test_no_solution_returns_none(self):
        # riding the wrong side cannot reach the target
        sys = assemble(asl_parse("+0 +1 -0"), (0.0, 0.0), (0.0, -50.0),
                       (1.0, 1.0, None))
        assert solve_times(sys) is None

    def test_mirror_solutions_match(self):
        x0, xf = (0.3, 1.2), (-0.2, -0.4)
        a = solve_times(assemble(laws.assign_signs(asl_parse("00"), 1),
                                 x0, xf, M2))
        b = solve_times(assemble(laws.assign_signs(asl_parse("00"), -1),
                                 tuple(-v for v in x0), tuple(-v for v in xf),
                                 M2))
        assert a is not None and b is not None
        assert a.times == pytest.approx(b.times, abs=1e-12)

    def test_second_order_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(250):
            M1 = float(rng.uniform(0.5, 2.0))
            M = (float(rng.uniform(0.5, 2.0)), M1, None)
            x0 = (float(rng.uniform(-M1, M1)), float(rng.uniform(-3, 3)))
            xf = (float(rng.uniform(-M1, M1)), float(rng.uniform(-3, 3)))
            best = None
            for text in ("00", "010"):
                for sign in (1, -1):
                    signed = laws.assign_signs(asl_parse(text), sign)
                    try:
                        sys = assemble(signed, x0, xf, M)
                    except AssembleError:
                        continue
                    sol = solve_times(sys)
                    if sol is None:
                        continue
                    traj = stage_trajectory(sys, sol)
                    if verify(traj, M, 1e-9) is None:
                        tf = sum(sol.times)
                        best = tf if best is None else min(best, tf)
            expected = oracle.double_integrator_tf(x0, xf, M[0], M1)
            assert best == pytest.approx(expected, abs=1e-9)


class TestResidualScalars:
    """Every propagate inside the residuals and the Newton loop gets Python
    floats, with the values numpy scalars would give."""

    @staticmethod
    def _systems():
        """Every order-2/3 catalog law, plus order-4 laws with a virtual
        group so that the virtual-branch steps run too."""
        groups = 0
        for order in (2, 3, 4):
            x0 = tuple(0.1 * (k + 1) for k in range(order))
            xf = tuple(-0.05 * (k + 1) for k in range(order))
            M = (1.0, 1.0, 1.5, 4.0, 20.0)[: order + 1]
            for law in laws.enumerate_af(order):
                for last in (1, -1):
                    try:
                        sys = assemble(laws.assign_signs(law, last), x0, xf, M)
                    except AssembleError:
                        continue
                    if order < 4:
                        yield sys
                    elif any(step[0] == solver._VSTART for step in sys.program):
                        yield sys
                        groups += 1
                        if groups == 6:
                            return

    def test_propagate_gets_floats(self, monkeypatch):
        propagate = kinematics.propagate

        def spy(x, u, t):
            assert type(t) is float
            return propagate(x, u, t)

        def on_numpy_scalars(x, u, t):
            return propagate(x, u, np.float64(t))

        rng = np.random.default_rng(11)
        systems = list(self._systems())
        assert len(systems) > 20
        for sys in systems:
            monkeypatch.setattr(kinematics, "propagate", spy)
            solve_times(sys, max_restarts=1)
            for _ in range(5):
                times = rng.uniform(0.0, 3.0, sys.num_unknowns).tolist()
                monkeypatch.setattr(kinematics, "propagate", spy)
                got = [v.hex() for v in sys.residuals(times)]
                monkeypatch.setattr(kinematics, "propagate", on_numpy_scalars)
                assert got == [float(v).hex() for v in sys.residuals(times)]


# ---- reference Newton path: numpy residuals, Jacobian and line search ----

class _ReferenceSystem:
    """Reference residuals: an op-by-op interpreter of the law that fills a
    numpy array, rebuilt from a system's law and boundary data."""

    def __init__(self, system):
        self.x0, self.M, self.terminal = system.x0, system.M, system.terminal
        self.num_equations = system.num_equations
        n, x0, xf, M = system.n, system.x0, system.xf, system.M
        self.scales = tuple(
            max(1.0, M[k]) if M[k] is not None
            else max(1.0, abs(x0[k - 1]), abs(xf[k - 1]))
            for k in range(1, n + 1))

        def control(b):
            return b.sign * M[0] if b.value == 0 else 0.0

        ops, times = [], 0
        elems = system.asl.elements
        for i, e in enumerate(elems):
            if isinstance(e, Behavior):
                ops.append(("adv", control(e), times))
                times += 1
                if e.value != 0:
                    ops.append(("ride", e.value, e.sign))
            elif isinstance(e, TangentMarker):
                ops.append(("mark", e.behavior.value, e.behavior.sign, e.degree))
            else:
                ops.append(("vstart", control(elems[i - 1]), times))
                times += 1
                for j, m in enumerate(e.members):
                    if m.value != 0:
                        ops.append(("vride", m.value, m.sign))
                    if j + 1 < len(e.members):
                        ops.append(("vadv", control(m), times))
                        times += 1
        self.ops = tuple(ops)

    def residuals(self, times):
        times = np.asarray(times, dtype=float).tolist()
        out = np.empty(self.num_equations)
        idx = 0
        cur = prev = virt = self.x0
        scales = self.scales
        for op in self.ops:
            code = op[0]
            if code == "adv":
                prev = cur
                cur = kinematics.propagate(cur, op[1], times[op[2]])
            elif code in ("ride", "vride"):
                x = cur if code == "ride" else virt
                k, sign = op[1], op[2]
                out[idx] = (x[k - 1] - sign * self.M[k]) / scales[k - 1]
                idx += 1
                for j in range(1, k):
                    out[idx] = x[j - 1] / scales[j - 1]
                    idx += 1
            elif code == "mark":
                k, sign, degree = op[1], op[2], op[3]
                out[idx] = (cur[k - 1] - sign * self.M[k]) / scales[k - 1]
                idx += 1
                for j in range(1, degree):
                    out[idx] = cur[k - 1 - j] / scales[k - 1 - j]
                    idx += 1
            elif code == "vstart":
                virt = kinematics.propagate(prev, op[1], times[op[2]])
            else:  # "vadv"
                virt = kinematics.propagate(virt, op[1], times[op[2]])
        for k, value in self.terminal:
            out[idx] = (cur[k - 1] - value) / scales[k - 1]
            idx += 1
        return out


def _reference_newton(system, t, tol):
    T = len(t)
    r = system.residuals(t)
    merit = float(r @ r)
    for _ in range(80):
        err = float(np.max(np.abs(r)))
        if err < tol:
            return _reference_package(system, t)
        J = np.empty((len(r), T))
        for i in range(T):
            h = 1e-7 * max(1.0, abs(t[i]))
            tp = t.copy()
            tp[i] += h
            J[:, i] = (system.residuals(tp) - r) / h
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        improved, t, r, merit = _reference_line_search(system, t, r, merit, step)
        if not improved:
            active = [i for i in range(T) if t[i] <= 0.0 and step[i] < 0.0]
            if active and len(active) < T:
                free = [i for i in range(T) if i not in active]
                sub, *_ = np.linalg.lstsq(J[:, free], -r, rcond=None)
                step2 = np.zeros(T)
                step2[free] = sub
                if np.all(np.isfinite(step2)):
                    improved, t, r, merit = _reference_line_search(
                        system, t, r, merit, step2)
        if not improved:
            return None
    if float(np.max(np.abs(r))) < tol:
        return _reference_package(system, t)
    return None


def _reference_line_search(system, t, r, merit, step):
    alpha = 1.0
    for _ in range(20):
        t_new = np.clip(t + alpha * step, 0.0, None)
        r_new = system.residuals(t_new)
        m_new = float(r_new @ r_new)
        if m_new < merit:
            return True, t_new, r_new, m_new
        alpha *= 0.5
    return False, t, r, merit


def _reference_package(system, t):
    times = []
    for v in t:
        if v < -1e-12:
            return None
        times.append(max(0.0, float(v)))
    err = float(np.max(np.abs(system.residuals(times))))
    cur = system.x0
    states = []
    for op in system.ops:
        if op[0] == "adv":
            cur = kinematics.propagate(cur, op[1], times[op[2]])
            states.append(cur)
    return Solved(tuple(times), tuple(states), err)


def _hex(value):
    """Exact, sign-of-zero-aware image of nested floats."""
    if isinstance(value, (tuple, list)):
        return tuple(_hex(v) for v in value)
    if isinstance(value, Solved):
        return (_hex(value.times), _hex(value.states), _hex(value.residual))
    return value if value is None else float(value).hex()


class TestNewtonPath:
    """The list-based Newton loop takes the reference path bit for bit: the
    same Solved and the same stream of propagate calls."""

    def _compare(self, monkeypatch, systems_and_starts):
        propagate = kinematics.propagate
        stream = array("d")           # every (x, u, t, result), flattened

        def spy(x, u, t):
            y = propagate(x, u, t)
            stream.extend(x)
            stream.append(u)
            stream.append(t)
            stream.extend(y)
            return y

        monkeypatch.setattr(kinematics, "propagate", spy)
        runs = converged = 0
        for sys, starts in systems_and_starts:
            ref = _ReferenceSystem(sys)
            for start in starts:
                del stream[:]
                got = solver._newton(sys, solver._project(start), 1e-10)
                got_calls = stream.tobytes()
                del stream[:]
                want = _reference_newton(
                    ref, np.clip(np.asarray(start, dtype=float), 0.0, None), 1e-10)
                assert _hex(got) == _hex(want), (sys.asl.text(), start)
                assert got_calls == stream.tobytes(), (sys.asl.text(), start)
                runs += 1
                converged += got is not None
        return runs, converged

    def test_catalog_systems(self, monkeypatch):
        rng = np.random.default_rng(3)
        cases = []
        for sys in TestResidualScalars._systems():
            T = sys.num_unknowns
            tau = solver._seed_scale(sys)
            starts = [[tau] * T]
            starts.extend((tau * (0.25 + 1.75 * rng.random(T))).tolist()
                          for _ in range(2))
            cases.append((sys, starts))
        runs, converged = self._compare(monkeypatch, cases)
        assert runs > 60 and 0 < converged < runs

    def test_marker_leg_systems(self, monkeypatch):
        # order-3 tangent-marker leg systems (law 00 or 010 to x3 = +/-M3
        # with x2 = 0), kept as a hard Newton case: several nearby roots and
        # a 5^T grid of starts; the first start has touch roots, the second
        # is a marker failure of the order-3 benchmark corpus
        n, d = 3, 2
        M = sampling.default_bounds(n)
        ticks = (0.05, 0.3, 1.0, 2.5, 6.0)
        cases = []
        for x0 in ((-0.6796843384218157, -1.1388813844147014, -1.8220613247612414),
                   (-0.6955220631682546, -1.0747769816564456, -1.8470499338747866)):
            for law in laws.enumerate_af(d):
                for sigma in (1, -1):
                    conditions = ((n, sigma * M[n]),) + tuple(
                        (n - j, 0.0) for j in range(1, d))
                    try:
                        sys = assemble(laws.assign_signs(law, sigma), x0,
                                       (0.0,) * n, M, terminal=conditions)
                    except AssembleError:
                        continue
                    T = sys.num_unknowns
                    tau = max(solver._seed_scale(sys) * T, 1e-3)
                    cases.append((sys, [[tau * w for w in combo] for combo
                                        in itertools.product(ticks, repeat=T)]))
        runs, converged = self._compare(monkeypatch, cases)
        assert runs > 100 and 0 < converged < runs


class TestRealizeAndVerify:
    def test_group_times_not_traversed(self):
        # the realized path of a spliced law omits its virtual continuation
        law = asl_parse("-0 -1 +0 -2 +0 +1 -0 ( -3 ) +0 +1 -0 +0")
        x0 = (0.75, -0.375, 2.0, 9.0)
        xf = (0.25, 0.5, -2.0, -5.0)
        M = (1.0, 1.0, 1.5, 4.0, 20.0)
        sys = assemble(law, x0, xf, M)
        assert sys.num_unknowns == sys.num_equations == 12
        sol = solve_times(sys, max_restarts=16)
        assert sol is not None
        traj = stage_trajectory(sys, sol)
        assert len(traj.segments) == 11          # 12 durations, 1 virtual
        assert traj.t_f == pytest.approx(9.8604, abs=5e-3)
        assert verify(traj, M, 1e-9) is None

    def test_single_stage_law(self):
        sys = assemble(asl_parse("+0"), (0.0,), (1.5,), (1.0, None))
        traj = stage_trajectory(sys, solve_times(sys))
        assert len(traj.segments) == 1
        assert traj.t_f == pytest.approx(1.5, abs=1e-12)

    def test_zero_duration_stage_kept(self):
        sys = assemble(asl_parse("-0 +0"), (0.0, 1.0), (0.0, 1.0), M2)
        traj = stage_trajectory(sys, solve_times(sys))
        assert len(traj.segments) == 2
        assert traj.t_f == pytest.approx(0.0, abs=1e-10)

    def test_verify_detects_bound_violation(self):
        # interior peak of the top state exceeds its bound; endpoints are fine
        prob = Problem(2, (1.0, 0.0), (-1.0, 0.0), (1.0, 1.0, 0.4))
        traj = Trajectory((Segment(-1.0, 2.0, (1.0, 0.0)),), 2.0, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and failure.k == 2

    def test_verify_detects_terminal_miss(self):
        prob = Problem(1, (0.0,), (1.0,), (1.0, None))
        traj = Trajectory((Segment(1.0, 0.5, (0.0,)),), 0.5, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and "terminal" in failure.reason

    def test_verify_clamps_tiny_negative_duration(self):
        prob = Problem(1, (0.0,), (0.0,), (1.0, None))
        traj = Trajectory((Segment(1.0, -1e-15, (0.0,)),), 0.0, Asl(()), prob)
        assert verify(traj, prob.M, 1e-9) is None

    def test_repropagation_consistency(self):
        sys = assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                       (1.0, 1.0, None))
        sol = solve_times(sys)
        from chainplan import kinematics
        cur = (0.0, 2.0)
        for (u, dur), expected in zip(
                zip(sys.controls, sol.times), sol.states):
            cur = kinematics.propagate(cur, u, dur)
            assert cur == pytest.approx(expected, abs=1e-9)
