"""Independent ground-truth solvers used by tests and cross-checks.

Shares with the planning path only the law catalog, which the exhaustive
search enumerates, and kinematics' shared primitives: ``propagate``, the
stage step of its residuals and of its bound walk; ``stage_columns``, the
column rule of its residuals' Jacobian; ``root``, the polish, Newton's
method with least-squares steps; ``horner``, its run-time polynomial
arithmetic past the closed forms; and ``segment_bound_check``, which at
orders up to 3 takes a state's extremes in closed form.  ``poly_add`` and
``poly_mul`` it only copies: its generated code makes their float
operations.  It calls no root solver of the planner's own
(``kinematics.real_roots``, ``touch_roots``, ``bracket_root``), no stage
solver (``solver.assemble``, ``solver.solve_times``) and not the planner,
whose errors it must be able to catch: its closed forms are derived
separately, its stage systems are built here from scratch, and it accepts
a polished point only by its own rule (``_kept``, ``_solutions``).

``exhaustive_tf`` takes every real solution of every signed catalog law of
order up to 3.  The signed systems are compiled once per order and set of
unbounded states (``_catalog``, ``_System``): what a system takes from its
law is derived once, and each search applies the bounds and the boundary
states with the float operations of a system built from scratch.  Each
system is solved by elimination, in closed form or through the real roots
of one univariate polynomial of degree at most 6.  The polynomials of every
system of a batch are rooted together: their companion matrices, built as
``np.roots`` builds them, are stacked into one ``np.linalg.eigvals`` call
per size, which gives each root ``np.roots``' bits.  Past its closed-form
choices, each system's elimination, its bang durations and at order 3 its
x3 polynomial, is a straight-line function generated for its kind, the
forms of x1 at its stage boundaries, of its rides' durations and of R
(``_kind``, ``_kernel``): it makes the float operations of the general
polynomial arithmetic, in its order, so it gives that arithmetic's bits.
The kernels of every kind of the catalogs of orders 1 to 3 are compiled
when the module is imported, and no search compiles one.  A root with a
stage time below -BACKWARD_TOL max(1, max|t|) runs a stage backward and is
dropped unpolished, and so is every root of a closed-form choice whose
fixed durations already do, before its polynomial is built.  Every other
root is polished by Newton's method on the system's own residual and its
exact Jacobian, each step a least-squares step with a rank cutoff
(``root``), and a root that only its negative times keep from the system
is solved again with them held at zero (``_roots``).  So
"no catalog law admits a feasible solution" is a statement about the
catalog, not about a search's starts.  The residual and its Jacobian are
one view of the system's walk (``_law_walk``), which also gives each
stage's start and the end state: a root is accepted on one walk, its
residual, the bound check of its stages and its end state, and past
``_catalog`` no code reads a law's elements.

A law with a tangent marker is solved in two parts, split at the touch: the
leg (the stages up to the marker, pinned by its conditions) and the rest
(the stages after it, from the touch state to the goal).  Every law that
starts with the same signed leg shares its solutions, so each leg is solved
once per search.  The legs and the plain laws are solved in one batch, the
rests from the legs' touches in a second.

The oracle imports no scipy, and numpy only for LAPACK's eigenvalues
(``_companion_roots``): its searches run on lists of floats, and a process
that imports the oracle but runs no search pays for the catalogs and the
kernels' compile alone.  The planner's ``solver.solve_times`` polishes
seeded starts with the same ``root`` on residuals it assembles itself, and
accepts by its own rule.  At orders up to 3, only problems with no bounded
interior state reach the planner's solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import sqrt
from typing import Optional

from . import kinematics, laws
from .model import Behavior, Problem, TangentMarker


class OracleError(RuntimeError):
    pass


def double_integrator_tf(x0, xf, M0: float, M1: Optional[float] = None) -> float:
    """Minimum time for the two-state problem by the classical peak-speed
    construction: one up-down (or down-up) speed profile, clipped to the
    speed bound with a cruise when the peak exceeds it."""
    v0, p0 = float(x0[0]), float(x0[1])
    vf, pf = float(xf[0]), float(xf[1])
    if M1 is not None and (abs(v0) > M1 or abs(vf) > M1):
        raise OracleError("boundary speed outside its bound")
    dp = pf - p0
    best: Optional[float] = None
    for up in (True, False):
        sign = 1.0 if up else -1.0
        rad = sign * M0 * dp + 0.5 * (v0 * v0 + vf * vf)
        if rad < 0.0:
            continue
        w = sign * sqrt(rad)
        # the peak (trough) must dominate both boundary speeds on its side
        if up and w < max(v0, vf) - 1e-15:
            continue
        if not up and w > min(v0, vf) + 1e-15:
            continue
        if M1 is None or abs(w) <= M1:
            tf = (2.0 * w - v0 - vf) / M0 if up else (v0 + vf - 2.0 * w) / M0
        else:
            vc = sign * M1
            cruise = (dp - (vc * vc - v0 * v0) / (2.0 * M0 * sign)
                      - (vc * vc - vf * vf) / (2.0 * M0 * sign)) / vc
            if cruise < -1e-12:
                continue
            tf = abs(vc - v0) / M0 + abs(vc - vf) / M0 + max(0.0, cruise)
        if tf >= -1e-12 and (best is None or tf < best):
            best = max(0.0, tf)
    if best is None:
        raise OracleError("no speed profile fits the boundary data")
    return best


@dataclass(frozen=True)
class OracleResult:
    t_f: float
    law: str


class _System:
    """One signed system of order 1 to 3, compiled: a plain law, a marker
    leg (its stages up to the marker, pinned by its conditions) or a rest
    (the stages after it).  It holds what the walk and the elimination
    take from the law, and nothing from the bounds' values or the boundary
    states: each call applies those with the same float operations.

    - ``elements``: the signed law elements it was compiled from, which
      name it; no walk or elimination reads them;
    - ``signs``: each stage's control sign, 0 on a ride;
    - ``steps``: the walk's steps (sign, pin), see ``_law_walk``;
      a marker's sign is None, as it has no stage of its own;
    - ``touch``: the sign of a leg's marker, None for a plain law or rest;
    - ``x1``: x1 at each stage boundary: "start", "goal", the sign of a
      +-M1 ride, 0 at a +-2 cruise, or None where it is an unknown;
    - ``cuts``: the +-2 cruises, whose duration is the x3 unknown z;
    - ``pieces``: the x2 equation of each piece between the cuts, as
      (a, b, terms, alphas, unknowns): the signs of the +-M2 rides that
      bound it (None at the start or the goal), the known junctions' terms
      (stage i, +-0.5, junction j) of its constant and each unknown
      junction's terms (j, ((i, +-0.5), ...)), in ``_eliminate``'s order,
      and its unknowns, ("x", j) for a junction and ("t", i) for a cruise;
    - ``order``: the chain's order n; at 3 the elimination builds x3;
    - ``kernel``: the compiled elimination of its kind past the
      closed-form choices (``_kernel``), which every system of that kind
      shares.
    """

    def __init__(self, elements, n):
        self.elements = elements
        stages = [e for e in elements if isinstance(e, Behavior)]
        self.signs = tuple(0 if e.value else e.sign for e in stages)
        steps = []
        for e in elements:
            if isinstance(e, Behavior):
                k = e.value
                pin = (k, e.sign, tuple(range(k - 1))) if k else None
                steps.append((0 if k else e.sign, pin))
            else:  # TangentMarker
                k = e.behavior.value
                zeros = tuple(k - 1 - j for j in range(1, e.degree))
                steps.append((None, (k, e.behavior.sign, zeros)))
        self.steps = tuple(steps)
        leg = isinstance(elements[-1], TangentMarker)
        self.touch = elements[-1].behavior.sign if leg else None
        X = ["start"] + [None] * len(stages)
        for i, e in enumerate(stages):
            if e.value:
                X[i] = X[i + 1] = e.sign if e.value == 1 else 0
        X[-1] = None if leg else "goal"
        self.x1 = tuple(X)
        self.cuts = tuple(i for i, e in enumerate(stages) if e.value == 2)
        pieces = []
        edges = [-1, *self.cuts, len(stages)]
        for a, b in zip(edges, edges[1:]):
            if n == 1 and not leg:  # no x2 equation
                continue
            terms, alphas, unknowns = [], {}, []
            for i in range(a + 1, b):
                if stages[i].value:
                    unknowns.append(("t", i))
                    continue
                for j, half in ((i + 1, 0.5), (i, -0.5)):
                    if X[j] is None:
                        if j not in alphas:
                            unknowns.insert(len(alphas), ("x", j))
                        alphas.setdefault(j, []).append((i, half))
                    else:
                        terms.append((i, half, j))
            pieces.append((None if a < 0 else stages[a].sign,
                           None if b == len(stages) else stages[b].sign,
                           tuple(terms),
                           tuple((j, tuple(p)) for j, p in alphas.items()),
                           tuple(unknowns)))
        self.pieces = tuple(pieces)
        self.order = n

    @cached_property
    def kernel(self):
        """The compiled elimination of the system's kind (``_kernel``)."""
        return _kernel(_kind(self))


@cache
def _catalog(n, free):
    """The signed systems of the order-n catalog, for bounds that are None
    at the indices in ``free``: the signed legs, and each signed law as its
    canonical text, its leg (an index into the legs; None for a plain law)
    and its rest (the whole law when plain), in catalog order.

    Each unsigned law is taken with both terminal signs.  A law that rides
    or touches a state whose bound is None is left out.  Each signed system
    is compiled once: a marker law's rest is also a plain law."""
    legs, plans, systems = [], [], {}

    def compiled(elements):
        if elements not in systems:
            systems[elements] = _System(elements, n)
        return systems[elements]

    for law in laws.enumerate_af(n):
        for last in (1, -1):
            elements = laws.assign_signs(law, last).elements
            # the states that stages ride and markers touch must be bounded
            pinned = [e.behavior.value if isinstance(e, TangentMarker)
                      else e.value for e in elements]
            if any(k > 0 and k in free for k in pinned):
                continue
            cut = next((i + 1 for i, e in enumerate(elements)
                        if isinstance(e, TangentMarker)), 0)
            leg = None
            if cut:
                system = compiled(elements[:cut])
                if system not in legs:
                    legs.append(system)
                leg = legs.index(system)
            plans.append((laws.canonical(law), leg,
                          compiled(elements[cut:])))
    return tuple(legs), tuple(plans)


def _law_walk(system, x0, xf, M):
    """One walk of a compiled system, built directly on the chain's
    constant-control step, ``kinematics.propagate``: a closure that takes
    any sequence of stage times and returns the residuals (a list), their
    Jacobian (None unless asked for), each stage's (start state, control,
    time) and the end state.  The polish takes the residuals and the
    Jacobian; ``_solutions`` checks a solution on the rest.

    A step (sign, pin) advances one stage under the control sign M0 (None
    for a marker, which has no stage of its own), then, if its pin
    ``(k, sign, zeros)`` is not None, pins the state at index k - 1 to
    sign M_k and those at ``zeros`` to zero.  The terminal rows pin the end
    state to ``xf``; with ``xf`` None there are none, and the pins of the
    law's last marker end the system (a marker leg).  The times run as
    Python floats: numpy scalars would give the same bits, only slower.

    The Jacobian is exact, its columns those of ``kinematics.stage_columns``:
    at its stage's end, the column of stage j is the chain's derivative
    there, (u_j, x1, ..., x_{n-1}), and each later stage carries it forward
    as it carries a state under zero control.  A pin's or terminal row
    takes its component of each column walked so far, and 0 for the stages
    still ahead.
    """
    M0 = M[0]
    steps = [(None if s is None else s * M0 if s else 0.0,
              None if pin is None else (pin[0] - 1, pin[1] * M[pin[0]],
                                        pin[2]))
             for s, pin in system.steps]
    start = tuple(x0)
    goal = () if xf is None else tuple(xf)
    stage_count = len(system.signs)

    def walk(times, jacobian=False):
        times = [float(t) for t in times]
        propagate = kinematics.propagate
        res, stages, cols, rows = [], [], [], []
        x = start
        ti = 0
        for u, pin in steps:
            if u is not None:
                t = times[ti]
                stages.append((x, u, t))
                x = propagate(x, u, t)
                ti += 1
                if jacobian:
                    cols = kinematics.stage_columns(cols, u, t, x)
            if pin is not None:
                k, target, zeros = pin
                res.append(x[k] - target)
                for j in zeros:
                    res.append(x[j])
                if jacobian:
                    rows += [[c[i] for c in cols] for i in (k, *zeros)]
        res += [a - b for a, b in zip(x, goal)]
        jac = None
        if jacobian:
            rows += [[c[i] for c in cols] for i in range(len(goal))]
            jac = [row + [0.0] * (stage_count - len(row)) for row in rows]
        return res, jac, stages, x

    return walk


def _zero_motion(system, x0, xf, M) -> bool:
    """Whether the zero-time run meets the system: with every stage time
    zero the chain stays at x0, so its residual is each pin taken at x0 and
    x0 - xf, and each must be at most RESIDUAL_TOL.  It gives the walk's
    verdict at zero times without a walk: with a walk in its place,
    perfbench's xcheck3 ran 15 % slower (CHANGES.md)."""
    res = [a - b for a, b in zip(x0, () if xf is None else xf)]
    for _, pin in system.steps:
        if pin is not None:
            k, sign, zeros = pin
            res.append(x0[k - 1] - sign * M[k])
            res += [x0[j] for j in zeros]
    return _meets(res)


# the largest residual a solution may keep
RESIDUAL_TOL = 1e-10


def _meets(res) -> bool:
    """Whether every residual is at most RESIDUAL_TOL; a NaN is not."""
    return all(abs(r) <= RESIDUAL_TOL for r in res)


# two solutions of one marker leg whose stage times all agree this closely
# are the same touch
SAME_LEG_TOL = 1e-9
# a start with a stage time below -BACKWARD_TOL max(1, max|t|) runs that
# stage backward and is not polished (``_backward``)
BACKWARD_TOL = 1e-3
# the polish: Newton's method on a walk's residuals and exact Jacobian,
# each step a least-squares step (``kinematics.root``).  The searches call it
# by this module's name, where a profiler can wrap it
root = kinematics.root


# Polynomials in the one unknown z are coefficient lists, item i multiplying
# z^i.  A system with two free junctions adjoins the second as w, with
# w^2 = R(z) from its x2 equation; its quantities are pairs (P, Q), meaning
# P(z) + w Q(z).  What follows a system's closed-form choices, its bang
# durations and at order 3 its x3 polynomial, is generated as straight-line
# code, one function per kind (``_kind``), and compiled once (``_kernel``).
# The code makes the float operations of kinematics' ``poly_add`` and
# ``poly_mul`` on pairs, in their order, with a number c taken as ([c], []).
# The branches on the lengths of the lists are taken while the code is
# generated, and so are the products of coefficients known then (those of z
# and w) and x * 1.0, which is x.  Where ``poly_mul`` skips a zero
# coefficient of its first factor, the code adds the product, a signed zero,
# to a sum that starts at 0.0 and so is never -0.0: the sum stays as it is.

def _at(x, z):
    """(P(z), Q(z)) of a stage duration: a pair (P, Q), or a number c,
    which evaluates as ([c], []) would, bit for bit."""
    if not isinstance(x, tuple):
        return 0.0 * z + x, 0.0
    return kinematics.horner(x[0], z), kinematics.horner(x[1], z)


_Z = ([0.0, 1.0], [])
_W = ([], [1.0])


def _lit(a):
    """A symbol in code: a float known when the code is generated, or the
    name of a local."""
    return repr(a) if isinstance(a, float) else a


def _product(a, b):
    """a * b: a float, a or b itself (x * 1.0 is x), or an expression."""
    if isinstance(a, float) and isinstance(b, float):
        return a * b
    if a == 1.0:
        return b
    if b == 1.0:
        return a
    return f"{_lit(a)} * {_lit(b)}"


class _Code:
    """Straight-line code under construction: the lines of a function body,
    each binding one local.  The rules take and give coefficient lists of
    symbols (``_lit``), and pairs (P, Q) of them."""

    def __init__(self):
        self.lines = []
        self.count = 0

    def bind(self, expr):
        name = f"v{self.count}"
        self.count += 1
        self.lines.append(f"    {name} = {expr}")
        return name

    def mul(self, a, b):
        term = _product(a, b)
        if isinstance(term, float) or term is a or term is b:
            return term
        return self.bind(term)

    def poly_add(self, p, q, sign=1.0):
        op = "+" if sign == 1.0 else "-"  # a + -1.0 * b is a - b
        out = list(p) + [0.0] * (len(q) - len(p))
        for i, c in enumerate(q):
            out[i] = self.bind(f"{_lit(out[i])} {op} {_lit(c)}")
        return out

    def poly_mul(self, p, q):
        if not p or not q:
            return []
        sums = [0.0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if isinstance(a, float) and a == 0.0:
                continue
            for j, b in enumerate(q):
                term = _product(a, b)
                acc = sums[i + j]
                if isinstance(acc, float) and isinstance(term, float):
                    sums[i + j] = acc + term
                else:
                    sums[i + j] = f"{_lit(acc)} + {_lit(term)}"
        return [s if isinstance(s, float) else self.bind(s) for s in sums]

    def radd(self, x, y):
        return self.poly_add(x[0], y[0]), self.poly_add(x[1], y[1])

    def rscale(self, x, c):
        return [self.mul(c, a) for a in x[0]], [self.mul(c, a) for a in x[1]]

    def rmul(self, x, y, R):
        (p, q), (r, s) = x, y
        if not q and not s:
            return self.poly_mul(p, r), []
        return (self.poly_add(self.poly_mul(p, r),
                              self.poly_mul(self.poly_mul(q, s), R)),
                self.poly_add(self.poly_mul(p, s), self.poly_mul(q, r)))


def _kind(system):
    """The kind of a system's elimination past its closed-form
    choices: the form of x1 at each stage boundary and of each ride's
    duration, as ``_eliminate`` gives them, the length of R, and whether
    the x3 polynomial is built (at order 3).  A form is "n" for a number,
    "z" or "w" for the unknown itself, or (len P, len Q) for a pair (P, Q);
    a bang's is None, as the kernel builds its duration."""
    xs = ["n" if k is not None else None for k in system.x1]
    ts = ["z" if i in system.cuts else None for i in range(len(system.signs))]
    size_R = 0
    for *_, unknowns in system.pieces:
        if len(unknowns) == 1:  # solved in closed form
            forms = ["n"]
        else:  # z, and the second unknown from the x2 equation in z
            size = 3 if unknowns[0][0] == "x" else 2
            forms = ["z", "w" if unknowns[1][0] == "x" else (size, 0)]
            if unknowns[1][0] == "x":
                size_R = size
        for (kind, k), form in zip(unknowns, forms):
            (xs if kind == "x" else ts)[k] = form
    return tuple(xs), tuple(ts), size_R, system.order == 3


def _target(names):
    return "(" + ", ".join(names) + ("," if len(names) == 1 else "") + ")"


def _kernel_source(kind):
    """The source of ``kernel(us, xs, ts, x2, x3, R)``, the elimination of
    one kind of system past its closed-form choices: from each stage's
    control, x1 at each stage boundary, each ride's duration (None at a
    bang), x2 and x3 - (x3 at the goal) at the start and R.  It builds each
    bang's duration, (x1 at its end - x1 at its start) / u, and returns None
    where the durations that are numbers run a stage backward
    (``_backward``); else the durations and, at order 3, (F, G, p), as the
    recurrence x3 += t (x2 + t (x1 / 2 + u t / 6)),
    x2 += t (x1 + u t / 2) on quantities P + w Q would (None below)."""
    x1_forms, t_forms, size_R, build_x3 = kind
    code = _Code()
    m = len(t_forms)
    code.lines += ["def kernel(us, xs, ts, x2, x3, R):",
                   f"    {_target([f'u{i}' for i in range(m)])} = us",
                   f"    {_target([f'r{i}' for i in range(size_R)])} = R"]

    def quantity(form, source, name):
        if form == "n":
            code.lines.append(f"    {name} = {source}")
            return [name], []
        if form == "z":
            return list(_Z[0]), list(_Z[1])
        if form == "w":
            return list(_W[0]), list(_W[1])
        P = [f"{name}p{i}" for i in range(form[0])]
        Q = [f"{name}q{i}" for i in range(form[1])]
        code.lines.append(f"    {_target(P)}, {_target(Q)} = {source}")
        return P, Q

    def text(x):  # a number c, held as ([c], []), is returned as c
        P, Q = x
        if len(P) == 1 and not Q:
            return _lit(P[0])
        return f"([{', '.join(map(_lit, P))}], [{', '.join(map(_lit, Q))}])"

    xs = [quantity(form, f"xs[{i}]", f"x1_{i}")
          for i, form in enumerate(x1_forms)]
    ts = [quantity(form, f"ts[{i}]", f"t{i}") if form is not None
          else code.rscale(code.radd(xs[i + 1], code.rscale(xs[i], -1.0)),
                           code.bind(f"1.0 / u{i}"))
          for i, form in enumerate(t_forms)]
    numbers = [text(t) for t in ts if len(t[0]) == 1 and not t[1]]
    if numbers:
        code.lines += [f"    if _backward([{', '.join(numbers)}]):",
                       "        return None"]
    durations = f"[{', '.join(map(text, ts))}]"
    if not build_x3:
        code.lines.append(f"    return {durations}, None, None, None")
        return "\n".join(code.lines)
    R = [f"r{i}" for i in range(size_R)]
    x2, x3 = (["x2"], []), (["x3"], [])
    for i, (x1, t) in enumerate(zip(xs, ts)):
        inner = code.radd(code.rscale(x1, 0.5),
                          code.rscale(t, code.bind(f"u{i} / 6.0")))
        x3 = code.radd(x3, code.rmul(t, code.radd(x2, code.rmul(t, inner, R)),
                                     R))
        if i < m - 1:  # x2 after the last stage is not needed
            x2 = code.radd(x2, code.rmul(t, code.radd(
                x1, code.rscale(t, code.bind(f"0.5 * u{i}"))), R))
    F, G = x3
    code.lines.append(f"    F = [{', '.join(map(_lit, F))}]")
    # p = F^2 - R G^2 where any coefficient of G is nonzero, else F
    always = any(isinstance(g, float) and g != 0.0 for g in G)
    names = [g for g in G if isinstance(g, str)]
    if always or names:
        body, code.lines = code.lines, []
        p = code.poly_add(code.poly_mul(F, F),
                          code.poly_mul(R, code.poly_mul(G, G)), -1.0)
        code.lines.append(f"    p = [{', '.join(map(_lit, p))}]")
        block, code.lines = code.lines, body
        if always:
            code.lines += block
        else:
            code.lines += ([f"    if {' or '.join(names)}:"]
                           + ["    " + line for line in block]
                           + ["    else:", "        p = F"])
    else:
        code.lines.append("    p = F")
    code.lines.append(f"    return {durations}, F, "
                      f"[{', '.join(map(_lit, G))}], p")
    return "\n".join(code.lines)


@cache
def _kernel(kind):
    """The compiled elimination of one kind of system (``_kernel_source``)."""
    namespace = {"_backward": _backward}
    exec(compile(_kernel_source(kind), f"<elimination of {kind}>", "exec"),
         namespace)
    return namespace["kernel"]


def _companion_roots(polys):
    """``np.roots`` of each coefficient list in ``polys`` (item i multiplying
    z^i, the last one nonzero), bit for bit: the eigenvalues of companion
    matrices built as ``np.roots`` builds them, then a root at zero for each
    zero low coefficient.  The matrices of one size are stacked into one
    ``np.linalg.eigvals`` call, which runs LAPACK on each as on one alone."""
    import numpy as np
    roots, sizes = [], {}
    for p in polys:
        low = next(k for k, c in enumerate(p) if c != 0.0)
        roots.append([0.0] * low)
        if len(p) - 1 - low:
            sizes.setdefault(len(p) - 1 - low, []).append(len(roots) - 1)
    for d, members in sizes.items():
        # each matrix's first row: the coefficients below the leading one,
        # highest first, negated and over the leading one
        first = np.array([polys[i][-2:-2 - d:-1] for i in members])
        lead = np.array([[polys[i][-1]] for i in members])
        A = np.zeros((len(members), d, d))
        A[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        A[:, 0, :] = -first / lead
        for i, z in zip(members, np.linalg.eigvals(A).tolist()):
            roots[i][:0] = z
    return roots


def _real_zeros(polys):
    """The real roots of each polynomial in ``polys``: the real part of
    every root where it nearly vanishes, so that a double root split into a
    complex pair by rounding is kept, also at zero.  "Nearly" is a backward
    error |p(x)| / (|p| |(1, x, ..., x^d)|) of at most 1e-10.  Leading
    coefficients lost to cancellation are dropped first; they only stand
    for roots far beyond any stage.  The polynomials of every system of a
    batch are rooted in one ``_companion_roots`` call, one eigenvalue call
    per size; a linear one's root is -p0 / p1 there too."""
    trimmed = []
    for p in polys:
        p = list(p)
        big = max((abs(c) for c in p), default=0.0)
        while p and abs(p[-1]) <= 1e-12 * big:
            p.pop()
        trimmed.append(p)
    roots = iter(_companion_roots([p for p in trimmed if len(p) > 1]))
    out = []
    for p in trimmed:
        if len(p) < 2:
            out.append([])
            continue
        norm = sqrt(sum(c * c for c in p))
        keep = []
        for z in next(roots):
            x = z.real
            powers = sqrt(sum(x ** (2 * k) for k in range(len(p))))
            if abs(kinematics.horner(p, x)) <= 1e-10 * norm * powers:
                keep.append(x)
        out.append(keep)
    return out


def _backward(times) -> bool:
    """Whether stage times run a stage backward: one lies below
    -BACKWARD_TOL max(1, max|t|).

    An elimination candidate lies within rounding of its solution, except
    where the system's Jacobian is singular: a double root is pinned only
    to about the square or cube root of the rounding error, 5e-6 of the
    times' scale at most in ``TestElimination``'s double roots.  So a
    candidate of a solution with times >= -1e-9 has no time below -5e-6 of
    that scale, and BACKWARD_TOL lies 200 times beyond.  A start below it
    is dropped unpolished: ``_solutions`` rejects times below -1e-9.

    Where a stage has zero length, the three-bang law's solutions form a
    curve (its outer stages trade duration), and a backward start on it can
    polish to an accepted point of the curve.  Dropping such a start drops
    that point, so on such a problem ``exhaustive_tf`` can name another
    law.  On the order-3 corpora of CHANGES.md no dropped start would have
    been accepted."""
    return bool(times) and min(times) < -BACKWARD_TOL * max(
        1.0, max(abs(t) for t in times))


def _eliminate(system, x0, xf, M, n):
    """One system's elimination up to its x3 polynomial: for each
    combination of closed-form choices that is kept, (durations, R, F, G,
    p), the stage durations in z and w, R, x3 = F + w G and the polynomial
    whose real roots pin z.  At order 1 and 2 every duration is a number
    and F, G and p are None.

    The unknowns are the x1 values where two bang stages meet (and at a
    marker leg's touch) and the cruise durations.  A bang's duration is its
    x1 change over its control, so every x1 equation holds by construction.
    A +-2 cruise pins (x1, x2) = (0, +-M2) and cuts the law into pieces; each
    piece has one x2 equation, quadratic in its junctions and linear in its
    +-1 cruise durations.  A piece with one unknown is solved for it in
    closed form.  A piece with two (a law with no +-2 cruise, or a leg)
    keeps the first as z and gives the second from the x2 equation: a
    cruise duration as a polynomial in z, a junction as w with w^2 = R(z).
    What is left, z or the +-2 cruise's duration, is pinned by x3 = F + w G:
    its real roots are those of F, or of F^2 - R G^2 with w = +-sqrt(R) of
    the sign that cancels.

    Each combination of closed-form choices is finished by the system's
    kernel (``_kernel_source``): it builds the bang durations and the x3
    polynomial, and drops a combination whose fixed durations (those with no
    z and no w) run a stage backward (``_backward``) before that polynomial
    is built.  The -r branch of a +-2 cruise law's one-unknown piece is such
    a choice.
    """
    M0 = M[0]
    us = [s * M0 if s else 0.0 for s in system.signs]
    start = tuple(x0) + (0.0,) * (3 - n)
    if xf is None:  # a marker leg: x2 = 0 and x3 = sigma M3 at the touch
        goal = (None, 0.0, system.touch * M[3])
    else:  # padded as the start is: no elimination below order 3 reads
        # the padding
        goal = tuple(xf) + (0.0,) * (3 - n)
    X = [None if k is None else start[0] if k == "start"
         else goal[0] if k == "goal" else k * M[1] if k else 0.0
         for k in system.x1]
    R = []
    choices = []
    for a, b, terms, alphas, unknowns in system.pieces:
        x2a = start[1] if a is None else a * M[2]
        x2b = goal[1] if b is None else b * M[2]
        # const + sum alpha_j X_j^2 + sum X_i tau_i = 0
        const = x2a - x2b
        scale = abs(x2a) + abs(x2b)  # of the terms summed into const
        for i, half, j in terms:
            s = half / us[i]
            const += s * X[j] * X[j]
            scale += abs(s) * X[j] * X[j]
        alpha = {}
        for j, parts in alphas:
            alpha[j] = 0.0
            for i, half in parts:
                alpha[j] += half / us[i]
        coef = [alpha[k] if kind == "x" else X[k] for kind, k in unknowns]
        if len(unknowns) == 1:
            if unknowns[0][0] == "t":
                choices.append([(-const / coef[0],)])
                continue
            # a junction at x1 = 0 is a double root; keep it through rounding
            sq = -const / coef[0]
            if sq < 0.0 and abs(const) > 1e-12 * scale:
                return []
            r = sqrt(max(sq, 0.0))
            choices.append([(r,), (-r,)] if r else [(0.0,)])
        else:
            lin = ([const, 0.0, coef[0]] if unknowns[0][0] == "x"
                   else [const, coef[0]])
            rest = [-c / coef[1] for c in lin]
            if unknowns[1][0] == "x":
                R, value = rest, _W
            else:
                value = (rest, [])
            choices.append([(_Z, value)])
    out = []
    for combo in product(*choices):
        # a bang's duration is the kernel's, and a +-2 cruise's is z
        xs, ts = list(X), [None] * len(us)
        for piece, values in zip(system.pieces, combo):
            for (kind, k), v in zip(piece[4], values):
                if kind == "x":
                    xs[k] = v
                else:
                    ts[k] = v
        found = system.kernel(us, xs, ts, start[1], start[2] - goal[2], R)
        if found is not None:
            durations, F, G, p = found
            out.append((durations, R, F, G, p))
    return out


def _candidates(jobs, M, n):
    """For each job (system, x0, xf), with ``xf`` None for a marker leg, the
    stage times of every real solution of the system, by elimination
    (``_eliminate``): the starts that ``_roots`` polishes.  Every job's
    polynomials are rooted together (``_real_zeros``)."""
    eliminated = [_eliminate(system, x0, xf, M, n)
                  for system, x0, xf in jobs]
    zeros = iter(_real_zeros([c[4] for combos in eliminated for c in combos
                              if c[4] is not None]))
    horner = kinematics.horner
    out = []
    for combos in eliminated:
        found = []
        for durations, R, F, G, p in combos:
            if p is None:
                found.append([_at(t, 0.0)[0] for t in durations])
                continue
            for z in next(zeros):
                f, g = horner(F, z), horner(G, z)
                w = sqrt(max(horner(R, z), 0.0)) if R else 0.0
                # the sign of w that cancels F, or both where F and w G are
                # lost in rounding (two touches close to x1 = 0, say)
                size = (horner([abs(c) for c in F], abs(z))
                        + w * horner([abs(c) for c in G], abs(z)))
                signs = [s for s in (1.0, -1.0) if w
                         and abs(f + s * w * g) <= 1e-6 * size]
                if not signs:
                    signs = [1.0 if abs(f + w * g) <= abs(f - w * g)
                             else -1.0]
                values = [_at(t, z) for t in durations]
                for s in signs:
                    found.append([a + s * w * b for a, b in values])
        out.append(found)
    return out


def _roots(jobs, M, n):
    """For each job (system, x0, xf), the system's walk (``_law_walk``) and
    the stage times of its real solutions, not yet checked for sign or
    bounds.

    Every elimination candidate with no time below -BACKWARD_TOL
    max(1, max|t|) (``_backward``) is polished by ``root``, Newton's method
    on the walk's residual and exact Jacobian, also one whose residual is
    already small.  The polish replaces it when it converged or its
    residual is at most RESIDUAL_TOL, and its times are >= -1e-9.
    Otherwise the candidate is kept when it meets the system itself, and
    goes on to the re-solve below: a 1e-7 s 000 whose candidate meets the
    system exactly, with a stage 1.3e-9 s backward, which the polish keeps,
    is found only so
    (``TestExhaustive.test_tiny_motion_met_by_its_candidate``).

    A candidate with a time that may be zero but for rounding, at most
    1e-7 max(1, max|t|) (``_backward``'s scale, where a double root leaves
    its zero-length stages about 1e-8 long), is polished twice: as it is,
    and with those times set to zero.  Either start alone loses something:
    the first alone leaves a tiny bang's outer stages at -+7e-11, on the
    curve along which they trade duration, so that its t_f is that much
    long (``TestExhaustive.test_tiny_bang_to_the_rounding_error``); the
    second alone loses a stage that is really 1e-8 long
    (``TestExhaustive.test_planted_short_stages``).  Each start is kept or
    dropped by the rule above.

    A kept root whose negative times, clipped to zero, leave a residual
    above RESIDUAL_TOL (so that ``_solutions`` would drop it) is solved
    again with those times held at zero, by Gauss-Newton on the others
    (``_pinned``), and the result is kept by the same rule.  That moves a
    root on a curve of solutions to its end at zero: a three-bang cruise
    law's last two stages trade duration, and a polish that leaves them at
    (7e-10, -3e-10) is moved to (1e-9, 0).

    The zero-time run is a start too when it meets the system (zero
    motion, ``_zero_motion``).  It is where the elimination fails: the 000
    law's solutions then form a curve through it (no middle stage, the last
    stage undoing the first), and its polynomial vanishes.
    """
    out = []
    for (system, x0, xf), starts in zip(jobs, _candidates(jobs, M, n)):
        walk = _law_walk(system, x0, xf, M)

        def fun(times, jacobian):  # the polish's view of the walk
            return walk(times, jacobian)[:2]

        if _zero_motion(system, x0, xf, M):
            starts.append([0.0] * len(system.signs))
        found = []
        for guess in starts:
            if _backward(guess):
                continue
            tiny = 1e-7 * max(1.0, max(abs(t) for t in guess))
            zeroed = [0.0 if abs(t) <= tiny else t for t in guess]
            for start in [guess] + ([zeroed] if zeroed != guess else []):
                sol = root(fun, start)
                if _kept(sol):
                    x = sol.x
                elif _meets(walk(start)[0]):
                    x = start
                else:
                    continue
                found.append(x)
                pins = [i for i, t in enumerate(x) if t < 0.0]
                if (0 < len(pins) < len(x)
                        and not _meets(walk(_clipped(x))[0])):
                    view, full, y = _pinned(fun, x, pins)
                    sol = root(view, y)
                    if _kept(sol):
                        found.append(full(sol.x))
        out.append((walk, found))
    return out


def _kept(sol) -> bool:
    """Whether ``_roots`` keeps a polish: it converged or its residual is at
    most RESIDUAL_TOL, and none of its times is below -1e-9."""
    return ((sol.success or _meets(sol.fun))
            and not any(t < -1e-9 for t in sol.x))


def _clipped(times):
    """``times`` with each at most zero set to +0.0; a NaN stays NaN."""
    return [0.0 if t <= 0.0 else t for t in times]


def _pinned(fun, x, pins):
    """The polish's view ``fun`` with the times at ``pins`` held at zero:
    (the view of the other times, the map from them to all times, the other
    times of ``x``).  The view has more rows than unknowns, so ``root``
    solves it by Gauss-Newton."""
    free = [i for i in range(len(x)) if i not in pins]

    def full(y):
        times = [0.0] * len(x)
        for i, t in zip(free, y):
            times[i] = t
        return times

    def view(y, jacobian):
        res, jac = fun(full(y), jacobian)
        if jac is not None:
            jac = [[row[i] for i in free] for row in jac]
        return res, jac

    return view, full, [x[i] for i in free]


def _solutions(walk, M, found):
    """Accepted solutions of one signed system, from its walk (``_law_walk``)
    and its roots ``found`` (``_roots``): (stage times, end state) pairs.  A
    solution is accepted when its times are >= -1e-9 (then clipped to
    zero), its residual is at most RESIDUAL_TOL and every stage keeps the
    bounds; each is walked once."""
    for times in found:
        if any(t < -1e-9 for t in times):
            continue
        times = _clipped(times)
        res, _, stages, end = walk(times)
        if not _meets(res):
            continue
        if any(kinematics.segment_bound_check(x, u, t, M, 1e-9)
               for x, u, t in stages):
            continue
        yield times, end


def _solve(jobs, M, n):
    """The accepted solutions of each job (system, x0, xf)."""
    return [list(_solutions(walk, M, found))
            for walk, found in _roots(jobs, M, n)]


def _leg_touches(solutions):
    """Every distinct solution of a marker leg: (leg time, touch state)."""
    found = []
    for times, end in solutions:
        if all(any(abs(a - b) > SAME_LEG_TOL for a, b in zip(times, other))
               for other, _ in found):
            found.append((times, end))
    return [(sum(times), end) for times, end in found]


def exhaustive_tf(problem: Problem) -> OracleResult:
    """Minimum time over every real solution of every catalog law.

    Each unsigned law is tried with both terminal signs.  A plain law is one
    system.  A law with a tangent marker is split at the marker: its leg is
    solved once per call for all laws that share it, keeping every distinct
    touch, and the rest of the law is solved like a plain law from each
    touch state; its time is the leg's plus the rest's.  The legs and the
    plain laws are solved in one batch, the rests from the touches in a
    second.  Every accepted solution competes on total time, in catalog
    order.  Only orders up to 3 are supported (the catalog is exact there);
    ``OracleError`` means that no catalog law has a feasible real solution.
    """
    n = problem.n
    if n > 3:
        raise OracleError("exhaustive search supports orders 1..3")
    x0, xf, M = problem.x0, problem.xf, problem.M
    legs, plans = _catalog(n, tuple(k for k, m in enumerate(M) if m is None))
    first = _solve([(leg, x0, None) for leg in legs]
                   + [(rest, x0, xf) for _, leg, rest in plans if leg is None],
                   M, n)
    touches = [_leg_touches(solutions) for solutions in first[:len(legs)]]
    plain = iter(first[len(legs):])
    rests = iter(_solve([(rest, start, xf) for _, leg, rest in plans
                         if leg is not None for _, start in touches[leg]],
                        M, n))
    best: Optional[tuple[float, str]] = None
    for law, leg, _ in plans:
        # a plain law's empty leg ends where it starts
        runs = ([(0.0, next(plain))] if leg is None
                else [(t_leg, next(rests)) for t_leg, _ in touches[leg]])
        for t_leg, solutions in runs:
            for times, _ in solutions:
                tf = t_leg + sum(times)
                if best is None or tf < best[0] - 1e-15:
                    best = (tf, law)
    if best is None:
        raise OracleError("no catalog law admits a feasible solution")
    return OracleResult(best[0], best[1])


# Every kind of elimination is compiled at import, so that no search
# compiles one.  Unbounded states only leave laws out, so the catalogs with
# every state bounded hold every kind
for _n in (1, 2, 3):
    for _system in _catalog(_n, ())[0] + tuple(p[2] for p in
                                                _catalog(_n, ())[1]):
        _kernel(_kind(_system))
del _n, _system
