"""Numerical dynamics of rational maps on the Riemann sphere.

All arithmetic is projective: points are (Z : W) pairs normalized to
max(|Z|, |W|) = 1 and maps are evaluated through homogeneous lifts, so
orbits pass through infinity without special cases.  Derivatives are chart
derivatives (the coordinate is z = Z/W where the point is bounded and
w = W/Z otherwise) and multipliers are telescoping products of chart
derivatives, which makes them chart-independent.

Polynomial coefficient vectors are ascending (constant term first)
throughout this module.  The scalar code is pure Python over any Python
numbers; numpy is imported only inside the array code (the render kernel).
"""

from __future__ import annotations

import cmath
import math
import mmap
import os
import sys
from typing import NamedTuple

from .errors import BranchAmbiguity, ContinuationBreakdown, IndeterminatePoint, NoConvergence

_EPS = sys.float_info.epsilon
_GUARD = 10.0 * _EPS ** (1.0 / 3.0)  # derivative floor for branch tracking
_INDETERMINATE_FLOOR = 1e-12  # of the coefficient sum at the point, sum |c_k| |xi|^k
_CONTINUE_STEP = 0.5  # first and largest substep of continue_cycle, in s from 0 to 1 along the path
_CONTINUE_TOL = 1e-12  # cycle residual at each continuation substep
_ROOT_SWEEPS = 200  # Aberth sweeps over all unconverged zeros before roots gives up


class SpherePoint(NamedTuple):
    """Projective point (Z : W) with max(|Z|, |W|) = 1."""

    Z: complex
    W: complex

    @staticmethod
    def make(Z: complex, W: complex) -> "SpherePoint":
        m = max(abs(Z), abs(W))
        if m == 0.0 or not (math.isfinite(m)):
            raise ValueError(f"invalid projective pair ({Z}, {W})")
        return SpherePoint(Z / m, W / m)

    @staticmethod
    def from_complex(x: complex) -> "SpherePoint":
        return SpherePoint.make(complex(x), 1.0 + 0j)

    @staticmethod
    def zero() -> "SpherePoint":
        return SpherePoint(0j, 1.0 + 0j)

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(1.0 + 0j, 0j)

    @property
    def is_infinity(self) -> bool:
        return abs(self.W) < 1e-14

    def to_complex(self) -> complex:
        if self.is_infinity:
            raise ZeroDivisionError("point at infinity has no affine value")
        return self.Z / self.W

    def chart(self) -> int:
        """0 when the affine coordinate z = Z/W is bounded, 1 otherwise."""
        return 0 if abs(self.W) >= abs(self.Z) else 1

    def coord(self, chart: int) -> complex:
        return self.Z / self.W if chart == 0 else self.W / self.Z

    @staticmethod
    def from_coord(xi: complex, chart: int) -> "SpherePoint":
        return SpherePoint.make(xi, 1.0 + 0j) if chart == 0 else SpherePoint.make(1.0 + 0j, xi)


def spherical_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Chordal metric |Z W' - Z' W| / (|p| |q|), between 0 and 1."""
    num = abs(p.Z * q.W - q.Z * p.W)
    return num / math.sqrt((abs(p.Z) ** 2 + abs(p.W) ** 2) * (abs(q.Z) ** 2 + abs(q.W) ** 2))


class CycleData(NamedTuple):
    """A periodic cycle with its multiplier."""

    points: tuple
    period: int
    multiplier: complex

    @property
    def repelling(self) -> bool:
        return abs(self.multiplier) > 1.0


class OrbitCertificate(NamedTuple):
    """An orbit within landing_residual of an exactly preperiodic point whose orbit, points
    (tail, then cycle.points), lands on cycle after preperiod steps; forward if not repelling."""

    preperiod: int
    landing_residual: float
    cycle: CycleData
    points: tuple


def _horner(desc, x: complex) -> complex:
    """Value at x of the polynomial whose coefficients desc run from the
    highest power down."""
    acc = 0j
    for c in desc:
        acc = acc * x + c
    return acc


def _horner_pair(desc, x: complex) -> tuple[complex, complex]:
    """Value and derivative in one pass; desc as in _horner."""
    acc = 0j
    der = 0j
    for c in desc:
        der = der * x + acc
        acc = acc * x + c
    return acc, der


def _polyder(coeffs) -> list:
    return [c * float(k) for k, c in enumerate(coeffs) if k]


def _convolve(a, b) -> list:
    """Ascending coefficients of the product of two polynomials."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _aberth_start(c: list) -> list:
    """Starting points for the zeros of the polynomial with ascending
    coefficients c (both end coefficients nonzero): for each edge of the
    upper convex hull of (k, log |c_k|), as many points as the edge is long,
    evenly spaced on the circle whose radius the edge's slope gives."""
    n = len(c) - 1
    logs = [math.log(abs(a)) if a else -math.inf for a in c]
    hull = [0]
    for k in range(1, n + 1):
        if logs[k] == -math.inf:
            continue
        # drop the last vertex while it lies on or below the chord to k
        while len(hull) >= 2 and ((logs[hull[-1]] - logs[hull[-2]]) * (k - hull[-2])
                                  <= (logs[k] - logs[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(k)
    z = []
    for lo, hi in zip(hull, hull[1:]):
        m = hi - lo
        radius = math.exp((logs[lo] - logs[hi]) / m)
        z.extend(radius * cmath.exp(1j * (2.0 * math.pi * (j / m + lo / n) + 0.7))
                 for j in range(m))
    return z


def roots(coeffs) -> list[complex]:
    """Zeros, with multiplicity, of the polynomial with ascending coefficients
    coeffs.  Zero top coefficients lower the degree; zero low coefficients
    give exact zeros at 0.

    Aberth-Ehrlich iteration, Gauss-Seidel order, from the starting points
    of _aberth_start.  A zero stops moving once its backward error is at the
    rounding level of Horner's rule, |p(z)| <= 4 n eps sum |c_k| |z|^k, with
    p evaluated through its reversal at 1/z where |z| > 1 (Bini, Numer.
    Algorithms 13 (1996) 179-200), plus n times the smallest subnormal for
    the products that fall below the float range.  Simple zeros come out to
    a few rounding units times their condition number, a double zero to
    about sqrt(eps), like the companion-matrix eigenvalues of numpy.roots.  Raises
    NoConvergence when a zero has not settled within _ROOT_SWEEPS sweeps, or
    when an iterate leaves the float range (a zero below it, for one).
    """
    c = [complex(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    at_zero = 0
    while at_zero < len(c) and c[at_zero] == 0:
        at_zero += 1
    c = c[at_zero:]
    n = len(c) - 1
    if n < 1:
        return [0j] * at_zero
    ascending = list(zip(c, map(abs, c)))  # Horner order of the reversal
    descending = ascending[::-1]
    noise = 4.0 * n * _EPS
    underflow = n * math.ulp(0.0)  # what Horner's rule can lose below the float range
    z = _aberth_start(c)
    active = range(n)
    for _ in range(_ROOT_SWEEPS):
        moving = []
        for i in active:
            zi = z[i]
            p = dp = 0j
            size = 0.0
            inside = abs(zi) <= 1.0
            x = zi if inside else 1.0 / zi
            r = abs(x)
            for a, m in descending if inside else ascending:
                dp = dp * x + p
                p = p * x + a
                size = size * r + m
            if p == 0:
                continue  # an exact zero
            # p'(z)/p(z); through the reversal q(x) = x^n p(1/x) it is x (n - x q'(x)/q(x))
            newton = dp / p if inside else x * (n - x * dp / p)
            pull = 0j
            for j in range(n):
                if j != i:
                    pull += 1.0 / (zi - z[j])
            z[i] = zi - 1.0 / (newton - pull)
            if not cmath.isfinite(z[i]):
                raise NoConvergence("a polynomial zero left the float range")
            if abs(p) > noise * size + underflow:
                moving.append(i)
        if not moving:
            return [0j] * at_zero + z
        active = moving
    raise NoConvergence(f"polynomial zeros not settled within {_ROOT_SWEEPS} Aberth sweeps")


def _chart_polys(f, chart: int):
    """Numerator and denominator of f as polynomials in the chart coordinate,
    coefficients from the highest power down (Horner's order)."""
    if chart == 0:
        return reversed(f.num), reversed(f.den)
    return f.num, f.den


def eval_map(f, z: SpherePoint) -> SpherePoint:
    """Homogeneous evaluation (P(Z,W) : Q(Z,W)), exact at infinity.

    Raises IndeterminatePoint where max(|P|, |Q|) is at most 1e-12 of the
    coefficient sum at the point, sum (|p_k| + |q_k|) |xi|^k: a floor
    relative to the map's own scale.  |xi| <= 1 in its chart, so that sum is
    computed only below 1e-12 of the plain coefficient sum f.abs_sum.
    """
    c = z.chart()
    p, q = _chart_polys(f, c)
    xi = z.coord(c)
    pv = _horner(p, xi)
    qv = _horner(q, xi)
    size = max(abs(pv), abs(qv))
    if size <= _INDETERMINATE_FLOOR * f.abs_sum:
        p, q = _chart_polys(f, c)  # afresh: chart 0's reversed iterators are spent
        r = abs(xi)
        at_point = abs(_horner(map(abs, p), r)) + abs(_horner(map(abs, q), r))
        if size <= _INDETERMINATE_FLOOR * at_point:
            raise IndeterminatePoint(f"both homogeneous forms vanish near {z}")
    # in chart 1, P(1/y)/Q(1/y) = rev(num)(y)/rev(den)(y), still standard coords
    return SpherePoint.make(pv, qv)


def chart_derivative(f, z: SpherePoint, in_chart: int, out_chart: int) -> complex:
    """Derivative of (out chart) o f o (in chart)^-1 at the coordinate of z."""
    c = in_chart
    p, q = _chart_polys(f, c)
    xi = z.coord(c)
    pv, pd = _horner_pair(p, xi)
    qv, qd = _horner_pair(q, xi)
    # value of f in standard coordinates is pv/qv in chart 0 input,
    # and (after the reversal) rev(num)/rev(den) = pv/qv as well
    if out_chart == 0:
        if abs(qv) == 0.0:
            return complex(math.inf, 0.0)
        return (pd * qv - pv * qd) / (qv * qv)
    if abs(pv) == 0.0:
        return complex(math.inf, 0.0)
    return (qd * pv - qv * pd) / (pv * pv)


def multiplier(f, points: list[SpherePoint]) -> complex:
    """Product of chart derivatives along the cycle, chart-consistent."""
    result = 1.0 + 0j
    n = len(points)
    for i, z in enumerate(points):
        nxt = points[(i + 1) % n]
        result *= chart_derivative(f, z, z.chart(), nxt.chart())
    return result


def orbit(f, z: SpherePoint, n: int) -> list[SpherePoint]:
    pts = [z]
    for _ in range(n):
        pts.append(eval_map(f, pts[-1]))
    return pts


def _wronskian(num, den) -> list:
    """Ascending coefficients, 2D - 1 of them, of P'Q - PQ' for num and den
    of D + 1 ascending coefficients each: its degree is 2D - 2, since the
    coefficient of z^(2D - 1), D a_D b_D - a_D D b_D, is identically zero."""
    u, v = _convolve(_polyder(num), den), _convolve(num, _polyder(den))
    return [u[k] - v[k] for k in range(2 * len(num) - 3)]


def sphere_zeros(coeffs, degree: int) -> list[SpherePoint]:
    """Zeros on the sphere, with multiplicity, of the degree-`degree` lift of
    coeffs, sorted by (re, im), then infinity once for each degree dropped.

    Top coefficients at or below eps times the largest modulus of coeffs are
    at the rounding level of the polynomial's own arithmetic and count as
    zero: each degree so dropped is a zero at infinity.  This is the one rule
    that decides which coefficients count, for the critical points and for
    the map check.  Raises NoConvergence where roots does."""
    cut = _EPS * max(map(abs, coeffs))
    eff = max((k for k, c in enumerate(coeffs) if abs(c) > cut), default=0)
    zeros = sorted(roots(coeffs[: eff + 1]), key=lambda c: (c.real, c.imag))
    return [SpherePoint.from_complex(x) for x in zeros] + [SpherePoint.infinity()] * (degree - eff)


def critical_points(f) -> list[SpherePoint]:
    """The 2D - 2 critical points of f, with multiplicity: the zeros on the
    sphere of the Wronskian P'Q - PQ', by sphere_zeros, so a top Wronskian
    coefficient at the rounding level puts a critical point at infinity.
    Raises NoConvergence where roots does."""
    return sphere_zeros(_wronskian(f.num, f.den), 2 * f.degree - 2)


def _newton_periodic(f, seed: SpherePoint, period: int, tol: float, max_iter: int = 60) -> list[SpherePoint]:
    """Newton iteration for f^period(z) = z, tracked in a moving chart; returns
    the orbit z, f(z), ..., f^period(z) of the point it converged on."""
    z = seed
    for _ in range(max_iter):
        pts = orbit(f, z, period)
        if spherical_distance(pts[-1], pts[0]) < tol:
            return pts
        c0 = pts[0].chart()
        chain = 1.0 + 0j
        for i in range(period):
            chain *= chart_derivative(f, pts[i], pts[i].chart(), pts[i + 1].chart())
        cp = pts[-1].chart()
        if cp != c0:
            u = pts[-1].coord(cp)
            if abs(u) < 1e-14:
                raise NoConvergence("periodic orbit hit the opposite chart pole")
            chain *= -1.0 / (u * u)
            end_coord = 1.0 / u
        else:
            end_coord = pts[-1].coord(cp)
        xi = pts[0].coord(c0)
        h = end_coord - xi
        denom = chain - 1.0
        if abs(denom) < 1e-14:
            raise NoConvergence("Newton step degenerate (multiplier 1)")
        step = h / denom
        if not math.isfinite(abs(step)):
            raise NoConvergence("Newton step overflow")
        z = SpherePoint.from_coord(xi - step, c0)
    raise NoConvergence(f"no periodic point of period {period} within {max_iter} Newton steps")


def find_cycle(f, seed: SpherePoint, period: int, tol: float = 1e-12) -> CycleData:
    """Locate a cycle near seed; reports the minimal period dividing `period`."""
    if period < 1:
        raise ValueError("period must be >= 1")
    return _cycle_data(f, _newton_periodic(f, seed, period, tol), tol)


def _cycle_data(f, pts: list[SpherePoint], tol: float) -> CycleData:
    """The cycle of a point of period dividing len(pts) - 1, given its orbit
    pts from _newton_periodic, at its minimal period."""
    period = len(pts) - 1
    minimal = period
    for d in range(1, period):
        if period % d == 0 and spherical_distance(pts[d], pts[0]) < 1e3 * tol:
            minimal = d
            break
    cycle_pts = tuple(pts[:minimal])
    return CycleData(points=cycle_pts, period=minimal, multiplier=multiplier(f, list(cycle_pts)))


def continue_cycle(member, cycle: CycleData) -> CycleData:
    """Continuation of a cycle of member(0), with multiplier other than 1,
    along the path of maps member(s), s from 0 to 1.

    Newton correction at each substep and adaptive halving on failure; the
    result is the cycle of member(1.0) that the last substep converged on.
    """
    z = cycle.points[0]
    period = cycle.period
    s = 0.0
    ds = _CONTINUE_STEP
    while s < 1.0:  # every step is _CONTINUE_STEP / 2^m: s lands exactly on 1.0
        sv = min(1.0, s + ds)
        try:
            g = member(sv)
            pts = _newton_periodic(g, z, period, _CONTINUE_TOL, max_iter=20)
        except (NoConvergence, ValueError):
            ds *= 0.5
            if ds < _CONTINUE_STEP / 2 ** 24:
                raise ContinuationBreakdown(
                    f"continuation step underflow at s = {s:.6g}") from None
            continue
        z, s = pts[0], sv
        ds = min(2.0 * ds, _CONTINUE_STEP)
    # the loop ends on a substep that converged at sv = 1.0, on g = member(1.0)
    continued = _cycle_data(g, pts, _CONTINUE_TOL)
    if continued.period != period:
        raise ContinuationBreakdown(
            f"period changed from {period} to {continued.period} during continuation")
    return continued


def pullback_branch(f, target: SpherePoint, near: SpherePoint, tol: float = 1e-12) -> SpherePoint:
    """Newton solve of f(z) = target seeded at `near`, guarding the branch.

    The chart derivative along the way must stay above the guard floor;
    otherwise two branches are merging and BranchAmbiguity is raised.
    """
    z = near
    out_chart = target.chart()
    t_coord = target.coord(out_chart)
    for _ in range(50):
        image = eval_map(f, z)
        in_chart = z.chart()
        g = chart_derivative(f, z, in_chart, out_chart)
        if abs(g) < _GUARD:
            raise BranchAmbiguity(
                f"chart derivative {abs(g):.3e} below guard {_GUARD:.3e} near {z}")
        if spherical_distance(image, target) < tol:
            break
        if abs(image.W if out_chart == 0 else image.Z) < 1e-14:
            raise NoConvergence("image hit the pole of the target chart during pullback")
        z = SpherePoint.from_coord(z.coord(in_chart) - (image.coord(out_chart) - t_coord) / g, in_chart)
    else:
        raise NoConvergence(f"pullback Newton did not reach tol {tol}")
    return z


_WINDOW = 64


def classify_orbit(f, z: SpherePoint, max_iter: int = 2000,
                   tol: float = 1e-9) -> OrbitCertificate | None:
    """Certify that z lies within tol of a preperiodic point, else None.

    A return of iterate n within sqrt(tol) of iterate m, m and n - m at most
    _WINDOW, proposes a cycle, the smallest period within 2x the best; one
    not repelling is returned as the orbit reached it.  Else the landing
    residual, the verdict, is z's distance to the cycle pulled back along
    the orbit (pullback_branch; at a fold, the exact preimage nearest the
    iterate) plus the error carried back, per point the error above plus its
    image residual, over its chart derivative.  README: what a refusal means."""
    pts = [z]
    for n in range(1, max_iter + 1):
        pts.append(eval_map(f, pts[-1]))
        close = [(d, m) for m in range(max(0, n - _WINDOW), min(n, _WINDOW + 1))
                 if (d := spherical_distance(pts[n], pts[m])) < math.sqrt(tol)]
        if not close:
            continue
        best = min(close)[0]
        start = max(m for d, m in close if d <= 2.0 * best)  # smallest period within 2x best
        try:
            cycle = find_cycle(f, pts[start], n - start, tol=1e-13)
            back = [cycle.points[0]]
            if not cycle.repelling:  # forward convergence is the sound direction here
                return OrbitCertificate(start, spherical_distance(pts[start], back[0]), cycle,
                                        tuple(pts[:start]) + cycle.points)
            err = spherical_distance(eval_map(f, cycle.points[-1]), back[0]) / abs(cycle.multiplier - 1)
            for p in reversed(pts[:start]):
                try:
                    q = pullback_branch(f, back[-1], p)
                except BranchAmbiguity:  # a fold: the exact preimage nearest the iterate
                    pre = [back[-1].W * a - back[-1].Z * b for a, b in zip(f.num, f.den)]
                    q = min(sphere_zeros(pre, f.degree), key=lambda r: spherical_distance(r, p))
                if e := err + spherical_distance(eval_map(f, q), back[-1]):
                    err = e / abs(chart_derivative(f, q, q.chart(), back[-1].chart()))
                back.append(q)
        except (NoConvergence, IndeterminatePoint, ZeroDivisionError):
            continue  # a failed proposal: the scan goes on
        if (residual := spherical_distance(back[-1], z) + err) <= tol:
            tail = tuple(q for q in back[::-1] if all(spherical_distance(q, c) > tol for c in cycle.points))
            return OrbitCertificate(len(tail), residual, cycle, tail + cycle.points)
    return None


_BLOCK = 8192  # pixels per render block: 64 KB per complex64 array
MIN_GRID = 16  # smallest render width and height


def _horner_block(c, x, v, t) -> None:
    """Value at x of the polynomial with scalar (ascending) coefficients c,
    written into v; t is scratch.  From v = c[-1] each step is
    v = v x + c[k], from the top coefficient down.

    No complex product is written over one of its inputs: numpy runs a
    one-element product in place through a loop without fused multiply-add,
    which changes the last bit.
    """
    import numpy as np

    v.fill(c[-1])
    for k in range(len(c) - 2, -1, -1):
        np.multiply(v, x, out=t)
        np.add(t, c[k], out=v)


def _shade_block(polys, xs, ys, span: float, max_iter: int, start: int, stop: int, out) -> None:
    """Shade the row-major pixels start:stop of the grid span (ys x xs) into out.

    polys holds the complex64 ascending coefficients of the numerator, the
    denominator and the Wronskian of degree 2D - 2; xs and ys run from -1 to
    1.  A pixel carries its chart coordinate xi, |xi| <= 1: p/q in chart 0,
    where |q| >= |p|, and q/p in chart 1.  The first xi is the grid point z
    or 1/z, taken in double from z / span before the cast, so no finite span
    overflows; every later value is complex64, and log_acc float64.  Pixels
    stay grouped by chart (chart 0 first, grid order kept within each
    group), so each group runs Horner with scalar coefficients, reversed in
    chart 1.  Every pixel gets the same IEEE operations, in the same order,
    whatever the block and whatever its neighbours.
    """
    import numpy as np

    reversed_polys = [c[::-1] for c in polys]
    n = stop - start
    pos = np.arange(start, stop)  # grid index of each pixel as the groups move
    u = xs[pos % len(xs)] + 1j * ys[pos // len(xs)]  # the grid point z over span
    far = np.abs(u) > 1.0 / span  # |z| > 1, without forming |z|, which can overflow
    z = span * u
    z[far] = 1.0 / u[far] / span  # the chart-1 coordinate 1/z
    z = z.astype(np.complex64)
    p, q = np.where(far, 1, z), np.where(far, z, 1)  # (xi : 1) in chart 0, (1 : xi) in chart 1
    ap, aq = np.abs(p), np.abs(q)
    log_acc = np.zeros(n)
    xi, w, t = np.empty_like(p), np.empty_like(p), np.empty_like(p)
    for _ in range(max_iter):
        chart0 = aq >= ap
        n0 = int(np.count_nonzero(chart0))
        if not chart0[:n0].all():
            order = np.concatenate((np.flatnonzero(chart0), np.flatnonzero(~chart0)))
            p, q, log_acc, pos = p[order], q[order], log_acc[order], pos[order]
        np.divide(p[:n0], q[:n0], out=xi[:n0])
        np.divide(q[n0:], p[n0:], out=xi[n0:])
        for cs, group in zip((polys, reversed_polys), (slice(0, n0), slice(n0, n))):
            for c, v in zip(cs, (p, q, w)):
                _horner_block(c, xi[group], v[group], t[group])
        ap, aq = np.abs(p), np.abs(q)
        # spherical derivative of f = (p : q) at xi, the same in either output
        # chart: |p'q - pq'| (1 + |xi|^2) / (|p|^2 + |q|^2); in chart 1 p'q - pq'
        # of the reversed pair is minus the reversed Wronskian
        sph = np.abs(w) * (1.0 + np.square(np.abs(xi))) / (np.square(ap) + np.square(aq))
        log_acc += np.log(np.maximum(sph, 1e-300, dtype=float))
    lyap = log_acc / max_iter
    ramp = np.clip(128.0 + 28.0 * lyap, 0.0, 254.0).astype(np.uint8)
    out[pos, 0] = ramp
    out[pos, 1] = np.where(aq >= ap, 255, 80)
    out[pos, 2] = np.where(aq < 1e-6 * ap, 255, ramp)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where fork or the affinity call is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def julia_render(f, width: int, height: int, max_iter: int = 40,
                 span: float = 2.0):
    """Derivative-growth shading over [-span, span]^2; (height, width, 3) uint8.

    Red encodes the average log spherical derivative, green the final chart
    (bright = bounded), blue carries the escape marker 255 (final point
    within 1e-6 of infinity).  The grid is span times linspace(-1, 1), so
    any finite span works, and it is shaded in blocks of _BLOCK pixels; the
    output bytes do not depend on the split.

    Orbits run in complex64: the numerator, denominator and Wronskian
    coefficients, at the unit scale every map is stored at, are computed in
    double and cast once, so their values stay in the complex64 range.
    Red does not see the precision: for a Lattes map the mean log derivative
    is log |a| plus an endpoint term divided by max_iter, and one red level
    is 1/28 in that mean.

    The blocks are dealt round-robin to this process and k - 1 forked
    workers, k = min(usable CPUs, blocks), which write straight into a
    shared anonymous mapping; the processes share no interpreter lock.
    Every worker is reaped before the call returns or raises.
    """
    import numpy as np

    if width < MIN_GRID or height < MIN_GRID:
        raise ValueError(f"grid dimensions must be at least {MIN_GRID}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be finite and positive, got {span}")
    polys = [np.asarray(c, dtype=np.complex64) for c in (f.num, f.den, _wronskian(f.num, f.den))]
    xs = np.linspace(-1.0, 1.0, width)
    ys = np.linspace(-1.0, 1.0, height)
    size = width * height
    starts = range(0, size, _BLOCK)
    k = min(_usable_cpus(), len(starts))
    out = np.frombuffer(mmap.mmap(-1, 3 * size), dtype=np.uint8).reshape(size, 3)

    def shade(share: int) -> None:
        for start in starts[share::k]:
            _shade_block(polys, xs, ys, span, max_iter, start, min(start + _BLOCK, size), out)

    pids = []
    try:
        for share in range(1, k):
            pid = os.fork()
            if pid == 0:  # worker: never returns into the caller
                code = 1
                try:
                    shade(share)
                    code = 0
                except BaseException:
                    import traceback  # on failure only, so no command start pays for it
                    os.write(2, traceback.format_exc().encode(errors="replace"))
                finally:
                    os._exit(code)
            pids.append(pid)
        shade(0)
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise RuntimeError(f"render worker exit codes {codes}")
    return out.reshape(height, width, 3).copy()


def ppm_bytes(buffer) -> bytes:
    """An (H, W, 3) uint8 buffer as binary PPM (P6)."""
    import numpy as np

    h, w, c = buffer.shape
    if c != 3 or buffer.dtype != np.uint8:
        raise ValueError("buffer must be (H, W, 3) uint8")
    return f"P6\n{w} {h}\n255\n".encode("ascii") + buffer.tobytes()
