"""Numerical dynamics of rational maps on the Riemann sphere.

All arithmetic is projective: points are (Z : W) pairs normalized to
max(|Z|, |W|) = 1 and maps are evaluated through homogeneous lifts, so
orbits pass through infinity without special cases.  Derivatives are chart
derivatives (the coordinate is z = Z/W where the point is bounded and
w = W/Z otherwise) and multipliers are telescoping products of chart
derivatives, which makes them chart-independent.

Polynomial coefficient vectors are ascending (constant term first)
throughout this module.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchAmbiguity,
    ContinuationBreakdown,
    IndeterminatePoint,
    NoConvergence,
    RootCountMismatch,
)

_EPS = np.finfo(float).eps
_GUARD = 10.0 * _EPS ** (1.0 / 3.0)  # derivative floor for branch tracking
_INDETERMINATE_FLOOR = 1e-12
_PARALLEL_TOL = 1e-12  # relative tolerance of the scaling check in continue_cycle
_TRIM_REL = 1e-12  # coefficients below this share of the largest are dropped
_CRITICAL_RADIUS = 1e-9 ** 0.5  # Wronskian roots closer than this are one critical point
_CONTINUE_STEP = 0.5  # first and largest substep of continue_cycle, in s from 0 (f0) to 1 (f1)
_CONTINUE_TOL = 1e-12  # cycle residual at each continuation substep


@dataclass(frozen=True)
class SpherePoint:
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


@dataclass(frozen=True)
class CycleData:
    """A periodic cycle with its multiplier.

    contains_critical_point flags cycles through a critical point; they are
    returned rather than rejected (the multiplier is then ~0).
    """

    points: tuple
    period: int
    multiplier: complex
    residual: float
    contains_critical_point: bool = False

    @property
    def repelling(self) -> bool:
        return abs(self.multiplier) > 1.0


@dataclass(frozen=True)
class OrbitCertificate:
    """Result of orbit classification.

    found is False when no near-return showed up within the iteration
    budget; the remaining fields are then meaningless.
    """

    found: bool
    preperiod: int
    period: int
    landing_residual: float
    cycle: CycleData | None
    repelling: bool


def _coeffs(f) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(f.num, dtype=complex), np.asarray(f.den, dtype=complex)


def _horner(coeffs: np.ndarray, x: complex) -> complex:
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _horner_pair(coeffs: np.ndarray, x: complex) -> tuple[complex, complex]:
    """Value and derivative in one pass."""
    acc = 0j
    der = 0j
    for c in coeffs[::-1]:
        der = der * x + acc
        acc = acc * x + c
    return acc, der


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    if len(coeffs) <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, len(coeffs), dtype=float)


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return coeffs[:1]
    keep = np.nonzero(np.abs(coeffs) > _TRIM_REL * scale)[0]
    return coeffs[: keep[-1] + 1] if len(keep) else coeffs[:1]


def _chart_polys(f, chart: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of f as polynomials in the chart coordinate."""
    num, den = _coeffs(f)
    if chart == 0:
        return num, den
    return num[::-1], den[::-1]


def eval_map(f, z: SpherePoint) -> SpherePoint:
    """Homogeneous evaluation (P(Z,W) : Q(Z,W)), exact at infinity."""
    c = z.chart()
    p, q = _chart_polys(f, c)
    xi = z.coord(c)
    pv = _horner(p, xi)
    qv = _horner(q, xi)
    if max(abs(pv), abs(qv)) < _INDETERMINATE_FLOOR:
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


def critical_points(f) -> list[tuple[SpherePoint, int]]:
    """Roots of the Wronskian P'Q - PQ' with multiplicities; total is 2D - 2."""
    num, den = _coeffs(f)
    D = f.degree
    wr = _polymul(_polyder(num), den) - _polymul(num, _polyder(den))
    wr = _trim(wr)
    deg_wr = len(wr) - 1
    mult_inf = (2 * D - 2) - deg_wr
    if mult_inf < 0:
        raise RootCountMismatch(f"Wronskian degree {deg_wr} exceeds 2D-2 = {2 * D - 2}")
    roots = np.roots(wr[::-1]) if deg_wr >= 1 else np.array([], dtype=complex)
    wr_d = _polyder(wr)
    polished = []
    for r in roots:
        x = complex(r)
        for _ in range(3):
            v = _horner(wr, x)
            d = _horner(wr_d, x)
            if abs(d) < 1e-14:
                break
            step = v / d
            if abs(step) > 1.0:
                break
            x -= step
        if abs(x) > 1e8:
            mult_inf += 1
        else:
            polished.append(x)
    clusters: list[list[complex]] = []
    for x in sorted(polished, key=lambda c: (c.real, c.imag)):
        for cl in clusters:
            if abs(x - cl[0]) < _CRITICAL_RADIUS:
                cl.append(x)
                break
        else:
            clusters.append([x])
    out = [(SpherePoint.from_complex(sum(cl) / len(cl)), len(cl)) for cl in clusters]
    if mult_inf > 0:
        out.append((SpherePoint.infinity(), mult_inf))
    total = sum(m for _, m in out)
    if total != 2 * D - 2:
        raise RootCountMismatch(f"found {total} critical points with multiplicity, expected {2 * D - 2}")
    return out


def _newton_periodic(f, seed: SpherePoint, period: int, tol: float, max_iter: int = 60) -> tuple[SpherePoint, float]:
    """Newton iteration for f^period(z) = z, tracked in a moving chart."""
    z = seed
    last_res = math.inf
    for _ in range(max_iter):
        pts = orbit(f, z, period)
        res = spherical_distance(pts[-1], pts[0])
        if res < tol:
            return z, res
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
        if res > 1.0 and res >= last_res:
            raise NoConvergence("periodic-point Newton diverged")
        last_res = res
    raise NoConvergence(f"no periodic point of period {period} within {max_iter} Newton steps")


def find_cycle(f, seed: SpherePoint, period: int, tol: float = 1e-12) -> CycleData:
    """Locate a cycle near seed; reports the minimal period dividing `period`."""
    if period < 1:
        raise ValueError("period must be >= 1")
    z, _ = _newton_periodic(f, seed, period, tol)
    pts = orbit(f, z, period)
    minimal = period
    for d in range(1, period):
        if period % d == 0 and spherical_distance(pts[d], pts[0]) < 1e3 * tol:
            minimal = d
            break
    cycle_pts = tuple(pts[:minimal])
    mult = multiplier(f, list(cycle_pts))
    residual = max(
        spherical_distance(eval_map(f, cycle_pts[i]), cycle_pts[(i + 1) % minimal])
        for i in range(minimal)
    )
    return CycleData(
        points=cycle_pts,
        period=minimal,
        multiplier=mult,
        residual=residual,
        contains_critical_point=abs(mult) < 1e-6,
    )


def _phase_align(num0, den0, num1, den1):
    """Rotate (num1, den1) by the unit scalar best matching (num0, den0)."""
    inner = np.vdot(np.concatenate([num1, den1]), np.concatenate([num0, den0]))
    if abs(inner) < 1e-14:
        return num1, den1
    phase = np.conj(inner) / abs(inner)
    return num1 * phase, den1 * phase


def _check_scaling(c0: np.ndarray, c1: np.ndarray) -> None:
    """ValueError unless c1 = lam * c0 up to rounding, with (1 - s) + s lam
    kept away from 0 for s in [0, 1]."""
    lam = complex(np.vdot(c0, c1) / np.vdot(c0, c0))
    if not np.linalg.norm(c1 - lam * c0) <= _PARALLEL_TOL * np.linalg.norm(c1):
        raise ValueError("continue_cycle requires f1 to scale f0's numerator and denominator")
    step = lam - 1.0
    s = min(1.0, max(0.0, -step.real / abs(step) ** 2)) if step else 0.0
    if abs(1.0 + s * step) <= _PARALLEL_TOL * max(1.0, abs(lam)):
        raise ValueError("continue_cycle: interpolating from f0 to f1 passes through zero")


def continue_cycle(f0, cycle: CycleData, f1) -> CycleData:
    """Homotopy continuation of a repelling cycle from f0 to f1.

    f1's numerator and denominator must each be a scalar multiple of f0's,
    as for members of a scaling family; ValueError otherwise.  Linear
    interpolation of the coefficient vectors (phase-aligned first), with
    Newton correction at each substep and adaptive halving on failure.
    """
    if not cycle.repelling:
        raise ValueError("continue_cycle requires a repelling cycle")
    num0, den0 = _coeffs(f0)
    num1, den1 = _coeffs(f1)
    if len(num0) != len(num1) or len(den0) != len(den1):
        raise ValueError("coefficient vectors must have matching shapes")
    num1, den1 = _phase_align(num0, den0, num1, den1)
    # num1 = lam num0 makes each interpolant's numerator (1 - s + s lam) num0, a
    # nonzero multiple of num0 (likewise the denominator): every interpolant has
    # f0's zeros, poles and degree, so f0.rescaled need not check it again
    _check_scaling(num0, num1)
    _check_scaling(den0, den1)
    z = cycle.points[0]
    period = cycle.period
    s = 0.0
    ds = _CONTINUE_STEP
    min_ds = ds / 2 ** 24

    def at(sv):
        return f0.rescaled((1.0 - sv) * num0 + sv * num1, (1.0 - sv) * den0 + sv * den1)

    while s < 1.0 - 1e-15:
        sv = min(1.0, s + ds)
        try:
            z_new, _ = _newton_periodic(at(sv), z, period, _CONTINUE_TOL, max_iter=20)
        except (NoConvergence, ValueError):
            ds *= 0.5
            if ds < min_ds:
                raise ContinuationBreakdown(
                    f"continuation step underflow at s = {s:.6g}") from None
            continue
        z, s = z_new, sv
        if ds < _CONTINUE_STEP:
            ds *= 2.0
    continued = find_cycle(at(1.0), z, period, _CONTINUE_TOL)
    if continued.period != period:
        raise ContinuationBreakdown(
            f"period changed from {period} to {continued.period} during continuation")
    return continued


def preimages(f, target: SpherePoint) -> list[SpherePoint]:
    """All D preimages of target, with multiplicity, by root extraction."""
    num, den = _coeffs(f)
    poly = target.W * num - target.Z * den
    poly = _trim(poly)
    deg = len(poly) - 1
    out = [SpherePoint.from_complex(complex(r)) for r in (np.roots(poly[::-1]) if deg >= 1 else [])]
    out.extend(SpherePoint.infinity() for _ in range(f.degree - deg))
    return out


def pullback_branch(f, target: SpherePoint, near: SpherePoint, tol: float = 1e-12) -> SpherePoint:
    """Newton solve of f(z) = target seeded at `near`, guarding the branch.

    The chart derivative along the way must stay above the guard floor;
    otherwise two branches are merging and BranchAmbiguity is raised.
    """
    z = near
    out_chart = target.chart()
    t_coord = target.coord(out_chart)
    converged = False
    for _ in range(50):
        image = eval_map(f, z)
        res = spherical_distance(image, target)
        in_chart = z.chart()
        g = chart_derivative(f, z, in_chart, out_chart)
        if abs(g) < _GUARD:
            raise BranchAmbiguity(
                f"chart derivative {abs(g):.3e} below guard {_GUARD:.3e} near {z}")
        if res < tol:
            converged = True
            break
        denom = image.W if out_chart == 0 else image.Z
        if abs(denom) < 1e-14:
            raise NoConvergence("image hit the pole of the target chart during pullback")
        h = image.Z / image.W if out_chart == 0 else image.W / image.Z
        step = (h - t_coord) / g
        z = SpherePoint.from_coord(z.coord(in_chart) - step, in_chart)
    if not converged:
        raise NoConvergence(f"pullback Newton did not reach tol {tol}")
    return z


_WINDOW = 64


def classify_orbit(f, z: SpherePoint, max_iter: int = 2000, tol: float = 1e-9) -> OrbitCertificate:
    """Detect (pre)periodicity of the orbit of z by trailing-window near-return.

    On a near-return the candidate period is polished with find_cycle and the
    minimal preperiod is the first iterate within landing tolerance of the
    cycle.  Absence of a near-return is reported with found=False, not an
    exception.
    """
    pts = [z]
    hit = None
    for n in range(1, max_iter + 1):
        pts.append(eval_map(f, pts[-1]))
        lo = max(0, n - _WINDOW)
        dists = [(spherical_distance(pts[n], pts[m]), m) for m in range(lo, n)]
        close = [(d, m) for d, m in dists if d < tol]
        if close:
            best = min(d for d, _ in close)
            # smallest period among returns within 2x the best distance
            m_best = max(m for d, m in close if d <= 2.0 * best)
            hit = (n, m_best)
            break
    if hit is None:
        return OrbitCertificate(False, -1, -1, math.inf, None, False)
    n, m = hit
    cycle = find_cycle(f, pts[m], n - m, tol=max(tol * 1e-4, 1e-13))
    landing_tol = max(100.0 * tol, 1e-10)
    preperiod = None
    landing = math.inf
    for i, p in enumerate(pts):
        d = min(spherical_distance(p, c) for c in cycle.points)
        if d < landing_tol:
            preperiod, landing = i, d
            break
    if preperiod is None:
        return OrbitCertificate(False, -1, -1, math.inf, None, False)
    return OrbitCertificate(True, preperiod, cycle.period, landing, cycle, cycle.repelling)


def mobius_conjugate(f, mobius: tuple[complex, complex, complex, complex]):
    """Coefficients of M o f o M^-1 for M(z) = (az + b)/(cz + d)."""
    a, b, c, d = (complex(v) for v in mobius)
    if abs(a * d - b * c) < 1e-14:
        raise ValueError("Moebius map is singular")
    num, den = _coeffs(f)
    D = f.degree
    # substitute z = M^-1(x) = (dx - b)/(-cx + a) into P and Q
    top = np.array([-b, d], dtype=complex)
    bot = np.array([a, -c], dtype=complex)
    pow_top = [np.array([1.0 + 0j])]
    pow_bot = [np.array([1.0 + 0j])]
    for _ in range(D):
        pow_top.append(_polymul(pow_top[-1], top))
        pow_bot.append(_polymul(pow_bot[-1], bot))
    size = D + 1

    def substitute(coeffs):
        acc = np.zeros(size, dtype=complex)
        for j, cj in enumerate(coeffs):
            term = _polymul(pow_top[j], pow_bot[D - j]) * cj
            acc[: len(term)] += term
        return acc

    n1 = substitute(num)
    d1 = substitute(den)
    new_num = a * n1 + b * d1
    new_den = c * n1 + d * d1
    scale = max(np.max(np.abs(new_num)), np.max(np.abs(new_den)))
    return dataclasses.replace(f, num=new_num / scale, den=new_den / scale)


_BLOCK = 8192  # pixels per render block: 128 KB per complex array


def _horner_block(cn, cd, x, p, q, dp, dq, t) -> None:
    """Values p, q and derivatives dp, dq at x of the polynomials with scalar
    (ascending) coefficients cn, cd, written into the given buffers; t is
    scratch.  From a zero state each step is dp = dp x + p, dq = dq x + q,
    p = p x + cn[k], q = q x + cd[k], in that order.

    No complex product is written over one of its inputs: numpy runs a
    one-element product in place through a loop without fused multiply-add,
    which changes the last bit.
    """
    # the first step multiplies zeros by x; one product serves all four
    np.multiply(np.zeros_like(x), x, out=t)
    np.add(t, 0.0, out=dp)
    np.add(t, 0.0, out=dq)
    np.add(t, cn[-1], out=p)
    np.add(t, cd[-1], out=q)
    for k in range(len(cn) - 2, -1, -1):
        np.multiply(dp, x, out=t)
        np.add(t, p, out=dp)
        np.multiply(dq, x, out=t)
        np.add(t, q, out=dq)
        np.multiply(p, x, out=t)
        np.add(t, cn[k], out=p)
        np.multiply(q, x, out=t)
        np.add(t, cd[k], out=q)


def _shade_block(num, den, xs, ys, max_iter: int, start: int, stop: int,
                 out: np.ndarray) -> None:
    """Shade the row-major pixels start:stop of the grid ys x xs into out.

    Pixels stay grouped by input chart (chart 0 first, grid order kept
    within each group), so each group runs Horner with scalar coefficients.
    Every pixel gets the same IEEE operations, in the same order, whatever
    the block and whatever its neighbours.
    """
    rnum, rden = num[::-1], den[::-1]
    n = stop - start
    pos = np.arange(start, stop)  # grid index of each pixel as the groups move
    Z = xs[pos % len(xs)] + 1j * ys[pos // len(xs)]
    W = np.ones_like(Z)
    log_acc = np.zeros(n)
    xi, p, q, dp, dq, t = (np.empty(n, dtype=complex) for _ in range(6))
    au, ag = np.empty(n), np.empty(n)  # |u| and |g| of the quotient and its derivative
    for _ in range(max_iter):
        chart0 = np.abs(W) >= np.abs(Z)
        n0 = int(np.count_nonzero(chart0))
        if not chart0[:n0].all():
            order = np.concatenate((np.flatnonzero(chart0), np.flatnonzero(~chart0)))
            Z, W, log_acc, pos = Z[order], W[order], log_acc[order], pos[order]
        np.divide(Z[:n0], W[:n0], out=xi[:n0])
        np.divide(W[n0:], Z[n0:], out=xi[n0:])
        for lo, hi, cn, cd in ((0, n0, num, den), (n0, n, rnum, rden)):
            if lo < hi:
                _horner_block(cn, cd, xi[lo:hi], p[lo:hi], q[lo:hi], dp[lo:hi], dq[lo:hi], t[lo:hi])
        ap, aq = np.abs(p), np.abs(q)
        out0 = aq >= ap
        # output chart 0 takes u = p/q, chart 1 takes u = q/p (g likewise)
        for idx, top, bot, dtop, dbot in ((np.flatnonzero(out0), p, q, dp, dq),
                                          (np.flatnonzero(~out0), q, p, dq, dp)):
            if len(idx):
                a, b, da, db = top[idx], bot[idx], dtop[idx], dbot[idx]
                au[idx] = np.abs(a / b)
                ag[idx] = np.abs((da * b - a * db) / (b * b))
        sph = ag * (1.0 + np.square(np.abs(xi))) / (1.0 + np.square(au))
        log_acc += np.log(np.maximum(sph, 1e-300))
        m = np.maximum(ap, aq)
        m[m == 0.0] = 1.0
        Z, W = p / m, q / m  # standard coords in both charts (reversal already applied)
    lyap = log_acc / max_iter
    ramp = np.clip(128.0 + 28.0 * lyap, 0.0, 254.0).astype(np.uint8)
    bounded_end = np.abs(W) >= np.abs(Z)
    escaped = np.abs(W) < 1e-6 * np.abs(Z)
    out[pos, 0] = ramp
    out[pos, 1] = np.where(bounded_end, 255, 80)
    out[pos, 2] = np.where(escaped, 255, ramp)


def julia_render(f, width: int, height: int, max_iter: int = 40,
                 span: float = 2.0, threads: int = 1) -> np.ndarray:
    """Derivative-growth shading over [-span, span]^2; (height, width, 3) uint8.

    Red encodes the average log spherical derivative, green the final chart
    (bright = bounded), blue carries the escape marker 255 (final point
    within 1e-6 of infinity).  The grid is shaded in blocks of _BLOCK
    pixels by up to `threads` workers; the output bytes depend on neither.
    """
    if width < 16 or height < 16:
        raise ValueError("grid dimensions must be at least 16")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be finite and positive, got {span}")
    num, den = _coeffs(f)
    xs = np.linspace(-span, span, width)
    ys = np.linspace(-span, span, height)
    size = width * height
    out = np.empty((size, 3), dtype=np.uint8)

    def shade(start):
        _shade_block(num, den, xs, ys, max_iter, start, min(start + _BLOCK, size), out)

    starts = range(0, size, _BLOCK)
    with ThreadPoolExecutor(max_workers=max(1, min(threads, len(starts)))) as pool:
        list(pool.map(shade, starts))
    return out.reshape(height, width, 3)


def write_ppm(buffer: np.ndarray, path: str) -> None:
    """Write an (H, W, 3) uint8 buffer as binary PPM (P6)."""
    h, w, c = buffer.shape
    if c != 3 or buffer.dtype != np.uint8:
        raise ValueError("buffer must be (H, W, 3) uint8")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(buffer.tobytes())
