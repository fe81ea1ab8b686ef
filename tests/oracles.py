"""Independent reference implementations that the tests check the package against.

None of these runs in a command: the lattice sum checks the theta series
of P (read through `weierstrass_p`, which no command needs), the
brute-force fiber (numpy roots after a trim of its own) checks
`pullback_branch`, the Moebius conjugate checks
the chart invariance of multipliers, the inverse-branch tracker and the
Newton solve in raw t check the shooting solve of the collision equations,
the scan of every earlier address checks the keyed exact itinerary,
random torus points check the semiconjugacy of a fitted map, and the theta
series and fit sample stream that recompute every nome power and every
torus sample per call check the ones that keep them per lattice and per
(a, translation).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from lattes_forge.dynamics import (
    SpherePoint,
    continue_cycle,
    eval_map,
    pullback_branch,
    spherical_distance,
)
from lattes_forge.elliptic import (
    _LOG_CUT,
    _MAX_TERMS,
    TorusPoint,
    _context,
    _on_lattice,
    theta_data,
    theta_map,
)
from lattes_forge.errors import (
    BranchAmbiguity,
    ContinuationBreakdown,
    NoConvergence,
    ValidationFailed,
)
from lattes_forge.lattes import (
    _CHART_BOUND,
    _R2_A,
    _R2_B,
    _SAMPLE_GAP,
    LattesSpec,
    RationalMapCoeffs,
    _half_lattice_gap,
    torus_endo,
)
from lattes_forge.perturbation import (
    _MARKED_TOL,
    BasePoint,
    MarkedPreperiodicPoint,
    _degree_power,
    _shooting_misfit,
    base_map_for,
    closed_form_rescaled_root,
)

_TRACK_STEPS = 4  # initial parameter substeps of track_marked_point
_TRIM_REL = 1e-12  # preimages' own trim of top coefficients, apart from sphere_zeros' rule


class PoleAtLatticePoint(ValueError):
    """P was requested at a lattice point, where it has a double pole."""


def _off_lattice(tau: TorusPoint) -> tuple[float, float]:
    """The centered coordinates of tau; raises PoleAtLatticePoint on the lattice."""
    s, t = tau.centered()
    if _on_lattice(s, t):
        raise PoleAtLatticePoint(f"P has a double pole at {tau}")
    return s, t


def weierstrass_p(tau: TorusPoint, gamma: complex) -> complex:
    """P(s + t*gamma) for the lattice Z + gamma Z, via the package's theta q-series."""
    return _context(gamma).p_centered(*_off_lattice(tau))


@lru_cache(maxsize=2)
def _lattice(gamma: complex, box: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero lattice points m + n gamma with |m|, |n| <= box, and 1/w^2."""
    m, n = np.mgrid[-box:box + 1, -box:box + 1]
    w = m + n * np.complex128(gamma)
    w = w[(m != 0) | (n != 0)]
    return w, 1.0 / w ** 2


def weierstrass_p_lattice_sum(tau: TorusPoint, gamma: complex, box: int = 200) -> complex:
    """Brute-force P by the symmetric truncated sum over |m|, |n| <= box."""
    s, t = _off_lattice(tau)
    z = s + t * gamma
    w, inv_w2 = _lattice(gamma, box)
    terms = 1.0 / (z - w) ** 2 - inv_w2
    # pair +/-w before accumulating so the O(1/w^3) parts cancel exactly
    return 1.0 / z ** 2 + complex(np.sum(terms))


def trimmed(poly) -> np.ndarray:
    """Ascending coefficients poly without the top ones at or below _TRIM_REL
    of the largest modulus; the constant term stays if none is above."""
    poly = np.asarray(poly, dtype=complex)
    mags = np.abs(poly)
    above = np.flatnonzero(mags > _TRIM_REL * mags.max())
    return poly[: above[-1] + 1 if above.size else 1]


def preimages(f, target: SpherePoint) -> list[SpherePoint]:
    """All D preimages of target, with multiplicity, by root extraction."""
    num, den = np.asarray(f.num, dtype=complex), np.asarray(f.den, dtype=complex)
    poly = trimmed(target.W * num - target.Z * den)
    deg = len(poly) - 1
    out = [SpherePoint.from_complex(complex(r)) for r in (np.roots(poly[::-1]) if deg >= 1 else [])]
    out.extend(SpherePoint.infinity() for _ in range(f.degree - deg))
    return out


def mobius_conjugate(f, mobius: tuple[complex, complex, complex, complex]):
    """Coefficients of M o f o M^-1 for M(z) = (az + b)/(cz + d)."""
    a, b, c, d = (complex(v) for v in mobius)
    if abs(a * d - b * c) < 1e-14:
        raise ValueError("Moebius map is singular")
    num, den = np.asarray(f.num, dtype=complex), np.asarray(f.den, dtype=complex)
    D = f.degree
    # substitute z = M^-1(x) = (dx - b)/(-cx + a) into P and Q
    top = np.array([-b, d], dtype=complex)
    bot = np.array([a, -c], dtype=complex)
    pow_top = [np.array([1.0 + 0j])]
    pow_bot = [np.array([1.0 + 0j])]
    for _ in range(D):
        pow_top.append(np.convolve(pow_top[-1], top))
        pow_bot.append(np.convolve(pow_bot[-1], bot))
    size = D + 1

    def substitute(coeffs):
        acc = np.zeros(size, dtype=complex)
        for j, cj in enumerate(coeffs):
            term = np.convolve(pow_top[j], pow_bot[D - j]) * cj
            acc[: len(term)] += term
        return acc

    n1 = substitute(num)
    d1 = substitute(den)
    new_num = a * n1 + b * d1
    new_den = c * n1 + d * d1
    scale = max(np.max(np.abs(new_num)), np.max(np.abs(new_den)))
    return RationalMapCoeffs(num=new_num / scale, den=new_den / scale, degree=f.degree)


@dataclass(frozen=True)
class PerturbedFamily:
    """The scaling family t -> (1+t) * base_map, with its member at t."""

    spec: LattesSpec
    base_map: RationalMapCoeffs
    t: complex
    member: RationalMapCoeffs = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "member", self.base_map.scaled(1.0 + self.t))


def is_half_lattice(tp: TorusPoint) -> bool:
    return (2 * Fraction(tp.s)) % 1 == 0 and (2 * Fraction(tp.t)) % 1 == 0


def same_sphere_class(p: TorusPoint, q: TorusPoint) -> bool:
    """Theta(p) == Theta(q): addresses agree mod lattice up to global sign."""
    ps, pt, qs, qt = Fraction(p.s), Fraction(p.t), Fraction(q.s), Fraction(q.t)
    return ((ps - qs) % 1 == 0 and (pt - qt) % 1 == 0) or (
        (ps + qs) % 1 == 0 and (pt + qt) % 1 == 0)


def exact_itinerary_by_scan(a: int, b: TorusPoint, addr: TorusPoint, max_steps: int):
    """(preperiod, period, addresses) of the forward orbit of addr, each new
    address compared with every earlier one."""
    addrs = [addr.reduced()]
    for _ in range(max_steps):
        nxt = torus_endo(a, b, addrs[-1])
        for m, prev in enumerate(addrs):
            if same_sphere_class(nxt, prev):
                return m, len(addrs) - m, addrs
        addrs.append(nxt)
    raise NoConvergence(f"no exact repeat within {max_steps} torus steps")


def marked_addresses(spec: LattesSpec, base_point: BasePoint,
                     marked: MarkedPreperiodicPoint) -> list[TorusPoint]:
    """Exact torus addresses of the marked orbit: its preperiodic tail, then one cycle."""
    addr = base_point.address(spec.a, marked.k, marked.family)
    return exact_itinerary_by_scan(spec.a, spec.translation, addr, marked.k + 64)[2]


def lands_on_postcritical_set(spec: LattesSpec, base_point: BasePoint,
                              marked: MarkedPreperiodicPoint) -> bool:
    """The landing cycle meets {0, oo, v, w}, which Theta takes from the half lattice."""
    cycle = marked_addresses(spec, base_point, marked)[marked.exact_preperiod:]
    return any(is_half_lattice(p) for p in cycle)


def pullback_trackable(spec: LattesSpec, base_point: BasePoint,
                       marked: MarkedPreperiodicPoint) -> bool:
    """False when the orbit lands on the postcritical set or runs through a
    critical point of f: Theta of an address off the half lattice that the
    torus endomorphism takes into it."""
    critical = any(is_half_lattice(torus_endo(spec.a, spec.translation, p))
                   and not is_half_lattice(p)
                   for p in marked_addresses(spec, base_point, marked))
    return not (critical or lands_on_postcritical_set(spec, base_point, marked))


def track_marked_point(family: PerturbedFamily, base_point: BasePoint,
                       marked: MarkedPreperiodicPoint, t: complex) -> SpherePoint:
    """Position of the marked point for the member map at parameter t.

    Continues the landing cycle, then pulls the orbit back branch by branch
    using the unperturbed orbit as seeds, in adaptive parameter substeps.
    Refuses orbits that run through a critical point or land on the
    postcritical set, where the inverse branches are not single-valued.
    """
    if t == 0:
        return marked.forward_orbit[0]
    if not pullback_trackable(family.spec, base_point, marked):
        raise BranchAmbiguity(
            "orbit passes through a critical point or lands on the postcritical set; "
            "inverse branches are not single-valued along it")
    f0 = family.base_map
    ell = marked.exact_preperiod
    current = list(marked.forward_orbit[: ell + 1])
    t_cur = 0j
    dt = t / _TRACK_STEPS
    min_step = abs(t) / 2 ** 22
    ft = f0
    while abs(t_cur - t) > 0:
        t_next = t if abs(t - t_cur) <= abs(dt) * (1 + 1e-12) else t_cur + dt
        try:
            ft = f0.scaled(1.0 + t_next)
            pts = [None] * (ell + 1)
            pts[ell] = continue_cycle(lambda s: f0.scaled(1.0 + s * t_next),
                                      marked.cycle).points[0]
            for j in range(ell - 1, -1, -1):
                pts[j] = pullback_branch(ft, pts[j + 1], current[j], tol=1e-12)
        except (BranchAmbiguity, NoConvergence, ContinuationBreakdown) as exc:
            dt *= 0.5
            if abs(dt) < min_step:
                raise ContinuationBreakdown(
                    f"tracking step underflow at t = {t_cur}: {exc}") from None
            continue
        current = pts
        t_cur = t_next
    for j in range(ell):
        res = spherical_distance(eval_map(ft, current[j]), current[j + 1])
        if res > 100.0 * _MARKED_TOL:
            raise ValidationFailed(f"tracked orbit violates the conjugacy at step {j}: {res:.3e}")
    return current[0]


def rescaled_collision_fn(spec: LattesSpec, base_point: BasePoint,
                          marked: MarkedPreperiodicPoint, u: complex) -> complex:
    """a^(2k) * (tracked marked point - perturbed critical value) at t = u/a^(2k).

    Requires a pullback-trackable orbit; the shooting solve does not.
    """
    a2k = _degree_power(spec, marked.k)
    t = u / a2k
    td = theta_data(spec.gamma.gamma)
    cv = td.v if marked.family == "X" else td.w
    fam = PerturbedFamily(spec, base_map_for(spec), t)
    tracked = track_marked_point(fam, base_point, marked, t)
    return a2k * (tracked.to_complex() - (1.0 + t) * cv)


def naive_collision(spec: LattesSpec, marked: MarkedPreperiodicPoint,
                    tol: float = 1e-12, max_iter: int = 40) -> complex:
    """Collision parameter t by Newton in raw t on the shooting misfit, with a
    central-difference slope, from the closed-form seed u / a^(2k).

    Independent of solve_collision's rescaled secant, its seed perturbation,
    step clamp and stopping rule.  Only the misfit is shared.  At a = 2, k = 3
    the Y family's Newton path jumps to the other fold root; use it for X.
    """
    td = theta_data(spec.gamma.gamma)
    cv = td.v if marked.family == "X" else td.w
    chart = marked.cycle.points[0].chart()
    base = base_map_for(spec)

    def misfit(t):
        return _shooting_misfit(marked, base, cv, chart, t)

    t = closed_form_rescaled_root(spec, marked) / _degree_power(spec, marked.k)
    for _ in range(max_iter):
        f = misfit(t)
        if abs(f) < tol:
            return t
        h = 1e-6 * abs(t)
        t -= f / ((misfit(t + h) - misfit(t - h)) / (2.0 * h))
    raise NoConvergence(f"raw-t Newton did not reach |misfit| < {tol} in {max_iter} steps")


def _half_lattice_distance(s: float, t: float) -> float:
    """Torus distance from (s, t) to the nearest point of the half lattice
    {0, 1/2}^2, which is the nearest half-integer in each coordinate."""
    return math.hypot(s - round(2.0 * s) / 2.0, t - round(2.0 * t) / 2.0)


def verify_semiconjugacy(f: RationalMapCoeffs, spec: LattesSpec, n: int,
                         seed: int = 0) -> float:
    """Max spherical distance between f(theta(tau)) and theta(L(tau)) at n
    random torus points, each with its image kept 5e-3 from the half lattice."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    gamma = spec.gamma.gamma
    worst = 0.0
    count = 0
    while count < n:
        tau = TorusPoint(*(float(x) for x in rng.random(2)))
        if _half_lattice_distance(tau.s, tau.t) < 5e-3:
            continue
        lt = torus_endo(spec.a, spec.translation, tau)
        if _half_lattice_distance(lt.s, lt.t) < 5e-3:
            continue
        worst = max(worst, spherical_distance(eval_map(f, theta_map(tau, gamma)),
                                              theta_map(lt, gamma)))
        count += 1
    return worst


def theta_series_per_call(kind: int, v: complex, lq: complex) -> complex:
    """Jacobi theta_kind(v, q), log-nome lq, with every nome power computed
    afresh: the same terms, order and stopping rule as the package's series."""
    decay = -lq.real
    iv = abs(v.imag)
    if kind in (1, 2):
        hump = iv / decay - 0.5
        acc = 0j
        n = 0
        while True:
            e = (n + 0.5) ** 2
            logmag = e * lq.real + (2 * n + 1) * iv
            if n > hump + 2 and logmag < _LOG_CUT:
                break
            arg = (2 * n + 1) * v
            base = cmath.exp(e * lq)
            if kind == 1:
                term = base * cmath.sin(arg)
                if n % 2:
                    term = -term
            else:
                term = base * cmath.cos(arg)
            acc += term
            n += 1
            if n > _MAX_TERMS:
                raise NoConvergence(f"theta_{kind} series needed more than {_MAX_TERMS} terms")
        return 2.0 * acc
    hump = iv / decay
    acc = 1.0 + 0j
    n = 1
    while True:
        logmag = n * n * lq.real + 2 * n * iv
        if n > hump + 2 and logmag < _LOG_CUT:
            break
        term = cmath.exp(n * n * lq) * cmath.cos(2 * n * v)
        if kind == 4 and n % 2:
            term = -term
        acc += 2.0 * term
        n += 1
        if n > _MAX_TERMS:
            raise NoConvergence(f"theta_{kind} series needed more than {_MAX_TERMS} terms")
    return acc


def sample_stream_per_fit(spec: LattesSpec):
    """The fit's chart-filtered sample pairs (theta(tau), theta(L tau)), with
    every torus sample drawn and filtered afresh."""
    gamma = spec.gamma.gamma
    a, b = spec.a, spec.translation
    bs, bt = float(b.s), float(b.t)
    j = 0
    while True:
        j += 1
        s = (0.5 + j * _R2_A) % 1.0
        t = (0.5 + j * _R2_B) % 1.0
        if _half_lattice_gap(s, t) < _SAMPLE_GAP:
            continue
        lt = TorusPoint(a * s + bs, a * t + bt).reduced()
        if _half_lattice_gap(lt.s, lt.t) < _SAMPLE_GAP:
            continue
        z = theta_map(TorusPoint(s, t), gamma)
        w = theta_map(lt, gamma)
        if abs(z.Z) > _CHART_BOUND * abs(z.W) or abs(w.Z) > _CHART_BOUND * abs(w.W):
            continue
        yield z, w
