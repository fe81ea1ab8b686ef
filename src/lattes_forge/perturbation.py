"""Marked preperiodic points and their collisions under scaling perturbation.

The family studied is g_t = (1+t) f for a Lattes map f.  Near the finite
critical values v and w sit marked preperiodic points at exact rational
torus addresses (1/2 + sigma/a^k and gamma/2 + tau/a^k); as t moves, the
perturbed critical values (1+t)v and (1+t)w sweep past the tracked marked
points and collide with them at parameters s_k and t_k of size a^(-2k).
Solving s_k(gamma)/t_k(gamma) = 1 in gamma yields maps g_k that are
strictly postcritically finite with more than four postcritical points.

Collisions are solved by forward shooting: t is a collision parameter
exactly when the orbit of the perturbed critical value lands on the
continued repelling cycle after the marked point's preperiod.  This stays
well defined even when the marked orbit runs through a critical point of f
(which happens for the default parameters in the w family, where the
landing point is the fixed point 0 itself); inverse-branch tracking would
break down there, so track_marked_point refuses exactly those orbits while
solve_collision does not need it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .dynamics import (
    OrbitCertificate,
    SpherePoint,
    classify_orbit,
    continue_cycle,
    eval_map,
    find_cycle,
    orbit,
    pullback_branch,
    spherical_distance,
)
from .elliptic import TorusParameter, TorusPoint, theta_data, theta_map
from .errors import (
    BranchAmbiguity,
    ContinuationBreakdown,
    CoprimalityViolation,
    LemmaViolation,
    NoConvergence,
    NotPCF,
    NotRepelling,
    PrecisionExhausted,
    ValidationFailed,
)
from .lattes import LattesSpec, RationalMapCoeffs, build_rational_map, torus_endo

FAMILIES = ("X", "Y")
_EPS = 2.0 ** -52
_PCF_TOL = 1e-8  # tolerance to which postcritical orbits are certified
_COLLISION_TOL = 1e-12  # residual target of the collision solves behind s_k/t_k
_COLLISION_MAX_ITER = 80  # secant evaluations per collision solve
_GAMMA_MAX_ITER = 30  # misfit evaluations per gamma_k solve
_MARKED_TOL = 1e-9  # spherical tolerance of marked orbits, certified and tracked
_TRACK_STEPS = 4  # initial parameter substeps of track_marked_point
_FD_STEP = 1e-4  # central-difference step in t of tracked_limits


def _check_resolution(a: int, k: int) -> None:
    """Refuse depths at which t = u / a^(2k), entering the map as 1 + t, keeps
    less relative precision than postcritical orbits are certified to."""
    loss = _EPS * float(abs(a)) ** (2 * k)
    if loss > _PCF_TOL:
        raise PrecisionExhausted(
            f"eps * |a|^(2k) = {loss:.3g} exceeds {_PCF_TOL:.0e} at k={k}; "
            "collision parameters fall below double-precision resolution")


@dataclass(frozen=True)
class RationalPair:
    """Exact rational data (alpha, alpha', beta, beta') defining the offsets
    sigma = alpha + alpha'*gamma and tau = beta + beta'*gamma."""

    alpha: Fraction
    alpha_prime: Fraction
    beta: Fraction
    beta_prime: Fraction

    def __post_init__(self):
        for name in ("alpha", "alpha_prime", "beta", "beta_prime"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def offset(self, family: str, gamma: complex) -> complex:
        if family == "X":
            return complex(self.alpha) + complex(self.alpha_prime) * gamma
        return complex(self.beta) + complex(self.beta_prime) * gamma


def standard_parameters(x0: Fraction, y0: Fraction, a: int) -> RationalPair:
    """(alpha, alpha', beta, beta') = (-x0, 1, y0, 0); base point x0 + i y0.

    The denominators of x0 and y0 must be odd and coprime with a.
    """
    x0 = Fraction(x0)
    y0 = Fraction(y0)
    if y0 <= 0:
        raise ValueError(f"y0 must be positive, got {y0}")
    for name, val in (("x0", x0), ("y0", y0)):
        q = val.denominator
        if math.gcd(q, abs(a)) != 1 or q % 2 == 0:
            raise CoprimalityViolation(
                f"denominator {q} of {name} is not coprime with a = {a} and 2")
    return RationalPair(-x0, Fraction(1), y0, Fraction(0))


@dataclass(frozen=True)
class MarkedPreperiodicPoint:
    """A marked point near v or w, with its exact address and orbit data.

    exact_preperiod and exact_period are computed from the torus address
    (sign classes mod the lattice); the numeric certificate must agree.
    pullback_trackable is False when the forward orbit runs through a
    critical point or lands on the postcritical set, in which case the
    inverse-branch motion is undefined (collisions still are, by shooting).
    """

    k: int
    family: str
    torus_address: TorusPoint
    position: SpherePoint
    forward_orbit: tuple
    certificate: OrbitCertificate
    exact_preperiod: int
    exact_period: int
    offset_value: complex
    postcritical_landing: bool
    pullback_trackable: bool


@dataclass(frozen=True)
class PerturbedFamily:
    """The scaling family t -> (1+t) * base_map, with its member at t."""

    spec: LattesSpec
    base_map: RationalMapCoeffs
    t: complex
    member: RationalMapCoeffs = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "member", _member(self.base_map, self.t))


def _member(base: RationalMapCoeffs, t: complex) -> RationalMapCoeffs:
    """(1+t) * base: the numerator scaled by 1 + t, so it needs no root check."""
    if t == -1:
        raise ValueError("t = -1 collapses the family to the zero map")
    return base.rescaled((1.0 + t) * base.num, base.den)


@lru_cache(maxsize=32)
def base_map_for(spec: LattesSpec) -> RationalMapCoeffs:
    return build_rational_map(spec)


def _is_half_lattice(tp: TorusPoint) -> bool:
    return (2 * Fraction(tp.s)) % 1 == 0 and (2 * Fraction(tp.t)) % 1 == 0


def _same_sphere_class(p: TorusPoint, q: TorusPoint) -> bool:
    """Theta(p) == Theta(q): addresses agree mod lattice up to global sign."""
    ps, pt, qs, qt = Fraction(p.s), Fraction(p.t), Fraction(q.s), Fraction(q.t)
    return ((ps - qs) % 1 == 0 and (pt - qt) % 1 == 0) or (
        (ps + qs) % 1 == 0 and (pt + qt) % 1 == 0)


def _is_critical_address(spec: LattesSpec, tp: TorusPoint) -> bool:
    """Critical points of f are Theta of the non-half-lattice preimages of
    the half lattice under the torus endomorphism."""
    return _is_half_lattice(torus_endo(spec, tp)) and not _is_half_lattice(tp)


def _exact_itinerary(spec: LattesSpec, addr: TorusPoint, max_steps: int):
    """Addresses of the forward orbit until the sphere orbit repeats.

    Returns (preperiod, period, addresses) where addresses covers the
    preperiodic tail plus one full cycle.
    """
    addrs = [addr.reduced()]
    for _ in range(max_steps):
        nxt = torus_endo(spec, addrs[-1])
        for m, prev in enumerate(addrs):
            if _same_sphere_class(nxt, prev):
                period = len(addrs) - m
                return m, period, addrs
        addrs.append(nxt)
    raise NoConvergence(f"no exact repeat within {max_steps} torus steps")


def make_marked_point(spec: LattesSpec, pair: RationalPair, k: int,
                      family: str) -> MarkedPreperiodicPoint:
    """Build the k-th marked point of the chosen family with its certificate.

    The address is exact rational and preperiod and period are derived
    exactly.  The certificate checks the exact itinerary one step at a time,
    |f(p_j) - p_(j+1)| <= 1e-9 on the sphere, so rounding is never amplified
    along the orbit; the landing cycle is then classified from its landing
    point, which must give the exact period and a repelling multiplier.  Any
    disagreement raises ValidationFailed.  A depth is refused with
    PrecisionExhausted before any of this, by the one precision limit
    eps * |a|^(2k) <= 1e-8 that the collision solves share.

    A landing cycle that meets the postcritical set {0, oo, v, w} is
    recorded on the returned point, not refused: the default parameters
    (tau = y0 integral) land on the fixed point 0, and the shooting solve
    handles that case.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    _check_resolution(spec.a, k)
    gamma = spec.gamma.gamma
    ak = spec.a ** k
    if family == "X":
        addr = TorusPoint(Fraction(1, 2) + pair.alpha / ak, pair.alpha_prime / ak)
    else:
        addr = TorusPoint(pair.beta / ak, Fraction(1, 2) + pair.beta_prime / ak)
    addr = addr.reduced()
    pre, per, addrs = _exact_itinerary(spec, addr, max_steps=k + 64)
    position = theta_map(addr, gamma)
    forward = tuple(theta_map(p, gamma) for p in addrs)
    f = base_map_for(spec)
    for j, p in enumerate(forward):
        nxt = forward[j + 1] if j + 1 < len(forward) else forward[pre]
        res = spherical_distance(eval_map(f, p), nxt)
        if res > _MARKED_TOL:
            raise ValidationFailed(f"exact itinerary step {j} misses its image by {res:.3g} "
                                   f"(tolerance {_MARKED_TOL:.2g})")
    landing = classify_orbit(f, forward[pre], max_iter=per + 80, tol=_MARKED_TOL)
    if not landing.found or landing.preperiod != 0 or landing.period != per:
        raise ValidationFailed(
            f"landing point classifies as (pre={landing.preperiod}, per={landing.period}, "
            f"found={landing.found}); exact itinerary has period {per}")
    if not landing.repelling:
        raise ValidationFailed("marked point landed on a non-repelling cycle")
    cert = dataclasses.replace(landing, preperiod=pre)
    postcritical = any(_is_half_lattice(addrs[j]) for j in range(pre, pre + per))
    runs_through_critical = any(_is_critical_address(spec, a_) for a_ in addrs)
    return MarkedPreperiodicPoint(
        k=k,
        family=family,
        torus_address=addr,
        position=position,
        forward_orbit=forward,
        certificate=cert,
        exact_preperiod=pre,
        exact_period=per,
        offset_value=pair.offset(family, gamma),
        postcritical_landing=postcritical,
        pullback_trackable=not (postcritical or runs_through_critical),
    )


def _landing_phase(marked: MarkedPreperiodicPoint) -> int:
    landing = marked.forward_orbit[marked.exact_preperiod]
    pts = marked.certificate.cycle.points
    return min(range(len(pts)), key=lambda i: spherical_distance(pts[i], landing))


def track_marked_point(family: PerturbedFamily, marked: MarkedPreperiodicPoint,
                       t: complex) -> SpherePoint:
    """Position of the marked point for the member map at parameter t.

    Continues the landing cycle, then pulls the orbit back branch by branch
    using the unperturbed orbit as seeds, in adaptive parameter substeps.
    """
    if t == 0:
        return marked.position
    if not marked.pullback_trackable:
        raise BranchAmbiguity(
            "orbit passes through a critical point or lands on the postcritical set; "
            "inverse branches are not single-valued along it")
    f0 = family.base_map
    ell = marked.exact_preperiod
    cycle0 = marked.certificate.cycle
    phase = _landing_phase(marked)
    current = list(marked.forward_orbit[: ell + 1])
    t_cur = 0j
    dt = t / _TRACK_STEPS
    min_step = abs(t) / 2 ** 22
    ft = f0
    while abs(t_cur - t) > 0:
        t_next = t if abs(t - t_cur) <= abs(dt) * (1 + 1e-12) else t_cur + dt
        try:
            ft = _member(f0, t_next)
            cont = continue_cycle(f0, cycle0, ft)
            pts = [None] * (ell + 1)
            pts[ell] = cont.points[phase]
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


@dataclass(frozen=True)
class TrackedLimits:
    """First-order response of the limit points and critical values to t."""

    x_dot: complex
    y_dot: complex
    v_dot: complex
    w_dot: complex
    fd_error: float


def _limit_point(spec: LattesSpec, base: RationalMapCoeffs, t: complex, near: complex) -> complex:
    """Continuation of the marked limit point (near v or w) to parameter t."""
    ft = _member(base, t)
    seed = SpherePoint.from_complex(near)
    if spec.case_tag == "EvenZero":
        return pullback_branch(ft, SpherePoint.zero(), seed, tol=1e-13).to_complex()
    period = 1 if spec.case_tag == "OddZero" else 2
    # the cycle's multiplier is a^(2 period), which amplifies the rounding
    # of each map evaluation in the cycle residual: ask for no less
    tol = max(1e-13, 16.0 * _EPS * float(abs(spec.a)) ** (2 * period))
    return find_cycle(ft, seed, period, tol=tol).points[0].to_complex()


def tracked_limits(spec: LattesSpec) -> TrackedLimits:
    """dx_infty/dt and dy_infty/dt at t = 0 by Richardson-extrapolated
    central differences of the continued limit points (step 1e-4 and half
    of it); dv/dt = v and dw/dt = w hold exactly for the scaling family."""
    h = _FD_STEP
    td = theta_data(spec.gamma.gamma)
    base = base_map_for(spec)
    out = []
    err = 0.0
    for near in (td.v, td.w):
        d1 = (_limit_point(spec, base, h, near) - _limit_point(spec, base, -h, near)) / (2 * h)
        d2 = (_limit_point(spec, base, h / 2, near) - _limit_point(spec, base, -h / 2, near)) / h
        out.append((4.0 * d2 - d1) / 3.0)
        err = max(err, abs(d2 - d1) / 3.0)
    return TrackedLimits(x_dot=out[0], y_dot=out[1], v_dot=td.v, w_dot=td.w, fd_error=err)


def case_response_constant(spec: LattesSpec) -> complex:
    """Exact value of (x_dot - v_dot)/v per case: -1, a^2/(1-a^2), -a^2/(1+a^2)."""
    a2 = spec.a * spec.a
    if spec.case_tag == "EvenZero":
        return -1.0 + 0j
    if spec.case_tag == "OddZero":
        return a2 / (1.0 - a2) + 0j
    return -a2 / (1.0 + a2) + 0j


@dataclass(frozen=True)
class ResponseReport:
    c_measured: complex
    c_expected: complex
    residual: float
    c_from_v_side: complex
    c_from_w_side: complex


def verify_lemma3(spec: LattesSpec) -> ResponseReport:
    """Measure the shared response constant c = (x_dot - v_dot)/v = (y_dot - w_dot)/w
    and compare with its exact per-case value."""
    tl = tracked_limits(spec)
    td = theta_data(spec.gamma.gamma)
    cx = (tl.x_dot - tl.v_dot) / td.v
    cy = (tl.y_dot - tl.w_dot) / td.w
    residual = abs(cx - cy)
    budget = max(tl.fd_error, 1e-10)
    if residual > 100.0 * budget:
        raise LemmaViolation(
            f"response constants from the two critical values disagree: {residual:.3e}")
    return ResponseReport(
        c_measured=(cx + cy) / 2.0,
        c_expected=case_response_constant(spec),
        residual=residual,
        c_from_v_side=cx,
        c_from_w_side=cy,
    )


def _degree_power(spec: LattesSpec, k: int) -> float:
    return float((spec.a * spec.a) ** k)


def closed_form_rescaled_root(spec: LattesSpec, marked: MarkedPreperiodicPoint) -> complex:
    """Limit of the rescaled collision parameter: u = -q*off^2 / (c*cv), where
    q is the quadratic coefficient at the relevant half period."""
    td = theta_data(spec.gamma.gamma)
    c = case_response_constant(spec)
    if marked.family == "X":
        quad, cv = td.lam, td.v
    else:
        quad, cv = td.mu, td.w
    off = marked.offset_value
    return -quad * off * off / (c * cv)


def rescaled_collision_fn(spec: LattesSpec, marked: MarkedPreperiodicPoint,
                          u: complex) -> complex:
    """a^(2k) * (tracked marked point - perturbed critical value) at t = u/a^(2k).

    Requires a pullback-trackable orbit; the shooting solver below does not.
    """
    a2k = _degree_power(spec, marked.k)
    t = u / a2k
    td = theta_data(spec.gamma.gamma)
    cv = td.v if marked.family == "X" else td.w
    fam = PerturbedFamily(spec, base_map_for(spec), t)
    tracked = track_marked_point(fam, marked, t)
    return a2k * (tracked.to_complex() - (1.0 + t) * cv)


@dataclass(frozen=True)
class CollisionResult:
    """Solved collision parameter for one marked point."""

    k: int
    value: complex
    rescaled: complex
    residual: float
    newton_iters: int


def _chart_coord(p: SpherePoint, chart: int) -> complex:
    num, den = (p.Z, p.W) if chart == 0 else (p.W, p.Z)
    if den == 0:
        return complex(1e30)  # off-chart point: large misfit instead of a blowup
    return num / den


def _shooting_misfit(spec: LattesSpec, marked: MarkedPreperiodicPoint,
                     base: RationalMapCoeffs, cv: complex, chart: int, phase: int,
                     t: complex):
    """Chart difference between the shot orbit of (1+t)cv and the continued cycle."""
    ft = _member(base, t)
    cont = continue_cycle(base, marked.certificate.cycle, ft)
    target = cont.points[phase]
    z = SpherePoint.from_complex((1.0 + t) * cv)
    for _ in range(marked.exact_preperiod):
        z = eval_map(ft, z)
    return _chart_coord(z, chart) - _chart_coord(target, chart)


def solve_collision(spec: LattesSpec, marked: MarkedPreperiodicPoint, rescale: bool = True,
                    u_seed: complex | None = None) -> CollisionResult:
    """Parameter t at which the perturbed critical value collides with the
    marked point: the orbit of (1+t)v (or (1+t)w) hits the continued landing
    cycle after exactly the marked preperiod.

    Secant iteration in the rescaled variable u = a^(2k) t seeded at the
    closed-form limit (or at u_seed, for root-following across nearby
    parameters); with rescale=False the same equation is solved in raw t
    (useful only at small k where that is still conditioned).

    t enters the map as 1 + t, so u is representable only to the spacing
    eps * |a^(2k) + u|.  When the secant step falls below that spacing
    before the residual reaches 1e-12, the solve stops at the best iterate
    if its residual is within the misfit's noise floor there (a few spacings
    times the misfit slope) and raises PrecisionExhausted otherwise.  The
    returned residual may then exceed 1e-12.
    """
    _check_resolution(spec.a, marked.k)
    a2k = _degree_power(spec, marked.k)
    base = base_map_for(spec)
    td = theta_data(spec.gamma.gamma)
    cv = td.v if marked.family == "X" else td.w
    chart = marked.certificate.cycle.points[_landing_phase(marked)].chart()
    phase = _landing_phase(marked)
    scale = a2k if rescale else 1.0
    if u_seed is None:
        u_seed = closed_form_rescaled_root(spec, marked)
    u0 = u_seed / (a2k / scale)

    def fn(u):
        return _shooting_misfit(spec, marked, base, cv, chart, phase, u / scale)

    u1 = u0 * (1.0 + 1e-3)
    f0, f1 = fn(u0), fn(u1)
    iters = 2
    clamp = 0.35 * abs(u0)  # keep iterates near the seeded root; F has other zeros
    best_u, best_f = (u0, f0) if abs(f0) < abs(f1) else (u1, f1)
    slope = (f1 - f0) / (u1 - u0)
    while abs(best_f) > _COLLISION_TOL:
        if iters >= _COLLISION_MAX_ITER:
            raise NoConvergence(f"collision secant did not reach |residual| < {_COLLISION_TOL} "
                                f"in {_COLLISION_MAX_ITER} iterations")
        # t enters the map as 1 + t, so u is resolved only to this spacing
        resolution = _EPS * abs(scale + u1)
        denom = f1 - f0
        if abs(u1 - u0) > resolution:
            if abs(denom) < 1e-300:
                raise NoConvergence("secant step degenerated (flat misfit)")
            slope = denom / (u1 - u0)
            du = -f1 * (u1 - u0) / denom
        else:
            du = -f1 / slope
        if abs(du) <= resolution:
            # the root is within one spacing of u1, and each evaluation rounds
            # t by up to half a spacing in each component: allow a few spacings
            noise = abs(slope) * resolution
            if abs(best_f) <= 4.0 * noise:
                break
            raise PrecisionExhausted(
                f"collision misfit {abs(best_f):.3g} stalls above its noise floor {noise:.3g} "
                f"at the resolution of 1 + t (k={marked.k})")
        if abs(du) > clamp:
            du *= clamp / abs(du)
        u2 = u1 + du
        if not (math.isfinite(u2.real) and math.isfinite(u2.imag)):
            raise NoConvergence("secant step overflow")
        u0, f0, u1 = u1, f1, u2
        f1 = fn(u1)
        iters += 1
        if abs(f1) < abs(best_f):
            best_u, best_f = u1, f1
    t_val = best_u / scale
    return CollisionResult(
        k=marked.k,
        value=t_val,
        rescaled=t_val * a2k,
        residual=abs(best_f),
        newton_iters=iters,
    )


def certify_strictly_pcf(g: RationalMapCoeffs, crit_values: list, max_iter: int = 400,
                         tol: float = _PCF_TOL):
    """Certificates for every critical value orbit plus the postcritical count.

    Raises NotPCF when some orbit finds no cycle within max_iter and
    NotRepelling when a landing cycle is not repelling.  The count clusters
    the union of forward orbits at radius 1e-6.
    """
    certs = []
    points = []
    for cv in crit_values:
        cert = classify_orbit(g, cv, max_iter=max_iter, tol=tol)
        if not cert.found:
            raise NotPCF(f"orbit of critical value {cv} found no cycle within {max_iter} iterates")
        if not cert.repelling:
            raise NotRepelling(
                f"orbit of critical value {cv} lands on a cycle with multiplier "
                f"{cert.cycle.multiplier:.4g}")
        certs.append(cert)
        points.extend(orbit(g, cv, cert.preperiod + cert.period - 1))
    clusters: list[SpherePoint] = []
    for p in points:
        if all(spherical_distance(p, c) > 1e-6 for c in clusters):
            clusters.append(p)
    return certs, len(clusters)


@dataclass(frozen=True)
class ConstructionResult:
    """A strictly postcritically finite perturbation of a Lattes map."""

    k: int
    gamma_k: complex
    r_k: complex
    g_k: RationalMapCoeffs
    certificates: tuple
    postcritical_count: int
    distance_to_base: float


def _collision_pair(spec: LattesSpec, pair: RationalPair, k: int, seeds=(None, None)):
    mx = make_marked_point(spec, pair, k, "X")
    my = make_marked_point(spec, pair, k, "Y")
    cs = solve_collision(spec, mx, u_seed=seeds[0])
    ct = solve_collision(spec, my, u_seed=seeds[1])
    return cs, ct


def solve_gamma_k(spec0: LattesSpec, pair: RationalPair, k: int, tol: float = 1e-10,
                  base_pair: tuple | None = None) -> ConstructionResult:
    """Solve s_k(gamma) = t_k(gamma) near the base point and certify the result.

    Secant iteration on s_k/t_k - 1 (each evaluation rebuilds the map and
    both collisions); at the root, g = (1 + r) f_gamma has both perturbed
    critical values preperiodic, hence is strictly postcritically finite.
    base_pair is the collision pair at spec0 already solved by
    _collision_pair, unseeded; the secant starts from it
    instead of solving it again.  Raises PrecisionExhausted when tol is
    finer than the ratio can be resolved: each collision is known only to
    eps * a^(2k) / |u| relative.
    """
    gamma0 = spec0.gamma.gamma
    warm = [None, None]  # follow one collision branch as gamma moves

    def misfit(gamma: complex, solved=None):
        spec = LattesSpec(TorusParameter(gamma), spec0.a, spec0.case_tag)
        if solved is None:
            solved = _collision_pair(spec, pair, k, seeds=tuple(warm))
        cs, ct = solved
        warm[0], warm[1] = cs.rescaled, ct.rescaled
        return cs.value / ct.value - 1.0, (spec, cs, ct)

    # first-order model of the misfit: d/dgamma of -sigma^2/tau^2
    sig = pair.offset("X", gamma0)
    tau = pair.offset("Y", gamma0)
    sig_p, tau_p = complex(pair.alpha_prime), complex(pair.beta_prime)
    slope = -2.0 * sig * (sig_p * tau - sig * tau_p) / tau ** 3
    h0, aux = misfit(gamma0, base_pair)
    _, cs, ct = aux
    floor = _EPS * _degree_power(spec0, k) * (1.0 / abs(cs.rescaled) + 1.0 / abs(ct.rescaled))
    if floor > tol:
        raise PrecisionExhausted(
            f"s/t is resolved only to {floor:.3g} at k={k}, above the tolerance {tol:.2g}")
    g_prev, f_prev = gamma0, h0
    g_cur = gamma0
    h_cur = h0
    step_cap = 0.25
    if abs(h0) > tol:
        dg = -h0 / slope if abs(slope) > 1e-12 else 1e-3
        if abs(dg) > step_cap:
            dg *= step_cap / abs(dg)
        g_cur = gamma0 + dg
        h_cur, aux = misfit(g_cur)
    iters = 2
    while abs(h_cur) > tol:
        if iters >= _GAMMA_MAX_ITER:
            raise NoConvergence(f"gamma secant did not converge in {_GAMMA_MAX_ITER} iterations")
        denom = h_cur - f_prev
        if abs(denom) < 1e-300:
            raise NoConvergence("gamma secant degenerated")
        dg = -h_cur * (g_cur - g_prev) / denom
        if abs(dg) > step_cap:
            dg *= step_cap / abs(dg)
        g_prev, f_prev = g_cur, h_cur
        g_cur = g_cur + dg
        h_cur, aux = misfit(g_cur)
        iters += 1
    spec_k, cs, ct = aux
    r_k = cs.value
    g_k = _member(base_map_for(spec_k), r_k)
    td = theta_data(spec_k.gamma.gamma)
    crit = [SpherePoint.infinity(),
            SpherePoint.from_complex((1.0 + r_k) * td.v),
            SpherePoint.from_complex((1.0 + r_k) * td.w)]
    if abs(spec_k.a) >= 3:
        crit.insert(0, SpherePoint.zero())
    certs, count = certify_strictly_pcf(g_k, crit, max_iter=2 * (k + 8) + 80, tol=_PCF_TOL)
    return ConstructionResult(
        k=k,
        gamma_k=g_cur,
        r_k=r_k,
        g_k=g_k,
        certificates=tuple(certs),
        postcritical_count=count,
        distance_to_base=abs(g_cur - gamma0) + abs(r_k),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """One k of the collision/construction experiment."""

    k: int
    status: str
    asymptotic: bool
    s_value: complex | None = None
    t_value: complex | None = None
    u_s: complex | None = None
    u_t: complex | None = None
    ratio: complex | None = None
    target: complex | None = None
    deviation: float | None = None
    gamma_k: complex | None = None
    r_k: complex | None = None
    gamma_gap: float | None = None
    postcritical_count: int | None = None
    certified: bool | None = None
    construction: ConstructionResult | None = None


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    monotonic_deviation: bool


def convergence_table(spec0: LattesSpec, pair: RationalPair, k_range,
                      solve_construction: bool = True, tol: float = 1e-10) -> ConvergenceTable:
    """Collision values, their ratio against -sigma^2/tau^2, and (optionally)
    the constructed strictly postcritically finite maps, one row per k.

    Failing rows carry an error status instead of aborting the table; a row
    whose collisions were solved before the construction failed keeps them.
    """
    gamma0 = spec0.gamma.gamma
    sig = pair.offset("X", gamma0)
    tau = pair.offset("Y", gamma0)
    target = -sig * sig / (tau * tau)
    rows = []
    for k in k_range:
        row = dict(k=k, asymptotic=k >= 3)
        try:
            cs, ct = _collision_pair(spec0, pair, k)
            ratio = cs.value / ct.value
            row.update(
                status="ok",
                s_value=cs.value, t_value=ct.value,
                u_s=cs.rescaled, u_t=ct.rescaled,
                ratio=ratio, target=target, deviation=abs(ratio - target),
            )
            if solve_construction:
                built = solve_gamma_k(spec0, pair, k, tol=tol, base_pair=(cs, ct))
                row.update(
                    gamma_k=built.gamma_k, r_k=built.r_k,
                    gamma_gap=abs(built.gamma_k - gamma0),
                    postcritical_count=built.postcritical_count,
                    certified=all(c.repelling for c in built.certificates),
                    construction=built,
                )
        except PrecisionExhausted:
            # collisions solved before the construction was refused are kept
            row["status"] = "precision_exhausted"
        except (NoConvergence, ContinuationBreakdown, ValidationFailed,
                NotPCF, NotRepelling) as exc:
            row["status"] = f"error:{type(exc).__name__}"
        rows.append(ConvergenceRow(**row))
    devs = [r.deviation for r in rows if r.status == "ok" and r.asymptotic]
    monotonic = all(b <= a * (1 + 1e-9) for a, b in zip(devs, devs[1:])) and len(devs) >= 2
    return ConvergenceTable(rows=tuple(rows), monotonic_deviation=monotonic)
