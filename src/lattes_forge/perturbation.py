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
break down there, and solve_collision does not need it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .dynamics import (
    _EPS,
    CycleData,
    SpherePoint,
    chart_derivative,
    classify_orbit,
    continue_cycle,
    eval_map,
    find_cycle,
    orbit,
    spherical_distance,
)
from .elliptic import TorusParameter, TorusPoint, theta_data, theta_map
from .errors import (
    LattesForgeError,
    LemmaViolation,
    NoConvergence,
    NotPCF,
    NotRepelling,
    PrecisionExhausted,
    ValidationFailed,
)
from .lattes import (LattesSpec, RationalMapCoeffs, build_rational_map, critical_values,
                     lattes_map, torus_endo)

_PCF_TOL = 1e-8  # tolerance to which postcritical orbits are certified
_COLLISION_TOL = 1e-12  # residual target of the collision solves behind s_k/t_k
_COLLISION_MAX_ITER = 80  # secant evaluations per collision solve
_GAMMA_MAX_ITER = 30  # misfit evaluations per gamma_k solve
_MARKED_TOL = 1e-9  # spherical tolerance of marked orbits, certified and tracked


def _check_resolution(spec: LattesSpec, k: int) -> None:
    """Refuse depths at which t = u / a^(2k), entering the map as 1 + t, keeps
    less relative precision than postcritical orbits are certified to."""
    try:
        loss = _EPS * _degree_power(spec, k)
    except OverflowError:  # a^(2k) beyond the float range
        loss = math.inf
    if loss > _PCF_TOL:
        raise PrecisionExhausted(
            f"eps * |a|^(2k) = {loss:.3g} exceeds {_PCF_TOL:.0e} at k={k}; "
            "collision parameters fall below double-precision resolution")


class BasePoint(NamedTuple):
    """The base point gamma0 = x0 + i y0 as exact fractions, checked by
    standard_parameters.  The marked points of the k-th pair sit at the torus
    addresses 1/2 + sigma/a^k (X) and gamma/2 + tau/a^k (Y), with the
    offsets sigma(gamma) = gamma - x0 and tau = y0."""

    x0: Fraction
    y0: Fraction

    def offset(self, family: str, gamma: complex) -> complex:
        if family == "X":
            return gamma - float(self.x0)
        return complex(self.y0)

    def address(self, a: int, k: int, family: str) -> TorusPoint:
        ak = a ** k
        if family == "X":
            return TorusPoint(Fraction(1, 2) - self.x0 / ak, Fraction(1) / ak)
        return TorusPoint(self.y0 / ak, Fraction(1, 2))


def standard_parameters(x0: Fraction, y0: Fraction, a: int) -> BasePoint:
    """The base point x0 + i y0; raises ValueError unless y0 > 0 and the
    denominators of x0 and y0 are odd and coprime with a."""
    x0 = Fraction(x0)
    y0 = Fraction(y0)
    if y0 <= 0:
        raise ValueError(f"y0 must be positive, got {y0}")
    for name, val in (("x0", x0), ("y0", y0)):
        q = val.denominator
        if math.gcd(q, abs(a)) != 1 or q % 2 == 0:
            raise ValueError(f"denominator {q} of {name} is not coprime with a = {a} and 2")
    return BasePoint(x0, y0)


class MarkedPreperiodicPoint(NamedTuple):
    """A marked point near v or w, with its orbit data.

    exact_preperiod is computed from the torus address (sign classes mod the
    lattice).  forward_orbit starts at the marked point itself; cycle is its
    repelling landing cycle, starting at forward_orbit[exact_preperiod], with
    the exact period.
    """

    k: int
    family: str
    forward_orbit: tuple
    cycle: CycleData
    exact_preperiod: int
    offset_value: complex


@lru_cache(maxsize=32)
def base_map_for(spec: LattesSpec) -> RationalMapCoeffs:
    """The fitted map of spec, fitted once per process; a refusal is not kept."""
    return build_rational_map(spec)


@lru_cache(maxsize=256)
def _exact_itinerary(a: int, b: TorusPoint, addr: TorusPoint, max_steps: int):
    """Addresses of the forward orbit under torus_endo(a, b, .) until the
    sphere orbit repeats.

    Returns (preperiod, period, addresses) where addresses covers the
    preperiodic tail plus one full cycle.  The result does not depend on
    the lattice shape, so the gamma secant reuses it at every step.
    """
    addrs = []
    first = {}  # sphere class -> index of its address
    p = addr.reduced()
    for _ in range(max_steps + 1):
        # Theta(p) = Theta(q) exactly when q = p or -p mod the lattice
        s, t = Fraction(p.s), Fraction(p.t)
        key = min((s % 1, t % 1), (-s % 1, -t % 1))
        if key in first:
            return first[key], len(addrs) - first[key], tuple(addrs)
        first[key] = len(addrs)
        addrs.append(p)
        p = torus_endo(a, b, p)
    raise NoConvergence(f"no exact repeat within {max_steps} torus steps")


def make_marked_point(spec: LattesSpec, base_point: BasePoint, k: int,
                      family: str) -> MarkedPreperiodicPoint:
    """Build the k-th marked point of the chosen family with its certificate.

    The address is exact rational and preperiod and period are derived
    exactly.  The certificate checks the exact itinerary one step at a time,
    |f(p_j) - p_(j+1)| <= 1e-9 on the sphere, so rounding is never amplified
    along the orbit; the landing cycle is then polished from its landing
    point with the exact period, and must keep that period, stay within
    1e-7 of the landing point and be repelling.  Any disagreement raises
    ValidationFailed.  A depth is refused with PrecisionExhausted before any
    of this, by the one precision limit eps * |a|^(2k) <= 1e-8 that the
    collision solves share.

    A landing cycle may meet the postcritical set {0, oo, v, w}: the
    default parameters (tau = y0 integral) land on the fixed point 0, and
    the shooting solve handles that case.
    """
    _check_resolution(spec, k)
    gamma = spec.gamma.gamma
    pre, per, addrs = _exact_itinerary(spec.a, spec.translation,
                                       base_point.address(spec.a, k, family), k + 64)
    forward = tuple(theta_map(p, gamma) for p in addrs)
    f = base_map_for(spec)
    for j, p in enumerate(forward):
        nxt = forward[j + 1] if j + 1 < len(forward) else forward[pre]
        res = spherical_distance(eval_map(f, p), nxt)
        if res > _MARKED_TOL:
            raise ValidationFailed(f"exact itinerary step {j} misses its image by {res:.3g} "
                                   f"(tolerance {_MARKED_TOL:.2g})")
    cycle = find_cycle(f, forward[pre], per, tol=1e-13)
    landing = spherical_distance(forward[pre], cycle.points[0])
    if cycle.period != per or landing >= 1e-7:
        raise ValidationFailed(
            f"landing cycle has period {cycle.period} at distance {landing:.3g} from the "
            f"landing point; exact itinerary has period {per}")
    if not cycle.repelling:
        raise ValidationFailed("marked point landed on a non-repelling cycle")
    return MarkedPreperiodicPoint(
        k=k,
        family=family,
        forward_orbit=forward,
        cycle=cycle,
        exact_preperiod=pre,
        offset_value=base_point.offset(family, gamma),
    )


def _limit_response(spec: LattesSpec, f: RationalMapCoeffs, z: complex, other: complex) -> complex:
    """d/dt at t = 0 of the limit point of (1 + t) f at the branch value z,
    by implicit differentiation at z itself: the torus puts the limit points
    at v and w, so nothing is solved for.  EvenZero: v and w map to the fixed
    critical value 0, and (1 + t) f(x) = 0 gives x' = -f(z)/f'(z).  Otherwise
    z lies on the cycle (z) (OddZero) or (z, other) (OddHalf) of z_(j+1) =
    (1 + t) f(z_j), so z'_(j+1) = z_(j+1) + f'(z_j) z'_j closes to z'_0 =
    sum / (1 - multiplier).  The points are finite: f' is the affine one."""
    if spec.case_tag == "EvenZero":
        x = SpherePoint.from_complex(z)
        return -eval_map(f, x).to_complex() / chart_derivative(f, x, 0, 0)
    cycle = (z, other) if spec.case_tag == "OddHalf" else (z,)
    total, mult = 0j, 1.0 + 0j
    for j, x in enumerate(cycle):
        d = chart_derivative(f, SpherePoint.from_complex(x), 0, 0)
        total = cycle[(j + 1) % len(cycle)] + d * total
        mult *= d
    return total / (1.0 - mult)


def tracked_limits(spec: LattesSpec) -> tuple[complex, complex]:
    """dx_infty/dt and dy_infty/dt at t = 0, the responses of the limit points
    at v and w; dv/dt = v and dw/dt = w hold exactly for the scaling family.
    The map is the closed form, not the fit."""
    td = theta_data(spec.gamma.gamma)
    base = lattes_map(spec)
    return _limit_response(spec, base, td.v, td.w), _limit_response(spec, base, td.w, td.v)


def case_response_constant(spec: LattesSpec) -> complex:
    """Exact value of (x_dot - v_dot)/v per case: -1, a^2/(1-a^2), -a^2/(1+a^2)."""
    a2 = spec.a * spec.a
    if spec.case_tag == "EvenZero":
        return -1.0 + 0j
    if spec.case_tag == "OddZero":
        return a2 / (1.0 - a2) + 0j
    return -a2 / (1.0 + a2) + 0j


class ResponseReport(NamedTuple):
    c_measured: complex
    c_expected: complex
    residual: float


def verify_lemma3(spec: LattesSpec) -> ResponseReport:
    """Measure the shared response constant c = (x_dot - v_dot)/v = (y_dot - w_dot)/w
    and compare with its exact per-case value."""
    x_dot, y_dot = tracked_limits(spec)
    td = theta_data(spec.gamma.gamma)
    cx = (x_dot - td.v) / td.v
    cy = (y_dot - td.w) / td.w
    residual = abs(cx - cy)
    if residual > 1e-8:  # both sides are exact up to the rounding of the map
        raise LemmaViolation(
            f"response constants from the two critical values disagree: {residual:.3e}")
    return ResponseReport(
        c_measured=(cx + cy) / 2.0,
        c_expected=case_response_constant(spec),
        residual=residual,
    )


def _degree_power(spec: LattesSpec, k: int) -> float:
    """a^(2k), exact at every depth _check_resolution allows."""
    return float(spec.a * spec.a) ** k


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


class CollisionResult(NamedTuple):
    """Solved collision parameter for one marked point."""

    value: complex
    rescaled: complex
    residual: float
    newton_iters: int


def _chart_coord(p: SpherePoint, chart: int) -> complex:
    num, den = (p.Z, p.W) if chart == 0 else (p.W, p.Z)
    if den == 0:
        return complex(1e30)  # off-chart point: large misfit instead of a blowup
    return num / den


def _shooting_misfit(marked: MarkedPreperiodicPoint, base: RationalMapCoeffs, cv: complex,
                     chart: int, t: complex):
    """Chart difference between the shot orbit of (1+t)cv and the landing
    point continued along the family (1 + s t) f, s from 0 to 1.

    Raises ValueError, before any Newton step, when the path passes through
    the zero map: |1 + s t| is least at s = -Re(t) / |t|^2 clamped to [0, 1].
    """
    least = min(1.0, max(0.0, -t.real / abs(t) ** 2)) if t else 0.0
    if abs(1.0 + least * t) <= 1e-12 * max(1.0, abs(1.0 + t)):
        raise ValueError(f"the family path from f to (1 + t) f, t = {t}, passes through zero")
    ft = base.scaled(1.0 + t)
    # member(1.0) is ft itself: 1.0 * t == t
    target = continue_cycle(lambda s: ft if s == 1.0 else base.scaled(1.0 + s * t),
                            marked.cycle).points[0]
    z = SpherePoint.from_complex((1.0 + t) * cv)
    for _ in range(marked.exact_preperiod):
        z = eval_map(ft, z)
    return _chart_coord(z, chart) - _chart_coord(target, chart)


def solve_collision(spec: LattesSpec, marked: MarkedPreperiodicPoint,
                    u_seed: complex | None = None) -> CollisionResult:
    """Parameter t at which the perturbed critical value collides with the
    marked point: the orbit of (1+t)v (or (1+t)w) hits the continued landing
    cycle after exactly the marked preperiod.

    Secant iteration in the rescaled variable u = a^(2k) t seeded at the
    closed-form limit (or at u_seed, for root-following across nearby
    parameters).

    t enters the map as 1 + t, so u is representable only to the spacing
    eps * |a^(2k) + u|.  When the secant step falls below that spacing
    before the residual reaches 1e-12, the solve stops at the best iterate
    if its residual is within the misfit's noise floor there (a few spacings
    times the misfit slope) and raises PrecisionExhausted otherwise.  The
    returned residual may then exceed 1e-12.
    """
    a2k = _degree_power(spec, marked.k)
    base = base_map_for(spec)
    td = theta_data(spec.gamma.gamma)
    cv = td.v if marked.family == "X" else td.w
    chart = marked.cycle.points[0].chart()
    u0 = closed_form_rescaled_root(spec, marked) if u_seed is None else u_seed

    def fn(u):
        return _shooting_misfit(marked, base, cv, chart, u / a2k)

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
        resolution = _EPS * abs(a2k + u1)
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
    t_val = best_u / a2k
    return CollisionResult(
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
        if cert is None:
            raise NotPCF(f"orbit of critical value {cv} found no cycle within {max_iter} iterates")
        if not cert.cycle.repelling:
            raise NotRepelling(
                f"orbit of critical value {cv} lands on a cycle with multiplier "
                f"{cert.cycle.multiplier:.4g}")
        certs.append(cert)
        points.extend(orbit(g, cv, cert.preperiod + cert.cycle.period - 1))
    clusters: list[SpherePoint] = []
    for p in points:
        if all(spherical_distance(p, c) > 1e-6 for c in clusters):
            clusters.append(p)
    return certs, len(clusters)


class ConstructionResult(NamedTuple):
    """A strictly postcritically finite perturbation g_k = (1 + r_k) f_(gamma_k)
    of a Lattes map, as solved and certified: the lattice gamma_k, the scaling
    r_k, the map g_k, one orbit certificate per critical value and the
    postcritical count."""

    gamma_k: complex
    r_k: complex
    g_k: RationalMapCoeffs
    certificates: tuple
    postcritical_count: int


def _collision_pair(spec: LattesSpec, base_point: BasePoint, k: int, seeds=(None, None)):
    mx = make_marked_point(spec, base_point, k, "X")
    my = make_marked_point(spec, base_point, k, "Y")
    cs = solve_collision(spec, mx, u_seed=seeds[0])
    ct = solve_collision(spec, my, u_seed=seeds[1])
    return cs, ct


def solve_gamma_k(spec0: LattesSpec, base_point: BasePoint, k: int, pair: tuple,
                  tol: float = 1e-10) -> ConstructionResult:
    """Solve s_k(gamma) = t_k(gamma) near the base point and certify the result.

    pair is the collision pair (s_k, t_k) that _collision_pair solved at
    spec0.  The first step is Newton's on the first-order model of the
    misfit s_k/t_k - 1, then secant steps follow; each step rebuilds the map
    and solves both collisions, seeded at the previous pair.  At the root,
    g = (1 + r) f_gamma has both perturbed critical values preperiodic, hence
    is strictly postcritically finite.  Raises PrecisionExhausted when tol is
    finer than the ratio can be resolved: each collision is known only to
    eps * a^(2k) / |u| relative.
    """
    cs, ct = pair
    floor = _EPS * _degree_power(spec0, k) * (1.0 / abs(cs.rescaled) + 1.0 / abs(ct.rescaled))
    if floor > tol:
        raise PrecisionExhausted(
            f"s/t is resolved only to {floor:.3g} at k={k}, above the tolerance {tol:.2g}")
    gamma0 = spec0.gamma.gamma
    # d/dgamma of the model -sigma^2/tau^2, where sigma' = 1 and tau' = 0;
    # at sigma = i y0 and tau = y0 > 0 it is -2i / y0, never zero
    sig = base_point.offset("X", gamma0)
    tau = base_point.offset("Y", gamma0)
    slope = -2.0 * sig * tau / tau ** 3
    step_cap = 0.25
    spec, gamma, h = spec0, gamma0, cs.value / ct.value - 1.0
    evals = 1
    while abs(h) > tol:
        if evals >= _GAMMA_MAX_ITER:
            raise NoConvergence(f"gamma secant did not converge in {_GAMMA_MAX_ITER} iterations")
        if evals == 1:
            dg = -h / slope
        else:
            denom = h - h_prev
            if abs(denom) < 1e-300:
                raise NoConvergence("gamma secant degenerated")
            dg = -h * (gamma - g_prev) / denom
        if abs(dg) > step_cap:
            dg *= step_cap / abs(dg)
        g_prev, h_prev = gamma, h
        gamma = gamma + dg
        spec = spec0._replace(gamma=TorusParameter(gamma))
        # follow one collision branch as gamma moves
        cs, ct = _collision_pair(spec, base_point, k, seeds=(cs.rescaled, ct.rescaled))
        h = cs.value / ct.value - 1.0
        evals += 1
    r_k = cs.value
    g_k = base_map_for(spec).scaled(1.0 + r_k)
    crit = critical_values(spec, r_k)
    certs, count = certify_strictly_pcf(g_k, crit, max_iter=2 * (k + 8) + 80, tol=_PCF_TOL)
    return ConstructionResult(
        gamma_k=gamma,
        r_k=r_k,
        g_k=g_k,
        certificates=tuple(certs),
        postcritical_count=count,
    )


class ConvergenceRow(NamedTuple):
    """One k of the collision/construction experiment, as solved: collisions
    is the pair (s_k, t_k) of CollisionResult once both were solved, and
    construction is set exactly when g_k was built and certified.  Everything
    a report prints beyond these, such as the ratio s_k/t_k, is derived from
    them where it is printed."""

    k: int
    status: str
    collisions: tuple | None
    construction: ConstructionResult | None


class ConvergenceTable(NamedTuple):
    rows: tuple


def convergence_table(spec0: LattesSpec, base_point: BasePoint, k_range,
                      tol: float = 1e-10) -> ConvergenceTable:
    """One row per k: the collision pair (s_k, t_k) at the base point and the
    strictly postcritically finite map g_k that solve_gamma_k constructs from
    it.  The ratio s_k/t_k tends to -sigma^2/tau^2, which is exactly 1 here:
    sigma(gamma0) = i y0 and tau = y0.

    A row that raises a typed error (any LattesForgeError) carries its name
    as an error status instead of aborting the table; a row whose collisions
    were solved before the construction failed keeps them.
    """
    rows = []
    for k in k_range:
        pair = built = None
        try:
            pair = _collision_pair(spec0, base_point, k)
            built = solve_gamma_k(spec0, base_point, k, pair, tol=tol)
            status = "ok"
        except PrecisionExhausted:
            status = "precision_exhausted"
        except LattesForgeError as exc:
            status = f"error:{type(exc).__name__}"
        rows.append(ConvergenceRow(k, status, pair, built))
    return ConvergenceTable(rows=tuple(rows))
