"""Weierstrass P on the torus C/(Z + gamma Z) and the normalized quotient map.

Evaluation uses the nome q = exp(i pi gamma) and Jacobi theta series, which
converge geometrically once the argument is reduced to the centered
fundamental domain.

The quotient map `theta_map` is the degree-two branched cover of the sphere
normalized so that the four branch values are 0, infinity, 1 and w(gamma):

    0 -> 0,   (1+gamma)/2 -> infinity,   1/2 -> 1,   gamma/2 -> w.

`theta_data` packages the two finite branch values together with the
quadratic expansion coefficients of the quotient map at 1/2 and gamma/2, in
closed form from the half-period values.  `measured_theta_data` measures the
same four numbers from the theta series alone, by a Cauchy integral, for
`verify-lemma1`'s check of the identity they satisfy.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .dynamics import SpherePoint
from .errors import IllConditioned, LemmaViolation, NoConvergence

_MAX_TERMS = 220
_LOG_CUT = -41.0  # stop theta terms below ~1.5e-18 in magnitude
_TOL = 1e-10  # accuracy the half-period identity e1 + e2 + e3 = 0 is checked to
_LATTICE_EPS = 1e-13  # centered coordinates below this count as a lattice point
# nodes of the Cauchy trapezoid for the tau^2 coefficients: its error falls like
# 2^-N, under double precision at 64 (48 read 3.5e-12 on verify-lemma1's grid)
_CAUCHY_NODES = 64


class _TorusParameterFields(NamedTuple):
    gamma: complex


class TorusParameter(_TorusParameterFields):
    """Lattice shape gamma with Im(gamma) > 0."""

    __slots__ = ()

    def __new__(cls, gamma: complex):
        if not (gamma.imag > 0):
            raise ValueError(f"gamma must have positive imaginary part, got {gamma}")
        return super().__new__(cls, gamma)


class TorusPoint(NamedTuple):
    """Point s + t*gamma on the torus, coordinates taken mod 1.

    Coordinates may be `Fraction` (exact addresses survive arithmetic) or
    floats.  Construction does not reduce; call `reduced()` when needed.
    """

    s: object
    t: object

    def reduced(self) -> "TorusPoint":
        """Coordinates in [0, 1).  A float just below 0 rounds to 1.0 under
        % 1, which the second % 1 takes to 0."""
        return TorusPoint(self.s % 1 % 1, self.t % 1 % 1)

    def centered(self) -> tuple[float, float]:
        """Coordinates reduced into [-1/2, 1/2)."""
        s = float(self.s) % 1.0
        t = float(self.t) % 1.0
        if s >= 0.5:
            s -= 1.0
        if t >= 0.5:
            t -= 1.0
        return s, t


def _on_lattice(s: float, t: float) -> bool:
    """Whether centered coordinates (s, t) count as the lattice point 0."""
    return abs(s) < _LATTICE_EPS and abs(t) < _LATTICE_EPS


HALF_LATTICE = (
    TorusPoint(Fraction(0), Fraction(0)),
    TorusPoint(Fraction(1, 2), Fraction(0)),
    TorusPoint(Fraction(0), Fraction(1, 2)),
    TorusPoint(Fraction(1, 2), Fraction(1, 2)),
)


def _theta(kind: int, v: complex, lq: complex, powers: list) -> complex:
    """Jacobi theta_kind(v, q), log-nome lq = log q, |q| < 1: the sum over
    n >= 0 (kinds 1, 2; m = n + 1/2) or n >= 1 (kinds 3, 4; m = n) of
    exp(m^2 lq) sin 2mv (kind 1) or cos 2mv, alternating for kinds 1 and 4,
    up to the first n past the peak term whose log bound m^2 Re lq + 2m |Im v|
    is under _LOG_CUT.  powers holds the nome powers by n (entry 0 is 1 for
    kinds 3, 4); they depend on lq alone, so a lattice keeps one list per pair
    of kinds, and the series appends the terms it is the first to reach."""
    half = kind < 3
    iv = abs(v.imag)
    hump = iv / -lq.real - (0.5 if half else 0.0)
    acc = 0j if half else 1.0 + 0j
    n = 0 if half else 1
    while True:
        m = n + 0.5 if half else n
        e = m * m
        if n > hump + 2 and e * lq.real + 2 * m * iv < _LOG_CUT:
            break
        if n == len(powers):
            powers.append(cmath.exp(e * lq))
        term = powers[n] * (cmath.sin if kind == 1 else cmath.cos)(2 * m * v)
        if kind in (1, 4) and n % 2:
            term = -term
        acc += term if half else 2.0 * term
        n += 1
        if n > _MAX_TERMS:
            raise NoConvergence(f"theta_{kind} series needed more than {_MAX_TERMS} terms")
    return 2.0 * acc if half else acc


class HalfPeriodValues(NamedTuple):
    """P at the three half periods: e1 = P(1/2), e2 = P((1+gamma)/2), e3 = P(gamma/2)."""

    e1: complex
    e2: complex
    e3: complex


class _TorusContext:
    """Everything that depends on gamma alone, computed once per lattice.

    The pairing P(z) = e3 + (pi c2 c3 theta4(pi z)/theta1(pi z))^2 uses the
    theta-constant expression for e3 and reproduces the double pole at the
    lattice via theta1'(0) = pi... (checked against the lattice sum in the
    tests).  The half-period values e1, e2, e3 are P itself at 1/2,
    (1+gamma)/2 and gamma/2; they are checked here, so a lattice that fails
    the check is never cached.  ThetaData follows from them in closed form.
    """

    def __init__(self, gamma: complex):
        if not (gamma.imag > 0):
            raise ValueError("gamma must lie in the upper half plane")
        # P at the half periods reads sin(5 v), |Im v| = pi Im(gamma)/2, which leaves
        # the float range long after the half-period values have become inseparable
        if 2.5 * math.pi * gamma.imag > math.log(sys.float_info.max):
            raise IllConditioned(f"gamma={gamma} is too tall: its half-period theta series overflow")
        # and theta_4 there, the slowest series, falls like exp(-pi Im(gamma) n (n - 1))
        if math.pi * gamma.imag * _MAX_TERMS * (_MAX_TERMS - 1) <= -_LOG_CUT:
            raise IllConditioned(f"gamma={gamma} is too thin: its theta series exceed {_MAX_TERMS} terms")
        self.gamma = gamma
        self.lq = 1j * math.pi * gamma  # log of the nome
        self.half_powers = []  # the nome powers _theta reads, kinds 1 and 2
        self.whole_powers = [1.0 + 0j]  # and kinds 3 and 4
        self.c2 = _theta(2, 0j, self.lq, self.half_powers)
        self.c3 = _theta(3, 0j, self.lq, self.whole_powers)
        self.e3_formula = -(math.pi ** 2 / 3.0) * (self.c2 ** 4 + self.c3 ** 4)
        e1 = self.p_centered(*HALF_LATTICE[1].centered())
        e2 = self.p_centered(*HALF_LATTICE[3].centered())
        e3 = self.p_centered(*HALF_LATTICE[2].centered())
        scale = max(abs(e1), abs(e2), abs(e3), 1.0)
        # separation first: values double precision cannot tell apart sum to noise
        gap = min(abs(e1 - e2), abs(e1 - e3), abs(e2 - e3)) / scale
        if gap < 1e-8:  # distinct in exact arithmetic, but not in double precision
            raise IllConditioned(f"half-period values at gamma={gamma} differ by only {gap:.3g} "
                                 "of their size, under the 1e-8 needed to tell them apart")
        if abs(e1 + e2 + e3) > 10.0 * _TOL * scale:
            raise LemmaViolation(f"half-period values do not sum to zero at gamma={gamma}")
        self.half_periods = HalfPeriodValues(e1, e2, e3)
        # P''(omega_i) = 2 (e_i - e_j)(e_i - e_k) gives the tau^2 coefficients
        # of (e1 - e2)/(P - e2): 1 - (e1 - e3) tau^2 about 1/2 and
        # w (1 - (e3 - e1) tau^2) about gamma/2
        w = (e1 - e2) / (e3 - e2)
        self.theta_data = ThetaData(1.0 + 0j, w, e3 - e1, w * (e1 - e3))

    def p_centered(self, s: float, t: float) -> complex:
        """P at s + t gamma, for centered coordinates off the lattice."""
        z = s + t * self.gamma
        v = math.pi * z
        th1 = _theta(1, v, self.lq, self.half_powers)
        th4 = _theta(4, v, self.lq, self.whole_powers)
        ratio = math.pi * self.c2 * self.c3 * th4 / th1
        return self.e3_formula + ratio * ratio

    def affine(self, tau: TorusPoint) -> complex:
        """(e1 - e2)/(P - e2): the quotient map away from the lattice and (1+gamma)/2."""
        hp = self.half_periods
        return (hp.e1 - hp.e2) / (self.p_centered(*tau.centered()) - hp.e2)


@lru_cache(maxsize=64)
def _context(gamma: complex) -> _TorusContext:
    return _TorusContext(gamma)


def half_periods(gamma: complex) -> HalfPeriodValues:
    """P at the three half periods, checked to sum to zero and be told apart."""
    return _context(gamma).half_periods


def theta_map(tau: TorusPoint, gamma: complex) -> SpherePoint:
    """Quotient map to the sphere: Moebius-normalized P with branch values 0, oo, 1, w."""
    s, t = tau.centered()
    if _on_lattice(s, t):
        return SpherePoint.zero()
    ctx = _context(gamma)
    hp = ctx.half_periods
    return SpherePoint.make(hp.e1 - hp.e2, ctx.p_centered(s, t) - hp.e2)


class ThetaData(NamedTuple):
    """Finite branch values of the quotient map and its quadratic coefficients.

    v and w are the images of 1/2 and gamma/2; lam and mu are the tau^2
    coefficients of the quotient map expanded about those points, so that
    lam/v + mu/w = 0.
    """

    v: complex
    w: complex
    lam: complex
    mu: complex


def theta_data(gamma: complex) -> ThetaData:
    """Branch values v = 1, w = (e1 - e2)/(e3 - e2) and quadratic coefficients
    lam = e3 - e1, mu = w (e1 - e3), from the lattice's checked half periods."""
    return _context(gamma).theta_data


def _quadratic_coefficient(ctx: _TorusContext, s: float, t: float) -> complex:
    """tau^2 coefficient of the quotient map F about the half period c = s + t gamma:
    the trapezoidal Cauchy integral (1/(N rho^2)) sum_j F(c + rho e^(i theta_j))
    e^(-2 i theta_j), theta_j = 2 pi j/N.  rho is half the distance from c to the
    nearest point where the theta evaluation of P is infinite or equals e2 (the
    lattice and the translates of (1 + gamma)/2), which from either half period
    lie at +-(x + j gamma/2), x in Z + 1/2 for even j and in Z for odd j.  F is
    even about c, so node j + N/2 repeats node j."""
    gamma = ctx.gamma
    rho = 0.25  # at j = 0 the nearest point is 1/2 away; beyond j = 1/Im(gamma), none is nearer
    for j in range(1, int(1.0 / gamma.imag) + 1):
        x = j * gamma.real / 2 + (j + 1) % 2 / 2
        rho = min(rho, abs(complex(x - round(x), j * gamma.imag / 2)) / 2)
    acc = 0j
    for j in range(_CAUCHY_NODES // 2):
        node = cmath.exp(2j * math.pi * j / _CAUCHY_NODES)
        dt = rho * node.imag / gamma.imag  # rho node = ds + dt gamma
        acc += ctx.affine(TorusPoint(s + rho * node.real - dt * gamma.real, t + dt)) / (node * node)
    return acc / (_CAUCHY_NODES // 2 * rho * rho)


def measured_theta_data(gamma: complex) -> ThetaData:
    """ThetaData measured from the theta series alone: v and w as the quotient
    map at 1/2 and gamma/2, lam and mu by a trapezoidal Cauchy integral about
    them.  Independent of the closed form; within 2.3e-12 of it, relative, at
    Im gamma >= 0.3, and 9e-10 at 0.2, as e1 - e2 falls (F divides by P - e2)."""
    ctx = _context(gamma)
    v = ctx.affine(HALF_LATTICE[1])
    w = ctx.affine(HALF_LATTICE[2])
    return ThetaData(v, w, _quadratic_coefficient(ctx, 0.5, 0.0),
                     _quadratic_coefficient(ctx, 0.0, 0.5))
