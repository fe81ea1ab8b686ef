"""Weierstrass P on the torus C/(Z + gamma Z) and the normalized quotient map.

Evaluation uses the nome q = exp(i pi gamma) and Jacobi theta series, which
converge geometrically once the argument is reduced to the centered
fundamental domain.  A truncated symmetric lattice sum is provided as a slow,
algorithmically independent cross-check (`weierstrass_p_lattice_sum`).

The quotient map `theta_map` is the degree-two branched cover of the sphere
normalized so that the four branch values are 0, infinity, 1 and w(gamma):

    0 -> 0,   (1+gamma)/2 -> infinity,   1/2 -> 1,   gamma/2 -> w.

`theta_data` packages the two finite branch values together with the
quadratic expansion coefficients of the quotient map at 1/2 and gamma/2 and
verifies the cross-ratio identity they must satisfy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dynamics import SpherePoint
from .errors import LemmaViolation, NonConvergent, PoleAtLatticePoint

_MAX_TERMS = 220
_LOG_CUT = -41.0  # stop theta terms below ~1.5e-18 in magnitude
_TOL = 1e-10  # accuracy the half-period and branch-derivative identities are checked to
_LATTICE_EPS = 1e-13  # centered coordinates below this count as a lattice point


@dataclass(frozen=True)
class TorusParameter:
    """Lattice shape gamma with Im(gamma) > 0."""

    gamma: complex

    def __post_init__(self):
        if not (self.gamma.imag > 0):
            raise ValueError(f"gamma must have positive imaginary part, got {self.gamma}")


@dataclass(frozen=True)
class TorusPoint:
    """Point s + t*gamma on the torus, coordinates taken mod 1.

    Coordinates may be `Fraction` (exact addresses survive arithmetic) or
    floats.  Construction does not reduce; call `reduced()` when needed.
    """

    s: object
    t: object

    def reduced(self) -> "TorusPoint":
        return TorusPoint(self.s % 1, self.t % 1)

    def centered(self) -> tuple[float, float]:
        """Coordinates reduced into [-1/2, 1/2)."""
        s = float(self.s) % 1.0
        t = float(self.t) % 1.0
        if s >= 0.5:
            s -= 1.0
        if t >= 0.5:
            t -= 1.0
        return s, t

    def is_lattice_point(self) -> bool:
        s, t = self.centered()
        return abs(s) < _LATTICE_EPS and abs(t) < _LATTICE_EPS

    def value(self, gamma: complex) -> complex:
        s, t = self.centered()
        return s + t * gamma


HALF_LATTICE = (
    TorusPoint(Fraction(0), Fraction(0)),
    TorusPoint(Fraction(1, 2), Fraction(0)),
    TorusPoint(Fraction(0), Fraction(1, 2)),
    TorusPoint(Fraction(1, 2), Fraction(1, 2)),
)


def _theta(kind: int, v: complex, lq: complex) -> complex:
    """Jacobi theta_kind(v, q) with log-nome lq = log q, |q| < 1."""
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
                raise NonConvergent(f"theta_{kind} series needed more than {_MAX_TERMS} terms")
        return 2.0 * acc
    if kind in (3, 4):
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
                raise NonConvergent(f"theta_{kind} series needed more than {_MAX_TERMS} terms")
        return acc
    raise ValueError(f"theta kind must be 1..4, got {kind}")


@dataclass(frozen=True)
class HalfPeriodValues:
    """P at the three half periods: e1 = P(1/2), e2 = P((1+gamma)/2), e3 = P(gamma/2)."""

    gamma: complex
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
    the check is never cached.  ThetaData is computed on first use and kept.
    """

    def __init__(self, gamma: complex):
        if not (gamma.imag > 0):
            raise ValueError("gamma must lie in the upper half plane")
        self.gamma = gamma
        self.lq = 1j * math.pi * gamma  # log of the nome
        self.c2 = _theta(2, 0j, self.lq)
        self.c3 = _theta(3, 0j, self.lq)
        self.e3_formula = -(math.pi ** 2 / 3.0) * (self.c2 ** 4 + self.c3 ** 4)
        e1 = self.p_value(HALF_LATTICE[1])
        e2 = self.p_value(HALF_LATTICE[3])
        e3 = self.p_value(HALF_LATTICE[2])
        scale = max(abs(e1), abs(e2), abs(e3), 1.0)
        if abs(e1 + e2 + e3) > 10.0 * _TOL * scale:
            raise LemmaViolation(f"half-period values do not sum to zero at gamma={gamma}")
        if min(abs(e1 - e2), abs(e1 - e3), abs(e2 - e3)) < 1e-8 * scale:
            raise LemmaViolation(f"half-period values are not distinct at gamma={gamma}")
        self.half_periods = HalfPeriodValues(gamma, e1, e2, e3)
        self._theta_data = None

    def p_value(self, tau: TorusPoint) -> complex:
        if tau.is_lattice_point():
            raise PoleAtLatticePoint(f"P has a double pole at {tau}")
        s, t = tau.centered()
        z = s + t * self.gamma
        v = math.pi * z
        th1 = _theta(1, v, self.lq)
        th4 = _theta(4, v, self.lq)
        ratio = math.pi * self.c2 * self.c3 * th4 / th1
        return self.e3_formula + ratio * ratio

    def affine(self, tau: TorusPoint) -> complex:
        """(e1 - e2)/(P - e2): the quotient map away from the lattice and (1+gamma)/2."""
        hp = self.half_periods
        return (hp.e1 - hp.e2) / (self.p_value(tau) - hp.e2)

    def theta_data(self) -> "ThetaData":
        if self._theta_data is None:
            self._theta_data = _theta_data(self)
        return self._theta_data


@lru_cache(maxsize=64)
def _context(gamma: complex) -> _TorusContext:
    return _TorusContext(gamma)


def weierstrass_p(tau: TorusPoint, gamma: complex) -> complex:
    """P(s + t*gamma) for the lattice Z + gamma Z, via the theta q-series."""
    return _context(gamma).p_value(tau)


def weierstrass_p_lattice_sum(tau: TorusPoint, gamma: complex, box: int = 200) -> complex:
    """Brute-force P by the symmetric truncated sum over |m|, |n| <= box.

    Slow reference implementation used only as an independent oracle.
    """
    if tau.is_lattice_point():
        raise PoleAtLatticePoint(f"P has a double pole at {tau}")
    s, t = tau.centered()
    z = s + t * gamma
    m, n = np.mgrid[-box:box + 1, -box:box + 1]
    w = m + n * np.complex128(gamma)
    w = w[(m != 0) | (n != 0)]
    terms = 1.0 / (z - w) ** 2 - 1.0 / w ** 2
    # pair +/-w before accumulating so the O(1/w^3) parts cancel exactly
    return 1.0 / z ** 2 + complex(np.sum(terms))


def half_periods(gamma: complex) -> HalfPeriodValues:
    """P at the three half periods, checked to satisfy e1 + e2 + e3 = 0 and be distinct."""
    return _context(gamma).half_periods


def theta_map(tau: TorusPoint, gamma: complex) -> SpherePoint:
    """Quotient map to the sphere: Moebius-normalized P with branch values 0, oo, 1, w."""
    if tau.is_lattice_point():
        return SpherePoint.zero()
    ctx = _context(gamma)
    hp = ctx.half_periods
    return SpherePoint.make(hp.e1 - hp.e2, ctx.p_value(tau) - hp.e2)


def theta_map_affine(tau: TorusPoint, gamma: complex) -> complex:
    """Affine value of the quotient map; only valid away from (1+gamma)/2."""
    if tau.is_lattice_point():
        return 0j
    return _context(gamma).affine(tau)


@dataclass(frozen=True)
class ThetaData:
    """Finite branch values of the quotient map and its quadratic coefficients.

    v and w are the images of 1/2 and gamma/2; lam and mu are the tau^2
    coefficients of the quotient map expanded about those points.  kappa is
    the shared combination 4*lam/(v*(v-w)) = 4*mu/(w*(w-v)).
    """

    gamma: complex
    v: complex
    w: complex
    lam: complex
    mu: complex
    kappa: complex


def _richardson_even(samples: list[complex]) -> complex:
    """Extrapolate D(h), D(h/2), ... for an even error expansion in h."""
    row = list(samples)
    for i in range(1, len(samples)):
        factor = 4.0 ** i
        row = [(factor * row[m + 1] - row[m]) / (factor - 1.0) for m in range(len(row) - 1)]
    return row[0]


def _quadratic_coefficient(ctx: _TorusContext, base_s: float, base_t: float,
                           center: complex) -> complex:
    """tau^2 coefficient of the quotient map about a half period.

    Second central differences along the real direction at h = 0.02, 0.01,
    0.005, 0.0025, Richardson extrapolated.  The map is even about each half
    period so the error expansion contains only even powers of h.
    """
    diffs = []
    h = 0.02
    for _ in range(4):
        plus = ctx.affine(TorusPoint(base_s + h, base_t))
        minus = ctx.affine(TorusPoint(base_s - h, base_t))
        diffs.append((plus - 2.0 * center + minus) / (h * h))
        h *= 0.5
    return _richardson_even(diffs) / 2.0


def _theta_data(ctx: _TorusContext) -> ThetaData:
    gamma = ctx.gamma
    v = ctx.affine(HALF_LATTICE[1])
    w = ctx.affine(HALF_LATTICE[2])
    if min(abs(v), abs(w), abs(v - w)) < 1e-8:
        raise LemmaViolation(f"branch values degenerate at gamma={gamma}: v={v}, w={w}")
    lam = _quadratic_coefficient(ctx, 0.5, 0.0, v)
    mu = _quadratic_coefficient(ctx, 0.0, 0.5, w)
    if abs(lam) < 1e-8 or abs(mu) < 1e-8:
        raise LemmaViolation(f"quadratic coefficient vanished at gamma={gamma}")
    check = abs(lam / v + mu / w)
    if check > 100.0 * _TOL:
        raise LemmaViolation(
            f"quadratic coefficients violate lam/v = -mu/w at gamma={gamma}: residual {check:.3e}")
    kappa = 4.0 * lam / (v * (v - w))
    kappa_alt = 4.0 * mu / (w * (w - v))
    if abs(kappa - kappa_alt) > 100.0 * _TOL * max(1.0, abs(kappa)):
        raise LemmaViolation(
            f"kappa expressions disagree at gamma={gamma}: {abs(kappa - kappa_alt):.3e}")
    return ThetaData(gamma, v, w, lam, mu, kappa)


def theta_data(gamma: complex) -> ThetaData:
    """Branch values and quadratic coefficients, with the identity checks.

    Computed once per gamma.  Raises LemmaViolation, on every call, if
    lam/v + mu/w fails to vanish within 1e-8 or the two kappa expressions
    disagree.
    """
    return _context(gamma).theta_data()
