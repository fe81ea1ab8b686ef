"""Flexible Lattes maps: torus endomorphism and coefficient recovery.

A map is specified by the lattice shape gamma, an integer a with |a| >= 2,
and one of three case tags fixing the translation part of the torus
endomorphism tau -> a tau + b:

    EvenZero  a even, b = 0
    OddZero   a odd,  b = 0
    OddHalf   a odd,  b = (gamma + 1)/2

The rational map f of degree D = a^2 is pinned down by the semiconjugacy
f(theta(tau)) = theta(a tau + b); its coefficients are recovered
numerically by homogeneous least squares over quasi-random torus samples
and validated on held-out samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import SpherePoint, eval_map, spherical_distance
from .elliptic import HALF_LATTICE, TorusParameter, TorusPoint, theta_map
from .errors import IllConditioned, ValidationFailed

CASE_TAGS = ("EvenZero", "OddZero", "OddHalf")
_ROOT_GAP_FLOOR = 1e-6
_DEGREE_FLOOR = 1e-9  # normalized coefficients at or below this do not count toward the degree
_MAX_DEGREE = 25
# Roberts R2 quasi-random sequence constants (1/phi2, 1/phi2^2 for the
# plastic number phi2); low-discrepancy and deterministic
_R2_A = 0.7548776662466927
_R2_B = 0.5698402909980532
_SAMPLE_GAP = 0.05  # fit samples keep this torus distance from the half lattice
_CHART_BOUND = 10.0  # and both their images within |Z| <= 10 |W|
_OVERSAMPLE = 4  # fit rows per unknown pair: 4 (2D + 2) samples
_HELD_OUT_TOL = 1e-9  # spherical residual every held-out sample must stay below


@dataclass(frozen=True)
class LattesSpec:
    """Which flexible Lattes map: lattice shape, integer a, case tag."""

    gamma: TorusParameter
    a: int
    case_tag: str

    def __post_init__(self):
        if abs(self.a) < 2:
            raise ValueError(f"|a| must be at least 2, got {self.a}")
        if self.case_tag not in CASE_TAGS:
            raise ValueError(f"case_tag must be one of {CASE_TAGS}, got {self.case_tag!r}")
        even = self.a % 2 == 0
        if self.case_tag == "EvenZero" and not even:
            raise ValueError("case EvenZero requires even a")
        if self.case_tag in ("OddZero", "OddHalf") and even:
            raise ValueError(f"case {self.case_tag} requires odd a")

    @property
    def degree(self) -> int:
        return self.a * self.a

    @property
    def translation(self) -> TorusPoint:
        """Translation part b as a torus address: 0 or (1 + gamma)/2."""
        if self.case_tag == "OddHalf":
            return TorusPoint(Fraction(1, 2), Fraction(1, 2))
        return TorusPoint(Fraction(0), Fraction(0))


def torus_endo(spec: LattesSpec, tau: TorusPoint) -> TorusPoint:
    """L(tau) = a tau + b reduced mod the lattice; exact on rational addresses."""
    b = spec.translation
    return TorusPoint(spec.a * tau.s + b.s, spec.a * tau.t + b.t).reduced()


@dataclass(frozen=True, eq=False)
class RationalMapCoeffs:
    """Degree-D rational map as ascending numerator/denominator coefficients.

    Construction normalizes (pads to D + 1 coefficients, scales the joint max
    coefficient modulus to 1, rotates the joint phase) and then checks the
    map: the effective degree must match and the numerator and denominator
    roots must stay apart (no common roots).  Maps derived from a checked map
    by scaling its numerator and denominator come from `rescaled`, which
    only normalizes.
    """

    num: np.ndarray
    den: np.ndarray
    degree: int

    def __post_init__(self):
        D = self.degree
        if D < 1 or D > _MAX_DEGREE:
            raise ValueError(f"degree must be between 1 and {_MAX_DEGREE}, got {D}")
        num, den = _normalized(self.num, self.den, D)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        eff = max(_effective_degree(num), _effective_degree(den))
        if eff != D:
            raise ValueError(f"effective degree {eff} does not match declared degree {D}")
        gap = _root_separation(num, den, D)
        if gap < _ROOT_GAP_FLOOR:
            raise ValueError(f"numerator and denominator share a root (chordal gap {gap:.3e})")

    def rescaled(self, num, den) -> RationalMapCoeffs:
        """The map with numerator num and denominator den, each a nonzero
        scalar multiple of this map's, normalized but not checked again.

        Scaling a polynomial by a nonzero constant keeps its zeros and its
        degree, so such a map passes the check exactly when this one does.
        The caller guarantees the scalings.
        """
        out = object.__new__(RationalMapCoeffs)
        num, den = _normalized(num, den, self.degree)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        object.__setattr__(out, "degree", self.degree)
        return out


def _normalized(num, den, D: int) -> tuple[np.ndarray, np.ndarray]:
    """num, den padded to D + 1 coefficients, divided by their joint max
    modulus and rotated so that the largest coefficient is real positive."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    if len(num) > D + 1 or len(den) > D + 1:
        raise ValueError("coefficient vectors longer than degree + 1")
    if len(num) < D + 1:
        num = np.pad(num, (0, D + 1 - len(num)))
    if len(den) < D + 1:
        den = np.pad(den, (0, D + 1 - len(den)))
    joint = np.concatenate([num, den])
    scale = np.max(np.abs(joint))
    if not 0.0 < scale < math.inf:
        raise ValueError("coefficients are identically zero or non-finite")
    joint = joint / scale
    # rotate the joint phase so the largest coefficient is real positive;
    # makes the projectively-unique vector canonical for serialization
    lead = joint[int(np.argmax(np.abs(joint)))]
    joint = joint * (np.conj(lead) / abs(lead))
    return joint[: D + 1], joint[D + 1:]


def _effective_degree(coeffs: np.ndarray) -> int:
    idx = np.nonzero(np.abs(coeffs) > _DEGREE_FLOOR)[0]
    return int(idx[-1]) if len(idx) else 0


def _homogeneous_roots(coeffs: np.ndarray, D: int) -> list[SpherePoint]:
    """Roots of the degree-D homogeneous lift, infinity included by degree drop."""
    trimmed = coeffs[: _effective_degree(coeffs) + 1]
    finite = np.roots(trimmed[::-1]) if len(trimmed) > 1 else []
    pts = [SpherePoint.from_complex(complex(r)) for r in finite]
    pts.extend(SpherePoint.infinity() for _ in range(D - len(trimmed) + 1))
    return pts


def _root_separation(num: np.ndarray, den: np.ndarray, D: int) -> float:
    """Min chordal distance between numerator and denominator root sets.

    Scale-free detector of common roots; a raw resultant floor is useless at
    degree ~9 where legitimate resultants of normalized vectors underflow.
    """
    zeros = _homogeneous_roots(num, D)
    poles = _homogeneous_roots(den, D)
    return min(spherical_distance(z, p) for z in zeros for p in poles)


def _half_lattice_gap(s: float, t: float) -> float:
    """Torus distance from (s, t) to the nearest half-lattice address."""
    best = math.inf
    for h in HALF_LATTICE:
        ds = (s - float(h.s)) % 1.0
        dt = (t - float(h.t)) % 1.0
        ds = min(ds, 1.0 - ds)
        dt = min(dt, 1.0 - dt)
        best = min(best, math.hypot(ds, dt))
    return best


def _sample_stream(spec: LattesSpec, start: int):
    """Quasi-random torus samples with their sphere images, guard-filtered."""
    gamma = spec.gamma.gamma
    j = start
    while True:
        j += 1
        s = (0.5 + j * _R2_A) % 1.0
        t = (0.5 + j * _R2_B) % 1.0
        if _half_lattice_gap(s, t) < _SAMPLE_GAP:
            continue
        tau = TorusPoint(s, t)
        lt = torus_endo(spec, tau)
        if _half_lattice_gap(float(lt.s), float(lt.t)) < _SAMPLE_GAP:
            continue
        z = theta_map(tau, gamma)
        w = theta_map(lt, gamma)
        if abs(z.Z) > _CHART_BOUND * abs(z.W) or abs(w.Z) > _CHART_BOUND * abs(w.W):
            continue
        yield j, tau, z, w


def build_rational_map(spec: LattesSpec) -> RationalMapCoeffs:
    """Recover the degree-D coefficients from the semiconjugacy.

    Homogeneous system rows V_j P(Z_j, W_j) - U_j Q(Z_j, W_j) = 0 over
    quasi-random samples; the coefficient vector is the smallest-singular-
    value direction.  Held-out samples must validate below 1e-9 in the
    spherical metric.
    """
    D = spec.degree
    if D > _MAX_DEGREE:
        raise ValueError(f"degree {D} exceeds the cap {_MAX_DEGREE}")
    n_fit = _OVERSAMPLE * (2 * D + 2)
    stream = _sample_stream(spec, start=0)
    rows = []
    last_j = 0
    for _ in range(n_fit):
        last_j, tau, z, w = next(stream)
        zp = np.array([z.Z ** k * z.W ** (D - k) for k in range(D + 1)])
        rows.append(np.concatenate([w.W * zp, -w.Z * zp]))
    A = np.array(rows)
    _, sing, vh = np.linalg.svd(A)
    if sing[-2] < 1e3 * sing[-1]:
        raise IllConditioned(
            f"degree ambiguity: smallest singular values {sing[-1]:.3e}, {sing[-2]:.3e}")
    vec = np.conj(vh[-1])  # A = U S V^H, null direction is the conjugated row
    f = RationalMapCoeffs(num=vec[: D + 1], den=vec[D + 1:], degree=D)
    held = _sample_stream(spec, start=last_j)
    worst = 0.0
    for _ in range(100):
        _, tau, z, w = next(held)
        worst = max(worst, spherical_distance(eval_map(f, z), w))
    if worst >= _HELD_OUT_TOL:
        raise ValidationFailed(
            f"held-out semiconjugacy residual {worst:.3e} >= tol {_HELD_OUT_TOL:.3e}")
    return f


def critical_values(spec: LattesSpec) -> list[SpherePoint]:
    """{oo, v, w} when |a| = 2, {0, oo, v, w} when |a| >= 3."""
    gamma = spec.gamma.gamma
    v = theta_map(TorusPoint(Fraction(1, 2), Fraction(0)), gamma)
    w = theta_map(TorusPoint(Fraction(0), Fraction(1, 2)), gamma)
    vals = [SpherePoint.infinity(), v, w]
    if abs(spec.a) >= 3:
        vals.insert(0, SpherePoint.zero())
    return vals


def postcritical_set(spec: LattesSpec) -> list[SpherePoint]:
    """{0, oo, v, w} in all three cases."""
    gamma = spec.gamma.gamma
    v = theta_map(TorusPoint(Fraction(1, 2), Fraction(0)), gamma)
    w = theta_map(TorusPoint(Fraction(0), Fraction(1, 2)), gamma)
    return [SpherePoint.zero(), SpherePoint.infinity(), v, w]


def verify_semiconjugacy(f: RationalMapCoeffs, spec: LattesSpec, n: int,
                         seed: int = 0) -> float:
    """Max spherical distance between f(theta(tau)) and theta(L(tau)) at n random points."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    gamma = spec.gamma.gamma
    worst = 0.0
    count = 0
    while count < n:
        s, t = rng.random(2)
        if _half_lattice_gap(s, t) < 5e-3:
            continue
        tau = TorusPoint(s, t)
        lt = torus_endo(spec, tau)
        if _half_lattice_gap(float(lt.s), float(lt.t)) < 5e-3:
            continue
        worst = max(worst, spherical_distance(
            eval_map(f, theta_map(tau, gamma)), theta_map(lt, gamma)))
        count += 1
    return worst


def map_to_dict(f: RationalMapCoeffs) -> dict:
    """JSON-ready document: {"degree": D, "num": [[re, im], ...], "den": ...}."""
    return {
        "degree": f.degree,
        "num": [[c.real, c.imag] for c in f.num],
        "den": [[c.real, c.imag] for c in f.den],
    }


def map_from_dict(doc: dict) -> RationalMapCoeffs:
    num = np.array([complex(re, im) for re, im in doc["num"]])
    den = np.array([complex(re, im) for re, im in doc["den"]])
    return RationalMapCoeffs(num=num, den=den, degree=int(doc["degree"]))
