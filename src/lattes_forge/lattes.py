"""Flexible Lattes maps: torus endomorphism and coefficient recovery.

A map is specified by the lattice shape gamma, an integer a with 2 <= |a| <= 5,
and one of three case tags fixing the translation part of the torus
endomorphism tau -> a tau + b:

    EvenZero  a even, b = 0
    OddZero   a odd,  b = 0
    OddHalf   a odd,  b = (gamma + 1)/2

The rational map f of degree D = a^2 is pinned down by the semiconjugacy
f(theta(tau)) = theta(a tau + b).  Two builders make it: `lattes_map` in
closed form from the branch value w alone, for verify-lemma3 and render;
and `build_rational_map`, for construct, which recovers the coefficients
numerically by homogeneous least squares over quasi-random torus samples
and validates them on held-out samples.  Both hand their coefficients to the
map check of RationalMapCoeffs, which refuses a map only where double
precision cannot resolve it: numerator and denominator share a zero on the
sphere, at infinity included when both top coefficients are at the rounding
level.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

from .dynamics import SpherePoint, _convolve, eval_map, sphere_zeros, spherical_distance
from .elliptic import HALF_LATTICE, TorusParameter, TorusPoint, theta_data, theta_map
from .errors import IllConditioned, NoConvergence, ValidationFailed

CASE_TAGS = ("EvenZero", "OddZero", "OddHalf")
_ROOT_GAP_FLOOR = 1e-6
_MAX_DEGREE = 25
# Roberts R2 quasi-random sequence constants (1/phi2, 1/phi2^2 for the
# plastic number phi2); low-discrepancy and deterministic
_R2_A = 0.7548776662466927
_R2_B = 0.5698402909980532
_SAMPLE_GAP = 0.05  # fit samples keep this torus distance from the half lattice
_CHART_BOUND = 10.0  # and fit rows keep both their images within |Z| <= 10 |W|
_OVERSAMPLE = 4  # fit rows per unknown pair: 4 (2D + 2) samples
_HELD_OUT_TOL = 1e-9  # spherical residual every held-out sample must stay below


class _LattesSpecFields(NamedTuple):
    gamma: TorusParameter
    a: int
    case_tag: str


class LattesSpec(_LattesSpecFields):
    """Which flexible Lattes map: lattice shape, integer a, case tag.  The
    degree a^2 must stay within the cap of every map, so 2 <= |a| <= 5."""

    __slots__ = ()

    def __new__(cls, gamma: TorusParameter, a: int, case_tag: str):
        if abs(a) < 2:
            raise ValueError(f"|a| must be at least 2, got {a}")
        if a * a > _MAX_DEGREE:
            raise ValueError(f"degree {a * a} exceeds the cap {_MAX_DEGREE}")
        if case_tag not in CASE_TAGS:
            raise ValueError(f"case_tag must be one of {CASE_TAGS}, got {case_tag!r}")
        even = a % 2 == 0
        if case_tag == "EvenZero" and not even:
            raise ValueError("case EvenZero requires even a")
        if case_tag in ("OddZero", "OddHalf") and even:
            raise ValueError(f"case {case_tag} requires odd a")
        return super().__new__(cls, gamma, a, case_tag)

    @property
    def degree(self) -> int:
        return self.a * self.a

    @property
    def translation(self) -> TorusPoint:
        """Translation part b as a torus address: 0 or (1 + gamma)/2."""
        if self.case_tag == "OddHalf":
            return TorusPoint(Fraction(1, 2), Fraction(1, 2))
        return TorusPoint(Fraction(0), Fraction(0))


def torus_endo(a: int, b: TorusPoint, tau: TorusPoint) -> TorusPoint:
    """L(tau) = a tau + b reduced mod the lattice, for the multiplier a and the
    translation b of a spec; exact on rational addresses."""
    return TorusPoint(a * tau.s + b.s, a * tau.t + b.t).reduced()


class _MapFields(NamedTuple):
    num: tuple
    den: tuple
    degree: int
    abs_sum: float


class RationalMapCoeffs(_MapFields):
    """Degree-D rational map as ascending numerator/denominator coefficients,
    held as tuples of Python complex.

    Construction pads both to D + 1 coefficients and stores them at unit
    scale: when the largest coefficient modulus m is finite and nonzero but
    outside [1/2, 2), both are multiplied by the power of two nearest 1/m,
    exactly wherever no coefficient leaves the normal float range, so that
    every product of coefficients and points of modulus at most 1 stays in
    range.  It stores abs_sum = sum |num_k| + sum |den_k| and checks the map:
    finite and not identically zero, and the zeros of the numerator's and the
    denominator's degree-D lifts on the sphere, as sphere_zeros resolves them
    at the rounding level, must stay apart (no common roots).  A declared
    degree above both polynomials' degrees is a zero they share at infinity,
    refused with chordal gap 0.  The scaling-family members (1 + t) f of a
    checked map come from `scaled`, which normalizes and does not check.
    """

    __slots__ = ()

    def __new__(cls, num, den, degree: int):
        if degree < 1 or degree > _MAX_DEGREE:
            raise ValueError(f"degree must be between 1 and {_MAX_DEGREE}, got {degree}")
        if len(num) > degree + 1 or len(den) > degree + 1:
            raise ValueError("coefficient vectors longer than degree + 1")
        pad = (0j,)
        num = tuple(complex(c) for c in num) + pad * (degree + 1 - len(num))
        den = tuple(complex(c) for c in den) + pad * (degree + 1 - len(den))
        m = max(map(abs, num + den))
        if 0.0 < m < math.inf and not 0.5 <= m < 2.0:
            e = -round(math.log2(m))
            num, den = (tuple(complex(math.ldexp(c.real, e), math.ldexp(c.imag, e)) for c in cs)
                        for cs in (num, den))
        self = super().__new__(cls, num, den, degree, sum(map(abs, num)) + sum(map(abs, den)))
        self.__post_init__()
        return self

    def __post_init__(self):
        num, den, D = self.num, self.den, self.degree
        if not (max(map(abs, num + den)) > 0.0 and all(map(cmath.isfinite, num + den))):
            raise ValueError("coefficients are identically zero or non-finite")
        try:
            gap = _root_separation(num, den, D)
        except NoConvergence as exc:
            raise ValueError(f"the root check did not settle: {exc}") from None
        if gap < _ROOT_GAP_FLOOR:
            raise ValueError(f"numerator and denominator share a root (chordal gap {gap:.3e})")

    def scaled(self, factor) -> RationalMapCoeffs:
        """The map (factor P : Q), normalized but not checked again.

        Scaling the numerator by a nonzero constant keeps its zeros and its
        degree, so the result passes the check exactly when this map does.
        Raises ValueError for a zero or non-finite factor.
        """
        import numpy as np

        if factor == 0 or not cmath.isfinite(factor):
            raise ValueError(f"scaling factor {factor} is zero or non-finite")
        num, den = _normalized(factor * np.asarray(self.num), self.den)
        return self._replace(num=num, den=den, abs_sum=sum(map(abs, num)) + sum(map(abs, den)))


def _normalized(num, den) -> tuple[tuple, tuple]:
    """num, den divided by their joint max modulus and rotated so that the
    largest coefficient is real positive, as tuples of Python complex."""
    import numpy as np

    num = np.asarray(num, dtype=complex)
    joint = np.concatenate([num, np.asarray(den, dtype=complex)])
    scale = np.max(np.abs(joint))
    if not 0.0 < scale < math.inf:
        raise ValueError("coefficients are identically zero or non-finite")
    joint = joint / scale
    # rotate the joint phase so the largest coefficient is real positive;
    # makes the projectively-unique vector canonical for serialization
    lead = joint[int(np.argmax(np.abs(joint)))]
    joint = (joint * (np.conj(lead) / abs(lead))).tolist()
    return tuple(joint[: len(num)]), tuple(joint[len(num):])


def _root_separation(num: tuple, den: tuple, D: int) -> float:
    """Min chordal distance between numerator and denominator root sets, the
    zeros on the sphere of their degree-D lifts (sphere_zeros).

    Scale-free detector of common roots; a raw resultant floor is useless at
    degree ~9 where legitimate resultants of normalized vectors underflow.
    """
    zeros = sphere_zeros(num, D)
    poles = sphere_zeros(den, D)
    return min(spherical_distance(z, p) for z in zeros for p in poles)


# converted once: _half_lattice_gap runs for every candidate sample
_HALF_LATTICE_ST = tuple((float(h.s), float(h.t)) for h in HALF_LATTICE)


def _half_lattice_gap(s: float, t: float) -> float:
    """Torus distance from (s, t) to the nearest half-lattice address."""
    best = math.inf
    for hs, ht in _HALF_LATTICE_ST:
        ds = (s - hs) % 1.0
        dt = (t - ht) % 1.0
        ds = min(ds, 1.0 - ds)
        dt = min(dt, 1.0 - dt)
        best = min(best, math.hypot(ds, dt))
    return best


@lru_cache(maxsize=None)
def _torus_samples(a: int, b: TorusPoint) -> tuple:
    """The fit's torus samples for multiplier a and translation b: a list of
    the pairs (tau, L tau) drawn so far, and the generator that extends it.
    Neither depends on the lattice shape, so every fit of (a, b) reads the
    same list at every gamma."""
    return [], _address_pairs(a, b)


def _address_pairs(a: int, b: TorusPoint):
    """Pairs (tau, L tau) of quasi-random torus samples tau, both kept
    _SAMPLE_GAP from the half lattice.  L tau = a tau + b with the translation
    added as floats: the same bits as torus_endo, since float + Fraction is
    float + float(Fraction)."""
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
        yield TorusPoint(s, t), lt


def _sample_stream(spec: LattesSpec):
    """Sphere images (theta(tau), theta(L tau)) of the torus samples of
    _torus_samples, in order; one stream per fit."""
    gamma = spec.gamma.gamma
    drawn, fresh = _torus_samples(spec.a, spec.translation)
    for i in itertools.count():
        if i == len(drawn):
            drawn.append(next(fresh))
        tau, lt = drawn[i]
        yield theta_map(tau, gamma), theta_map(lt, gamma)


def build_rational_map(spec: LattesSpec) -> RationalMapCoeffs:
    """Recover the degree-D coefficients from the semiconjugacy.

    Homogeneous system rows V_j P(Z_j, W_j) - U_j Q(Z_j, W_j) = 0 over
    quasi-random samples whose images both satisfy |Z| <= 10 |W|; the
    coefficient vector is the smallest-singular-value direction.  The next
    100 samples of the same stream, whatever their chart, are held out and
    must validate below 1e-9 in the spherical metric.  Coefficients that fail
    the map check of RationalMapCoeffs are refused as IllConditioned.
    """
    import numpy as np

    D = spec.degree
    n_fit = _OVERSAMPLE * (2 * D + 2)
    stream = _sample_stream(spec)
    rows = []
    while len(rows) < n_fit:
        z, w = next(stream)
        if abs(z.Z) > _CHART_BOUND * abs(z.W) or abs(w.Z) > _CHART_BOUND * abs(w.W):
            continue
        zp = np.array([z.Z ** k * z.W ** (D - k) for k in range(D + 1)])
        rows.append(np.concatenate([w.W * zp, -w.Z * zp]))
    A = np.array(rows)
    _, sing, vh = np.linalg.svd(A)
    if sing[-2] < 1e3 * sing[-1]:
        raise IllConditioned(
            f"degree ambiguity: smallest singular values {sing[-1]:.3e}, {sing[-2]:.3e}")
    vec = np.conj(vh[-1])  # A = U S V^H, null direction is the conjugated row
    num, den = _normalized(vec[: D + 1], vec[D + 1:])
    try:
        f = RationalMapCoeffs(num=num, den=den, degree=D)
    except ValueError as exc:  # the fitted coefficients fail the map check
        raise IllConditioned(str(exc)) from None
    worst = 0.0
    for _ in range(100):
        z, w = next(stream)
        worst = max(worst, spherical_distance(eval_map(f, z), w))
    if worst >= _HELD_OUT_TOL:
        raise ValidationFailed(
            f"held-out semiconjugacy residual {worst:.3e} >= tol {_HELD_OUT_TOL:.3e}")
    return f


def _prod(*polys: list) -> list:
    """Product of polynomials held as ascending coefficient lists."""
    return reduce(_convolve, polys, [1 + 0j])


def _sub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    return [x - y for x, y in zip(p + [0j] * (n - len(p)), q + [0j] * (n - len(q)))]


def lattes_map(spec: LattesSpec) -> RationalMapCoeffs:
    """The map of spec in closed form, from w = theta_data(gamma).w alone.

    With X = 1/theta the curve is y^2 = g(X) = X^3 - (1 + 1/w) X^2 + X/w, and
    F(X) = x([a]P) = X - psi_(a-1) psi_(a+1) / psi_a^2 by the division
    polynomials (Silverman, The Arithmetic of Elliptic Curves, Ex. 3.7), held
    as polynomials p_n in X: p_n = psi_n for odd n and psi_n / psi_2 for even
    n, with psi_2^2 = 4 g.  Then f(z) = 1/F(1/z) is the reversed denominator
    of F over its reversed numerator, and OddHalf follows f with z -> w/z, the
    translation by (1 + gamma)/2 that swaps 0 with oo and 1 with w.  A map
    that fails the map check of RationalMapCoeffs is refused as IllConditioned.
    """
    a, D = abs(spec.a), spec.degree
    w = theta_data(spec.gamma.gamma).w
    a2, a4 = -(1.0 + 1.0 / w), 1.0 / w  # g = X^3 + a2 X^2 + a4 X
    b2, b4, b8 = 4.0 * a2, 2.0 * a4, -a4 * a4
    g4 = [0j, 4.0 * a4, 4.0 * a2, 4.0 + 0j]  # psi_2^2
    p = [[0j], [1 + 0j], [1 + 0j], [b8, 0j, 3.0 * b4, b2, 3.0 + 0j],
         [b4 * b8, b2 * b8, 10.0 * b8, 0j, 5.0 * b4, b2, 2.0 + 0j]]

    def psi(*ns):  # a product of psi_n with an even number of even n
        return _prod(*(p[n] for n in ns), *[g4] * (sum(n % 2 == 0 for n in ns) // 2))

    for n in range(5, a + 2):
        m = n // 2
        if n % 2:
            p.append(_sub(psi(m + 2, m, m, m), psi(m - 1, m + 1, m + 1, m + 1)))
        else:  # psi_2m / psi_2 = p_m (p_(m+2) p_(m-1)^2 - p_(m-2) p_(m+1)^2)
            p.append(_prod(p[m], _sub(_prod(p[m + 2], p[m - 1], p[m - 1]),
                                      _prod(p[m - 2], p[m + 1], p[m + 1]))))
    square, cross = psi(a, a), psi(a - 1, a + 1)
    num, den = [0j] + square[::-1], _sub([0j] + square, cross)[::-1]
    if spec.case_tag == "OddHalf":
        num, den = [w * c for c in den], num
    try:
        return RationalMapCoeffs(num=num, den=den, degree=D)
    except ValueError as exc:
        raise IllConditioned(str(exc)) from None


def critical_values(spec: LattesSpec, r: complex) -> list[SpherePoint]:
    """Critical values of (1 + r) f: {oo, (1+r) v, (1+r) w} when |a| = 2, with 0
    in front when |a| >= 3.  r = 0 gives f's own, since 1.0 * v == v."""
    td = theta_data(spec.gamma.gamma)
    vals = [SpherePoint.infinity(),
            SpherePoint.from_complex((1.0 + r) * td.v),
            SpherePoint.from_complex((1.0 + r) * td.w)]
    if abs(spec.a) >= 3:
        vals.insert(0, SpherePoint.zero())
    return vals


def map_to_dict(f: RationalMapCoeffs) -> dict:
    """JSON-ready document: {"degree": D, "num": [[re, im], ...], "den": ...}."""
    return {
        "degree": f.degree,
        "num": [[c.real, c.imag] for c in f.num],
        "den": [[c.real, c.imag] for c in f.den],
    }


def map_from_dict(doc: dict) -> RationalMapCoeffs:
    """The checked map of a map_to_dict document, coefficients bit for bit.

    Raises ValueError for a degree that is not a JSON integer or a
    coefficient that is not a pair of JSON numbers; a JSON boolean is neither.
    """
    degree = doc["degree"]
    if type(degree) is not int:
        raise ValueError(f"degree must be an integer, got {degree!r}")
    num, den = ([_coefficient(pair) for pair in doc[key]] for key in ("num", "den"))
    return RationalMapCoeffs(num=num, den=den, degree=degree)


def _coefficient(pair) -> complex:
    re, im = pair
    if type(re) not in (int, float) or type(im) not in (int, float):
        raise ValueError(f"coefficient must be a pair of numbers, got {pair!r}")
    return complex(re, im)
