"""Property tests over generated maps, torus points and perturbations."""

import json
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lattes_forge.cli import _json_text, _linspace
from lattes_forge.dynamics import (
    SpherePoint,
    chart_derivative,
    critical_points,
    eval_map,
    find_cycle,
    multiplier,
    spherical_distance,
)
from lattes_forge.elliptic import (TorusParameter, TorusPoint, half_periods, measured_theta_data,
                                  theta_data)
from lattes_forge.errors import IndeterminatePoint, NoConvergence
from lattes_forge.lattes import (
    LattesSpec,
    RationalMapCoeffs,
    build_rational_map,
    critical_values,
    lattes_map,
    map_from_dict,
    map_to_dict,
)
from lattes_forge.perturbation import _exact_itinerary, standard_parameters

from conftest import GAMMA0
from oracles import exact_itinerary_by_scan, verify_semiconjugacy

EPS = np.finfo(float).eps
SPECS = [LattesSpec(TorusParameter(GAMMA0), 2, "EvenZero"),
         LattesSpec(TorusParameter(1j), 2, "EvenZero"),
         LattesSpec(TorusParameter(0.2 + 1j), 3, "OddZero"),
         LattesSpec(TorusParameter(0.2 + 1j), 3, "OddHalf")]
LATTES_MAPS = [build_rational_map(spec) for spec in SPECS]

coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
factors = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False,
                             allow_infinity=False)
coordinates = st.one_of(st.fractions(), st.floats(-1e6, 1e6, allow_nan=False))
odd_denominators = st.integers(0, 10 ** 6).map(lambda j: 2 * j + 1)


@st.composite
def maps(draw):
    """Maps that pass the entry check: degree 1..6, coefficients up to 10."""
    D = draw(st.integers(1, 6))
    num = draw(st.lists(coefficients, min_size=D + 1, max_size=D + 1))
    den = draw(st.lists(coefficients, min_size=D + 1, max_size=D + 1))
    try:
        return RationalMapCoeffs(num=num, den=den, degree=D)
    except ValueError:
        assume(False)


# the Wronskian of (1 + z^2) / (1 + 2.2e-313 z) has a zero near 1.1e-313,
# below the normal float range, and that of the degree-3 map a subnormal
# constant term: roots need not find such zeros, but must refuse with a type
@example(RationalMapCoeffs([1, 0, 1], [1, 2.2250738585e-313, 0], 2))
@example(RationalMapCoeffs([0.5, 0.5 + 1.11253692926e-313j, 0, 1], [0.5j, 0.5j, 0, 0], 3))
@given(maps())
def test_critical_points_are_2d_minus_2_or_refused(f):
    # a checked map has exactly 2D - 2 critical points with multiplicity, by
    # Riemann-Hurwitz; where the zeros cannot be found the refusal is typed
    try:
        found = critical_points(f)
    except NoConvergence:
        return
    assert len(found) == 2 * f.degree - 2


@given(st.one_of(maps(), maps().map(lambda f: f.scaled(1.0)),
                 st.sampled_from(LATTES_MAPS)))
def test_json_text_round_trip_is_bit_exact(f):
    # 17 significant digits give back every coefficient bit, and loading keeps
    # them: raw, normalized and fitted maps are fixed points of the round trip
    doc = map_to_dict(f)
    again = json.loads(_json_text(doc))
    assert again == doc
    g = map_from_dict(again)
    assert (g.num, g.den, g.degree) == (f.num, f.den, f.degree)


@given(st.sampled_from([(2, "EvenZero"), (3, "OddZero"), (3, "OddHalf"),
                        (4, "EvenZero"), (5, "OddZero"), (5, "OddHalf")]),
       st.fractions(-2, 2, max_denominator=24), st.fractions(-2, 2, max_denominator=24))
def test_keyed_itinerary_matches_the_scan(a_case, s, t):
    # the sphere-class keys find the first repeat that comparing each address
    # with every earlier one finds, or both give up after 16 steps (periods
    # reach 22 at these denominators)
    a, case = a_case
    b = LattesSpec(TorusParameter(1j), a, case).translation
    outcomes = []
    for itinerary in (_exact_itinerary, exact_itinerary_by_scan):
        try:
            pre, per, addrs = itinerary(a, b, TorusPoint(s, t), 16)
            outcomes.append((pre, per, tuple(addrs)))
        except NoConvergence:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]


@given(st.one_of(maps(), st.sampled_from(LATTES_MAPS)), factors, factors,
       st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
def test_scaled_map_is_the_factor_times_the_map(f, c1, c2, x):
    # f.scaled(c) takes z to (c P(z) : Q(z)), and scaling twice is scaling
    # once by the product
    z = SpherePoint.from_complex(x)
    try:
        image = eval_map(f, z)
    except IndeterminatePoint:
        assume(False)
    want = SpherePoint.make(c1 * image.Z, image.W)
    assert spherical_distance(eval_map(f.scaled(c1), z), want) < 1e-12
    assert spherical_distance(eval_map(f.scaled(c1).scaled(c2), z),
                              eval_map(f.scaled(c1 * c2), z)) < 1e-12


@given(st.floats(allow_nan=False, allow_infinity=False, width=64).filter(lambda x: abs(x) < 1e300),
       st.floats(allow_nan=False, allow_infinity=False, width=64).filter(lambda x: abs(x) < 1e300),
       st.integers(1, 60))
def test_grid_axis_is_numpy_linspace(start, stop, n):
    # verify-lemma1's grid, and so its report, keeps numpy's bits without numpy
    assert [x.hex() for x in _linspace(start, stop, n)] == [
        x.hex() for x in np.linspace(start, stop, n).tolist()]


@given(coordinates, coordinates)
def test_torus_point_reduction(s, t):
    cs, ct = TorusPoint(s, t).centered()
    assert -0.5 <= cs < 0.5 and -0.5 <= ct < 0.5
    once = TorusPoint(s, t).reduced()
    assert 0 <= once.s < 1 and 0 <= once.t < 1
    assert once.reduced() == once


@given(st.sampled_from(LATTES_MAPS),
       st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False,
                          allow_infinity=False))
def test_eval_map_agrees_in_both_charts(f, x):
    # the point x given by its coordinate x in chart 0 and by 1/x in chart 1
    in_chart0 = eval_map(f, SpherePoint.from_coord(x, 0))
    in_chart1 = eval_map(f, SpherePoint.from_coord(1.0 / x, 1))
    assert spherical_distance(in_chart0, in_chart1) < 1e-12


@given(st.sampled_from(SPECS),
       st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False))
def test_critical_values_scale_with_the_family(spec, r):
    base = critical_values(spec, 0.0)
    scaled = critical_values(spec, r)
    assert len(scaled) == len(base) == (3 if abs(spec.a) == 2 else 4)
    for p, q in zip(base, scaled):
        if p.is_infinity:
            assert q == p
        else:
            want = (1.0 + r) * p.to_complex()
            assert abs(q.to_complex() - want) <= 8 * EPS * abs(want)


@given(maps())
def test_multiplier_is_chart_invariant(f):
    # at a fixed point z, f' in chart 0 and the derivative of 1/f(1/y) at
    # y = 1/z agree: both are the multiplier
    fixed = np.concatenate([f.num, [0j]]) - np.concatenate([[0j], f.den])  # P(x) - x Q(x)
    for root in np.roots(fixed[::-1]):
        if not 1e-3 < abs(root) < 1e3:
            continue
        try:
            z = find_cycle(f, SpherePoint.from_complex(complex(root)), 1).points[0]
        except NoConvergence:
            continue
        if z.is_infinity or abs(z.Z) < 1e-3:
            continue
        lam = multiplier(f, [z])
        for chart in (0, 1):
            assert abs(chart_derivative(f, z, chart, chart) - lam) <= 1e-8 * abs(lam)


@given(st.floats(-0.5, 0.5), st.floats(0.2, 2.0))
def test_closed_form_quadratic_coefficients_match_the_measured(re, im):
    # lam = e3 - e1 and mu = w (e1 - e3) against the Cauchy integral of the
    # theta series.  About 1/2 the quotient map divides by P - e2, which keeps
    # only the digits that e1 - e2 keeps of max |e_i|, so the relative bound
    # is 1e-13 times that loss.  Worst seen, relative: 17 eps times the loss
    # (9.0e-10 at -0.017 + 0.2i, where the loss is 2.5e5), 2.3e-12 at
    # Im gamma >= 0.3, 1.3e-14 at Im gamma >= 0.6
    gamma = complex(re, im)
    exact, measured = theta_data(gamma), measured_theta_data(gamma)
    hp = half_periods(gamma)
    bound = 1e-13 * max(map(abs, hp)) / abs(hp.e1 - hp.e2)
    assert exact.w == measured.w
    assert abs(exact.lam - measured.lam) < bound * abs(exact.lam)
    assert abs(exact.mu - measured.mu) < bound * abs(exact.mu)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6), odd_denominators,
       odd_denominators)
def test_ratio_limit_is_exactly_one(p, q, dx, dy):
    # -sigma^2/tau^2 at gamma0: sigma = gamma0 - x0 = i y0 and tau = y0, so
    # convergence_table compares the ratio s_k/t_k with the constant 1
    point = standard_parameters(Fraction(p, dx), Fraction(q, dy), 2)
    gamma0 = complex(float(point.x0), float(point.y0))
    sig, tau = point.offset("X", gamma0), point.offset("Y", gamma0)
    limit = -sig * sig / (tau * tau)
    assert limit.real == 1.0 and limit.imag == 0.0


@settings(max_examples=40)
@given(st.sampled_from([(2, "EvenZero"), (3, "OddZero"), (3, "OddHalf"), (4, "EvenZero"),
                        (5, "OddZero"), (5, "OddHalf")]),
       st.floats(-0.4, 0.4), st.floats(0.6, 1.5))
def test_closed_form_is_semiconjugate(a_case, re, im):
    # the closed form meets the theta series to the fit's held-out tolerance,
    # and passes the map check everywhere in this domain: its smallest top
    # coefficients, at a = 5, stay above the rounding level
    spec = LattesSpec(TorusParameter(complex(re, im)), *a_case)
    assert verify_semiconjugacy(lattes_map(spec), spec, 50) < 1e-9
