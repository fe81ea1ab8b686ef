"""Coefficient recovery of the quotient maps and their structural checks."""

from fractions import Fraction

import numpy as np
import pytest

import lattes_forge.lattes as lattes
from lattes_forge.dynamics import SpherePoint, critical_points, eval_map, spherical_distance
from lattes_forge.elliptic import TorusParameter, TorusPoint, theta_data
from lattes_forge.errors import IllConditioned, ValidationFailed
from lattes_forge.lattes import (
    LattesSpec,
    RationalMapCoeffs,
    build_rational_map,
    critical_values,
    lattes_map,
    map_from_dict,
    map_to_dict,
    torus_endo,
)

from conftest import GAMMA0
from oracles import sample_stream_per_fit, verify_semiconjugacy

EVERY_CASE = [(2, "EvenZero"), (3, "OddZero"), (3, "OddHalf"), (4, "EvenZero"),
              (5, "OddZero"), (5, "OddHalf")]


def test_spec_validation():
    with pytest.raises(ValueError):
        LattesSpec(TorusParameter(1j), 1, "EvenZero")
    with pytest.raises(ValueError):
        LattesSpec(TorusParameter(1j), 3, "EvenZero")
    with pytest.raises(ValueError):
        LattesSpec(TorusParameter(1j), 2, "OddZero")
    with pytest.raises(ValueError):
        LattesSpec(TorusParameter(1j), 2, "bogus")


def test_translation_part():
    assert LattesSpec(TorusParameter(1j), 3, "OddHalf").translation == TorusPoint(
        Fraction(1, 2), Fraction(1, 2))
    assert LattesSpec(TorusParameter(1j), 2, "EvenZero").translation == TorusPoint(
        Fraction(0), Fraction(0))


def test_torus_endo_exact_arithmetic():
    spec = LattesSpec(TorusParameter(1j), 2, "EvenZero")
    out = torus_endo(spec.a, spec.translation, TorusPoint(Fraction(1, 3), Fraction(1, 5)))
    assert (out.s, out.t) == (Fraction(2, 3), Fraction(2, 5))
    spec3 = LattesSpec(TorusParameter(1j), 3, "OddHalf")
    out3 = torus_endo(spec3.a, spec3.translation, TorusPoint(Fraction(1, 5), Fraction(0)))
    assert (out3.s % 1, out3.t % 1) == (Fraction(11, 10), Fraction(1, 2)) or (
        out3.s % 1, out3.t % 1) == (Fraction(1, 10), Fraction(1, 2))


def test_build_square_lattice_frozen_coefficients():
    # gamma = i, a = 2: the map is 4z(1 - z^2) / (1 + z^2)^2 up to normalization
    f = build_rational_map(LattesSpec(TorusParameter(1j), 2, "EvenZero"))
    num_expect = np.array([0, 1, 0, -1, 0], dtype=complex)
    den_expect = np.array([0.25, 0, 0.5, 0, 0.25], dtype=complex)
    assert np.max(np.abs(f.num - num_expect)) < 1e-12
    assert np.max(np.abs(f.den - den_expect)) < 1e-12


def test_build_deterministic(spec_a2):
    f1 = build_rational_map(spec_a2)
    f2 = build_rational_map(spec_a2)
    assert np.array_equal(f1.num, f2.num) and np.array_equal(f1.den, f2.den)


def test_degree_matches_a_squared(base_a2):
    assert base_a2.degree == 4


def test_semiconjugacy_residual_and_detector(spec_a2, base_a2):
    clean = verify_semiconjugacy(base_a2, spec_a2, 50)
    assert clean < 1e-9
    bent = RationalMapCoeffs(num=np.asarray(base_a2.num) * (1 + 1e-6), den=base_a2.den, degree=4)
    assert verify_semiconjugacy(bent, spec_a2, 50) > 10 * max(clean, 1e-8)


def test_semiconjugacy_rejects_zero_samples(spec_a2, base_a2):
    with pytest.raises(ValueError):
        verify_semiconjugacy(base_a2, spec_a2, 0)


def test_critical_values_per_case():
    td = theta_data(GAMMA0)
    cv2 = critical_values(LattesSpec(TorusParameter(GAMMA0), 2, "EvenZero"), 0.0)
    assert len(cv2) == 3  # infinity, v, w; 0 is critical only for |a| >= 3
    assert any(p.is_infinity for p in cv2)
    cv3 = critical_values(LattesSpec(TorusParameter(GAMMA0), 3, "OddZero"), 0.0)
    assert len(cv3) == 4
    assert any((not p.is_infinity) and abs(p.to_complex()) < 1e-12 for p in cv3)
    affine = [p.to_complex() for p in cv3 if not p.is_infinity]
    assert min(abs(z - td.w) for z in affine) < 1e-10


def test_even_case_collapses_to_fixed_zero(spec_a2, base_a2):
    td = theta_data(GAMMA0)
    zero = SpherePoint.zero()
    for start in (SpherePoint.from_complex(td.v), SpherePoint.from_complex(td.w),
                  SpherePoint.infinity(), zero):
        assert spherical_distance(eval_map(base_a2, start), zero) < 1e-9


def test_odd_untranslated_fixes_branch_values():
    spec = LattesSpec(TorusParameter(GAMMA0), 3, "OddZero")
    f = build_rational_map(spec)
    td = theta_data(GAMMA0)
    for val in (td.v, td.w):
        p = SpherePoint.from_complex(val)
        assert spherical_distance(eval_map(f, p), p) < 1e-9


def test_half_translated_case_swaps_in_two_cycles():
    spec = LattesSpec(TorusParameter(GAMMA0), 3, "OddHalf")
    f = build_rational_map(spec)
    td = theta_data(GAMMA0)
    v, w = SpherePoint.from_complex(td.v), SpherePoint.from_complex(td.w)
    zero, inf = SpherePoint.zero(), SpherePoint.infinity()
    assert spherical_distance(eval_map(f, zero), inf) < 1e-9
    assert spherical_distance(eval_map(f, inf), zero) < 1e-9
    assert spherical_distance(eval_map(f, v), w) < 1e-9
    assert spherical_distance(eval_map(f, w), v) < 1e-9


@pytest.mark.parametrize("a,case", [(2, "EvenZero"), (3, "OddZero")])
def test_riemann_hurwitz_count(a, case):
    f = build_rational_map(LattesSpec(TorusParameter(GAMMA0), a, case))
    assert len(critical_points(f)) == 2 * a * a - 2


def test_json_round_trip(base_a2):
    doc = map_to_dict(base_a2)
    again = map_from_dict(doc)
    # loading checks the map and keeps the document's coefficients bit for bit
    assert again.degree == base_a2.degree
    assert again.num == base_a2.num and again.den == base_a2.den
    third = map_from_dict(map_to_dict(again))
    assert third.num == again.num and third.den == again.den


def test_semiconjugacy_seed_independent(spec_a2, base_a2):
    assert verify_semiconjugacy(base_a2, spec_a2, 40, seed=1) < 1e-9
    assert verify_semiconjugacy(base_a2, spec_a2, 40, seed=2) < 1e-9


@pytest.mark.parametrize("num,den,degree,message", [
    ([0, -1, 1], [0, 1, 1], 2, "share a root"),           # z(z - 1) / (z(z + 1))
    ([1, 1], [1], 2, "share a root"),                     # degree 1 declared as 2: both at oo
    ([0, 0], [0], 1, "identically zero"),
    ([1, float("nan")], [1], 1, "non-finite"),
    ([1, 0], [float("inf")], 1, "non-finite"),
    ([1, 0, 0, 1], [1], 2, "longer than degree"),
])
def test_map_check_refuses(num, den, degree, message):
    with pytest.raises(ValueError, match=message):
        RationalMapCoeffs(num=num, den=den, degree=degree)


def test_maps_store_their_coefficient_sum(base_a2):
    # eval_map's indeterminate floor reads the sum from the map
    for g in (base_a2, base_a2.scaled(1.5j), base_a2.scaled(-0.25)):
        assert g.abs_sum == sum(map(abs, g.num)) + sum(map(abs, g.den))


def test_scaled_map_skips_the_check_only(base_a2, monkeypatch):
    scaled = 1.5j * np.asarray(base_a2.num)
    checked = RationalMapCoeffs(num=scaled, den=base_a2.den, degree=4)
    # the constructor checks and keeps the coefficients as given
    assert checked.num == tuple(scaled.tolist()) and checked.den == base_a2.den

    def refuse(*args):
        raise AssertionError("root check ran on a scaled map")

    monkeypatch.setattr(lattes, "_root_separation", refuse)
    g = base_a2.scaled(1.5j)
    # scaled normalizes, without the check
    assert (g.num, g.den) == lattes._normalized(checked.num, checked.den)
    assert max(map(abs, g.num + g.den)) == 1.0


@pytest.mark.parametrize("factor", [0, 0j, float("nan"), complex(1.0, float("inf"))])
def test_scaled_refuses_zero_and_non_finite_factors(base_a2, factor):
    with pytest.raises(ValueError, match="zero or non-finite"):
        base_a2.scaled(factor)


@pytest.mark.parametrize("a,case,gamma", [
    (2, "EvenZero", GAMMA0), (3, "OddZero", 0.2 + 1j),
    (4, "EvenZero", GAMMA0), (5, "OddZero", 0.2 + 1j),
])
def test_scaled_is_the_family_member_bit_for_bit(a, case, gamma):
    # (1 + t) f: the numerator times 1 + t as one numpy product, then normalized
    base = build_rational_map(LattesSpec(TorusParameter(gamma), a, case))
    for t in (1e-3 + 2e-3j, -0.5, 0.2 - 0.3j, 3e-9j):
        g = base.scaled(1.0 + t)
        assert (g.num, g.den, g.degree) == (
            *lattes._normalized((1.0 + t) * np.asarray(base.num), base.den), base.degree)


@pytest.mark.parametrize("a,case", EVERY_CASE)
def test_fit_samples_match_the_per_fit_stream(a, case):
    # the torus samples are drawn once per (a, translation) and read at every
    # gamma: the chart-filtered pairs are the per-fit stream's, bit for bit
    for gamma in (0.2 + 1j, 0.4 + 0.8j, 0.2 + 1j):
        spec = LattesSpec(TorusParameter(gamma), a, case)
        n = 4 * (2 * spec.degree + 2) + 100
        kept = ((z, w) for z, w in lattes._sample_stream(spec)
                if abs(z.Z) <= 10.0 * abs(z.W) and abs(w.Z) <= 10.0 * abs(w.W))
        fresh = sample_stream_per_fit(spec)
        assert [next(kept) for _ in range(n)] == [next(fresh) for _ in range(n)]


@pytest.mark.parametrize("a,case", EVERY_CASE)
def test_fitted_maps_match_the_per_fit_stream(a, case, monkeypatch):
    spec = LattesSpec(TorusParameter(0.2 + 1j), a, case)
    f = build_rational_map(spec)
    monkeypatch.setattr(lattes, "_sample_stream", sample_stream_per_fit)
    g = build_rational_map(spec)
    assert (f.num, f.den) == (g.num, g.den)


def test_held_out_samples_leave_the_chart_filter(monkeypatch):
    # at gamma = 1/3 + 3i the fit misses the semiconjugacy by 4.5e-4; held-out
    # samples that shared the fit rows' filter |Z| <= 10 |W| passed it
    spec = LattesSpec(TorusParameter(1 / 3 + 3j), 2, "EvenZero")
    with pytest.raises(ValidationFailed, match="held-out semiconjugacy residual"):
        build_rational_map(spec)
    monkeypatch.setattr(lattes, "_sample_stream", sample_stream_per_fit)
    assert verify_semiconjugacy(build_rational_map(spec), spec, 200) > 1e-4


def test_records_refuse_assignment(base_a2):
    spec = LattesSpec(TorusParameter(GAMMA0), 2, "EvenZero")
    records = [(SpherePoint.zero(), "Z"), (TorusPoint(0.1, 0.2), "s"), (spec, "a"),
               (spec.gamma, "gamma"), (theta_data(GAMMA0), "w")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        assert hash(record) == hash(type(record)(*record))
    for name in ("num", "abs_sum", "extra"):
        with pytest.raises(AttributeError):
            setattr(base_a2, name, ())
    with pytest.raises(AttributeError):
        del base_a2.num


def test_maps_equal_by_value(base_a2, construction_results):
    # a map is a NamedTuple: its document reloads to an equal map, and a
    # scaled family member differs from it
    for g in (base_a2, construction_results[0].g_k):
        loaded = map_from_dict(map_to_dict(g))
        assert loaded == g and hash(loaded) == hash(g)
        assert g.scaled(2.0) != g


def test_map_from_dict_runs_the_check_on_the_class(base_a2, monkeypatch):
    # the check is looked up on the class, so a wrapper installed there sees
    # every checked map; scaled family members skip it
    checked = []
    check = RationalMapCoeffs.__post_init__
    monkeypatch.setattr(RationalMapCoeffs, "__post_init__",
                        lambda self: checked.append(self) or check(self))
    g = map_from_dict(map_to_dict(base_a2))
    assert checked == [g] and checked[0] is g
    base_a2.scaled(1.5)
    assert checked == [g]


@pytest.mark.parametrize("gamma", [GAMMA0, 0.2 + 0.7j, 1j, -0.4 + 1.3j])
def test_closed_form_a2_is_the_known_quadratic_pullback(gamma):
    # f = 4 w z (1 - z)(w - z) / (w - z^2)^2, in homogeneous (Z : W)
    w = theta_data(gamma).w
    f = lattes_map(LattesSpec(TorusParameter(gamma), 2, "EvenZero"))
    rng = np.random.default_rng(7)
    zs = rng.normal(size=200) + 1j * rng.normal(size=200)
    for z in zs * np.exp(rng.uniform(-3.0, 3.0, size=200)):
        Z, W = complex(z), 1.0 + 0j
        exact = SpherePoint.make(4.0 * w * Z * W * (W - Z) * (w * W - Z), (w * W * W - Z * Z) ** 2)
        assert spherical_distance(eval_map(f, SpherePoint.make(Z, W)), exact) < 1e-14


@pytest.mark.parametrize("a,case", EVERY_CASE)
def test_closed_form_agrees_with_the_fit(a, case):
    spec = LattesSpec(TorusParameter(GAMMA0), a, case)
    f = lattes_map(spec)
    assert f.degree == a * a
    assert verify_semiconjugacy(f, spec, 200) < 5e-12
    try:
        fit = build_rational_map(spec)
    except (IllConditioned, ValidationFailed):
        if a != 5:
            raise
        return  # the fit at a = 5 misses its held-out samples here
    rng = np.random.default_rng(3)
    for z in rng.normal(size=50) + 1j * rng.normal(size=50):
        x = SpherePoint.from_complex(complex(z))
        assert spherical_distance(eval_map(f, x), eval_map(fit, x)) < 1e-9


def test_closed_form_builds_where_rounding_resolves_the_degree():
    # at a = 4, gamma = 1/3 + 5i/3 (|w| = 11.5) the exact map's leading
    # coefficients are small but above the rounding level of their polynomial
    spec = LattesSpec(TorusParameter(complex(1 / 3, 5 / 3)), 4, "EvenZero")
    assert verify_semiconjugacy(lattes_map(spec), spec, 200) < 1e-9


def test_closed_form_refuses_a_map_that_fails_the_check():
    # at a = 5, gamma = 0.27 + 1.91i the top coefficients of numerator and
    # denominator both fall to the rounding level: a shared zero at infinity
    with pytest.raises(IllConditioned, match=r"share a root \(chordal gap 0"):
        lattes_map(LattesSpec(TorusParameter(complex(0.27, 1.91)), 5, "OddZero"))
    with pytest.raises(ValueError, match="exceeds the cap"):
        lattes_map(LattesSpec(TorusParameter(GAMMA0), 6, "EvenZero"))
