"""Coefficient recovery of the quotient maps and their structural checks."""

from fractions import Fraction

import numpy as np
import pytest

import lattes_forge.lattes as lattes
from lattes_forge.dynamics import SpherePoint, critical_points, eval_map, spherical_distance
from lattes_forge.elliptic import TorusParameter, TorusPoint, theta_data
from lattes_forge.lattes import (
    LattesSpec,
    RationalMapCoeffs,
    build_rational_map,
    critical_values,
    map_from_dict,
    map_to_dict,
    postcritical_set,
    torus_endo,
    verify_semiconjugacy,
)

from conftest import GAMMA0


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
    out = torus_endo(spec, TorusPoint(Fraction(1, 3), Fraction(1, 5)))
    assert (out.s, out.t) == (Fraction(2, 3), Fraction(2, 5))
    spec3 = LattesSpec(TorusParameter(1j), 3, "OddHalf")
    out3 = torus_endo(spec3, TorusPoint(Fraction(1, 5), Fraction(0)))
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
    bent = RationalMapCoeffs(num=base_a2.num * (1 + 1e-6), den=base_a2.den, degree=4)
    assert verify_semiconjugacy(bent, spec_a2, 50) > 10 * max(clean, 1e-8)


def test_semiconjugacy_rejects_zero_samples(spec_a2, base_a2):
    with pytest.raises(ValueError):
        verify_semiconjugacy(base_a2, spec_a2, 0)


def test_critical_values_per_case():
    td = theta_data(GAMMA0)
    cv2 = critical_values(LattesSpec(TorusParameter(GAMMA0), 2, "EvenZero"))
    assert len(cv2) == 3  # infinity, v, w; 0 is critical only for |a| >= 3
    assert any(p.is_infinity for p in cv2)
    cv3 = critical_values(LattesSpec(TorusParameter(GAMMA0), 3, "OddZero"))
    assert len(cv3) == 4
    assert any((not p.is_infinity) and abs(p.to_complex()) < 1e-12 for p in cv3)
    affine = [p.to_complex() for p in cv3 if not p.is_infinity]
    assert min(abs(z - td.w) for z in affine) < 1e-10


def test_postcritical_set_is_four_points(spec_a2):
    pc = postcritical_set(spec_a2)
    assert len(pc) == 4


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
    found = critical_points(f)
    assert sum(m for _, m in found) == 2 * a * a - 2


def test_json_round_trip(base_a2):
    doc = map_to_dict(base_a2)
    again = map_from_dict(doc)
    assert again.degree == base_a2.degree
    assert np.max(np.abs(again.num - base_a2.num)) < 1e-15
    assert np.max(np.abs(again.den - base_a2.den)) < 1e-15
    # renormalization on load is stable, not byte-idempotent (1-ulp lead wobble)
    third = map_from_dict(map_to_dict(again))
    assert np.max(np.abs(third.num - again.num)) < 1e-15
    assert np.max(np.abs(third.den - again.den)) < 1e-15


def test_semiconjugacy_seed_independent(spec_a2, base_a2):
    assert verify_semiconjugacy(base_a2, spec_a2, 40, seed=1) < 1e-9
    assert verify_semiconjugacy(base_a2, spec_a2, 40, seed=2) < 1e-9


@pytest.mark.parametrize("num,den,degree,message", [
    ([0, -1, 1], [0, 1, 1], 2, "share a root"),           # z(z - 1) / (z(z + 1))
    ([1, 1], [1], 2, "effective degree"),                 # degree 1 declared as 2
    ([0, 0], [0], 1, "identically zero"),
    ([1, float("nan")], [1], 1, "non-finite"),
    ([1, 0], [float("inf")], 1, "non-finite"),
    ([1, 0, 0, 1], [1], 2, "longer than degree"),
])
def test_map_check_refuses(num, den, degree, message):
    with pytest.raises(ValueError, match=message):
        RationalMapCoeffs(num=num, den=den, degree=degree)


def test_rescaled_map_skips_the_check_only(base_a2, monkeypatch):
    checked = RationalMapCoeffs(num=1.5j * base_a2.num, den=base_a2.den, degree=4)

    def refuse(*args):
        raise AssertionError("root check ran on a rescaled map")

    monkeypatch.setattr(lattes, "_root_separation", refuse)
    g = base_a2.rescaled(1.5j * base_a2.num, base_a2.den)
    assert np.array_equal(g.num, checked.num) and np.array_equal(g.den, checked.den)
    with pytest.raises(ValueError, match="identically zero"):
        base_a2.rescaled(0 * base_a2.num, 0 * base_a2.den)
