"""Torus quotient map: Weierstrass evaluation, branch values, identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lattes_forge import elliptic
from lattes_forge.elliptic import (
    TorusParameter,
    TorusPoint,
    half_periods,
    theta_data,
    theta_map,
    theta_map_affine,
    weierstrass_p,
    weierstrass_p_lattice_sum,
)
from lattes_forge.errors import LemmaViolation, PoleAtLatticePoint
from lattes_forge.perturbation import _is_half_lattice

from conftest import GAMMA0


def test_gamma_must_be_upper_half_plane():
    with pytest.raises(ValueError):
        TorusParameter(1.0 + 0j)
    with pytest.raises(ValueError):
        TorusParameter(0.3 - 0.2j)


def test_torus_point_exact_reduction():
    p = TorusPoint(Fraction(7, 3), Fraction(-1, 4)).reduced()
    assert p.s == Fraction(1, 3) and p.t == Fraction(3, 4)
    assert isinstance(p.s, Fraction)


def test_half_lattice_predicates():
    assert _is_half_lattice(TorusPoint(Fraction(1, 2), Fraction(0)))
    assert _is_half_lattice(TorusPoint(Fraction(1, 2), Fraction(1, 2)))
    assert not _is_half_lattice(TorusPoint(Fraction(1, 3), Fraction(0)))
    assert TorusPoint(Fraction(0), Fraction(0)).is_lattice_point()
    assert not TorusPoint(Fraction(1, 2), Fraction(0)).is_lattice_point()


def test_weierstrass_pole_at_lattice_point():
    with pytest.raises(PoleAtLatticePoint):
        weierstrass_p(TorusPoint(Fraction(0), Fraction(0)), 1j)


@pytest.mark.parametrize("gamma", [1j, GAMMA0])
def test_weierstrass_even_and_periodic(gamma):
    tau = TorusPoint(0.23, 0.31)
    neg = TorusPoint(-0.23, -0.31).reduced()
    shifted = TorusPoint(1.23, 0.31).reduced()
    p0 = weierstrass_p(tau, gamma)
    assert abs(weierstrass_p(neg, gamma) - p0) < 1e-11 * (1 + abs(p0))
    assert abs(weierstrass_p(shifted, gamma) - p0) < 1e-11 * (1 + abs(p0))


def test_weierstrass_matches_lattice_sum():
    # Richardson pair of box sums cancels the O(1/box^2) truncation tail
    rng = np.random.default_rng(7)
    for gamma in (1j, GAMMA0):
        for _ in range(5):
            s, t = rng.uniform(0.15, 0.85, 2)
            tau = TorusPoint(float(s), float(t))
            series = weierstrass_p(tau, gamma)
            s200 = weierstrass_p_lattice_sum(tau, gamma, box=200)
            s400 = weierstrass_p_lattice_sum(tau, gamma, box=400)
            oracle = (4.0 * s400 - s200) / 3.0
            assert abs(series - oracle) < 1e-8 * (1 + abs(series))


@pytest.mark.parametrize("gamma", [1j, GAMMA0, -0.2 + 0.9j])
def test_half_period_values_sum_to_zero(gamma):
    hp = half_periods(gamma)
    assert abs(hp.e1 + hp.e2 + hp.e3) < 1e-10 * max(1.0, abs(hp.e1))


def test_theta_map_evaluates_p_once(monkeypatch):
    # the half periods belong to the per-gamma context: once it exists, each
    # theta_map call away from the lattice costs exactly one P evaluation
    gamma = 0.15 + 1.05j
    theta_map(TorusPoint(0.1, 0.2), gamma)
    calls = []
    p_value = elliptic._TorusContext.p_value

    def counted(self, tau):
        calls.append(tau)
        return p_value(self, tau)

    monkeypatch.setattr(elliptic._TorusContext, "p_value", counted)
    points = [TorusPoint(0.05 * j, 0.3 + 0.02 * j) for j in range(1, 8)]
    for tau in points:
        theta_map(tau, gamma)
    assert calls == points


def test_theta_data_refusal_is_not_cached():
    # a degenerate lattice (nome ~ 1e-13) is refused on every call
    for _ in range(2):
        with pytest.raises(LemmaViolation):
            theta_data(0.1 + 9.5j)


@pytest.mark.parametrize("gamma", [1j, GAMMA0])
def test_theta_branch_values(gamma):
    td = theta_data(gamma)
    v = theta_map(TorusPoint(Fraction(1, 2), Fraction(0)), gamma)
    w = theta_map(TorusPoint(Fraction(0), Fraction(1, 2)), gamma)
    pole = theta_map(TorusPoint(Fraction(1, 2), Fraction(1, 2)), gamma)
    zero = theta_map(TorusPoint(Fraction(0), Fraction(0)), gamma)
    assert abs(v.to_complex() - 1.0) < 1e-12
    assert abs(w.to_complex() - td.w) < 1e-12
    assert pole.is_infinity
    assert abs(zero.to_complex()) < 1e-14
    assert td.v == 1.0


def test_theta_is_even():
    tau = TorusPoint(0.27, 0.41)
    neg = TorusPoint(-0.27, -0.41).reduced()
    a = theta_map_affine(tau, GAMMA0)
    b = theta_map_affine(neg, GAMMA0)
    assert abs(a - b) < 1e-11 * (1 + abs(a))


def test_square_lattice_symmetry():
    td = theta_data(1j)
    assert abs(td.w + 1.0) < 1e-10
    assert abs(td.lam - td.mu) < 2e-10 * abs(td.lam)


def test_theta_data_frozen_regression():
    td = theta_data(GAMMA0)
    assert abs(td.w - (-0.2504690658652717 + 1.2057480629748j)) < 1e-12
    assert abs(td.lam - (-11.32859227638371 - 3.3372107638099995j)) < 1e-10
    assert abs(td.mu - (-6.861297339207706 + 12.823560130771947j)) < 1e-10
    assert abs(td.kappa - (-13.444526261119451 - 23.6387731285017j)) < 1e-9


@pytest.mark.parametrize("gamma", [1j, GAMMA0, 0.1 + 1.4j])
def test_branch_derivative_identity(gamma):
    # lam/v + mu/w = 0 and the two kappa expressions agree
    td = theta_data(gamma)
    assert abs(td.lam / td.v + td.mu / td.w) < 1e-8
    kappa_other = 4.0 * td.lam / (td.v * (td.v - td.w))
    assert abs(kappa_other - td.kappa) < 1e-8
