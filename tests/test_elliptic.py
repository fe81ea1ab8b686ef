"""Torus quotient map: Weierstrass evaluation, branch values, identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattes_forge import elliptic
from lattes_forge.elliptic import (
    TorusParameter,
    TorusPoint,
    half_periods,
    measured_theta_data,
    theta_data,
    theta_map,
)
from lattes_forge.errors import IllConditioned

from conftest import GAMMA0
from oracles import (
    PoleAtLatticePoint,
    is_half_lattice,
    theta_series_per_call,
    weierstrass_p,
    weierstrass_p_lattice_sum,
)

centered = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


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
    assert is_half_lattice(TorusPoint(Fraction(1, 2), Fraction(0)))
    assert is_half_lattice(TorusPoint(Fraction(1, 2), Fraction(1, 2)))
    assert not is_half_lattice(TorusPoint(Fraction(1, 3), Fraction(0)))
    assert elliptic._on_lattice(*TorusPoint(Fraction(0), Fraction(0)).centered())
    assert not elliptic._on_lattice(*TorusPoint(Fraction(1, 2), Fraction(0)).centered())


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
    e1, e2, e3 = half_periods(gamma)
    assert abs(e1 + e2 + e3) < 1e-10 * max(1.0, abs(e1))


def test_theta_map_evaluates_p_once(monkeypatch):
    # the half periods belong to the per-gamma context: once it exists, each
    # theta_map call away from the lattice costs exactly one P evaluation
    gamma = 0.15 + 1.05j
    theta_map(TorusPoint(0.1, 0.2), gamma)
    calls = []
    p_centered = elliptic._TorusContext.p_centered

    def counted(self, s, t):
        calls.append((s, t))
        return p_centered(self, s, t)

    monkeypatch.setattr(elliptic._TorusContext, "p_centered", counted)
    points = [TorusPoint(0.05 * j, 0.3 + 0.02 * j) for j in range(1, 8)]
    for tau in points:
        theta_map(tau, gamma)
    assert calls == [tau.centered() for tau in points]


@given(re=st.floats(min_value=-0.5, max_value=0.5), im=st.floats(min_value=0.3, max_value=3.0),
       s=centered, t=centered)
def test_theta_series_reads_kept_nome_powers_bit_for_bit(re, im, s, t):
    # the lattice keeps its nome powers and extends them as a series first
    # reaches a term; every value equals the series that recomputes each power
    gamma = complex(re, im)
    ctx = elliptic._context(gamma)
    v = math.pi * (s + t * gamma)
    for kind, kept in ((1, ctx.half_powers), (2, ctx.half_powers),
                       (3, ctx.whole_powers), (4, ctx.whole_powers)):
        fresh = [] if kind < 3 else [1.0 + 0j]
        expect = theta_series_per_call(kind, v, ctx.lq)
        assert elliptic._theta(kind, v, ctx.lq, kept) == expect
        assert elliptic._theta(kind, v, ctx.lq, fresh) == expect
        assert fresh == kept[:len(fresh)]


def test_theta_data_refusal_is_not_cached():
    # a tall lattice (nome ~ 1e-13) is refused on every call: its half-period
    # values are distinct, but closer than double precision separates
    for _ in range(2):
        with pytest.raises(IllConditioned):
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
    a = theta_map(tau, GAMMA0).to_complex()
    b = theta_map(neg, GAMMA0).to_complex()
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
    kappa = 4.0 * td.lam / (td.v * (td.v - td.w))
    assert abs(kappa - (-13.444526261119451 - 23.6387731285017j)) < 1e-9


@pytest.mark.parametrize("gamma", [1j, GAMMA0, 0.1 + 1.4j, 0.1 + 0.3j, 0.1 + 0.2j])
def test_branch_derivative_identity(gamma):
    # lam/v + mu/w = 0 and the two kappa expressions agree, as measured
    td = measured_theta_data(gamma)
    assert abs(td.lam / td.v + td.mu / td.w) < 1e-8
    kappa = 4.0 * td.lam / (td.v * (td.v - td.w))
    kappa_other = 4.0 * td.mu / (td.w * (td.w - td.v))
    assert abs(kappa_other - kappa) < 1e-8
