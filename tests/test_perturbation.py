"""Marked points, tracked limits, collision solving, and the construction."""

import dataclasses
from fractions import Fraction

import pytest

import lattes_forge.lattes as lattes
import lattes_forge.perturbation as perturbation
from lattes_forge.dynamics import SpherePoint, continue_cycle, eval_map, orbit, spherical_distance
from lattes_forge.elliptic import TorusParameter, TorusPoint, theta_data, theta_map
from lattes_forge.errors import (
    BranchAmbiguity,
    CoprimalityViolation,
    NotPCF,
    PrecisionExhausted,
)
from lattes_forge.lattes import LattesSpec
from lattes_forge.perturbation import (
    PerturbedFamily,
    _collision_pair,
    base_map_for,
    case_response_constant,
    certify_strictly_pcf,
    closed_form_rescaled_root,
    convergence_table,
    make_marked_point,
    rescaled_collision_fn,
    solve_collision,
    solve_gamma_k,
    standard_parameters,
    track_marked_point,
    tracked_limits,
    verify_lemma3,
)

from conftest import GAMMA0

GAMMA5 = complex(0.2, 1.0)  # base point for a = 3 (x0 = 1/5)


def spec_for(a: int, case: str, gamma: complex) -> LattesSpec:
    return LattesSpec(TorusParameter(gamma), a, case)


def test_standard_parameters_values(pair_a2):
    assert (pair_a2.alpha, pair_a2.alpha_prime) == (Fraction(-1, 3), Fraction(1))
    assert (pair_a2.beta, pair_a2.beta_prime) == (Fraction(1), Fraction(0))
    assert abs(pair_a2.offset("X", GAMMA0) - 1j) < 1e-15  # sigma(gamma0) = i
    assert pair_a2.offset("Y", GAMMA0) == 1.0


def test_standard_parameters_rejections():
    with pytest.raises(CoprimalityViolation):
        standard_parameters(Fraction(1, 3), Fraction(1), 3)
    with pytest.raises(CoprimalityViolation):
        standard_parameters(Fraction(1, 2), Fraction(1), 3)
    with pytest.raises(CoprimalityViolation):
        standard_parameters(Fraction(1, 5), Fraction(1, 3), 3)
    with pytest.raises(ValueError):
        standard_parameters(Fraction(1, 3), Fraction(-1), 2)
    standard_parameters(Fraction(1, 5), Fraction(1), 3)  # coprime: accepted


def test_marked_point_exact_itinerary(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 3, "X")
    assert (mx.exact_preperiod, mx.exact_period) == (3, 1)
    assert mx.pullback_trackable and not mx.postcritical_landing
    assert abs(mx.certificate.cycle.multiplier - (-2.0)) < 1e-6
    my = make_marked_point(spec_a2, pair_a2, 3, "Y")
    assert (my.exact_preperiod, my.exact_period) == (3, 1)
    assert my.postcritical_landing and not my.pullback_trackable
    assert abs(my.certificate.cycle.multiplier - 4.0) < 1e-6
    landing = my.forward_orbit[my.exact_preperiod]
    assert spherical_distance(landing, SpherePoint.zero()) < 1e-12


def test_marked_point_argument_checks(spec_a2, pair_a2):
    with pytest.raises(ValueError):
        make_marked_point(spec_a2, pair_a2, 0, "X")
    with pytest.raises(ValueError):
        make_marked_point(spec_a2, pair_a2, 3, "Q")


def test_even_case_orbit_reaches_theta_of_sigma(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 4, "X")
    sigma_addr = TorusPoint(pair_a2.alpha, pair_a2.alpha_prime).reduced()
    target = theta_map(sigma_addr, GAMMA0)
    assert spherical_distance(mx.forward_orbit[4], target) < 1e-10


def test_half_translated_even_k_orbit_endpoint():
    spec = spec_for(3, "OddHalf", GAMMA5)
    pair = standard_parameters(Fraction(1, 5), Fraction(1), 3)
    mx = make_marked_point(spec, pair, 4, "X")
    shifted = TorusPoint(Fraction(1, 2) + pair.alpha, pair.alpha_prime).reduced()
    target = theta_map(shifted, GAMMA5)
    assert spherical_distance(mx.forward_orbit[4], target) < 1e-10


def test_marked_points_tend_to_first_branch_value(spec_a2, pair_a2):
    v = SpherePoint.from_complex(theta_data(GAMMA0).v)
    gaps = [spherical_distance(make_marked_point(spec_a2, pair_a2, k, "X").position, v)
            for k in range(3, 7)]
    for near, far in zip(gaps[1:], gaps):
        assert 0.15 < near / far < 0.4  # quadratic address offset: factor ~ 1/4


def test_track_identity_at_zero(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 3, "X")
    fam = PerturbedFamily(spec_a2, base_map_for(spec_a2), 0.0)
    assert track_marked_point(fam, mx, 0.0) is mx.position


def test_track_equivariance(spec_a2, pair_a2):
    # after the preperiod, the tracked point must sit on the continued cycle
    t = 1e-4 + 5e-5j
    mx = make_marked_point(spec_a2, pair_a2, 3, "X")
    base = base_map_for(spec_a2)
    fam = PerturbedFamily(spec_a2, base, t)
    moved = track_marked_point(fam, mx, t)
    cont = continue_cycle(base, mx.certificate.cycle, fam.member)
    z = moved
    for _ in range(mx.exact_preperiod):
        z = eval_map(fam.member, z)
    gap = min(spherical_distance(z, p) for p in cont.points)
    assert gap < 1e-8


def test_track_refuses_untrackable_orbit(spec_a2, pair_a2):
    my = make_marked_point(spec_a2, pair_a2, 3, "Y")
    fam = PerturbedFamily(spec_a2, base_map_for(spec_a2), 1e-4)
    with pytest.raises(BranchAmbiguity):
        track_marked_point(fam, my, 1e-4)


def test_scaled_family_keeps_zero_fixed(spec_a2):
    fam = PerturbedFamily(spec_a2, base_map_for(spec_a2), 1e-3)
    img = eval_map(fam.member, SpherePoint.zero())
    assert spherical_distance(img, SpherePoint.zero()) < 1e-12


def test_perturbed_family_rejects_degenerate_t(spec_a2):
    with pytest.raises(ValueError):
        PerturbedFamily(spec_a2, base_map_for(spec_a2), -1.0)


def test_collision_solve_checks_no_derived_map(spec_a2, pair_a2, monkeypatch):
    # the base map is checked once when it is fit; scaling-family members and
    # continuation interpolants only rescale it, so the root check never runs
    base_map_for(spec_a2)
    calls = []
    check = lattes._root_separation
    monkeypatch.setattr(lattes, "_root_separation",
                        lambda *args: calls.append(1) or check(*args))
    cs, ct = _collision_pair(spec_a2, pair_a2, 3)
    assert abs(cs.rescaled) > 0 and abs(ct.rescaled) > 0
    assert len(calls) == 0


@pytest.mark.parametrize("a,case,gamma,expected", [
    (2, "EvenZero", GAMMA0, 0.0),
    (3, "OddZero", GAMMA5, -0.125),   # v / (1 - a^2)
    (3, "OddHalf", GAMMA5, 0.1),      # (1 - a^2) / (1 - a^4) * v
])
def test_tracked_limits_match_closed_forms(a, case, gamma, expected):
    spec = spec_for(a, case, gamma)
    tl = tracked_limits(spec)
    assert abs(tl.x_dot - expected) < 1e-6
    assert tl.v_dot == theta_data(gamma).v
    assert tl.w_dot == theta_data(gamma).w


@pytest.mark.parametrize("a,case", [(2, "EvenZero"), (3, "OddZero"), (3, "OddHalf")])
@pytest.mark.parametrize("gamma", [1j, GAMMA0])
def test_response_constant_all_cases_and_lattices(a, case, gamma):
    spec = spec_for(a, case, gamma)
    report = verify_lemma3(spec)
    assert abs(report.c_measured - report.c_expected) < 1e-6
    assert abs(report.c_from_v_side - report.c_from_w_side) < 1e-6
    assert report.c_expected == case_response_constant(spec)


def test_cross_lemma_consistency(spec_a2):
    # -(x_dot - v_dot)/lam = (y_dot - w_dot)/mu ties both branch responses
    tl = tracked_limits(spec_a2)
    td = theta_data(GAMMA0)
    left = -(tl.x_dot - tl.v_dot) / td.lam
    right = (tl.y_dot - tl.w_dot) / td.mu
    assert abs(left - right) < 1e-6


def test_rescaled_fn_limit_at_zero(spec_a2, pair_a2):
    td = theta_data(GAMMA0)
    sigma = pair_a2.offset("X", GAMMA0)
    limit = td.lam * sigma * sigma
    devs = []
    for k in (6, 8):
        mx = make_marked_point(spec_a2, pair_a2, k, "X")
        devs.append(abs(rescaled_collision_fn(spec_a2, mx, 0.0) - limit))
    assert devs[0] < 2e-2 and devs[1] < 2e-3
    assert devs[1] < devs[0] / 4


def test_rescaled_fn_affine_slope(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 10, "X")
    tl = tracked_limits(spec_a2)
    u = 0.5
    slope = (rescaled_collision_fn(spec_a2, mx, u) - rescaled_collision_fn(spec_a2, mx, 0.0)) / u
    assert abs(slope - (tl.x_dot - tl.v_dot)) < 1e-4


def test_collision_frozen_root(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 4, "X")
    res = solve_collision(spec_a2, mx)
    assert abs(res.rescaled - (10.879465552461262 + 2.340911504788023j)) < 1e-6
    assert res.residual < 1e-11
    assert abs(res.value - res.rescaled / 256.0) < 1e-18


def test_collision_point_meets_critical_value(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 4, "X")
    s4 = solve_collision(spec_a2, mx).value
    fam = PerturbedFamily(spec_a2, base_map_for(spec_a2), s4)
    moved = track_marked_point(fam, mx, s4)
    cv = SpherePoint.from_complex((1.0 + s4) * theta_data(GAMMA0).v)
    assert spherical_distance(moved, cv) < 1e-9


def test_collision_values_shrink(collision_rows):
    s_sizes = [abs(cs.value) for _, cs, _ in collision_rows]
    t_sizes = [abs(ct.value) for _, _, ct in collision_rows]
    assert all(b < a for a, b in zip(s_sizes, s_sizes[1:]))
    assert all(b < a for a, b in zip(t_sizes, t_sizes[1:]))
    assert s_sizes[-1] < s_sizes[0] / 30  # ~ a^(-2k) decay


def test_rescaled_and_naive_solves_agree(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 3, "X")
    fast = solve_collision(spec_a2, mx, rescale=True)
    slow = solve_collision(spec_a2, mx, rescale=False)
    assert abs(fast.value - slow.value) < 1e-10


def test_collision_seed_matches_closed_form(spec_a2, pair_a2, collision_rows):
    mx = make_marked_point(spec_a2, pair_a2, 6, "X")
    u_limit = closed_form_rescaled_root(spec_a2, mx)
    _, cs6, _ = collision_rows[-1]
    assert abs(cs6.rescaled - u_limit) < 0.2 * abs(u_limit)


def test_precision_ceiling_raises(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 4, "X")
    deep = dataclasses.replace(mx, k=14)  # eps * 4^14 = 6e-8 over the 1e-8 limit
    with pytest.raises(PrecisionExhausted):
        solve_collision(spec_a2, deep)


@pytest.mark.parametrize("k", [10, 11])
def test_collision_solves_at_the_resolution_of_t(spec_a2, pair_a2, k):
    # the 1e-12 residual target lies under the misfit's rounding noise here
    for family in ("X", "Y"):
        marked = make_marked_point(spec_a2, pair_a2, k, family)
        res = solve_collision(spec_a2, marked)
        u_limit = closed_form_rescaled_root(spec_a2, marked)
        assert abs(res.rescaled - u_limit) < 0.02 * abs(u_limit)
        assert res.residual < 1e-9


def test_marked_points_certified_at_k12(spec_a2, pair_a2):
    mx = make_marked_point(spec_a2, pair_a2, 12, "X")
    my = make_marked_point(spec_a2, pair_a2, 12, "Y")
    for marked, mult in ((mx, -2.0), (my, 4.0)):
        assert (marked.exact_preperiod, marked.exact_period) == (12, 1)
        assert marked.certificate.preperiod == 12 and marked.certificate.repelling
        assert abs(marked.certificate.cycle.multiplier - mult) < 1e-6


def test_marked_point_refuses_k13(spec_a2, pair_a2):
    with pytest.raises(PrecisionExhausted):
        make_marked_point(spec_a2, pair_a2, 13, "X")


def test_gamma_solve_refuses_tolerance_below_resolution(spec_a2, pair_a2):
    with pytest.raises(PrecisionExhausted):
        solve_gamma_k(spec_a2, pair_a2, 12)


def test_convergence_table_marks_exhausted_rows(spec_a2, pair_a2):
    table = convergence_table(spec_a2, pair_a2, range(13, 15), solve_construction=False)
    assert [row.status for row in table.rows] == ["precision_exhausted"] * 2
    assert [row.k for row in table.rows] == [13, 14]


def test_convergence_table_small_k_transient(spec_a2, pair_a2):
    table = convergence_table(spec_a2, pair_a2, range(1, 4), solve_construction=False)
    assert [row.asymptotic for row in table.rows] == [False, False, True]
    assert all(row.status == "ok" for row in table.rows)


def test_convergence_table_monotonic_deviation(spec_a2, pair_a2):
    table = convergence_table(spec_a2, pair_a2, range(3, 6), solve_construction=False)
    assert table.monotonic_deviation
    devs = [row.deviation for row in table.rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_gamma_solve_frozen_k3(construction_results):
    built = construction_results[0]
    assert abs(built.gamma_k - (0.11317737693245941 + 1.243695463760073j)) < 1e-8
    assert abs(built.r_k - (0.2477692621286274 + 0.012532118265764175j)) < 1e-8
    assert built.postcritical_count == 9
    assert all(c.repelling for c in built.certificates)


def test_gamma_solve_deterministic(spec_a2, pair_a2, construction_results):
    again = solve_gamma_k(spec_a2, pair_a2, 3)
    assert again.gamma_k == construction_results[0].gamma_k
    assert again.r_k == construction_results[0].r_k


def test_convergence_row_solves_the_base_pair_once(spec_a2, pair_a2, construction_results,
                                                   monkeypatch):
    # the row solves the collision pair at gamma0 once and the gamma secant
    # starts from it; the secant then makes six seeded solves at k = 3
    seeds = []
    inner = perturbation._collision_pair
    monkeypatch.setattr(perturbation, "_collision_pair",
                        lambda *args, **kwargs: seeds.append(kwargs.get("seeds")) or inner(*args, **kwargs))
    row = convergence_table(spec_a2, pair_a2, [3]).rows[0]
    assert len(seeds) == 7
    assert seeds[0] is None and all(None not in s for s in seeds[1:])
    assert row.gamma_k == construction_results[0].gamma_k
    assert row.r_k == construction_results[0].r_k


def test_gamma_solve_approaches_base(construction_results):
    gaps = [abs(b.gamma_k - GAMMA0) for b in construction_results]
    radii = [abs(b.r_k) for b in construction_results]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_certify_base_map_has_four_postcritical_points(spec_a2, base_a2):
    td = theta_data(GAMMA0)
    crit = [SpherePoint.infinity(), SpherePoint.from_complex(td.v),
            SpherePoint.from_complex(td.w)]
    certs, count = certify_strictly_pcf(base_a2, crit)
    assert count == 4
    assert all(c.repelling for c in certs)


def test_certify_rejects_generic_perturbation(spec_a2, base_a2):
    td = theta_data(GAMMA0)
    t = 1e-3  # not a collision parameter
    fam = PerturbedFamily(spec_a2, base_a2, t)
    crit = [SpherePoint.infinity(), SpherePoint.from_complex((1 + t) * td.v),
            SpherePoint.from_complex((1 + t) * td.w)]
    with pytest.raises(NotPCF):
        certify_strictly_pcf(fam.member, crit, max_iter=300)
