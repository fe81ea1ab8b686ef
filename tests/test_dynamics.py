"""Chart-safe sphere dynamics: evaluation, cycles, pullbacks, rendering."""

import cmath
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattes_forge import dynamics
from lattes_forge.dynamics import (
    SpherePoint,
    chart_derivative,
    classify_orbit,
    continue_cycle,
    critical_points,
    eval_map,
    find_cycle,
    julia_render,
    multiplier,
    orbit,
    pullback_branch,
    ppm_bytes,
    roots,
    spherical_distance,
)
from lattes_forge.elliptic import TorusParameter
from lattes_forge.errors import BranchAmbiguity, IndeterminatePoint
from lattes_forge.lattes import LattesSpec, RationalMapCoeffs, build_rational_map

from oracles import mobius_conjugate, preimages, trimmed

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
from workloads import GREEN_SHARE_TOL, RED_AGREE, RED_LEVELS  # noqa: E402  (the bench's render check)


@pytest.fixture
def z2():
    return RationalMapCoeffs(num=[0, 0, 1], den=[1], degree=2)


def test_sphere_point_round_trip():
    for x in (0.5 + 0.25j, 3e8 - 1e7j, 1e-9j):
        p = SpherePoint.from_complex(x)
        assert abs(p.to_complex() - x) < 1e-12 * abs(x)
    assert SpherePoint.infinity().is_infinity
    with pytest.raises(ZeroDivisionError):
        SpherePoint.infinity().to_complex()
    with pytest.raises(ValueError):
        SpherePoint.make(0j, 0j)


def test_spherical_distance_normalization():
    zero, inf = SpherePoint.zero(), SpherePoint.infinity()
    assert abs(spherical_distance(zero, inf) - 1.0) < 1e-15
    assert spherical_distance(zero, zero) == 0.0
    a, b = SpherePoint.from_complex(1.0), SpherePoint.from_complex(1.0 + 1e-8j)
    assert 0 < spherical_distance(a, b) < 1e-8


def test_eval_map_charts(z2):
    assert abs(eval_map(z2, SpherePoint.from_complex(2.0)).to_complex() - 4.0) < 1e-14
    assert eval_map(z2, SpherePoint.infinity()).is_infinity
    assert abs(eval_map(z2, SpherePoint.from_complex(4e200)).coord(1)) < 1e-300


def test_eval_map_refuses_common_zero():
    # z (z - 1) / (z (z + 2)), built without the map check, is 0/0 at z = 0
    f = SimpleNamespace(num=[0, -1, 1], den=[0, 2, 1], degree=2, abs_sum=5.0)
    with pytest.raises(IndeterminatePoint):
        eval_map(f, SpherePoint.zero())


def test_eval_map_floor_is_relative_to_the_coefficients():
    # (z^9 - a)/(z^9 - b) at z = 0.1: |P| = |Q| = 6e-13, below the old absolute
    # floor 1e-12, while the coefficient sum there is about 4e-9 and P/Q = -i
    a, b = 1e-9 - 6e-13, 1e-9 - 6e-13j
    f = RationalMapCoeffs(num=[-a] + [0] * 8 + [1], den=[-b] + [0] * 8 + [1], degree=9)
    image = eval_map(f, SpherePoint.from_complex(0.1))
    assert abs(image.to_complex() + 1j) < 1e-9


def test_orbit_length(z2):
    pts = orbit(z2, SpherePoint.from_complex(0.5), 5)
    assert len(pts) == 6
    assert abs(pts[3].to_complex() - 0.5 ** 8) < 1e-15


def test_critical_points_z2(z2):
    found = critical_points(z2)
    assert len(found) == 2  # 2D - 2
    assert abs(found[0].to_complex()) < 1e-15 and found[1].is_infinity


def test_critical_points_keep_close_zeros_apart():
    # z^3 - 3e-10 z has the critical points +-1e-5 (and a double one at
    # infinity); no clustering radius merges the two finite ones into 0
    f = RationalMapCoeffs(num=[0, -3e-10, 0, 1], den=[1, 0, 0, 0], degree=3)
    found = critical_points(f)
    assert len(found) == 4
    assert [p.is_infinity for p in found] == [False, False, True, True]
    lo, hi = (p.to_complex() for p in found[:2])
    assert abs(lo + 1e-5) < 1e-15 and abs(hi - 1e-5) < 1e-15


def test_find_cycle_fixed_point(z2):
    c = find_cycle(z2, SpherePoint.from_complex(1.05 - 0.04j), 1)
    assert abs(c.points[0].to_complex() - 1.0) < 1e-12
    assert abs(c.multiplier - 2.0) < 1e-10
    assert c.repelling


def test_find_cycle_period_two_repelling(z2):
    # primitive cube roots of unity form the period-2 cycle of z^2
    w = np.exp(2j * np.pi / 3)
    c = find_cycle(z2, SpherePoint.from_complex(w * 1.03), 2)
    assert abs(c.multiplier - 4.0) < 1e-10
    assert c.repelling
    vals = sorted(np.angle(p.to_complex()) for p in c.points)
    assert abs(vals[0] + 2 * np.pi / 3) < 1e-10 and abs(vals[1] - 2 * np.pi / 3) < 1e-10


def test_multiplier_mobius_invariant(z2):
    mob = (1.0, 1.0, 0.5, 1.0)
    g = mobius_conjugate(z2, mob)
    w = np.exp(2j * np.pi / 3)
    seed = (w + 1) / (0.5 * w + 1)
    c = find_cycle(g, SpherePoint.from_complex(seed), 2)
    assert abs(c.multiplier - 4.0) < 1e-9


def test_multiplier_of_listed_cycle(z2):
    w = np.exp(2j * np.pi / 3)
    pts = [SpherePoint.from_complex(w), SpherePoint.from_complex(w * w)]
    assert abs(multiplier(z2, pts) - 4.0) < 1e-12


def test_continue_cycle_scaling_family(z2):
    c0 = find_cycle(z2, SpherePoint.from_complex(1.0), 1)
    c1 = continue_cycle(lambda s: z2.scaled(1.0 + 0.01 * s), c0)
    # fixed point of 1.01 z^2 is 1/1.01
    assert abs(c1.points[0].to_complex() - 1 / 1.01) < 1e-10


def test_preimages_full_fiber(z2):
    pre = preimages(z2, SpherePoint.from_complex(4.0))
    vals = sorted(p.to_complex().real for p in pre)
    assert len(pre) == 2
    assert abs(vals[0] + 2.0) < 1e-10 and abs(vals[1] - 2.0) < 1e-10


def test_pullback_branch_selects_nearest(z2):
    target = SpherePoint.from_complex(4.0)
    assert abs(pullback_branch(z2, target, SpherePoint.from_complex(2.2)).to_complex() - 2.0) < 1e-10
    assert abs(pullback_branch(z2, target, SpherePoint.from_complex(-1.8)).to_complex() + 2.0) < 1e-10


def test_pullback_branch_rejects_critical_neighborhood(z2):
    with pytest.raises(BranchAmbiguity):
        pullback_branch(z2, SpherePoint.from_complex(1e-18), SpherePoint.from_complex(1e-9))


def test_classify_orbit_preperiodic(z2):
    cert = classify_orbit(z2, SpherePoint.from_complex(-1.0))
    assert cert.preperiod == 1 and cert.cycle.period == 1
    assert cert.cycle.repelling and cert.landing_residual < 1e-10
    # 1e-6 off -1 the orbit returns near the fixed point 1, which is proposed,
    # but pulled back it lands 5e-7 from the start, above tol: refused
    assert classify_orbit(z2, SpherePoint.from_complex(-1 + 1e-6j), max_iter=30) is None


def test_classify_orbit_through_a_critical_point():
    # Chebyshev z^2 - 2: 0 -> -2 -> 2, the fixed point of multiplier 4; the
    # pullback of -2 meets the critical point 0, a fold, where the exact
    # preimage nearest the iterate, 0 itself, is taken
    cheb = RationalMapCoeffs(num=[-2, 0, 1], den=[1], degree=2)
    cert = classify_orbit(cheb, SpherePoint.zero())
    assert (cert.preperiod, cert.cycle.period) == (2, 1)
    assert abs(cert.cycle.multiplier - 4.0) < 1e-12
    assert cert.landing_residual < 1e-12
    assert [p.to_complex() for p in cert.points] == [0, -2, 2]
    # from 3e-5, 1e-6 or 1e-8 the orbit maps within 1e-9 of -2 and returns
    # to 2, so a cycle is proposed, but the only preimage of -2 there is 0,
    # farther than tol from the start: all are refused.  From 1e-8 the image
    # rounds to -2 exactly, so only the exact preimage tells; from 1e-6 the
    # pulled-back -2 is 1e-12 off, which the fold's error bound turns into 1e-6
    for start in (3e-5, 1e-6, 1e-8, 1e-3):
        assert classify_orbit(cheb, SpherePoint.from_complex(start)) is None
    # a late chance return is not proposed: the return must come to an
    # iterate within the first _WINDOW (from 1e-4 the orbit returns within
    # sqrt(tol) to a period-13 cycle near iterate 1450)
    assert classify_orbit(cheb, SpherePoint.from_complex(1e-4), max_iter=2000) is None


def test_known_defect_classify_orbit_certifies_a_chance_return():
    """Known defect: z^2 - 2 doubles the angle of 2 cos(theta), so its points
    of preperiod n onto the fixed point 2, 2 cos(2 pi j/2^n), lie within
    7.3e-10 of each other from n = 34 on, and every start on [-2, 2] is
    within tol = 1e-9 of one.  From 1.234 the forward orbit, which by then
    keeps none of its digits, returns to 2 at iterate 35, and the backward
    pass finds such a point: a chance return certified as preperiod 35,
    period 1.  Checking each verdict against the portrait predicted from the
    torus (ROADMAP item 24) and stating what certify decides for a bare map
    (item 26) are the changes expected to flip this test."""
    cheb = RationalMapCoeffs(num=[-2, 0, 1], den=[1], degree=2)
    cert = classify_orbit(cheb, SpherePoint.from_complex(1.234))
    assert (cert.preperiod, cert.cycle.period) == (35, 1)
    assert abs(cert.cycle.multiplier - 4.0) < 1e-12
    assert cert.landing_residual < 1e-12


def test_classify_orbit_attracting_landing(z2):
    cert = classify_orbit(z2, SpherePoint.from_complex(1.5), max_iter=60)
    assert not cert.cycle.repelling  # superattracting infinity


def test_classify_orbit_attracting_cycle_is_not_pulled_back():
    # z^2 + 0.1: the critical value 0.1 tends to the fixed point
    # (1 - sqrt(0.6)) / 2 of multiplier 0.2254, which attracts, so the orbit
    # never lands on it; the cycle is returned as the orbit reached it, at
    # the first proposal, not pulled back
    quad = RationalMapCoeffs(num=[0.1, 0, 1], den=[1], degree=2)
    cert = classify_orbit(quad, SpherePoint.from_complex(0.1), max_iter=300, tol=1e-8)
    assert abs(cert.cycle.multiplier - (1 - 0.6 ** 0.5)) < 1e-12
    assert cert.preperiod == 4 and cert.landing_residual < 1e-4


def test_julia_render_deterministic(z2):
    buf = julia_render(z2, 16, 16, max_iter=10)
    assert buf.shape == (16, 16, 3) and buf.dtype == np.uint8
    assert np.array_equal(buf, julia_render(z2, 16, 16, max_iter=10))
    data = ppm_bytes(buf)
    assert data.startswith(b"P6\n16 16\n255\n")
    assert len(data) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3


def test_julia_render_escape_contrast(z2):
    # unit circle is the Julia set; inside and far outside both converge
    buf = julia_render(z2, 33, 33, max_iter=24, span=2.0)
    center = buf[16, 16].astype(int)
    edge = buf[0, 0].astype(int)
    assert abs(int(center.sum()) - int(edge.sum())) < 120  # both quiet regions
    ring = buf[16, 24].astype(int)  # near |z| = 1
    assert int(ring.sum()) != int(center.sum())


def reference_render(f, width: int, height: int, max_iter: int, span: float = 2.0,
                     dtype=np.complex64) -> np.ndarray:
    """Reference oracle: a full-grid render kernel that julia_render must match
    bit for bit at dtype complex64; at dtype complex it is the same kernel in
    double precision.

    Every temporary spans the whole grid, and each pixel's chart coefficients,
    ascending in chart 0 and reversed in chart 1, are chosen by np.where.  A
    pixel carries its chart coordinate xi and its last image (p : q); the
    first xi is z or 1/z in double, for the grid point z = span u, before the
    cast to dtype.  The spherical derivative reads the Wronskian, of degree
    2D - 2, and its logarithm is floored at 1e-300 in double.
    """
    polys = [np.asarray(c, dtype=dtype) for c in (f.num, f.den, dynamics._wronskian(f.num, f.den))]
    X, Y = np.meshgrid(np.linspace(-1.0, 1.0, width), np.linspace(-1.0, 1.0, height))
    u = (X + 1j * Y).ravel()
    far = np.abs(u) > 1.0 / span
    z = span * u
    z[far] = 1.0 / u[far] / span
    z = z.astype(dtype)
    p, q = np.where(far, 1, z), np.where(far, z, 1)
    log_acc = np.zeros(p.shape, dtype=float)
    for _ in range(max_iter):
        chart0 = np.abs(q) >= np.abs(p)
        xi = np.where(chart0, p, q) / np.where(chart0, q, p)
        values = []
        for c in polys:
            v = np.where(chart0, c[-1], c[0])
            for k in range(len(c) - 2, -1, -1):
                v = v * xi + np.where(chart0, c[k], c[-1 - k])
            values.append(v)
        p, q, w = values
        sph = np.abs(w) * (1.0 + np.abs(xi) ** 2) / (np.abs(p) ** 2 + np.abs(q) ** 2)
        log_acc += np.log(np.maximum(sph, 1e-300, dtype=float))
    lyap = log_acc / max_iter
    bounded_end = np.abs(q) >= np.abs(p)
    escaped = np.abs(q) < 1e-6 * np.abs(p)
    ramp = np.clip(128.0 + 28.0 * lyap, 0.0, 254.0).astype(np.uint8)
    r = ramp
    g = np.where(bounded_end, 255, 80).astype(np.uint8)
    b = np.where(escaped, 255, ramp).astype(np.uint8)
    return np.stack([r, g, b], axis=-1).reshape(height, width, 3)


@pytest.fixture(scope="module")
def base_a3():
    return build_rational_map(LattesSpec(TorusParameter(0.2 + 1j), 3, "OddHalf"))


@pytest.fixture
def render_maps(z2, base_a2, base_a3):
    # a2c: complex coefficients and no Lattes map, so no symmetry of the
    # picture can hide a wrong conjugate or a wrong chart
    return {"z2": z2, "a2": base_a2, "a3": base_a3, "a2c": base_a2.scaled(1 + 0.01j)}


@pytest.mark.parametrize("name", ["z2", "a2", "a3", "a2c"])
@pytest.mark.parametrize("width,height,max_iter", [
    (16, 16, 10),
    (97, 91, 4),  # 8,827 pixels: a full block and a ragged one
])
def test_julia_render_matches_reference(render_maps, name, width, height, max_iter):
    f = render_maps[name]
    expected = reference_render(f, width, height, max_iter)
    assert np.array_equal(julia_render(f, width, height, max_iter=max_iter), expected)


@pytest.mark.parametrize("name", ["z2", "a2", "a3", "a2c"])
def test_julia_render_red_is_the_spherical_derivative(render_maps, name):
    # one iteration: red is floor(128 + 28 log s) with s the spherical
    # derivative, here from a chart derivative and the image's coordinate
    f = render_maps[name]
    axis = np.linspace(-2.0, 2.0, 16)
    red = julia_render(f, 16, 16, max_iter=1)[:, :, 0].astype(int)
    for i, y in enumerate(axis):
        for j, x in enumerate(axis):
            z = SpherePoint.from_complex(complex(x, y))
            image = eval_map(f, z)
            u = image.coord(image.chart())
            g = chart_derivative(f, z, z.chart(), image.chart())
            xi = z.coord(z.chart())
            s = abs(g) * (1.0 + abs(xi) ** 2) / (1.0 + abs(u) ** 2)
            want = min(max(math.floor(128.0 + 28.0 * math.log(s)), 0), 254)
            assert abs(red[i, j] - want) <= 1


@pytest.mark.parametrize("name", ["z2", "a2", "a3", "a2c"])
def test_single_precision_render_passes_the_bench_check(render_maps, name):
    # the complex64 kernel against the same kernel in double, under the
    # bench's render check.  Green (the final chart) agrees on only about half
    # the pixels of a chaotic map after 40 iterations, so its bright share is
    # a binomial draw: scaling a2c's numerator by 1 + j 1e-7, j = 1..12, moves
    # it in double by up to 0.031 at 64^2 and by at most 0.0104 at 128^2
    f = render_maps[name]
    single = julia_render(f, 128, 128, max_iter=40).reshape(-1, 3).astype(int)
    double = reference_render(f, 128, 128, 40, dtype=complex).reshape(-1, 3).astype(int)
    red, green, blue = single.T
    assert np.mean(np.abs(red - double[:, 0]) <= RED_LEVELS) >= RED_AGREE
    assert set(np.unique(green)) <= {80, 255}
    assert np.all((blue == 255) | (blue == red))
    assert abs(np.mean(green == 255) - np.mean(double[:, 1] == 255)) <= GREEN_SHARE_TOL


@pytest.mark.parametrize("span, pixel", [
    (1e308, (0, 80, 255)),  # every grid point is within 1e-300 of infinity
    (sys.float_info.max, (0, 80, 255)),
    (5e-324, (0, 255, 0)),  # and here of 0
])
def test_julia_render_takes_any_finite_span(z2, span, pixel):
    # both are superattracting fixed points of z^2, so the spherical
    # derivative is 0 and red is floored; no step overflows on the way
    buf = julia_render(z2, 16, 16, max_iter=4, span=span)
    assert np.array_equal(buf, np.broadcast_to(np.array(pixel, dtype=np.uint8), buf.shape))
    assert np.array_equal(buf, reference_render(z2, 16, 16, 4, span=span))


@pytest.mark.parametrize("scale", [2.0 ** 200, 2.0 ** -200], ids=["2^200", "2^-200"])
def test_julia_render_does_not_see_the_coefficient_scale(render_maps, scale):
    # a map is stored at unit scale, so coefficients given 2^200 times too
    # large or too small, which would leave the complex64 range, give the
    # same map and draw the same bytes
    f = render_maps["a2c"]
    g = RationalMapCoeffs([c * scale for c in f.num], [c * scale for c in f.den], f.degree)
    assert g == f
    assert np.array_equal(julia_render(g, 16, 16, max_iter=10), julia_render(f, 16, 16, max_iter=10))


@given(st.integers(1, 9).flatmap(lambda d: st.tuples(
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=d + 1, max_size=d + 1),
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=d + 1, max_size=d + 1),
    st.complex_numbers(max_magnitude=1.0))))
def test_wronskian_matches_the_derivative_chains(drawn):
    # at z = x (chart 0) the Wronskian is P'Q - PQ'; at z = 1/x (chart 1) its
    # reversal, of degree 2D - 2 since D a_D b_D - a_D D b_D = 0 is left out,
    # is -(P~'Q~ - P~Q~') for the reversed P~, Q~
    num, den, x = drawn
    wr = dynamics._wronskian(num, den)
    assert len(wr) == 2 * len(num) - 3
    tol = 1e-13 * len(num) ** 2 * sum(map(abs, num)) * sum(map(abs, den))
    for got, p, q, sign in ((dynamics._horner(wr[::-1], x), num[::-1], den[::-1], 1.0),
                            (dynamics._horner(wr, x), num, den, -1.0)):
        (pv, pd), (qv, qd) = dynamics._horner_pair(p, x), dynamics._horner_pair(q, x)
        assert abs(got - sign * (pd * qv - pv * qd)) <= tol


# 131 x 127 = 16,637 pixels: two full blocks and a ragged one
FORK_GRID = dict(width=131, height=127)


def _cpus(n):
    return lambda pid: set(range(n))


def _no_fork():
    raise AssertionError("julia_render forked")


@pytest.mark.parametrize("kwargs", [
    dict(max_iter=0),
    dict(span=0.0), dict(span=-1.0), dict(span=math.inf), dict(span=math.nan),
    dict(width=15, height=2000), dict(width=2000, height=15),
])
def test_julia_render_refuses_degenerate_arguments(z2, monkeypatch, kwargs):
    # with three CPUs every grid here has enough blocks to fork; the
    # refusal must come first
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", _cpus(3))
    monkeypatch.setattr(dynamics.os, "fork", _no_fork)
    with pytest.raises(ValueError):
        julia_render(z2, **(FORK_GRID | kwargs))


def test_julia_render_bytes_do_not_depend_on_processes(base_a3, monkeypatch):
    expected = reference_render(base_a3, max_iter=4, **FORK_GRID)
    all_cpus = julia_render(base_a3, max_iter=4, **FORK_GRID)
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", _cpus(3))
    three = julia_render(base_a3, max_iter=4, **FORK_GRID)
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", _cpus(1))
    monkeypatch.setattr(dynamics.os, "fork", _no_fork)
    one = julia_render(base_a3, max_iter=4, **FORK_GRID)
    for buf in (all_cpus, three, one):
        assert np.array_equal(buf, expected)


class _ShadeFailure(Exception):
    pass


@pytest.mark.parametrize("failing", ["worker", "parent"])
def test_julia_render_reaps_every_worker(z2, monkeypatch, capfd, failing):
    parent = os.getpid()
    shade = dynamics._shade_block

    def shade_or_fail(*args):
        if (os.getpid() == parent) == (failing == "parent"):
            raise _ShadeFailure(f"{failing} share failed")
        shade(*args)

    monkeypatch.setattr(dynamics, "_shade_block", shade_or_fail)
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", _cpus(3))
    raised = RuntimeError if failing == "worker" else _ShadeFailure
    with pytest.raises(raised):
        julia_render(z2, max_iter=2, **FORK_GRID)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert ("worker share failed" in capfd.readouterr().err) == (failing == "worker")


def _paired_gaps(found, oracle) -> list[tuple[complex, float]]:
    """Each oracle zero with its distance to the nearest found zero not yet
    paired, nearest pairs first."""
    assert len(found) == len(oracle)
    pairs = sorted((abs(x - z), i, j) for i, z in enumerate(oracle) for j, x in enumerate(found))
    used_i, used_j, out = set(), set(), []
    for d, i, j in pairs:
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            out.append((oracle[i], d))
    return out


def _from_zeros(zeros, scale) -> list:
    """Ascending coefficients of scale * prod (z - zeros)."""
    c = [scale]
    for r in zeros:
        c = [a - r * b for a, b in zip([0j] + c, c + [0j])]
    return c


# bounds fixed before measuring: a simple zero moves by about its condition
# number times eps, a double zero by about sqrt(eps), in either solver
SIMPLE_TOL = 1e-10
DOUBLE_TOL = 1e-6


@given(st.integers(1, 48).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n),
    st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
    st.one_of(st.none(), st.integers(0, n - 1)))))
def test_roots_match_numpy(drawn):
    # separated zeros near the unit circle, one of them doubled or none
    turns, radii, scale, double = drawn
    n = len(turns)
    zeros = [(1.0 + r) * np.exp(2j * np.pi * (k + t) / n) for k, (t, r) in enumerate(zip(turns, radii))]
    if double is not None:
        zeros.append(zeros[double])
    c = _from_zeros(zeros, scale)
    for z, gap in _paired_gaps(roots(c), np.roots(c[::-1])):
        tol = DOUBLE_TOL if double is not None and abs(z - zeros[double]) < 1e-3 else SIMPLE_TOL
        assert gap <= tol * max(1.0, abs(z))


@pytest.mark.parametrize("a,case,gamma", [
    (2, "EvenZero", 1 / 3 + 1j), (3, "OddZero", 0.2 + 1j), (3, "OddHalf", 0.2 + 1j),
    (4, "EvenZero", 1 / 3 + 1j), (5, "OddZero", 0.2 + 1j),
])
def test_roots_of_base_maps_match_numpy(a, case, gamma):
    # numerators of |a| >= 3 maps have double zeros (f vanishes to second
    # order at the preimages of the critical value 0); Wronskian zeros are the
    # critical points
    f = build_rational_map(LattesSpec(TorusParameter(gamma), a, case))
    num, den = np.asarray(f.num), np.asarray(f.den)
    wr = (np.convolve(num[1:] * np.arange(1, len(num)), den)
          - np.convolve(num, den[1:] * np.arange(1, len(den))))
    for c in (num, den, wr):
        c = trimmed(c)
        oracle = np.roots(c[::-1])
        for z, gap in _paired_gaps(roots(c), oracle):
            doubled = sorted(abs(oracle - z))[1] < 1e-4
            assert gap <= (DOUBLE_TOL if doubled else SIMPLE_TOL) * max(1.0, abs(z))


def test_roots_settle_where_horner_underflows():
    # the Wronskian of a map with two critical points near 1.4e-157, where
    # every term of p(z) but the constant falls below the float range; there
    # 1.5i z^2 + c = 0 up to a relative 1e-157
    c = -5.562684646e-314
    zeros = sorted(roots([c, 0, 1.5j, 1j]), key=lambda z: z.real)
    small = cmath.sqrt(-c / 1.5j)
    for z, want in zip(zeros, (-1.5, -small, small), strict=True):
        assert abs(z - want) <= 1e-8 * abs(want)
