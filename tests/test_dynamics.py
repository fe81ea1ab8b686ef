"""Chart-safe sphere dynamics: evaluation, cycles, pullbacks, rendering."""

import math

import numpy as np
import pytest

from lattes_forge.dynamics import (
    SpherePoint,
    classify_orbit,
    continue_cycle,
    critical_points,
    eval_map,
    find_cycle,
    julia_render,
    mobius_conjugate,
    multiplier,
    orbit,
    preimages,
    pullback_branch,
    spherical_distance,
    write_ppm,
)
from lattes_forge.elliptic import TorusParameter
from lattes_forge.errors import BranchAmbiguity
from lattes_forge.lattes import LattesSpec, RationalMapCoeffs, build_rational_map


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


def test_orbit_length(z2):
    pts = orbit(z2, SpherePoint.from_complex(0.5), 5)
    assert len(pts) == 6
    assert abs(pts[3].to_complex() - 0.5 ** 8) < 1e-15


def test_critical_points_z2(z2):
    found = critical_points(z2)
    assert sum(m for _, m in found) == 2  # 2D - 2
    classes = {("inf" if p.is_infinity else round(abs(p.to_complex()), 9)) for p, m in found}
    assert classes == {0.0, "inf"}


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
    f1 = RationalMapCoeffs(num=[0, 0, 1.01], den=[1], degree=2)
    c1 = continue_cycle(z2, c0, f1)
    # fixed point of 1.01 z^2 is 1/1.01
    assert abs(c1.points[0].to_complex() - 1 / 1.01) < 1e-10


def test_continue_cycle_refuses_other_maps(z2):
    c0 = find_cycle(z2, SpherePoint.from_complex(1.0), 1)
    shifted = RationalMapCoeffs(num=[0.1, 0, 1], den=[1], degree=2)
    with pytest.raises(ValueError, match="scale"):
        continue_cycle(z2, c0, shifted)
    # -z^2 scales the numerator by -1: halfway the numerator vanishes
    negated = RationalMapCoeffs(num=[0, 0, -1], den=[1], degree=2)
    with pytest.raises(ValueError, match="passes through zero"):
        continue_cycle(z2, c0, negated)


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
    assert cert.found and cert.preperiod == 1 and cert.period == 1
    assert cert.repelling and cert.landing_residual < 1e-10


def test_classify_orbit_attracting_landing(z2):
    cert = classify_orbit(z2, SpherePoint.from_complex(1.5), max_iter=60)
    assert cert.found and not cert.repelling  # superattracting infinity


def test_julia_render_deterministic(z2, tmp_path):
    buf = julia_render(z2, 16, 16, max_iter=10)
    assert buf.shape == (16, 16, 3) and buf.dtype == np.uint8
    assert np.array_equal(buf, julia_render(z2, 16, 16, max_iter=10))
    assert np.array_equal(buf, julia_render(z2, 16, 16, max_iter=10, threads=3))
    path = tmp_path / "out.ppm"
    write_ppm(buf, str(path))
    data = path.read_bytes()
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


def reference_render(f, width: int, height: int, max_iter: int, span: float = 2.0) -> np.ndarray:
    """Reference oracle: a full-grid render kernel that julia_render must match
    bit for bit.

    Every temporary spans the whole grid, and both quotient branches and both
    chart coefficient sets are evaluated on every pixel.
    """
    num, den = np.asarray(f.num, dtype=complex), np.asarray(f.den, dtype=complex)
    rnum, rden = num[::-1], den[::-1]
    xs = np.linspace(-span, span, width)
    ys = np.linspace(-span, span, height)
    X, Y = np.meshgrid(xs, ys)
    Z = (X + 1j * Y).ravel()
    W = np.ones_like(Z)
    log_acc = np.zeros(Z.shape, dtype=float)
    for _ in range(max_iter):
        chart0 = np.abs(W) >= np.abs(Z)
        xi = np.where(chart0, Z / np.where(chart0, W, 1.0), W / np.where(chart0, 1.0, Z))
        pv = np.zeros_like(Z)
        qv = np.zeros_like(Z)
        pd = np.zeros_like(Z)
        qd = np.zeros_like(Z)
        for k in range(len(num) - 1, -1, -1):
            pd = pd * xi + pv
            qd = qd * xi + qv
            pv = pv * xi + np.where(chart0, num[k], rnum[k])
            qv = qv * xi + np.where(chart0, den[k], rden[k])
        out0 = np.abs(qv) >= np.abs(pv)
        u = np.where(out0, pv / np.where(out0, qv, 1.0), qv / np.where(out0, 1.0, pv))
        g = np.where(
            out0,
            (pd * qv - pv * qd) / np.where(out0, qv * qv, 1.0),
            (qd * pv - qv * pd) / np.where(out0, 1.0, pv * pv),
        )
        sph = np.abs(g) * (1.0 + np.abs(xi) ** 2) / (1.0 + np.abs(u) ** 2)
        log_acc += np.log(np.maximum(sph, 1e-300))
        Znew, Wnew = pv, qv
        m = np.maximum(np.abs(Znew), np.abs(Wnew))
        m = np.where(m == 0.0, 1.0, m)
        Z, W = Znew / m, Wnew / m
    lyap = log_acc / max_iter
    bounded_end = np.abs(W) >= np.abs(Z)
    escaped = np.abs(W) < 1e-6 * np.abs(Z)
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
    return {"z2": z2, "a2": base_a2, "a3": base_a3}


@pytest.mark.parametrize("name", ["z2", "a2", "a3"])
@pytest.mark.parametrize("width,height,max_iter,threads", [
    (16, 16, 10, 1),
    (16, 16, 10, 3),
    (16, 16, 10, 8),  # more workers than blocks
    (97, 91, 4, 1),  # 8,827 pixels: a full block and a ragged one
    (97, 91, 4, 3),
])
def test_julia_render_matches_reference(render_maps, name, width, height, max_iter, threads):
    f = render_maps[name]
    expected = reference_render(f, width, height, max_iter)
    assert np.array_equal(julia_render(f, width, height, max_iter=max_iter, threads=threads), expected)


@pytest.mark.parametrize("kwargs", [
    dict(max_iter=0),
    dict(span=0.0), dict(span=-1.0), dict(span=math.inf), dict(span=math.nan),
])
def test_julia_render_refuses_degenerate_arguments(z2, kwargs):
    with pytest.raises(ValueError):
        julia_render(z2, 16, 16, **kwargs)
