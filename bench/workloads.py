"""Workloads of the lattes-forge benchmark, and the check of every op's result.

Every op is what a user types: one ``lattes-forge`` command (``construct`` is
followed by ``certify`` on each artifact it wrote), each in a fresh
interpreter, in a closed loop with one client: the next op starts when the
previous one has ended.  Program caches (``base_map_for``, ``_context``) are
therefore cold for every op, as they are for a user, and a cache that only
lives across calls cannot show a gain here.

Ops are drawn from fixed pools of specs.  The seed shuffles every pass over a
pool and draws the continuous inputs (the ``verify-lemma1`` grids); each pass
covers the whole pool, so the mix of cheap and costly specs is the same for
every seed.  Every spec in a pool passes at this commit; specs that expose a
known defect are run apart from the timed ops (``Workload.known_defects``).  Rationals go to the CLI as
``--x0=-1/3``, so argparse never reads a minus sign as a flag.

Layer -> end-to-end predictions (the names to cite when claiming a gain):

- ``elliptic.theta_map.calls`` / ``.self_s``, ``elliptic.half_periods.calls``,
  ``elliptic.half_periods.distinct_ratio``, ``elliptic.theta_data.calls`` /
  ``.self_s`` -> ``op_p50_s`` on construct and ``good_ops_per_s`` on
  lattice_sweep; no change on render.
- ``lattes.build_rational_map.calls`` / ``.self_s`` / ``.failed``,
  ``lattes.build_rational_map.distinct_ratio``, ``lattes.RationalMapCoeffs.calls``
  / ``.self_s`` -> ``op_p50_s`` on construct, and
  ``perturbation.verify_lemma3.known_defects_failing`` on lattice_sweep.
- ``dynamics.eval_map``, ``continue_cycle``, ``find_cycle``, ``classify_orbit``,
  ``pullback_branch`` counts and self times, ``dynamics.critical_points.self_s``
  -> ``op_p50_s`` on construct.
- ``dynamics.julia_render.self_s`` and ``.pixel_iters_per_s`` -> ``op_p50_s``
  on render only.
- ``perturbation.solve_gamma_k``, ``solve_collision``, ``make_marked_point``
  counts and self times, ``solve_gamma_k.collision_solves``,
  ``solve_collision.secant_iters``, ``certify_strictly_pcf.self_s``,
  ``perturbation.rows_failed`` -> ``op_p50_s`` and ``failed_ratio`` on
  construct; ``perturbation.verify_lemma3.self_s`` -> lattice_sweep.
- ``cli.main.self_s`` (parsing and serialization outside child spans) and
  ``cli.bytes_written`` -> all workloads.
"""

from __future__ import annotations

import base64
import csv
import json
import os
import random
import re
import zlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

# construct: gamma_k within GAMMA_TOL of the reference, r_k within R_REL_TOL
# of it relative.  The gamma secant stops at |s/t - 1| <= 1e-10 and the
# collision secants at 1e-12; these tolerances sit three orders above that, so
# a change that only moves the last bits of the map coefficients passes.
GAMMA_TOL = 1e-7
R_REL_TOL = 1e-6
# render: Lattes maps are chaotic on the whole sphere, so a last-bit change
# of a coefficient (1e-15) decorrelates late iterates.  Measured at 256^2 and
# 40 iterations: red (mean log derivative) stays within 2 levels on 99.9% of
# pixels, while green (final chart) agrees on only ~50% of pixels and its
# bright share moves by < 0.005.  The checks below keep those margins.
RED_LEVELS = 2
RED_AGREE = 0.99
GREEN_SHARE_TOL = 0.02
RENDER_SIZE = 256


@dataclass(frozen=True)
class Op:
    """One op: the command kind, its CLI arguments, and its key in the references."""

    kind: str
    args: tuple
    key: str


@dataclass(frozen=True)
class Outcome:
    """status: "ok" (passed its check), "failed" (the program refused) or
    "wrong" (the program answered, and the answer is wrong)."""

    status: str
    detail: str = ""


def _spec_args(a: int, case: int, x0: str, y0: str) -> tuple:
    return ("--a", str(a), "--case", str(case), f"--x0={x0}", f"--y0={y0}")


def _key(kind: str, a: int, case: int, x0: str, y0: str) -> str:
    return f"{kind} a={a} case={case} x0={x0} y0={y0}"


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _passes(pool: list, rng: random.Random):
    """Endless seeded passes over a pool; each pass is a new shuffle of all of it."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


# --- construct ---------------------------------------------------------------
# Why: the paper's product, a certified strictly-PCF map g_k; time to a checked
# solution.  Loads perturbation (gamma_k and collision secants) and the map
# rebuilds under it (elliptic theta series, lattes SVD fit, dynamics cycle
# continuation); one run of a=2, k=3..6 makes 21 build_rational_map calls and
# 8,370 half_periods calls at 21 distinct gammas.  Degree-4 and degree-9 maps
# rebuilt at nearby gammas.  Bypasses julia_render and verify_lemma3.
# Base points: a=2 case 1 with k=3..6, a=3 case 2 or 3 with k=2..4, each a
# point where every row certifies and certify's recount agrees.
CONSTRUCT_K = {2: (3, 6), 3: (2, 4)}
CONSTRUCT_POOL = [
    (2, 1, "1/3", "1"), (2, 1, "-1/3", "3/5"), (2, 1, "1/5", "1"), (2, 1, "3/7", "1"),
    (3, 2, "1/5", "1"), (3, 2, "-1/5", "6/5"), (3, 2, "1/7", "1"), (3, 2, "0", "1"),
    (3, 3, "1/5", "1"), (3, 3, "-1/5", "6/5"), (3, 3, "2/5", "1"), (3, 3, "0", "1"),
]


def construct_op(a: int, case: int, x0: str, y0: str) -> Op:
    k_min, k_max = CONSTRUCT_K[a]
    args = ("construct",) + _spec_args(a, case, x0, y0) + (
        "--k-min", str(k_min), "--k-max", str(k_max))
    return Op("construct", args, _key("construct", a, case, x0, y0))


def construct_ops(seed: int):
    rng = random.Random(seed)
    for spec in _passes(CONSTRUCT_POOL, rng):
        yield construct_op(*spec)


def _convergence_rows(path: str) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def construct_result(out: str) -> dict:
    """{k: {gamma_k, r_k, postcritical_count}} from a construct output directory."""
    result = {}
    for row in _convergence_rows(os.path.join(out, "convergence.csv")):
        with open(os.path.join(out, f"construction_k{row['k']}.json"), encoding="ascii") as fh:
            doc = json.load(fh)
        result[row["k"]] = {"gamma_k": doc["gamma_k"], "r_k": doc["r_k"],
                            "postcritical_count": doc["postcritical_count"]}
    return result


def run_construct(op: Op, cli, refs: dict) -> Outcome:
    out = cli.path("run")
    code, _, err = cli.run(op.args + ("--out", out))
    if code != 0:
        return Outcome("failed", f"construct exit {code}: {_last_line(err)}")
    rows = _convergence_rows(os.path.join(out, "convergence.csv"))
    bad = [r["k"] for r in rows if r["status"] != "ok" or r["certified"] != "true"]
    if bad:
        return Outcome("wrong", f"exit 0 with uncertified rows k={bad}")
    ref = refs["construct"][op.key]
    got = construct_result(out)
    if sorted(got) != sorted(ref):
        return Outcome("wrong", f"rows k={sorted(got)}, reference k={sorted(ref)}")
    for k, row in got.items():
        want = ref[k]
        gap = abs(complex(*row["gamma_k"]) - complex(*want["gamma_k"]))
        r_ref = complex(*want["r_k"])
        r_gap = abs(complex(*row["r_k"]) - r_ref) / abs(r_ref)
        if gap > GAMMA_TOL or r_gap > R_REL_TOL:
            return Outcome("wrong", f"k={k}: |gamma_k - ref| {gap:.2e}, relative r_k gap {r_gap:.2e}")
        count = row["postcritical_count"]
        if count <= 4 or count != want["postcritical_count"]:
            return Outcome("wrong", f"k={k}: postcritical_count {count}, "
                                    f"reference {want['postcritical_count']}")
        cert_dir = cli.path(f"cert_k{k}")
        code, _, err = cli.run(("certify", os.path.join(out, f"construction_k{k}.json"),
                                "--out", cert_dir))
        if code != 0:
            return Outcome("failed", f"certify k={k} exit {code}: {_last_line(err)}")
        with open(os.path.join(cert_dir, "certificate.json"), encoding="ascii") as fh:
            cert = json.load(fh)
        if cert["postcritical_count"] != count or cert["lattes_witness"]:
            return Outcome("wrong", f"k={k}: certify recounts {cert['postcritical_count']}, "
                                    f"construct wrote {count}")
    return Outcome("ok")


# --- lattice_sweep -----------------------------------------------------------
# Why: the lemma checks across lattice shapes and degrees.  verify-lemma3 builds
# one map of every degree up to the cap of 25 (a = 2..5), each once at its own
# gamma, where construct rebuilds degree 4 and 9 maps at nearby gammas; it runs
# perturbation only lightly (tracked_limits).  verify-lemma1 loads elliptic
# alone (theta_data on a 3x3 grid inside the command's default domain).
# Bypasses solve_gamma_k, solve_collision and julia_render.
# The timed pool holds specs that pass at this commit: an op that fails in one
# run fails in every run, so the failed count would follow only where a run
# cut the last pass.  Degree 25 stays covered by the a=5 specs that pass.
LEMMA3_POOL = [
    (2, 1, "1/3", "1"), (2, 1, "-1/3", "3/5"),
    (3, 2, "1/5", "1"), (3, 2, "1/7", "6/5"),
    (3, 3, "1/5", "1"), (3, 3, "-1/7", "1"),
    (4, 1, "1/3", "1"), (4, 1, "-1/3", "1"), (4, 1, "3/7", "1"),
    (5, 2, "1/5", "1"), (5, 2, "1/7", "1"), (5, 2, "-1/7", "1"),
    (5, 3, "1/7", "1"),
]
# Known defects, run once per traced run outside the timed ops; the number
# that still fail is perturbation.verify_lemma3.known_defects_failing:
#   a=5 at gamma = 1/3+i and 2/9+7/9 i: the SVD fit fails its held-out check
#   (residual 1.1e-9 to 1.5e-9 and about 1e-7); a=5 passes at gamma = 0.2+i
#   in case 2, while case 3 there finds "no periodic point of period 2";
#   a=4 at gamma = 1/5+3/5 i fails the held-out check (3.5e-8).
LEMMA3_KNOWN_DEFECTS = [
    (4, 1, "1/5", "3/5"),
    (5, 2, "1/3", "1"), (5, 2, "2/9", "7/9"),
    (5, 3, "1/3", "1"), (5, 3, "2/9", "7/9"), (5, 3, "1/5", "1"),
]
LEMMA1_PER_PASS = 6
LEMMA1_TOL = 1e-8  # the command's default tolerances
LEMMA3_TOL = 1e-6


def lemma1_op(rng: random.Random) -> Op:
    re0 = rng.uniform(-0.4, 0.2)
    im0 = rng.uniform(0.8, 1.4)
    grid = (f"{re0:.6f}:{re0 + rng.uniform(0.05, 0.2):.6f}:"
            f"{im0:.6f}:{im0 + rng.uniform(0.05, 0.2):.6f}:3")
    return Op("lemma1", ("verify-lemma1", f"--grid={grid}"), "lemma1")


def lemma3_op(a: int, case: int, x0: str, y0: str) -> Op:
    return Op("lemma3", ("verify-lemma3",) + _spec_args(a, case, x0, y0),
              _key("lemma3", a, case, x0, y0))


def lattice_sweep_ops(seed: int):
    rng = random.Random(seed)
    while True:
        batch = [lemma3_op(*spec) for spec in LEMMA3_POOL]
        batch += [lemma1_op(rng) for _ in range(LEMMA1_PER_PASS)]
        rng.shuffle(batch)
        yield from batch


_FLOAT = r"([-+0-9.e]+)"
_COMPLEX = r"([-+0-9.e]+)([-+][0-9.e]+)j"


def exact_response_constant(a: int, case: int) -> complex:
    """(x_dot - v_dot)/v per case: -1, a^2/(1 - a^2), -a^2/(1 + a^2).

    The harness's own copy, so the check does not trust the program's value."""
    a2 = Fraction(a * a)
    return complex({1: Fraction(-1), 2: a2 / (1 - a2), 3: -a2 / (1 + a2)}[case])


def run_lemma(op: Op, cli, refs: dict) -> Outcome:
    code, stdout, err = cli.run(op.args + ("--out", cli.path("report")))
    if code != 0:
        return Outcome("failed", f"exit {code}: {_last_line(err)}")
    if op.kind == "lemma1":
        rows = re.findall(r"\|lam/v\+mu/w\|=" + _FLOAT + r"\s+kappa-residual=" + _FLOAT, stdout)
        worst = max((max(float(r), float(k)) for r, k in rows), default=float("inf"))
        if len(rows) != 9 or not worst < LEMMA1_TOL:
            return Outcome("wrong", f"exit 0 with {len(rows)} rows, worst residual {worst:.3e}")
        return Outcome("ok")
    a, case = int(op.args[2]), int(op.args[4])
    measured = re.search(r"c measured\s+" + _COMPLEX, stdout)
    expected = re.search(r"c expected\s+" + _COMPLEX, stdout)
    if not (measured and expected):
        return Outcome("wrong", "exit 0 without measured and expected constants")
    exact = exact_response_constant(a, case)
    c_meas = complex(float(measured[1]), float(measured[2]))
    c_exp = complex(float(expected[1]), float(expected[2]))
    if abs(c_exp - exact) > 1e-11 or not abs(c_meas - exact) < LEMMA3_TOL:
        return Outcome("wrong", f"c measured {c_meas}, expected {c_exp}, exact {exact}")
    return Outcome("ok")


# --- render ------------------------------------------------------------------
# Why: the Julia set picture, the one vectorized kernel.  More than 95% of an
# op is _render_rows in julia_render; one map build is the only use of
# elliptic, lattes and perturbation.  256^2 pixels, 40 iterations, default
# threads (LATTES_FORGE_THREADS is unset in the child and recorded); maps of
# degree 4, 9 and 16.  Not covered: render --map-file on a construct artifact,
# which crashes with a KeyError (see NOTES.md).
RENDER_POOL = [
    (2, 1, "1/3", "1"), (2, 1, "-1/3", "3/5"), (2, 1, "1/5", "1"),
    (3, 2, "1/5", "1"), (3, 3, "1/5", "1"), (3, 2, "1/7", "6/5"), (3, 3, "-1/7", "1"),
    (4, 1, "1/3", "1"), (4, 1, "-1/3", "1"), (4, 1, "3/7", "1"),
]


def render_op(a: int, case: int, x0: str, y0: str) -> Op:
    return Op("render", ("render",) + _spec_args(a, case, x0, y0) + ("--size", str(RENDER_SIZE)),
              _key("render", a, case, x0, y0))


def render_ops(seed: int):
    rng = random.Random(seed)
    for spec in _passes(RENDER_POOL, rng):
        yield render_op(*spec)


def read_ppm(path: str) -> tuple[int, int, bytes]:
    """(height, width, RGB bytes) of a binary P6 file with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = data.split(b"\n", 3)
    if len(head) != 4 or head[0] != b"P6" or head[2] != b"255":
        raise ValueError("not a binary PPM with maxval 255")
    width, height = (int(v) for v in head[1].split())
    if len(head[3]) != width * height * 3:
        raise ValueError(f"{len(head[3])} bytes of pixels for {width}x{height}")
    return height, width, head[3]


def render_summary(height: int, width: int, pixels: bytes) -> dict:
    """Reference form of a render: the red channel and the bright share of green."""
    return {"shape": [height, width, 3],
            "red_zlib_b64": base64.b64encode(zlib.compress(pixels[0::3], 9)).decode(),
            "green_bright_share": pixels[1::3].count(255) / (height * width)}


def run_render(op: Op, cli, refs: dict) -> Outcome:
    path = cli.path("julia.ppm")
    code, _, err = cli.run(op.args + ("--out", path))
    if code != 0:
        return Outcome("failed", f"render exit {code}: {_last_line(err)}")
    try:
        height, width, pixels = read_ppm(path)
    except (OSError, ValueError) as exc:
        return Outcome("wrong", f"unreadable PPM: {exc}")
    ref = refs["render"][op.key]
    if [height, width, 3] != ref["shape"]:
        return Outcome("wrong", f"PPM {width}x{height}, reference shape {ref['shape']}")
    red, green, blue = pixels[0::3], pixels[1::3], pixels[2::3]
    red_ref = zlib.decompress(base64.b64decode(ref["red_zlib_b64"]))
    agree = sum(abs(r - q) <= RED_LEVELS for r, q in zip(red, red_ref)) / len(red)
    if agree < RED_AGREE:
        return Outcome("wrong", f"red within {RED_LEVELS} levels on {agree:.4f} of pixels")
    if not set(green) <= {80, 255} or any(b != r and b != 255 for r, b in zip(red, blue)):
        return Outcome("wrong", "green or blue channel outside the renderer's palette")
    share = green.count(255) / len(green)
    if abs(share - ref["green_bright_share"]) > GREEN_SHARE_TOL:
        return Outcome("wrong", f"bright green share {share:.4f}, "
                                f"reference {ref['green_bright_share']:.4f}")
    return Outcome("ok")


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int], Iterator[Op]]  # seed -> endless stream of ops
    execute: Callable[..., Outcome]     # (op, cli, references) -> outcome
    # whether op timings are scaled by the pure-Python host probe: they follow
    # it for construct and lattice_sweep, while render's vectorized kernel
    # slows far less than the probe does (scaling doubled its run-to-run spread)
    probe_scaled: bool
    # ops that fail at this commit: run once in a traced run, never timed
    known_defects: tuple = ()


WORKLOADS = {
    "construct": Workload(construct_ops, run_construct, probe_scaled=True),
    "lattice_sweep": Workload(lattice_sweep_ops, run_lemma, probe_scaled=True,
                              known_defects=tuple(lemma3_op(*s) for s in LEMMA3_KNOWN_DEFECTS)),
    "render": Workload(render_ops, run_render, probe_scaled=False),
}
