"""Run every benchmark spec through the command line and keep all it leaves.

    python tools/same_outputs.py [--sweep] OUTDIR

Each command runs in a fresh interpreter on the package in this checkout's
src/, with OPENBLAS_NUM_THREADS=1 and its own directory under OUTDIR as the
working directory, so no absolute path reaches an output.  The directory
keeps the files the command wrote and, per command, NAME.stdout,
NAME.stderr and NAME.exit.  Commands:

- every construct spec of bench/workloads.py, then certify of each
  construction artifact it wrote;
- every verify-lemma3 spec, known defects included;
- verify-lemma1 on its default grid and on 0.1:0.2:0.3:0.4:2;
- every render spec at the benchmark's size;
- construct, verify-lemma3 and render at a = 4, 1/3 + 5i/3, where the fit
  misses its held-out samples and the closed form answers;
- verify-lemma3 and render at a = 5, case 2, -2/5 + 13i/10, where the
  closed form's top numerator coefficient is 8e-11 of the largest;
- construct at a depth k = 600, where a^(2k) leaves the float range;
- construct, then certify, at the two specs of CERTIFIED_BACKWARD, whose
  critical orbits certify only by the backward pass;
- the usage errors that construct, verify-lemma1, certify and render refuse,
  and the lattices too thin or too tall for double precision;
- certify and render --map-file at size 16 of each bare map document of
  MAP_DOCUMENTS, written into the command's directory first.

--sweep adds construct, then certify of each artifact, over a grid of base
points beyond the benchmark pools (SWEEP_X0 x SWEEP_Y0 at every a and case
of SWEEP_CASES, keeping the denominators that standard_parameters accepts:
160 specs).

Two OUTDIRs, made from two commits, are compared in two parts: the render
PPMs with `python tools/render_agreement.py OUTDIR_A OUTDIR_B`, which applies
the bench's render check, and everything else with `diff -r` (byte
identity; `diff -r -x '*.ppm'` skips the PPMs).  Two commands run at a time.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (the pools of the benchmark, read not copied)

USAGE_ERRORS = [
    ("construct", "--k-min", "5", "--k-max", "3"),
    ("construct", "--k-min", "0", "--k-max", "0"),
    ("construct", "--tol=-1", "--k-min", "3", "--k-max", "3"),
    ("verify-lemma3", "--tol=-1"),
    ("certify", "--max-iter", "0", "map.json"),
    ("render", "--max-iter", "0"),
    ("construct", "--x0=1/2"),
    ("construct", "--y0=-1"),
    ("construct", "--a", "3", "--case", "2", "--x0", "1/3"),
    ("construct", "--a", "1"),
    ("construct", "--a", "2", "--case", "2"),
    ("verify-lemma1", "--grid", "0:1:0:-1:5"),
    ("verify-lemma1", "--grid", "1:2:3"),
    ("verify-lemma1", "--grid", "nan:1:1:2:2"),
    ("render", "--size", "8", "--y0=3"),
    ("verify-lemma3", "--x0=1e309"),
    ("construct", "--y0=1e309"),
    ("verify-lemma3", "--y0=1e-400"),
    # a degree a^2 above the cap is refused where the spec is made, at any depth
    ("construct", "--a", "6", "--x0=1/5", "--k-min", "10", "--k-max", "10"),
]

# lattices too thin or too tall for double precision to tell their
# half-period values apart, or for their theta series to stay in range
THIN_AND_TALL = [
    ("construct", "--x0=0", "--y0=1/51", "--k-min", "3", "--k-max", "3"),
    ("construct", "--x0=1/3", "--y0=1/201", "--k-min", "3", "--k-max", "3"),
    ("verify-lemma3", "--x0=0", "--y0=1/10001"),
    ("construct", "--x0=0", "--y0=100", "--k-min", "3", "--k-max", "3"),
    ("verify-lemma3", "--y0=100"),
    ("render", "--y0=1000", "--size", "16"),
]

# bare map documents, so that the map check and the critical points run on
# maps no construct wrote: the four that tests/test_cli.py has certify
# refuse or fail, and one whose Wronskian has zeros near 1e-157, where
# Horner's rule underflows
MAP_DOCUMENTS = {
    "subnormal-denominator.json": {"degree": 1, "num": [[0, 3.6643749114008475e-26], [0, 0]],
                                   "den": [[-1.1125369292536007e-308, 0],
                                           [1.7693759452741915, 6.032878723966615]]},
    "critical-point-below-range.json": {"degree": 2, "num": [[1, 0], [0, 0], [1, 0]],
                                        "den": [[1, 0], [2.2250738585e-313, 0], [0, 0]]},
    "shared-root.json": {"degree": 2, "num": [[0, 0], [-1, 0], [1, 0]],
                         "den": [[0, 0], [1, 0], [1, 0]]},
    "quadratic-polynomial.json": {"degree": 2, "num": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                                  "den": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    "critical-points-near-underflow.json": {"degree": 3, "num": [[0.5, 0], [0.5, 1.11253692926e-313],
                                                                 [0, 0], [1, 0]],
                                            "den": [[0, 0.5], [0, 0.5], [0, 0], [0, 0]]},
}

# at a = 4, gamma0 = 1/3 + 5i/3 the closed form passes the map check, but the
# fit misses its held-out samples and is refused as ValidationFailed
REFUSED_FIT = ("--a", "4", "--case", "1", "--x0=1/3", "--y0=5/3")
# a closed form whose small top coefficients stay above the rounding level
SMALL_TOP = ("--a", "5", "--case", "2", "--x0=-2/5", "--y0=13/10")
# a depth at which a^(2k) overflows a float, refused as precision_exhausted
DEPTH_BEYOND_FLOAT = ("construct", "--k-min", "600", "--k-max", "600")
# certified only by pulling the landing cycle back along each critical orbit:
# forward, an error of 5e-13 in a critical value grows by about a^2 a step, and
# no return comes within 1e-8 (certify of the first artifact, construct's own
# certification of the second)
CERTIFIED_BACKWARD = [
    ("construct", "--a", "4", "--x0=1/5", "--y0=1", "--k-min", "4", "--k-max", "4"),
    ("construct", "--a", "3", "--case", "3", "--x0=1/5", "--y0=5/7",
     "--k-min", "4", "--k-max", "4"),
]

# (a, case, k_min, k_max) of the sweep, and its base point coordinates
SWEEP_CASES = [(2, 1, 2, 7), (3, 2, 2, 5), (3, 3, 2, 5), (4, 1, 2, 5)]
SWEEP_X0 = ["0", "1/3", "-1/3", "1/5", "-1/5", "1/7", "2/5", "3/7"]
SWEEP_Y0 = ["1/3", "3/5", "5/7", "1", "5/3", "7/3", "1/5"]


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _run(cwd: str, name: str, args: tuple) -> None:
    """Run lattes-forge ARGS in cwd and save its stdout, stderr and exit code."""
    proc = subprocess.run([sys.executable, "-m", "lattes_forge.cli", *args], cwd=cwd,
                          env=_env(), capture_output=True, check=False)
    for ext, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                      ("exit", f"{proc.returncode}\n".encode())):
        with open(os.path.join(cwd, f"{name}.{ext}"), "wb") as fh:
            fh.write(data)


def _slug(args: tuple) -> str:
    return re.sub(r"[^A-Za-z0-9=.-]+", "_", "_".join(args)).strip("_")


def _job(outdir: str, args: tuple, out_flag: tuple = ()) -> None:
    """One command in a directory of its own, after the map documents it
    names; construct is followed by certify of each artifact."""
    cwd = os.path.join(outdir, _slug(args))
    os.makedirs(cwd)
    for name in set(args) & MAP_DOCUMENTS.keys():
        with open(os.path.join(cwd, name), "w", encoding="ascii") as fh:
            json.dump(MAP_DOCUMENTS[name], fh)
    _run(cwd, "command", args + out_flag)
    if args[0] == "construct":
        for art in sorted(f for f in os.listdir(cwd) if f.startswith("construction_k")):
            _run(cwd, "certify_" + art[:-len(".json")], ("certify", art))


def jobs() -> list[tuple]:
    out = [(workloads.construct_op(*s).args, ("--out", ".")) for s in workloads.CONSTRUCT_POOL]
    out += [(workloads.lemma3_op(*s).args, ("--out", "."))
            for s in workloads.LEMMA3_POOL + workloads.LEMMA3_KNOWN_DEFECTS]
    out += [(("verify-lemma1",), ("--out", ".")),
            (("verify-lemma1", "--grid=0.1:0.2:0.3:0.4:2"), ("--out", "."))]
    out += [(workloads.render_op(*s).args, ("--out", "render.ppm")) for s in workloads.RENDER_POOL]
    out += [(("construct",) + REFUSED_FIT + ("--k-min", "2", "--k-max", "2"), ("--out", "."))]
    for spec in (REFUSED_FIT, SMALL_TOP):
        out += [(("verify-lemma3",) + spec, ("--out", ".")),
                (("render",) + spec + ("--size", str(workloads.RENDER_SIZE)),
                 ("--out", "render.ppm"))]
    out += [(args, ("--out", ".")) for args in [DEPTH_BEYOND_FLOAT] + CERTIFIED_BACKWARD]
    out += [(args, ("--out", "out")) for args in USAGE_ERRORS + THIN_AND_TALL]
    for name in MAP_DOCUMENTS:
        out += [(("certify", name), ("--out", ".")),
                (("render", "--map-file", name, "--size", "16"), ("--out", "render.ppm"))]
    return out


def sweep_jobs() -> list[tuple]:
    """construct over the sweep grid; a denominator must be odd and coprime with a."""
    return [(("construct", "--a", str(a), "--case", str(case), f"--x0={x0}", f"--y0={y0}",
              "--k-min", str(k_min), "--k-max", str(k_max)), ("--out", "."))
            for a, case, k_min, k_max in SWEEP_CASES for x0 in SWEEP_X0 for y0 in SWEEP_Y0
            if all(math.gcd(Fraction(v).denominator, 2 * a) == 1 for v in (x0, y0))]


def main(argv: list[str]) -> int:
    sweep = argv[:1] == ["--sweep"]
    if len(argv) != 1 + sweep:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = argv[-1]
    os.makedirs(outdir)
    todo = jobs() + (sweep_jobs() if sweep else [])
    with ThreadPoolExecutor(max_workers=2) as pool:
        for done in [pool.submit(_job, outdir, *job) for job in todo]:
            done.result()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
