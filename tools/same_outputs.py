"""Run every benchmark spec through the command line and keep all it leaves.

    python tools/same_outputs.py OUTDIR

Each command runs in a fresh interpreter on the package in this checkout's
src/, with OPENBLAS_NUM_THREADS=1 and its own directory under OUTDIR as the
working directory, so no absolute path reaches an output.  The directory
keeps the files the command wrote and, per command, NAME.stdout,
NAME.stderr and NAME.exit.  Commands:

- every construct spec of bench/workloads.py, then certify of each
  construction artifact it wrote;
- every verify-lemma3 spec, known defects included;
- verify-lemma1 on its default grid;
- every render spec at the benchmark's size;
- the usage errors that construct, verify-lemma1, certify and render refuse.

`diff -r` of two OUTDIRs, made from two commits, is their byte-identity
check.  Two commands run at a time.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

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
]


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
    """One command in a directory of its own; construct is followed by certify
    of each artifact."""
    cwd = os.path.join(outdir, _slug(args))
    os.makedirs(cwd)
    _run(cwd, "command", args + out_flag)
    if args[0] == "construct":
        for art in sorted(f for f in os.listdir(cwd) if f.startswith("construction_k")):
            _run(cwd, "certify_" + art[:-len(".json")], ("certify", art))


def jobs() -> list[tuple]:
    out = [(workloads.construct_op(*s).args, ("--out", ".")) for s in workloads.CONSTRUCT_POOL]
    out += [(workloads.lemma3_op(*s).args, ("--out", "."))
            for s in workloads.LEMMA3_POOL + workloads.LEMMA3_KNOWN_DEFECTS]
    out.append((("verify-lemma1",), ("--out", ".")))
    out += [(workloads.render_op(*s).args, ("--out", "render.ppm")) for s in workloads.RENDER_POOL]
    out += [(args, ("--out", "out")) for args in USAGE_ERRORS]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    os.makedirs(argv[0])
    with ThreadPoolExecutor(max_workers=2) as pool:
        for done in [pool.submit(_job, argv[0], *job) for job in jobs()]:
            done.result()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
