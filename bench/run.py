"""lattes-forge benchmark: one workload, one seed, for a fixed time.

    python3 bench/run.py --workload construct --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout that holds ``src/lattes_forge``; every
child imports the package from that ``src/``.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(spans around each layer's public functions, see trace_child.py) plus
``trace.overhead_ratio``.  Every line before the last is the human report;
the last line is one JSON object: correct, attempted, failed, metrics.
End-to-end timings are scaled to a reference host speed (measure.host_probe);
the report prints the wall figures next to them.

Workloads, why each was chosen and which layers it loads: workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from time import perf_counter

from measure import PROBE_REF_S, host_factor, host_probe, median, ratio, self_times, tail
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
TRACE_CHILD = os.path.join(BENCH_DIR, "trace_child.py")
SETUP_RUNS = 7
CMD_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "good_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span name -> per-op metrics taken from it: calls, self time
_SPAN_METRICS = {
    "elliptic.theta_map": ("calls", "self_s"),
    "elliptic.half_periods": ("calls",),
    "elliptic.theta_data": ("calls", "self_s"),
    "lattes.build_rational_map": ("calls", "self_s", "failed"),
    "lattes.RationalMapCoeffs": ("calls", "self_s"),
    "dynamics.eval_map": ("calls", "self_s"),
    "dynamics.continue_cycle": ("calls", "self_s"),
    "dynamics.find_cycle": ("calls",),
    "dynamics.classify_orbit": ("calls", "self_s"),
    "dynamics.pullback_branch": ("calls",),
    "dynamics.critical_points": ("self_s",),
    "dynamics.julia_render": ("self_s",),
    "perturbation.solve_gamma_k": ("calls", "self_s"),
    "perturbation.solve_collision": ("calls", "self_s"),
    "perturbation.make_marked_point": ("calls", "self_s"),
    "perturbation.certify_strictly_pcf": ("self_s",),
    "perturbation.verify_lemma3": ("self_s",),
    "perturbation.convergence_table": ("self_s",),
    "cli.main": ("self_s",),
}
_UNIT = {"calls": "calls/op", "self_s": "s/op", "failed": "calls/op"}

PER_LAYER = {f"{span}.{kind}": _UNIT[kind]
             for span, kinds in _SPAN_METRICS.items() for kind in kinds}
PER_LAYER.update({
    "elliptic.half_periods.distinct_ratio": "ratio",
    "lattes.build_rational_map.distinct_ratio": "ratio",
    "dynamics.julia_render.pixel_iters_per_s": "1/s",
    "perturbation.solve_gamma_k.collision_solves": "calls/call",
    "perturbation.solve_collision.secant_iters": "iters/op",
    "perturbation.rows_failed": "rows/op",
    "perturbation.verify_lemma3.known_defects_failing": "count",
    "cli.bytes_written": "B/op",
    "trace.overhead_ratio": "ratio",
})


def run_child(cmd: list, env: dict, cwd: str, scratch: str, timeout: float = CMD_TIMEOUT_S):
    """Run cmd to its end; returns (exit code, stdout, stderr, wall s, peak RSS MB).

    Waits in a blocking wait4, not in subprocess's timed wait, whose sleeps of
    up to 50 ms would quantize the timings.  A timer kills a child that
    outlives `timeout`; the child stays unreaped until the timer is cancelled,
    so its pid cannot be reused under the timer.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        lock, exited = threading.Lock(), threading.Event()

        def kill():
            with lock:
                if not exited.is_set():
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = perf_counter() - start
        with lock:
            exited.set()
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), wall, usage.ru_maxrss / 1024.0)


class Cli:
    """Runs the commands of one op, each in a fresh interpreter, and sums their wall time."""

    def __init__(self, env: dict, op_dir: str, work: str, op_id: str, traced: bool):
        self.env = env
        self.op_dir = op_dir
        self.work = work
        self.op_id = op_id
        self.traced = traced
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.span_files: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.op_dir, name)

    def run(self, args: tuple) -> tuple[int, str, str]:
        if self.traced:
            spans = os.path.join(self.work, f"{self.op_id}.{len(self.span_files)}.spans.json")
            self.span_files.append(spans)
            cmd = [sys.executable, TRACE_CHILD, spans, self.op_id, *args]
        else:
            cmd = [sys.executable, "-m", "lattes_forge.cli", *args]
        code, out, err, wall, rss = run_child(cmd, self.env, self.op_dir, self.work)
        self.wall_s += wall
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, out, err


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = "1"  # small SVD and np.roots calls must not contend for cores
    env.pop("LATTES_FORGE_THREADS", None)  # render at the default thread count
    return env


_META_SCRIPT = r"""
import ctypes, glob, json, os, sys
import numpy, lattes_forge
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(ctypes.CDLL(lib), sym):
            threads = getattr(ctypes.CDLL(lib), sym)()
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
                  "package": lattes_forge.__file__}))
"""


def metadata(env: dict) -> dict:
    """Versions and settings every result is recorded with."""
    child = json.loads(subprocess.run([sys.executable, "-c", _META_SCRIPT], env=env, check=True,
                                      capture_output=True, text=True, timeout=60).stdout)
    if not os.path.abspath(child.pop("package")).startswith(SRC + os.sep):
        raise RuntimeError(f"lattes_forge is not imported from {SRC}")
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "lattes_forge")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), **child,
            "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
            "LATTES_FORGE_THREADS": os.environ.get("LATTES_FORGE_THREADS", "unset"),
            "LATTES_FORGE_THREADS_child": "unset"}


def setup_times(env: dict, work: str) -> tuple[list[float], list[float]]:
    """Wall times of interpreter start plus `import lattes_forge`, after one warm-up
    import that writes the bytecode cache (a user pays that once per install),
    and the host probes taken between them."""
    cmd = [sys.executable, "-c", "import lattes_forge"]
    times, probes = [], []
    for _ in range(SETUP_RUNS + 1):
        probes.append(host_probe())
        code, _, err, wall, _ = run_child(cmd, env, work, work, timeout=60)
        if code != 0:
            raise RuntimeError(f"import lattes_forge failed: {err.strip()}")
        times.append(wall)
    return times[1:], probes[1:]


def _bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def run_op(workload, op, refs: dict, env: dict, work: str, op_id: str, traced: bool) -> dict:
    op_dir = os.path.join(work, op_id)
    os.makedirs(op_dir)
    cli = Cli(env, op_dir, work, op_id, traced)
    try:
        outcome = workload.execute(op, cli, refs)
        status, detail = outcome.status, outcome.detail
    except (OSError, ValueError, KeyError) as exc:  # the program said ok but left bad output
        status, detail = "wrong", f"{type(exc).__name__}: {exc}"
    written = _bytes_under(op_dir)
    shutil.rmtree(op_dir)
    docs = []
    for path in cli.span_files:
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                docs.append(json.load(fh))
            os.remove(path)
    return {"key": op.key, "status": status, "detail": detail, "wall_s": cli.wall_s,
            "traced": traced, "rss_mb": cli.peak_rss_mb, "bytes": written,
            "layers": span_totals(docs)}


def span_totals(docs: list[dict]) -> Counter:
    """Counts, self times and span numbers of one op, keyed "<span>.<kind>"."""
    tot = Counter()
    for doc in docs:
        names, parent = doc["name"], doc["parent"]
        for i, t in enumerate(self_times(doc["start"], doc["end"], parent)):
            tot[names[i] + ".calls"] += 1
            tot[names[i] + ".self_s"] += t
            tot[names[i] + ".failed"] += not doc["ok"][i]
            if (names[i] == "perturbation.solve_collision" and parent[i] >= 0
                    and names[parent[i]] == "perturbation.solve_gamma_k"):
                tot["perturbation.solve_gamma_k.collision_solves"] += 1
        for name, count in doc["distinct"].items():
            tot[name + ".distinct"] += count
        for values in doc["attrs"].values():
            tot.update(values)
    return tot


def layer_metrics(traced_ops: list[dict], untraced_ok_walls: list[float],
                  defects: list[dict] = ()) -> dict:
    """Per-op means of span counts and self times over the traced ops, ratios,
    and the number of known-defect ops that still fail."""
    n = len(traced_ops)
    tot = Counter()
    for rec in traced_ops:
        tot.update(rec["layers"])
        tot["bytes"] += rec["bytes"]
    out = {f"{span}.{kind}": ratio(tot[f"{span}.{kind}"], n)
           for span, kinds in _SPAN_METRICS.items() for kind in kinds}
    traced_ok = [rec["wall_s"] for rec in traced_ops if rec["status"] == "ok"]
    out.update({
        "elliptic.half_periods.distinct_ratio":
            ratio(tot["elliptic.half_periods.distinct"], tot["elliptic.half_periods.calls"]),
        "lattes.build_rational_map.distinct_ratio":
            ratio(tot["lattes.build_rational_map.distinct"], tot["lattes.build_rational_map.calls"]),
        "dynamics.julia_render.pixel_iters_per_s":
            ratio(tot["pixel_iters"], tot["dynamics.julia_render.self_s"]),
        "perturbation.solve_gamma_k.collision_solves":
            ratio(tot["perturbation.solve_gamma_k.collision_solves"],
                  tot["perturbation.solve_gamma_k.calls"]),
        "perturbation.solve_collision.secant_iters": ratio(tot["iters"], n),
        "perturbation.rows_failed": ratio(tot["rows_failed"], n),
        "cli.bytes_written": ratio(tot["bytes"], n),
        "trace.overhead_ratio": (ratio(median(traced_ok), median(untraced_ok_walls))
                                 if traced_ok and untraced_ok_walls else 0.0),
        "perturbation.verify_lemma3.known_defects_failing":
            float(sum(rec["status"] != "ok" for rec in defects)),
    })
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(args, meta: dict, setup: list[float], records: list[dict], defects: list[dict],
           setup_host: float, ops_probe: float, probe_scaled: bool) -> dict:
    """Print the report; return the metrics of the last line.

    Timings are reported at the reference host speed: wall time divided by the
    host factor of the same phase of the run (set-up or ops, the latter 1 for
    a workload whose ops do not follow the probe); rates multiplied by it.
    The wall figures are printed next to them.
    """
    untraced = [r for r in records if not r["traced"]]
    ok_walls = [r["wall_s"] for r in untraced if r["status"] == "ok"]
    n_failed = sum(r["status"] != "ok" for r in untraced)
    print(f"lattes-forge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    ops_host = ops_probe if probe_scaled else 1.0
    print(f"host factor (median probe / {PROBE_REF_S} s): set-up {setup_host:.4f}, "
          f"ops {ops_probe:.4f}" + ("" if probe_scaled else " (not applied to this workload)"))
    for rec in records:
        if rec["status"] != "ok":
            print(f"op {rec['status']}: {rec['key']}: {rec['detail']}")
    # (name, wall value, divisor to the reference host speed, unit, samples)
    rows = [("setup_s", median(setup), setup_host, "s", len(setup)),
            ("op_p50_s", median(ok_walls) if ok_walls else 0.0, ops_host, "s", len(ok_walls))]
    tail_at = tail(ok_walls)
    if tail_at:
        rows.append((f"op_tail_s (p{tail_at[0]:.1f})", tail_at[1], ops_host, "s", len(ok_walls)))
    else:
        print(f"op_tail_s: undefined, {len(ok_walls)} samples leave fewer than "
              f"ten beyond any percentile")
    rows += [("good_ops_per_s", ratio(len(ok_walls), sum(r["wall_s"] for r in untraced)),
              1.0 / ops_host, "1/s", len(untraced)),
             ("failed_ratio", ratio(n_failed, len(untraced)), 1.0, "ratio", len(untraced)),
             ("peak_rss_mb", max(r["rss_mb"] for r in untraced), 1.0, "MB", len(untraced))]
    values = {}
    for name, wall, factor, unit, n in rows:
        values[name] = wall / factor
        print(f"{name:34s} {wall / factor:14.6g} {unit:6s} n={n:<5d}"
              + (f" wall {wall:.6g}" if factor != 1.0 else ""))
    if args.trace:
        metrics = layer_metrics([r for r in records if r["traced"]], ok_walls, defects)
        for rec in defects:
            print(f"known defect {rec['status']}: {rec['key']}: {rec['detail']}")
        n_traced = sum(r["traced"] for r in records)
        for name, unit in PER_LAYER.items():
            print(f"{name:50s} {metrics[name]:14.6g} {unit:10s} n={n_traced}")
        return {name: _metric(metrics[name], unit) for name, unit in PER_LAYER.items()}
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lattes_forge", "cli.py")):
        print(f"error: no lattes_forge package under {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="ascii") as fh:
        refs = json.load(fh)
    env = child_env()
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        try:
            setup, setup_probes = setup_times(env, work)
            meta = metadata(env)
        except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload]
        ops = workload.ops(args.seed)
        records, probes = [], []
        start = perf_counter()
        while not records or perf_counter() - start < args.seconds:
            probes.append(host_probe())
            op = next(ops)
            op_id = f"op{len(records)}"
            records.append(run_op(workload, op, refs, env, work, op_id, traced=False))
            if args.trace:
                records.append(run_op(workload, op, refs, env, work, op_id + "t", traced=True))
        probes.append(host_probe())
        # specs that fail at this commit, once each and untimed, so that a fix shows
        defects = [run_op(workload, op, refs, env, work, f"defect{i}", traced=False)
                   for i, op in enumerate(workload.known_defects)] if args.trace else []
        metrics = report(args, meta, setup, records, defects, host_factor(setup_probes),
                         host_factor(probes), workload.probe_scaled)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wrong = sum(r["status"] == "wrong" for r in records + defects)
    passed = sum(r["status"] == "ok" for r in records)
    print(json.dumps({"correct": wrong == 0 and passed > 0, "attempted": len(records),
                      "failed": len(records) - passed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
