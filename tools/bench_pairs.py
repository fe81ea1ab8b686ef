"""Run the benchmark in alternating pairs on two checkouts and keep a perf ledger.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S
                                [--out BENCH_<n>.json]

PARENT and CHANGE are two checkouts of the repository, each with its own
bench/run.py and src/.  Pair i runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` in both, parent first in even pairs and change first in
odd ones, so that a slow drift of the host does not favour either side.  T is
BENCHMARK.json's run_seconds, so every pair runs as long as the benchmark does.  Each
run's output is read for its `meta` line and its last line, the harness's JSON
summary; nothing under bench/ is changed or re-implemented.  The end-to-end
metric names and the direction in which each is better come from the same
BENCHMARK.json, the one beside this tool.

The ledger is one JSON file (default BENCH.json).  A workload's entry is
replaced when the tool runs it again and the other workloads are kept, so one
file can hold a pair series per workload:

    {"schema": "lattes-forge bench-pairs 4",
     "workloads": {W: {
         "seconds": T, "seed": S,
         "host": {"nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads",
                  "env": {OPENBLAS_NUM_THREADS and every inherited PYTHON* variable}},
         "parent": {"commit", "src_sha256", "src_committed"},
         "change": {"commit", "src_sha256", "src_committed"},
         "pairs": [{"first": "parent" | "change", "parent": RUN, "change": RUN}, ...],
         "summary": {METRIC: {"unit", "better": "lower" | "higher",
                              "parent": {"median", "q1", "q3"},
                              "change": {"median", "q1", "q3"},
                              "wins": pairs in which the change is better,
                              "pairs": N, "claimable": bool}}}}}

RUN is {"correct", "attempted", "failed", "metrics": {METRIC: value}}, the
harness's last line with each metric's unit dropped (the summary keeps it).
`commit` is the HEAD of the checkout as the harness reads it, or null outside
a git clone; `src_sha256` is the harness's digest of the src/ that ran, so it
tells two checkouts apart even where their HEADs agree.  `src_committed` says
whether that src/ is the one `commit` holds (`git status --porcelain -- src`
prints nothing), or is null outside a git clone: a change measured from an
uncommitted tree reads false, not as its parent's HEAD.  `host` is the host
that measured the workload's pairs, as the change's last run reports it.  Quartiles are
inclusive (statistics.quantiles); a tie is not a win.  A metric is
`claimable`, a gain that may be claimed, when the change wins at least
ceil(0.9 N) of the N pairs and its median is better than the parent's by more
than the parent's interquartile range q3 - q1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "lattes-forge bench-pairs 4"
_HOST_KEYS = ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads")


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> str:
    """The stdout of one untraced harness run in checkout."""
    proc = subprocess.run([sys.executable, os.path.join(checkout, "bench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return proc.stdout


def src_committed(checkout: str) -> bool | None:
    """Whether the checkout's src/ is committed, or None outside a git clone
    (or where git cannot read it)."""
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return None if proc.returncode else proc.stdout == ""


def parse_run(text: str) -> tuple[dict, dict, dict]:
    """(meta, run, units) of one harness output, from its `meta` line and its
    last line."""
    lines = text.strip().splitlines()
    meta = next(json.loads(line[len("meta "):]) for line in lines if line.startswith("meta "))
    last = json.loads(lines[-1])
    run = {key: last[key] for key in ("correct", "attempted", "failed")}
    run["metrics"] = {name: m["value"] for name, m in last["metrics"].items()}
    return meta, run, {name: m["unit"] for name, m in last["metrics"].items()}


def _spread(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, better: dict, units: dict) -> dict:
    """Per end-to-end metric: the two sides' medians and quartiles, wins, and
    whether the gain is claimable."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0  # sign * (parent - change) > 0 is better
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum(sign * (q - c) > 0 for q, c in zip(parent, change))
        before, after = _spread(parent), _spread(change)
        gain = sign * (before["median"] - after["median"])
        claimable = wins >= math.ceil(9 * len(pairs) / 10) and gain > before["q3"] - before["q1"]
        out[name] = {"unit": units[name], "better": direction, "parent": before,
                     "change": after, "wins": wins, "pairs": len(pairs), "claimable": claimable}
    return out


def host_record(meta: dict) -> dict:
    env = {k: v for k, v in sorted(os.environ.items())
           if k.startswith("PYTHON") or k == "OPENBLAS_NUM_THREADS"}
    return {**{k: meta.get(k) for k in _HOST_KEYS}, "env": env}


def measure(parent: str, change: str, workload: str, n_pairs: int, seed: int,
            run=run_bench) -> dict:
    """The workload entry of n_pairs alternating runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    seconds = float(bench["run_seconds"])
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"parent": parent, "change": change}
    pairs, metas, units = [], {}, {}
    for i in range(n_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            metas[side], pair[side], run_units = parse_run(
                run(checkouts[side], workload, seed, seconds))
            units.update(run_units)
        pairs.append(pair)
    return {"seconds": seconds, "seed": seed, "host": host_record(metas["change"]),
            **{side: {"commit": metas[side].get("commit"),
                      "src_sha256": metas[side].get("src_sha256"),
                      "src_committed": src_committed(checkout)}
               for side, checkout in checkouts.items()},
            "pairs": pairs, "summary": summarize(pairs, better, units)}


def main(argv=None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    ledger = {"schema": SCHEMA, "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="ascii") as fh:
            ledger = json.load(fh)
        if ledger.get("schema") != SCHEMA:
            parser.error(f"{args.out} is not a {SCHEMA!r} ledger")
    entry = measure(args.parent, args.change, args.workload, args.pairs, args.seed, run)
    ledger["workloads"][args.workload] = entry
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, s in entry["summary"].items():
        print(f"{args.workload} {name}: parent {s['parent']['median']:.6g} "
              f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] -> change "
              f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, {s['change']['q3']:.6g}] "
              f"{s['unit']}, better in {s['wins']} of {s['pairs']}, "
              f"claimable {'yes' if s['claimable'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
