"""Record the answers the benchmark checks results against.

    python3 bench/record_references.py

Runs every construct and render spec of the pools in workloads.py once, with
the package under src/, and writes bench/references.json: gamma_k, r_k and
the postcritical count per k of each construct base point, and the red
channel and bright-green share of each render.  Rerun it only for a change
that is meant to move these answers beyond the tolerances in workloads.py.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import REFERENCES, ROOT, Cli, child_env
from workloads import (
    CONSTRUCT_POOL,
    RENDER_POOL,
    construct_op,
    construct_result,
    read_ppm,
    render_op,
    render_summary,
)


def main() -> int:
    env = child_env()
    work = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(work)
    refs = {"construct": {}, "render": {}}
    try:
        for spec in CONSTRUCT_POOL:
            op = construct_op(*spec)
            cli = Cli(env, work, work, "record", traced=False)
            out = cli.path(f"construct-{len(refs['construct'])}")
            code, stdout, stderr = cli.run(op.args + ("--out", out))
            if code != 0:
                raise SystemExit(f"{op.key}: exit {code}\n{stdout}{stderr}")
            refs["construct"][op.key] = construct_result(out)
            print(f"{op.key}: {len(refs['construct'][op.key])} rows", flush=True)
        for spec in RENDER_POOL:
            op = render_op(*spec)
            cli = Cli(env, work, work, "record", traced=False)
            path = cli.path(f"render-{len(refs['render'])}.ppm")
            code, stdout, stderr = cli.run(op.args + ("--out", path))
            if code != 0:
                raise SystemExit(f"{op.key}: exit {code}\n{stdout}{stderr}")
            refs["render"][op.key] = render_summary(*read_ppm(path))
            print(f"{op.key}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCES, "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
