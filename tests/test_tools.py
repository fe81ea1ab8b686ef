"""The output-comparison tools under tools/, their checks and the commands they
run, the perf ledger's reading of the harness's output, and the bench tracer's
hold on the layers of src/."""

import collections
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lattes_forge.cli import build_parser
from lattes_forge.dynamics import ppm_bytes
from lattes_forge.lattes import map_to_dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import bench_pairs  # noqa: E402
import render_agreement  # noqa: E402
import same_outputs  # noqa: E402
import trace_child  # noqa: E402


def _write_ppm(path, green=255, shape=(16, 16)):
    """A PPM of the renderer's palette (blue equal to red) unless green is off it."""
    buffer = np.empty(shape + (3,), dtype=np.uint8)
    buffer[..., 0] = buffer[..., 2] = 128
    buffer[..., 1] = green
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(ppm_bytes(buffer))


def test_render_agreement_accepts_the_same_ppm(tmp_path):
    for side in ("a", "b"):
        _write_ppm(tmp_path / side / "run" / "render.ppm")
    assert render_agreement.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("b_name, b_args, reason", [
    ("render.ppm", dict(green=7), "palette BROKEN"),
    ("render.ppm", dict(shape=(16, 17)), "shapes 16x16 and 17x16"),
    ("other.ppm", {}, "no PPM is held in both directories"),
], ids=["palette-break", "shape-mismatch", "none-in-both"])
def test_render_agreement_refuses(tmp_path, capsys, b_name, b_args, reason):
    _write_ppm(tmp_path / "a" / "render.ppm")
    _write_ppm(tmp_path / "b" / b_name, **b_args)
    assert render_agreement.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out, err = capsys.readouterr()
    assert reason in out + err


def test_same_outputs_job_counts():
    # the sweep grid keeps the denominators that are odd and coprime with a
    assert len(same_outputs.sweep_jobs()) == 160
    assert len(same_outputs.jobs()) == 76 + 2 * len(same_outputs.MAP_DOCUMENTS) == 86


def test_same_outputs_commands_parse():
    # a renamed or removed flag would turn a job into a usage error, which
    # the byte comparison of two such runs would not notice
    parser = build_parser()
    usage_errors = set(same_outputs.USAGE_ERRORS)
    for args, out_flag in same_outputs.jobs() + same_outputs.sweep_jobs():
        if args not in usage_errors:
            parser.parse_args(list(args + out_flag))
    parser.parse_args(["certify", "construction_k3.json"])


def test_the_bench_tracer_finds_every_traced_name():
    # the tracer looks each name up with a bare getattr: a deleted or renamed
    # layer function would break every traced bench run
    for layer, names in trace_child.TRACED.items():
        module = importlib.import_module(f"lattes_forge.{layer}")
        for name in names:
            assert callable(getattr(module, name)), f"{layer}.{name}"


def _traced_spans(tmp_path, *args) -> collections.Counter:
    """Span names of one command run under bench/trace_child.py, which must exit 0."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "trace_child.py"),
                           str(spans), "op", *args, "--out", str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return collections.Counter(json.loads(spans.read_text())["name"])


def test_the_bench_tracer_runs_over_the_layers(tmp_path, base_a2):
    # lemma 3 builds its one map in closed form and fits none
    names = _traced_spans(tmp_path, "verify-lemma3", "--a", "3", "--case", "2", "--x0=1/5")
    assert names["lattes.RationalMapCoeffs"] == 1
    assert names["lattes.build_rational_map"] == 0
    (tmp_path / "base.json").write_text(json.dumps(map_to_dict(base_a2)))
    names = _traced_spans(tmp_path, "certify", "base.json")
    assert names["dynamics.critical_points"] >= 1
    assert names["perturbation.certify_strictly_pcf"] >= 1
    # construct certifies each critical orbit by pulling its landing cycle back
    names = _traced_spans(tmp_path, "construct", "--k-min", "3", "--k-max", "3")
    assert names["dynamics.classify_orbit"] >= 3
    assert names["dynamics.pullback_branch"] >= 1


def _canned_run(commit: str, op_p50_s: float, good_ops_per_s: float) -> str:
    """A bench/run.py --trace 0 output: report lines, the meta line, the summary."""
    meta = {"commit": commit, "src_sha256": commit * 4, "nproc": 2, "cpus_usable": 2,
            "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.30",
            "blas_threads": 1, "OPENBLAS_NUM_THREADS": "1"}
    metrics = {"setup_s": (0.07, "s"), "op_p50_s": (op_p50_s, "s"),
               "good_ops_per_s": (good_ops_per_s, "1/s"), "peak_rss_mb": (30.0, "MB")}
    summary = {"correct": True, "attempted": 40, "failed": 0,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return "\n".join(["lattes-forge benchmark: workload=lattice_sweep seed=5 seconds=36.0 trace=0",
                      "meta " + json.dumps(meta), "op_p50_s 0.1 s n=40", json.dumps(summary)]) + "\n"


def test_bench_pairs_alternates_and_summarizes(tmp_path, capsys):
    # canned runs: the change is faster in pairs 0, 1 and 3 and slower in 2
    speeds = {"parent": iter([0.13, 0.14, 0.10, 0.12]), "change": iter([0.08, 0.09, 0.11, 0.07])}
    calls = []

    def run(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        calls.append((side, workload, seed, seconds))
        p50 = next(speeds[side])
        return _canned_run("a" if side == "parent" else "b", p50, 1.0 / p50)

    # the change is a git clone whose src/ is committed; the parent is no clone
    change = tmp_path / "change"
    (change / "src").mkdir(parents=True)
    (change / "src" / "m.py").write_text("x = 1\n")
    git = ["git", "-C", str(change), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "src"]):
        subprocess.run(git + cmd, check=True, capture_output=True)
    out = tmp_path / "BENCH.json"
    args = [str(tmp_path / "parent"), str(change), "--workload", "lattice_sweep",
            "--pairs", "4", "--seed", "5", "--out", str(out)]
    assert bench_pairs.main(args, run=run) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert {c[1:] for c in calls} == {("lattice_sweep", 5, 36.0)}  # BENCHMARK.json's run_seconds
    ledger = json.loads(out.read_text())
    assert ledger["schema"] == "lattes-forge bench-pairs 4"
    entry = ledger["workloads"]["lattice_sweep"]
    assert entry["host"]["nproc"] == 2 and entry["host"]["blas_threads"] == 1
    assert entry["parent"] == {"commit": "a", "src_sha256": "aaaa", "src_committed": None}
    assert entry["change"] == {"commit": "b", "src_sha256": "bbbb", "src_committed": True}
    # an edited or an untracked file under src/ is not committed
    (change / "src" / "m.py").write_text("x = 2\n")
    assert bench_pairs.src_committed(str(change)) is False
    subprocess.run(git + ["checkout", "-q", "--", "src"], check=True)
    assert bench_pairs.src_committed(str(change)) is True
    (change / "src" / "new.py").write_text("")
    assert bench_pairs.src_committed(str(change)) is False
    assert (entry["seconds"], entry["seed"]) == (36.0, 5)
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change"] * 2
    assert entry["pairs"][0]["parent"] == {"correct": True, "attempted": 40, "failed": 0,
                                           "metrics": {"setup_s": 0.07, "op_p50_s": 0.13,
                                                       "good_ops_per_s": 1 / 0.13,
                                                       "peak_rss_mb": 30.0}}
    p50 = entry["summary"]["op_p50_s"]
    assert (p50["unit"], p50["better"], p50["wins"], p50["pairs"]) == ("s", "lower", 3, 4)
    assert p50["parent"] == pytest.approx({"median": 0.125, "q1": 0.115, "q3": 0.1325})
    assert p50["change"]["median"] == pytest.approx(0.085)
    assert entry["summary"]["good_ops_per_s"]["better"] == "higher"
    assert entry["summary"]["good_ops_per_s"]["wins"] == 3
    assert entry["summary"]["setup_s"]["wins"] == 0  # ties are not wins
    # 3 wins of 4 fall short of ceil(0.9 * 4) = 4: no gain may be claimed
    assert not any(m["claimable"] for m in entry["summary"].values())
    printed = capsys.readouterr().out
    assert "op_p50_s: parent 0.125" in printed and "better in 3 of 4, claimable no" in printed
    # a second workload joins the file; the first is kept
    speeds = {"parent": iter([0.5]), "change": iter([0.5])}
    assert bench_pairs.main(args[:3] + ["render", "--pairs", "1", "--seed", "1", "--out", str(out)],
                            run=run) == 0
    ledger = json.loads(out.read_text())
    assert sorted(ledger["workloads"]) == ["lattice_sweep", "render"]
    assert ledger["workloads"]["render"]["summary"]["op_p50_s"]["parent"]["q3"] == 0.5
    # a ledger of another schema is refused, not mixed into
    out.write_text(json.dumps({"schema": "lattes-forge bench-pairs 3", "workloads": {}}))
    with pytest.raises(SystemExit):
        bench_pairs.main(args, run=run)


@pytest.mark.parametrize("change, claimable", [
    ([0.08, 0.09, 0.07, 0.08], True),    # every pair won, by more than the parent's q3 - q1
    ([0.12, 0.13, 0.095, 0.115], False),  # every pair won, within the parent's q3 - q1
    ([0.08, 0.09, 0.11, 0.07], False),   # 3 of 4 pairs won
])
def test_bench_pairs_claims_a_gain_by_the_claim_rule(change, claimable):
    parent = [0.13, 0.14, 0.10, 0.12]  # median 0.125, q3 - q1 = 0.0175
    pairs = [{"parent": {"metrics": {"op_p50_s": q, "good_ops_per_s": 1 / q}},
              "change": {"metrics": {"op_p50_s": c, "good_ops_per_s": 1 / c}}}
             for q, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, {"op_p50_s": "lower", "good_ops_per_s": "higher"},
                                    {"op_p50_s": "s", "good_ops_per_s": "1/s"})
    assert summary["op_p50_s"]["claimable"] is claimable
    assert summary["good_ops_per_s"]["claimable"] is claimable
