"""The output-comparison tools under tools/, their checks and the commands they
run, and the bench tracer's hold on the layers of src/."""

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
    assert len(same_outputs.jobs()) == 70 + 2 * len(same_outputs.MAP_DOCUMENTS) == 80


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
    names = _traced_spans(tmp_path, "verify-lemma3", "--a", "3", "--case", "2", "--x0=1/5")
    assert names["lattes.build_rational_map"] == names["lattes.RationalMapCoeffs"] == 1
    (tmp_path / "base.json").write_text(json.dumps(map_to_dict(base_a2)))
    names = _traced_spans(tmp_path, "certify", "base.json")
    assert names["dynamics.critical_points"] >= 1
    assert names["perturbation.certify_strictly_pcf"] >= 1
