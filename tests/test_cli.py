"""Exit codes, artifacts, and determinism of the command line tool."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import lattes_forge.cli as cli
import lattes_forge.perturbation as perturbation
from lattes_forge.cli import _atomic_write, main
from lattes_forge.lattes import map_to_dict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
Z2_PLUS_1 = {"degree": 2, "num": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
             "den": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}


def test_usage_errors():
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["verify-lemma3", "--x0", "not-a-rational"]) == 1


# each subcommand takes only the flags it reads
@pytest.mark.parametrize("command,flag", [
    ("verify-lemma1", "--a=3"), ("verify-lemma1", "--case=2"),
    ("verify-lemma1", "--x0=1/5"), ("verify-lemma1", "--y0=1"),
    ("verify-lemma1", "--seed=1"), ("verify-lemma1", "--corrupt-theta"),
    ("verify-lemma3", "--seed=1"),
    ("construct", "--format=csv"), ("construct", "--seed=1"),
    ("certify", "--a=3"), ("certify", "--case=2"), ("certify", "--x0=1/5"),
    ("certify", "--y0=1"), ("certify", "--format=csv"), ("certify", "--seed=1"),
    ("render", "--tol=1e-6"), ("render", "--format=csv"), ("render", "--seed=1"),
])
def test_removed_flags_are_refused(tmp_path, base_a2, capsys, command, flag):
    args = [command]
    if command == "certify":
        path = tmp_path / "base.json"
        path.write_text(json.dumps(map_to_dict(base_a2)))
        args.append(str(path))
    assert main(args + [flag]) == 1
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


def test_verify_lemma1_default_grid(tmp_path, capsys):
    code = main(["verify-lemma1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "worst residual" in out
    doc = json.loads((tmp_path / "lemma1_report.json").read_text())
    assert doc["passed"] is True
    assert doc["worst_residual"] < 1e-8
    assert len(doc["rows"]) == 25


def test_verify_lemma1_corrupt_detector(monkeypatch):
    exact = cli.theta_data
    monkeypatch.setattr(cli, "theta_data", lambda gamma: dataclasses.replace(
        exact(gamma), lam=exact(gamma).lam + 1e-3))
    assert main(["verify-lemma1"]) == 2


def test_verify_lemma1_grid_validation(capsys):
    assert main(["verify-lemma1", "--grid", "0:1:0:-1:5"]) == 1
    assert "upper half plane" in capsys.readouterr().err
    assert main(["verify-lemma1", "--grid", "1:2:3"]) == 1


def test_verify_lemma1_csv_report(tmp_path):
    assert main(["verify-lemma1", "--format", "csv", "--out", str(tmp_path),
                 "--grid=-0.2:0.2:0.9:1.1:2"]) == 0
    lines = (tmp_path / "lemma1_report.csv").read_text().splitlines()
    assert lines[0] == "# lattes-forge lemma1-report schema 1"
    assert lines[1].startswith("gamma_re,gamma_im,")
    assert len(lines) == 2 + 4


def test_verify_lemma3_cases(tmp_path):
    assert main(["verify-lemma3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "lemma3_report.json").read_text())
    assert doc["passed"] is True
    assert abs(doc["c_measured"][0] + 1.0) < 1e-6
    assert main(["verify-lemma3", "--a", "3", "--case", "2", "--x0", "1/5"]) == 0


def test_construct_artifacts_and_determinism(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    args = ["construct", "--k-min", "3", "--k-max", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    art = out1 / "construction_k3.json"
    csv = out1 / "convergence.csv"
    assert art.exists() and csv.exists()
    assert art.read_bytes() == (out2 / "construction_k3.json").read_bytes()
    assert csv.read_bytes() == (out2 / "convergence.csv").read_bytes()
    doc = json.loads(art.read_text())
    assert doc["schema_version"] == "2"
    assert "seed" not in doc
    assert doc["postcritical_count"] == 9
    assert len(doc["certificates"]) == 3
    assert doc["map"]["degree"] == 4
    lines = csv.read_text().splitlines()
    assert lines[0] == "# lattes-forge convergence-table schema 1"
    assert lines[1].startswith("k,status,asymptotic,")
    assert lines[2].startswith("3,ok,true,")


def test_construct_render(tmp_path, monkeypatch):
    # the base map is fit once, for the table, and its render reads that fit
    fits = []
    for module in (cli, perturbation):
        monkeypatch.setattr(module, "build_rational_map",
                            lambda spec, fit=module.build_rational_map: fits.append(spec) or fit(spec))
    perturbation.base_map_for.cache_clear()
    out = tmp_path / "run"
    assert main(["construct", "--k-min", "3", "--k-max", "3", "--render", "--size", "16",
                 "--out", str(out)]) == 0
    assert len(fits) == 7
    assert (out / "g_k3.ppm").read_bytes().startswith(b"P6\n16 16\n255\n")
    alone = tmp_path / "base.ppm"
    assert main(["render", "--size", "16", "--out", str(alone)]) == 0
    assert (out / "base.ppm").read_bytes() == alone.read_bytes()


def test_construct_rejects_bad_parameters(capsys):
    assert main(["construct", "--a", "3", "--case", "2", "--x0", "1/3"]) == 1
    assert "coprime" in capsys.readouterr().err


def test_construct_precision_ceiling(tmp_path):
    code = main(["construct", "--a", "3", "--case", "2", "--x0", "1/5",
                 "--k-min", "9", "--k-max", "10", "--out", str(tmp_path)])
    assert code == 3
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[2].startswith("9,precision_exhausted,")
    assert lines[3].startswith("10,precision_exhausted,")


def test_precision_exhausted_row_keeps_its_collisions(tmp_path):
    # the collisions solve at k = 11; only the gamma solve is refused there
    assert main(["construct", "--k-min", "11", "--k-max", "11", "--out", str(tmp_path)]) == 3
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    (row,) = csv.DictReader(lines[1:])
    assert row["status"] == "precision_exhausted"
    assert abs(float(row["deviation"]) - 1.951e-3) < 1e-6
    for name in ("s_re", "t_re", "u_s_re", "u_t_re", "ratio_re", "target_re"):
        assert row[name] != ""
    assert row["gamma_k_re"] == "" and row["certified"] == ""


def test_construct_certifies_k10(tmp_path):
    assert main(["construct", "--k-min", "10", "--k-max", "10", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[2].startswith("10,ok,true,")
    doc = json.loads((tmp_path / "construction_k10.json").read_text())
    assert doc["postcritical_count"] == 23


def test_certify_construct_artifact(tmp_path):
    out = tmp_path / "run"
    assert main(["construct", "--k-min", "3", "--k-max", "3", "--out", str(out)]) == 0
    code = main(["certify", str(out / "construction_k3.json"), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["postcritical_count"] == 9
    assert doc["lattes_witness"] is False


def test_certify_base_map_is_lattes_witness(tmp_path, base_a2, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(map_to_dict(base_a2)))
    assert main(["certify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "postcritical_count=4" in out
    assert "lattes_witness=true" in out


def test_certify_quadratic_polynomial_fails(tmp_path):
    path = tmp_path / "z2p1.json"
    path.write_text(json.dumps(Z2_PLUS_1))
    assert main(["certify", str(path)]) == 2


def test_certify_bad_inputs(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "missing.json")]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["certify", str(garbled)]) == 1
    assert "cannot load map" in capsys.readouterr().err


def test_certify_refuses_shared_root(tmp_path, capsys):
    # z(z - 1) / (z(z + 1)) has the common root 0
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({"degree": 2, "num": [[0, 0], [-1, 0], [1, 0]],
                                "den": [[0, 0], [1, 0], [1, 0]]}))
    assert main(["certify", str(path)]) == 1
    assert "cannot load map" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_lemma3_a5_period2_any_blas_threads(threads):
    # the period-2 limit point has multiplier a^4 = 625; its tolerance follows
    # that, so the BLAS thread count, which moves the fit's last bits, cannot
    # push the cycle solve below its noise floor
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-m", "lattes_forge.cli", "verify-lemma3", "--a", "5", "--case", "3",
         "--x0=1/7", "--y0=1"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_render_construct_artifact(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["construct", "--k-min", "3", "--k-max", "3", "--out", str(out)]) == 0
    target = tmp_path / "g3.ppm"
    assert main(["render", "--map-file", str(out / "construction_k3.json"),
                 "--size", "16", "--out", str(target)]) == 0
    assert target.read_bytes().startswith(b"P6\n16 16\n255\n")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("[1, 2]")
    assert main(["render", "--map-file", str(garbled), "--size", "16"]) == 1
    assert "cannot load map" in capsys.readouterr().err


def test_render_writes_ppm(tmp_path, monkeypatch):
    target = tmp_path / "img.ppm"
    assert main(["render", "--size", "16", "--max-iter", "6", "--out", str(target)]) == 0
    data = target.read_bytes()
    assert data.startswith(b"P6\n16 16\n255\n")
    monkeypatch.setenv("LATTES_FORGE_THREADS", "2")
    other = tmp_path / "img2.ppm"
    assert main(["render", "--size", "16", "--max-iter", "6", "--out", str(other)]) == 0
    assert other.read_bytes() == data


@pytest.mark.parametrize("args", [["--max-iter", "0"], ["--span", "0"], ["--span=-1"],
                                  ["--span", "inf"], ["--span", "nan"]])
def test_render_refuses_degenerate_arguments(tmp_path, capsys, args):
    target = tmp_path / "img.ppm"
    assert main(["render", "--size", "16", "--out", str(target)] + args) == 1
    assert "error:" in capsys.readouterr().err
    assert not target.exists()


def test_report_floats_round_trip(tmp_path):
    assert main(["verify-lemma1", "--out", str(tmp_path),
                 "--grid=-0.1:0.1:0.9:1.1:2"]) == 0
    text = (tmp_path / "lemma1_report.json").read_text()
    doc = json.loads(text)
    x = doc["worst_residual"]
    assert float(format(x, ".17g")) == x
    assert format(x, ".17g") in text


def test_atomic_write_leaves_other_files_alone(tmp_path):
    path = tmp_path / "report.json"
    stale = tmp_path / "report.json.tmp"
    stale.write_text("someone else's file")
    _atomic_write(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert stale.read_text() == "someone else's file"
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(str(path), "not ascii: \u00e9")
    assert path.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["report.json", "report.json.tmp"]
