"""Exit codes, artifacts, and determinism of the command line tool."""

import csv
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import lattes_forge.cli as cli
import lattes_forge.lattes as lattes
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
    exact = cli.measured_theta_data
    monkeypatch.setattr(cli, "measured_theta_data", lambda gamma: exact(gamma)._replace(
        lam=exact(gamma).lam + 1e-3))
    assert main(["verify-lemma1"]) == 2


def test_verify_lemma1_reports_a_failed_identity(tmp_path, capsys):
    # the Cauchy integral measures this grid to 1.5e-10, inside the default
    # tolerance but not inside 1e-12: the report is still written, and the exit
    # code says why
    grid = "--grid=0.1:0.2:0.3:0.4:2"
    assert main(["verify-lemma1", grid, "--tol=1e-12", "--out", str(tmp_path)]) == 2
    assert ">= tolerance" in capsys.readouterr().out
    doc = json.loads((tmp_path / "lemma1_report.json").read_text())
    assert doc["passed"] is False
    assert len(doc["rows"]) == 4
    assert doc["worst_residual"] > 1e-12
    assert main(["verify-lemma1", grid]) == 0


def test_verify_lemma1_grid_validation(capsys):
    assert main(["verify-lemma1", "--grid", "0:1:0:-1:5"]) == 1
    assert "upper half plane" in capsys.readouterr().err
    assert main(["verify-lemma1", "--grid", "1:2:3"]) == 1
    # not a series that runs out of terms, nor the half-plane message
    for grid in ("nan:1:1:2:2", "0:1:1:inf:2"):
        assert main(["verify-lemma1", "--grid", grid]) == 1
        assert "grid bounds must be finite" in capsys.readouterr().err


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
    assert doc["schema_version"] == "3"
    assert "seed" not in doc
    assert doc["postcritical_count"] == 9
    assert len(doc["certificates"]) == 3
    assert doc["map"]["degree"] == 4
    lines = csv.read_text().splitlines()
    assert lines[0] == "# lattes-forge convergence-table schema 1"
    assert lines[1].startswith("k,status,asymptotic,")
    assert lines[2].startswith("3,ok,true,")
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert (row["target_re"], row["target_im"]) == ("1", "0")  # the ratio's limit


def test_construct_refuses_render(tmp_path, monkeypatch, capsys):
    # only `render` draws: the flags are refused before anything is solved
    def solve(*_args, **_kwargs):
        raise AssertionError("solved before the usage error was refused")

    monkeypatch.setattr(perturbation, "_collision_pair", solve)
    out = tmp_path / "run"
    assert main(["construct", "--k-min", "3", "--k-max", "3", "--render", "--size", "16",
                 "--out", str(out)]) == 1
    assert "unrecognized arguments: --render --size 16" in capsys.readouterr().err
    assert not out.exists()


def test_render_draws_the_construct_run(tmp_path, monkeypatch):
    # `render` draws the base map and g_k of a construct run; the table fits
    # its maps, while render builds the base map in closed form and fits none
    fits = []  # every fit draws its samples from one stream
    monkeypatch.setattr(lattes, "_sample_stream",
                        lambda spec, draw=lattes._sample_stream: fits.append(spec) or draw(spec))
    perturbation.base_map_for.cache_clear()
    out = tmp_path / "run"
    assert main(["construct", "--k-min", "3", "--k-max", "3", "--out", str(out)]) == 0
    assert len(fits) == 7
    base, g3 = tmp_path / "base.ppm", tmp_path / "g_k3.ppm"
    assert main(["render", "--size", "16", "--out", str(base)]) == 0
    assert main(["render", "--map-file", str(out / "construction_k3.json"), "--size", "16",
                 "--out", str(g3)]) == 0
    assert len(fits) == 7
    header = b"P6\n16 16\n255\n"
    assert base.read_bytes().startswith(header) and g3.read_bytes().startswith(header)
    assert base.read_bytes() != g3.read_bytes()


def test_a_depth_beyond_the_float_range_is_a_precision_row(tmp_path, capsys):
    # a^(2k) overflows a float at a = 2, k = 600; the depth is refused like
    # every depth past double precision's resolution: a row, exit 3
    assert main(["construct", "--k-min", "600", "--k-max", "600", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out == "k=600: precision_exhausted\n"
    rows = list(csv.DictReader((tmp_path / "convergence.csv").read_text().splitlines()[1:]))
    assert [(row["k"], row["status"]) for row in rows] == [("600", "precision_exhausted")]


def test_construct_rejects_bad_parameters(capsys):
    assert main(["construct", "--a", "3", "--case", "2", "--x0", "1/3"]) == 1
    assert "coprime" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["construct", "--k-min", "5", "--k-max", "3"],
    ["construct", "--k-min", "0", "--k-max", "0"],
    ["construct", "--tol=-1", "--k-min", "3", "--k-max", "3"],
    ["construct", "--tol=inf"],
    ["verify-lemma3", "--tol=-1"],
    ["verify-lemma1", "--tol=nan"],
    ["certify", "--tol=0", "map.json"],
    ["construct", "--k-min", "3", "--k-max", "3", "--render", "--size", "8"],
    ["construct", "--x0=1/2"],  # denominator not coprime with 2a
    ["construct", "--y0=-1"],
    ["construct", "--a", "1"],
    ["construct", "--a", "2", "--case", "2"],  # case 2 needs odd a
    ["verify-lemma1", "--grid", "1:2:3"],
    ["certify", "--max-iter", "0", "map.json"],
    ["render", "--max-iter", "0"],
    ["verify-lemma3", "--x0=1e309"],  # beyond the float range
    ["construct", "--y0=1e309"],
    ["verify-lemma3", "--y0=1e-400"],  # positive, but its float underflows to 0
    ["render", "--x0=1e-400"],
])
def test_usage_error_writes_nothing(tmp_path, monkeypatch, capsys, args):
    # refused before --out is created and before anything is solved
    def solve(*_args, **_kwargs):
        raise AssertionError("solved before the usage error was refused")

    monkeypatch.setattr(perturbation, "_collision_pair", solve)
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    # a positive value whose float is 0 is refused as such, not for its sign
    assert ("underflow" in err) == any(arg.endswith("=1e-400") for arg in args)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["construct", "--a", "6", "--x0=1/5", "--k-min", "3", "--k-max", "3"],
    ["construct", "--a", "6", "--x0=1/5", "--k-min", "10", "--k-max", "10"],
    ["verify-lemma3", "--a", "7", "--case", "2"],
    ["render", "--a", "6", "--size", "16"],
])
def test_a_degree_above_the_cap_is_a_usage_error(tmp_path, capsys, args):
    # the spec refuses a^2 > 25 where it is made: at every depth, before
    # --out is created and before any map is built
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 1
    assert "exceeds the cap" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("y0", ["1/7", "1/51", "1/10001", "100", "1000", "1e20"])
def test_typed_failures_become_rows(tmp_path, y0):
    # at gamma0 = i/7 and i/51 theta_data refuses the half-period values,
    # distinct in exact arithmetic but closer than double precision separates;
    # at i/10001 their theta series would need more terms than they may take,
    # and from 100i on they would leave the float range.  Each row
    # records the refusal and the table is still written
    assert main(["construct", "--x0=0", f"--y0={y0}", "--k-min", "3", "--k-max", "4",
                 "--out", str(tmp_path)]) == 2
    rows = list(csv.DictReader((tmp_path / "convergence.csv").read_text().splitlines()[1:]))
    assert [(row["k"], row["status"]) for row in rows] == [("3", "error:IllConditioned"),
                                                           ("4", "error:IllConditioned")]
    assert sorted(os.listdir(tmp_path)) == ["convergence.csv"]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_iter_is_refused_before_anything_is_loaded(tmp_path, monkeypatch, capsys, value):
    def refuse(*_args, **_kwargs):
        raise AssertionError("loaded or built before the usage error was refused")

    monkeypatch.setattr(cli, "_load_map", refuse)
    monkeypatch.setattr(cli, "lattes_map", refuse)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(Z2_PLUS_1))
    out = tmp_path / "out"
    for args in (["certify", str(path)], ["render"]):
        assert main(args + ["--max-iter", value, "--out", str(out)]) == 1
        assert "must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_construct_at_low_imaginary_part(tmp_path):
    # gamma0 = 1/5 + i/3: the quadratic coefficients come from their closed
    # form, so no finite-difference identity check can abort the table
    assert main(["construct", "--x0=1/5", "--y0=1/3", "--k-min", "2", "--k-max", "3",
                 "--out", str(tmp_path)]) == 0
    for k in (2, 3):
        path = tmp_path / f"construction_k{k}.json"
        count = json.loads(path.read_text())["postcritical_count"]
        assert count > 4
        assert main(["certify", str(path), "--out", str(tmp_path / f"cert{k}")]) == 0
        cert = json.loads((tmp_path / f"cert{k}" / "certificate.json").read_text())
        assert cert["postcritical_count"] == count


def test_construct_computes_each_itinerary_once(tmp_path):
    # the marked addresses do not depend on gamma: the base pair and the six
    # secant pairs at k = 3 share one itinerary per family
    perturbation._exact_itinerary.cache_clear()
    assert main(["construct", "--k-min", "3", "--k-max", "3", "--out", str(tmp_path)]) == 0
    info = perturbation._exact_itinerary.cache_info()
    assert (info.misses, info.hits) == (2, 12)


def test_certify_refuses_a_map_whose_root_check_cannot_settle(tmp_path, capsys):
    # the subnormal constant term of the denominator keeps the root check's
    # Aberth sweeps from settling: a bad map file, not a failed certification
    path = tmp_path / "map.json"
    path.write_text('{"degree": 1, "num": [[0, 3.6643749114008475e-26], [0, 0]], '
                    '"den": [[-1.1125369292536007e-308, 0], '
                    '[1.7693759452741915, 6.032878723966615]]}')
    assert main(["certify", str(path)]) == 1
    assert "cannot load map" in capsys.readouterr().err


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
    for name in ("s_re", "t_re", "u_s_re", "u_t_re", "ratio_re"):
        assert row[name] != ""
    assert (row["target_re"], row["target_im"]) == ("1", "0")
    assert row["gamma_k_re"] == "" and row["certified"] == ""


def test_construct_derives_its_cells_from_the_row(tmp_path, capsys, spec_a2, point_a2):
    # a row holds only its collision pair and construction: every other
    # convergence.csv cell, the printed figures and distance_to_base are
    # derived from those two, bit for bit
    assert main(["construct", "--k-min", "2", "--k-max", "3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    cells = list(csv.DictReader(lines[1:]))
    rows = perturbation.convergence_table(spec_a2, point_a2, range(2, 4)).rows
    gamma0 = spec_a2.gamma.gamma
    assert [c["asymptotic"] for c in cells] == ["false", "true"]  # from k = 3 on
    for c, row in zip(cells, rows):
        (cs, ct), built = row.collisions, row.construction
        ratio = cs.value / ct.value
        gap = abs(built.gamma_k - gamma0)

        def pair(name):
            return complex(float(c[name + "_re"]), float(c[name + "_im"]))

        assert (c["k"], c["status"]) == (str(row.k), "ok")
        assert pair("s") == cs.value and pair("t") == ct.value
        assert pair("u_s") == cs.rescaled and pair("u_t") == ct.rescaled
        assert pair("ratio") == ratio and (c["target_re"], c["target_im"]) == ("1", "0")
        assert float(c["deviation"]) == abs(ratio - 1.0)
        assert pair("gamma_k") == built.gamma_k and pair("r_k") == built.r_k
        assert float(c["gamma_gap"]) == gap
        assert (c["postcritical_count"], c["certified"]) == (str(built.postcritical_count), "true")
        assert f"k={row.k}: ok deviation={abs(ratio - 1.0):.3e} gamma_gap={gap:.3e}" in out
        doc = json.loads((tmp_path / f"construction_k{row.k}.json").read_text())
        assert doc["k"] == row.k
        assert doc["distance_to_base"] == gap + abs(built.r_k)


def test_construct_certifies_k10(tmp_path):
    assert main(["construct", "--k-min", "10", "--k-max", "10", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[2].startswith("10,ok,true,")
    doc = json.loads((tmp_path / "construction_k10.json").read_text())
    assert doc["postcritical_count"] == 23


def test_certify_construct_artifact(tmp_path, monkeypatch):
    built, loaded = [], []
    monkeypatch.setattr(cli, "map_to_dict", lambda f, save=cli.map_to_dict: built.append(f) or save(f))
    monkeypatch.setattr(cli, "_load_map", lambda path, load=cli._load_map: loaded.append(load(path)) or loaded[-1])
    out = tmp_path / "run"
    assert main(["construct", "--k-min", "3", "--k-max", "3", "--out", str(out)]) == 0
    code = main(["certify", str(out / "construction_k3.json"), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["postcritical_count"] == 9
    assert doc["lattes_witness"] is False
    # certify works on the very map construct certified, not one rounding away
    (g_k,), (g,) = built, loaded
    assert (g.num, g.den, g.degree) == (g_k.num, g_k.den, g_k.degree)


_NUMPY_FREE = """
import sys
import lattes_forge
stages = ["numpy" in sys.modules]
from lattes_forge.cli import main
stages += [main(["certify", sys.argv[1], "--out", sys.argv[2]]), "numpy" in sys.modules]
stages += [main(["verify-lemma1", "--grid=-0.1:0.1:0.9:1.1:2"]), "numpy" in sys.modules]
stages += [main(["verify-lemma3", "--a", "5", "--case", "3", "--x0=1/7"]), "numpy" in sys.modules]
print(stages)
"""


def test_certify_and_verify_lemma1_never_load_numpy(tmp_path):
    # the map type, the closed form and the scalar dynamics are pure Python, so
    # verify-lemma3 loads no numpy either; only the fit, the family's members,
    # the continuation and the render kernel import numpy
    out = tmp_path / "run"
    assert main(["construct", "--k-min", "3", "--k-max", "3", "--out", str(out)]) == 0
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE, str(out / "construction_k3.json"),
                           str(tmp_path / "cert")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, 0, False, 0, False, 0, False]"


_BARE_IMPORTS = """
import sys
bare = set(sys.modules)
import lattes_forge.cli
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - bare)))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command pays its imports at start-up: the records are NamedTuples
    # and a slotted map class, so no command imports dataclasses (and inspect)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _BARE_IMPORTS], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("a, case, x0, y0", [("3", "2", "0", "1/5"), ("4", "1", "1/3", "5/3")])
def test_a_refused_fit_fills_every_row(tmp_path, monkeypatch, a, case, x0, y0):
    # the fit of a = 3, case 2 at gamma0 = i/5 has no separated null direction
    # (IllConditioned), and the fit of a = 4 at 1/3 + 5i/3 passes the map check
    # but misses its held-out samples (ValidationFailed): each is refused again
    # by one fit in every row
    error = {"3": "error:IllConditioned", "4": "error:ValidationFailed"}[a]
    fits = []
    monkeypatch.setattr(perturbation, "build_rational_map",
                        lambda spec, fit=lattes.build_rational_map: fits.append(spec) or fit(spec))
    out = tmp_path / "run"
    assert main(["construct", "--a", a, "--case", case, f"--x0={x0}", f"--y0={y0}",
                 "--out", str(out)]) == 2
    assert len(fits) == 4
    rows = list(csv.reader((out / "convergence.csv").read_text().splitlines()[2:]))
    assert [row[:2] for row in rows] == [[str(k), error] for k in range(3, 7)]


def test_continuation_halving_certifies_a_row(tmp_path, monkeypatch):
    # at 2/5 + 5i/7, k = 2 certifies only because two continuations halve
    # their step: one at s = 0, one at s = 1/2; the others take 1/2 and 1
    halved = []
    inner = perturbation.continue_cycle

    def spy(member, cycle):
        steps = []
        try:
            return inner(lambda s: steps.append(s) or member(s), cycle)
        finally:
            if steps != [0.5, 1.0]:
                halved.append(steps)

    monkeypatch.setattr(perturbation, "continue_cycle", spy)
    out = tmp_path / "run"
    assert main(["construct", "--x0=2/5", "--y0=5/7", "--k-min", "2", "--k-max", "2",
                 "--out", str(out)]) == 0
    assert halved == [[0.5, 0.25, 0.75, 1.0], [0.5, 1.0, 0.75, 1.0]]
    row = next(csv.DictReader((out / "convergence.csv").read_text().splitlines()[1:]))
    assert (row["status"], row["postcritical_count"], row["certified"]) == ("ok", "11", "true")


def test_render_draws_where_the_fit_misses(tmp_path):
    # the fit at gamma = 1/3 + 3i misses the semiconjugacy by 4.5e-4 and is
    # refused (test_held_out_samples_leave_the_chart_filter); render builds
    # the map in closed form, which passes the map check there
    target = tmp_path / "render.ppm"
    assert main(["render", "--y0=3", "--size", "16", "--out", str(target)]) == 0
    assert target.read_bytes().startswith(b"P6\n16 16\n255\n")


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


@pytest.mark.parametrize("degree, num", [
    (2.9, [[1, 0], [0, 0], [1, 0]]), ("2", [[1, 0], [0, 0], [1, 0]]),
    (True, [[0, 0], [1, 0]]), (2, [[True, False], [0, 0], [1, 0]]),
    (1, [[1.5e308, 1.5e308], [1, 0]]), (1, [[10 ** 400, 0], [1, 0]]),
], ids=["float-degree", "string-degree", "boolean-degree", "boolean-coefficient",
        "modulus-overflow", "integer-overflow"])
def test_malformed_map_documents_are_refused(tmp_path, monkeypatch, capsys, degree, num):
    # a degree must be a JSON integer and a coefficient a pair of JSON numbers
    # whose modulus is a float; int() and complex() would take the first four,
    # true as 1, and abs() or complex() raise OverflowError on the last two
    den = [[1, 0], [2, 0], [0, 0]][:len(num)]
    (tmp_path / "map.json").write_text(json.dumps({"degree": degree, "num": num, "den": den}))
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "map.json", "--out", "cert"]) == 1
    assert main(["render", "--map-file", "map.json", "--size", "16", "--out", "map.ppm"]) == 1
    assert capsys.readouterr().err.count("cannot load map") == 2
    assert sorted(os.listdir(tmp_path)) == ["map.json"]


def test_certify_refuses_a_critical_point_below_the_float_range(tmp_path, capsys):
    # the Wronskian of (1 + z^2) / (1 + 2.2e-313 z) has a zero near 1.1e-313,
    # which the root iteration cannot reach: a failed certification, not a
    # bad map file
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"degree": 2, "num": [[1, 0], [0, 0], [1, 0]],
                                "den": [[1, 0], [2.2250738585e-313, 0], [0, 0]]}))
    assert main(["certify", str(path)]) == 2
    assert "a polynomial zero left the float range" in capsys.readouterr().err


def test_certify_reaches_critical_points_near_the_float_floor(tmp_path, capsys):
    # the Wronskian (-5.56e-314, 0, 1.5i, i) has two zeros near 1.4e-157,
    # where Horner's value of it underflows: roots settles them, and the
    # certification answers on the map's dynamics
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"degree": 3, "num": [[0.5, 0], [0.5, 1.11253692926e-313], [0, 0], [1, 0]],
                                "den": [[0, 0.5], [0, 0.5], [0, 0], [0, 0]]}))
    assert main(["certify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "lands on a cycle with multiplier" in err
    assert "Aberth sweeps" not in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_lemma3_a5_period2_any_blas_threads(threads):
    # the BLAS thread count moves the fit's last bits; lemma 3 differentiates
    # at the exact branch values, where the period-2 multiplier is a^4 = 625,
    # and must pass whatever the thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-m", "lattes_forge.cli", "verify-lemma3", "--a", "5", "--case", "3",
         "--x0=1/7", "--y0=1"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_lemma3_holds_where_the_a5_fit_missed(tmp_path):
    """The SVD fit of a = 5, case 2 at gamma = 1/5 + 3/5 i misses its held-out
    samples by 4.5e-3 and is refused; verify-lemma3 builds the map in closed
    form and measures the exact response constant there."""
    assert main(["verify-lemma3", "--a", "5", "--case", "2", "--x0=1/5", "--y0=3/5",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "lemma3_report.json").read_text())
    measured = complex(*doc["c_measured"])
    assert abs(measured - (-25 / 24)) < 1e-12


def test_small_top_coefficients_still_build_the_map(tmp_path):
    """The closed form's one nonzero top coefficient is 8e-11 of its
    polynomial's largest at a = 5, case 2, gamma = -2/5 + 13i/10, and 3e-10
    at a = 4, gamma = 1/3 + 5i/3: small, but above the rounding level, so the
    degree holds and verify-lemma3 and render both answer."""
    assert main(["verify-lemma3", "--a", "5", "--case", "2", "--x0=-2/5", "--y0=13/10",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "lemma3_report.json").read_text())
    assert abs(complex(*doc["c_measured"]) + 25 / 24) < 1e-12
    target = tmp_path / "julia.ppm"
    assert main(["render", "--a", "4", "--x0=1/3", "--y0=5/3", "--size", "32",
                 "--out", str(target)]) == 0
    assert target.read_bytes().startswith(b"P6\n32 32\n")


@pytest.fixture(scope="module")
def a4_artifact(tmp_path_factory):
    """construct's k = 4 artifact at a = 4, x0 = 1/5, y0 = 1: 11 postcritical points."""
    out = tmp_path_factory.mktemp("a4")
    assert main(["construct", "--a", "4", "--x0=1/5", "--y0=1", "--k-min", "4", "--k-max", "4",
                 "--out", str(out)]) == 0
    return out / "construction_k4.json"


def test_certify_agrees_with_construct_at_a4(a4_artifact, tmp_path):
    """The critical values certify recomputes from the Wronskian lie about
    5e-13 from construct's (1 + r) v, and forward iteration expands that by
    about a^2 a step, so one orbit never returns within 1e-8; pulled back
    along the orbit, which contracts, the landing cycle lands within 1e-8."""
    assert json.loads(a4_artifact.read_text())["postcritical_count"] == 11
    assert main(["certify", str(a4_artifact), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["schema_version"] == "2"
    assert doc["postcritical_count"] == 11
    assert all(c["landing_residual"] < 1e-8 and c["repelling"] for c in doc["certificates"])


@pytest.mark.parametrize("scale, code", [(1e-6, 2), (1e-8, 2), (1e-9, 0)],
                         ids=["1e-6-refused", "1e-8-refused", "1e-9-certified"])
def test_certify_refuses_a_moved_numerator(a4_artifact, tmp_path, capsys, scale, code):
    """Moved by 1e-6 or 1e-8, one critical orbit of the map leaves the
    repelling landing cycle before it returns within sqrt(tol) = 1e-4, so no
    cycle is proposed and the map is refused: this pins the proposal, the
    verdict is pinned on z^2 - 2 in test_dynamics.  Moved by 1e-9, it
    certifies with the same 11 postcritical points, each critical value
    within 1e-9 of a preperiodic point."""
    doc = json.loads(a4_artifact.read_text())["map"]
    doc["num"] = [[re * (1.0 + scale), im * (1.0 + scale)] for re, im in doc["num"]]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["certify", str(moved), "--out", str(tmp_path)]) == code
    if code:
        assert "is within 1e-08 of no preperiodic point" in capsys.readouterr().err
    else:
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["postcritical_count"] == 11
        assert all(c["landing_residual"] < 1e-9 for c in doc["certificates"])


def test_certify_refuses_an_attracting_cycle(tmp_path, capsys):
    """The critical value 0.1 of z^2 + 0.1 tends to a fixed point of
    multiplier 0.2254: a cycle that attracts is refused as not repelling.
    The critical value 1/4 of z^2 + 1/4 creeps toward the parabolic fixed
    point 1/2 so slowly that a return to one of the first 64 iterates comes
    no nearer than 1.6e-4 (iterates 64 and 65), above sqrt(tol) = 1e-4: no
    cycle is proposed, and the map is refused as preperiodic to nothing."""
    path = tmp_path / "map.json"
    for c, message in [(0.1, "lands on a cycle with multiplier 0.2254"),
                       (0.25, "is within 1e-08 of no preperiodic point")]:
        path.write_text(json.dumps({"degree": 2, "num": [[c, 0], [0, 0], [1, 0]],
                                    "den": [[1, 0], [0, 0], [0, 0]]}))
        assert main(["certify", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_certify_agrees_where_construct_was_not_pcf(tmp_path, capsys):
    """At a = 3, case 3, x0 = 1/5, y0 = 5/7, k = 4 a critical orbit of g_4
    never returns within 1e-8 forward, so only the backward pass certifies
    it, in construct and in certify alike."""
    assert main(["construct", "--a", "3", "--case", "3", "--x0=1/5", "--y0=5/7",
                 "--k-min", "4", "--k-max", "4", "--out", str(tmp_path)]) == 0
    artifact = json.loads((tmp_path / "construction_k4.json").read_text())
    assert artifact["schema_version"] == "3"
    capsys.readouterr()
    assert main(["certify", str(tmp_path / "construction_k4.json")]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    assert printed == f"postcritical_count={artifact['postcritical_count']} lattes_witness=false"


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


@pytest.mark.parametrize("scale, exact", [(2.0 ** 600, True), (2.0 ** -600, True),
                                          (1e-200, False)], ids=["2^600", "2^-600", "1e-200"])
def test_map_files_far_from_scale_one_are_rescaled_on_load(tmp_path, construction_results,
                                                          scale, exact):
    # the k = 4 map, 11 postcritical points, with every coefficient times
    # scale: loading undoes a power of two exactly, so certify and render
    # write the stored map's bytes; 1e-200 moves the last bits, not the count
    doc = map_to_dict(construction_results[1].g_k)
    scaled = dict(doc, **{key: [[re * scale, im * scale] for re, im in doc[key]]
                          for key in ("num", "den")})
    for name, d in (("stored", doc), ("scaled", scaled)):
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
        assert main(["certify", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
        assert main(["render", "--map-file", str(tmp_path / f"{name}.json"), "--size", "16",
                     "--out", str(tmp_path / f"{name}.ppm")]) == 0
    stored, rescaled = ((tmp_path / name / "certificate.json").read_bytes()
                        for name in ("stored", "scaled"))
    assert json.loads(stored)["postcritical_count"] == json.loads(rescaled)["postcritical_count"] == 11
    if exact:
        assert rescaled == stored
        assert (tmp_path / "scaled.ppm").read_bytes() == (tmp_path / "stored.ppm").read_bytes()


def test_render_writes_ppm(tmp_path):
    target = tmp_path / "img.ppm"
    assert main(["render", "--size", "16", "--max-iter", "6", "--out", str(target)]) == 0
    data = target.read_bytes()
    assert data.startswith(b"P6\n16 16\n255\n")
    assert len(data) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3


def test_render_failed_write_keeps_the_old_ppm(tmp_path, monkeypatch, capsys):
    target = tmp_path / "img.ppm"
    target.write_bytes(b"old picture")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["render", "--size", "16", "--max-iter", "2", "--out", str(target)]) == 1
    assert "rename refused" in capsys.readouterr().err
    assert target.read_bytes() == b"old picture"
    assert os.listdir(tmp_path) == ["img.ppm"]


@pytest.mark.parametrize("args", [["--max-iter", "0"], ["--span", "0"], ["--span=-1"],
                                  ["--span", "inf"], ["--span", "nan"], ["--size", "8"],
                                  ["--size", "8", "--y0=3"], ["--span", "0", "--y0=3"]])
def test_render_refuses_degenerate_arguments(tmp_path, monkeypatch, capsys, args):
    # refused before the map is built
    def build(_spec):
        raise AssertionError("built before the usage error was refused")

    monkeypatch.setattr(cli, "lattes_map", build)
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


def _cli_process(*args, **kwargs):
    """python -m lattes_forge.cli ARGS through pipes, with stdout block-buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.Popen([sys.executable, "-m", "lattes_forge.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs)


def test_the_cli_process_writes_everything_before_it_exits(tmp_path):
    # the process ends in os._exit, so nothing is flushed for it at teardown
    proc = _cli_process("verify-lemma1", "--grid=-0.2:0.0:0.9:1.1:2", "--out", str(tmp_path))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    lines = out.splitlines()
    assert len(lines) == 5 and lines[-1].startswith("worst residual ")
    assert all(line.startswith("gamma=") for line in lines[:4])
    assert len(json.loads((tmp_path / "lemma1_report.json").read_text())["rows"]) == 4
    proc = _cli_process("verify-lemma1", "--tol=0")
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (1, "")
    assert "error: argument --tol: must be a finite positive number" in err


def test_a_closed_stdout_is_an_error_line():
    # the report is written by main's own flush, so a reader that left early
    # gets the usage exit and an error line, not a traceback at teardown
    with _cli_process("verify-lemma1") as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert "error: [Errno 32] Broken pipe" in err
    assert "Traceback" not in err


_ATEXIT_COUNT = """
import atexit, sys
before = atexit._ncallbacks()
from lattes_forge.cli import main
codes = [main(["construct", "--k-min", "3", "--k-max", "3", "--out", sys.argv[1]]),
         main(["render", "--size", "16", "--out", sys.argv[1]])]
print(codes, atexit._ncallbacks() - before)
"""


def test_commands_register_no_exit_handlers(tmp_path):
    # run() skips the interpreter's teardown, which is safe only while the
    # package and what it imports (numpy included) leave nothing to run there
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _ATEXIT_COUNT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] 0"


def test_the_console_script_is_run():
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        scripts = fh.read().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (target,) = [line.split("=", 1)[1].strip().strip('"') for line in scripts.splitlines()
                 if line.startswith("lattes-forge ")]
    assert pkgutil.resolve_name(target) is cli.run
