"""Command-line harness: lemma verification, the strictly-PCF construction
pipeline, certification of arbitrary maps, and Julia set rendering.

Exit codes: 0 success, 1 usage or parse errors, 2 violated invariants
(LemmaViolation, NotPCF, NotRepelling, failed certification), 3 precision
ceiling reached.  All artifacts are written atomically (write then rename)
with numbers at 17 significant digits, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from .dynamics import critical_points, eval_map, julia_render, spherical_distance, write_ppm
from .elliptic import TorusParameter, theta_data
from .errors import (
    CoprimalityViolation,
    LattesForgeError,
    LemmaViolation,
    NotPCF,
    NotRepelling,
    PrecisionExhausted,
)
from .lattes import LattesSpec, build_rational_map, map_from_dict, map_to_dict
from .perturbation import (
    base_map_for,
    case_response_constant,
    certify_strictly_pcf,
    convergence_table,
    standard_parameters,
    verify_lemma3,
)

CASE_BY_NUMBER = {1: "EvenZero", 2: "OddZero", 3: "OddHalf"}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_PRECISION = 3


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("LATTES_FORGE_THREADS", "1")))
    except ValueError:
        return 1


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json_text(obj[k], indent + 1)}'
            for k in sorted(obj))
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(_json_text(v, indent) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _atomic_write(path: str, data: str) -> None:
    """Write through a fresh temp file beside path, then rename it over path."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; keep open()'s mode
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_map(path: str):
    """The map in a bare map document or in a construct artifact (its "map")."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        return map_from_dict(doc.get("map", doc))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"cannot load map from {path}: {exc}") from None


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r} ({exc})") from None


def _parse_grid(text: str):
    """re0:re1:im0:im1:n -> list of complex grid points (n x n)."""
    parts = text.split(":")
    if len(parts) != 5:
        raise ValueError(f"grid must be re0:re1:im0:im1:n, got {text!r}")
    re0, re1, im0, im1 = (float(p) for p in parts[:4])
    n = int(parts[4])
    if n < 1:
        raise ValueError("grid needs at least one point per axis")
    if im0 <= 0 or im1 <= 0:
        raise ValueError("gamma grid must stay in the upper half plane")
    res = np.linspace(re0, re1, n)
    ims = np.linspace(im0, im1, n)
    return [complex(r, i) for i in ims for r in res]


def _spec(args) -> LattesSpec:
    gamma0 = complex(float(args.x0), float(args.y0))
    return LattesSpec(TorusParameter(gamma0), args.a, CASE_BY_NUMBER[args.case])


def _write_report(args, name: str, doc: dict, csv_lines: list) -> None:
    if args.out is None:
        return
    os.makedirs(args.out, exist_ok=True)
    if args.format == "json":
        _atomic_write(os.path.join(args.out, f"{name}.json"), _json_text(doc) + "\n")
    else:
        _atomic_write(os.path.join(args.out, f"{name}.csv"), "\n".join(csv_lines) + "\n")


def cmd_verify_lemma1(args) -> int:
    tol = args.tol
    try:
        grid = _parse_grid(args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    worst = 0.0
    for gamma in grid:
        td = theta_data(gamma)
        res_ratio = abs(td.lam / td.v + td.mu / td.w)
        kappa_other = 4.0 * td.lam / (td.v * (td.v - td.w))
        res_kappa = abs(kappa_other - td.kappa)
        worst = max(worst, res_ratio, res_kappa)
        rows.append((gamma, res_ratio, res_kappa))
        print(f"gamma={gamma:.6f}  |lam/v+mu/w|={res_ratio:.3e}  kappa-residual={res_kappa:.3e}")
    ok = worst < tol
    print(f"worst residual {worst:.3e} {'<' if ok else '>='} tolerance {tol:.3g}")
    doc = {
        "schema_version": "1",
        "tolerance": tol,
        "worst_residual": worst,
        "passed": ok,
        "rows": [
            {"gamma": _pair(g), "ratio_residual": r1, "kappa_residual": r2}
            for g, r1, r2 in rows
        ],
    }
    csv_lines = ["# lattes-forge lemma1-report schema 1",
                 "gamma_re,gamma_im,ratio_residual,kappa_residual"]
    csv_lines += [f"{_fmt(g.real)},{_fmt(g.imag)},{_fmt(r1)},{_fmt(r2)}" for g, r1, r2 in rows]
    _write_report(args, "lemma1_report", doc, csv_lines)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_verify_lemma3(args) -> int:
    tol = args.tol
    spec = _spec(args)
    gamma0 = spec.gamma.gamma
    report = verify_lemma3(spec)
    expected = case_response_constant(spec)
    err = abs(report.c_measured - expected)
    ok = err < tol
    print(f"a={spec.a} case={spec.case_tag} gamma0={gamma0:.6f}")
    print(f"c measured  {report.c_measured:.12f}")
    print(f"c expected  {expected:.12f}")
    print(f"|difference| {err:.3e} {'<' if ok else '>='} tolerance {tol:.3g}  "
          f"(cross-residual {report.residual:.3e})")
    doc = {
        "schema_version": "1",
        "a": spec.a,
        "case": spec.case_tag,
        "gamma0": _pair(gamma0),
        "c_measured": _pair(report.c_measured),
        "c_expected": _pair(expected),
        "difference": err,
        "cross_residual": report.residual,
        "passed": ok,
    }
    csv_lines = ["# lattes-forge lemma3-report schema 1",
                 "a,case,c_measured_re,c_measured_im,c_expected_re,c_expected_im,difference",
                 f"{spec.a},{spec.case_tag},{_fmt(report.c_measured.real)},"
                 f"{_fmt(report.c_measured.imag)},{_fmt(expected.real)},{_fmt(expected.imag)},"
                 f"{_fmt(err)}"]
    _write_report(args, "lemma3_report", doc, csv_lines)
    return EXIT_OK if ok else EXIT_VIOLATION


_CSV_HEADER = (
    "k,status,asymptotic,s_re,s_im,t_re,t_im,u_s_re,u_s_im,u_t_re,u_t_im,"
    "ratio_re,ratio_im,target_re,target_im,deviation,gamma_k_re,gamma_k_im,"
    "r_k_re,r_k_im,gamma_gap,postcritical_count,certified"
)


def _row_csv(row) -> str:
    def c(z):
        return (_fmt(z.real), _fmt(z.imag)) if z is not None else ("", "")

    cells = [str(row.k), row.status, str(row.asymptotic).lower()]
    for z in (row.s_value, row.t_value, row.u_s, row.u_t, row.ratio, row.target):
        cells += c(z)
    cells.append(_fmt(row.deviation) if row.deviation is not None else "")
    cells += c(row.gamma_k)
    cells += c(row.r_k)
    cells.append(_fmt(row.gamma_gap) if row.gamma_gap is not None else "")
    cells.append(str(row.postcritical_count) if row.postcritical_count is not None else "")
    cells.append(str(row.certified).lower() if row.certified is not None else "")
    return ",".join(cells)


def _certificate_doc(cert) -> dict:
    return {
        "preperiod": cert.preperiod,
        "period": cert.period,
        "landing_residual": cert.landing_residual,
        "multiplier": _pair(cert.cycle.multiplier),
        "repelling": cert.repelling,
    }


def cmd_construct(args) -> int:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    try:
        pair = standard_parameters(args.x0, args.y0, args.a)
    except (CoprimalityViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    spec0 = _spec(args)
    gamma0 = spec0.gamma.gamma
    table = convergence_table(spec0, pair, range(args.k_min, args.k_max + 1), tol=args.tol)
    csv_lines = ["# lattes-forge convergence-table schema 1", _CSV_HEADER]
    exhausted = False
    all_certified = True
    for row in table.rows:
        csv_lines.append(_row_csv(row))
        print(f"k={row.k}: {row.status}"
              + (f" deviation={row.deviation:.3e} gamma_gap={row.gamma_gap:.3e}"
                 f" postcritical={row.postcritical_count}"
                 if row.status == "ok" and row.gamma_gap is not None else ""))
        if row.status == "precision_exhausted":
            exhausted = True
            continue
        if row.status != "ok" or not row.certified:
            all_certified = False
            continue
        built = row.construction
        doc = {
            "schema_version": "2",
            "a": spec0.a,
            "case": spec0.case_tag,
            "k": built.k,
            "gamma0": _pair(gamma0),
            "gamma_k": _pair(built.gamma_k),
            "r_k": _pair(built.r_k),
            "distance_to_base": built.distance_to_base,
            "postcritical_count": built.postcritical_count,
            "certificates": [_certificate_doc(c) for c in built.certificates],
            "map": map_to_dict(built.g_k),
        }
        _atomic_write(os.path.join(out, f"construction_k{built.k}.json"),
                      _json_text(doc) + "\n")
    _atomic_write(os.path.join(out, "convergence.csv"), "\n".join(csv_lines) + "\n")
    if args.render:
        size = args.size
        write_ppm(julia_render(base_map_for(spec0), size, size, threads=_threads()),
                  os.path.join(out, "base.ppm"))
        done = [r.construction for r in table.rows if r.construction is not None]
        if done:
            write_ppm(julia_render(done[-1].g_k, size, size, threads=_threads()),
                      os.path.join(out, f"g_k{done[-1].k}.ppm"))
    if exhausted:
        return EXIT_PRECISION
    return EXIT_OK if all_certified else EXIT_VIOLATION


def cmd_certify(args) -> int:
    g = _load_map(args.map_file)
    unique = []
    for point, _ in critical_points(g):
        img = eval_map(g, point)
        if all(spherical_distance(img, q) > 1e-9 for q in unique):
            unique.append(img)
    certs, count = certify_strictly_pcf(g, unique, max_iter=args.max_iter, tol=args.tol)
    witness = count <= 4
    print(f"postcritical_count={count} lattes_witness={str(witness).lower()}")
    doc = {
        "schema_version": "1",
        "degree": g.degree,
        "postcritical_count": count,
        "lattes_witness": witness,
        "certificates": [_certificate_doc(c) for c in certs],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _atomic_write(os.path.join(args.out, "certificate.json"), _json_text(doc) + "\n")
    else:
        print(_json_text(doc))
    return EXIT_OK


def cmd_render(args) -> int:
    if args.map_file is not None:
        g = _load_map(args.map_file)
    else:
        g = build_rational_map(_spec(args))
    buffer = julia_render(g, args.size, args.size, max_iter=args.max_iter,
                          span=args.span, threads=_threads())
    path = args.out if args.out else "render.ppm"
    if os.path.isdir(path):
        path = os.path.join(path, "render.ppm")
    write_ppm(buffer, path)
    print(f"wrote {path} ({args.size}x{args.size})")
    return EXIT_OK


def _add_spec(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=int, default=2, help="integer multiplier, |a| >= 2")
    p.add_argument("--case", type=int, choices=(1, 2, 3), default=1,
                   help="1 = a even, 2 = a odd untranslated, 3 = a odd with half-period shift")
    p.add_argument("--x0", type=_parse_rational, default=Fraction(1, 3),
                   help="rational p/q, real part of gamma0")
    p.add_argument("--y0", type=_parse_rational, default=Fraction(1),
                   help="rational p/q, imaginary part of gamma0 (> 0)")


def _add_tol(p: argparse.ArgumentParser, default: float) -> None:
    p.add_argument("--tol", type=float, default=default,
                   help="headline tolerance of the command (default %(default)g)")


def _add_report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattes-forge",
        description="Flexible Lattes maps and their strictly postcritically finite perturbations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("verify-lemma1", help="theta-derivative identity over a gamma grid")
    _add_tol(p1, 1e-8)
    _add_report(p1)
    p1.add_argument("--grid", type=str, default="-0.4:0.4:0.8:1.6:5",
                    help="gamma grid as re0:re1:im0:im1:n")
    p1.set_defaults(fn=cmd_verify_lemma1)

    p3 = sub.add_parser("verify-lemma3", help="critical value response constant per case")
    _add_spec(p3)
    _add_tol(p3, 1e-6)
    _add_report(p3)
    p3.set_defaults(fn=cmd_verify_lemma3)

    pc = sub.add_parser("construct", help="solve collisions and build certified g_k maps")
    _add_spec(pc)
    _add_tol(pc, 1e-10)
    pc.add_argument("--out", type=str, default=None, help="output directory")
    pc.add_argument("--k-min", dest="k_min", type=int, default=3)
    pc.add_argument("--k-max", dest="k_max", type=int, default=6)
    pc.add_argument("--render", action="store_true", help="also write PPM renders")
    pc.add_argument("--size", type=int, default=256, help="render size in pixels")
    pc.set_defaults(fn=cmd_construct)

    pf = sub.add_parser("certify", help="certify an arbitrary map from its JSON coefficients")
    _add_tol(pf, 1e-8)
    pf.add_argument("--out", type=str, default=None, help="output directory")
    pf.add_argument("map_file", type=str)
    pf.add_argument("--max-iter", dest="max_iter", type=int, default=300)
    pf.set_defaults(fn=cmd_certify)

    pr = sub.add_parser("render", help="render a Julia set to PPM")
    _add_spec(pr)
    pr.add_argument("--out", type=str, default=None, help="output file or directory")
    pr.add_argument("--map-file", dest="map_file", type=str, default=None)
    pr.add_argument("--size", type=int, default=512)
    pr.add_argument("--span", type=float, default=2.0)
    pr.add_argument("--max-iter", dest="max_iter", type=int, default=40)
    pr.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except PrecisionExhausted as exc:
        print(f"precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (LemmaViolation, NotPCF, NotRepelling) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except LattesForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
