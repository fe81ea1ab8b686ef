"""Command-line harness: lemma verification, the strictly-PCF construction
pipeline, certification of arbitrary maps, and Julia set rendering.

Exit codes: 0 success, 1 usage or parse errors, 2 every typed refusal
(LattesForgeError: LemmaViolation, NotPCF, IllConditioned and the rest) but
the precision ceiling, 3 precision ceiling reached (PrecisionExhausted).
All artifacts are written atomically (write then rename) with numbers at 17
significant digits, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from .dynamics import (MIN_GRID, critical_points, eval_map, julia_render, ppm_bytes,
                       spherical_distance)
from .elliptic import TorusParameter, measured_theta_data
from .errors import (
    LattesForgeError,
    LemmaViolation,
    NotPCF,
    NotRepelling,
    PrecisionExhausted,
)
from .lattes import CASE_TAGS, LattesSpec, lattes_map, map_from_dict, map_to_dict
from .perturbation import (
    certify_strictly_pcf,
    convergence_table,
    standard_parameters,
    verify_lemma3,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_PRECISION = 3


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
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _atomic_write(path: str, data: bytes | str) -> None:
    """Write through a fresh temp file beside path, then rename it over path;
    text is encoded as ASCII first."""
    if isinstance(data, str):
        data = data.encode("ascii")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
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
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"cannot load map from {path}: {exc}") from None


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _parse_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
        if value and not float(value):  # float() raises OverflowError where not finite
            raise ValueError("its float underflows to 0")
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational p/q in float range: {text!r} ({exc})") from None
    return value


def _parse_grid(text: str):
    """re0:re1:im0:im1:n -> list of complex grid points (n x n)."""
    parts = text.split(":")
    if len(parts) != 5:
        raise ValueError(f"grid must be re0:re1:im0:im1:n, got {text!r}")
    re0, re1, im0, im1 = (float(p) for p in parts[:4])
    n = int(parts[4])
    if not all(map(math.isfinite, (re0, re1, im0, im1))):
        raise ValueError(f"grid bounds must be finite, got {text!r}")
    if n < 1:
        raise ValueError("grid needs at least one point per axis")
    if im0 <= 0 or im1 <= 0:
        raise ValueError("gamma grid must stay in the upper half plane")
    res = _linspace(re0, re1, n)
    ims = _linspace(im0, im1, n)
    return [complex(r, i) for i in ims for r in res]


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """numpy.linspace(start, stop, n) bit for bit, for n >= 1: start + i * step
    in numpy's order of operations, with the last point set to stop."""
    delta = stop - start
    if n == 1:
        return [0.0 * delta + start]
    step = delta / (n - 1)
    if step:
        points = [i * step + start for i in range(n)]
    else:  # the step underflowed to zero: numpy scales i / (n - 1) by delta
        points = [i / (n - 1) * delta + start for i in range(n)]
    points[-1] = stop
    return points


def _spec(args) -> LattesSpec:
    gamma0 = complex(float(args.x0), float(args.y0))
    return LattesSpec(TorusParameter(gamma0), args.a, CASE_TAGS[args.case - 1])


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
    grid = _parse_grid(args.grid)
    rows = []
    worst = 0.0
    for gamma in grid:
        td = measured_theta_data(gamma)
        res_ratio = abs(td.lam / td.v + td.mu / td.w)
        kappa = 4.0 * td.lam / (td.v * (td.v - td.w))
        kappa_other = 4.0 * td.mu / (td.w * (td.w - td.v))
        res_kappa = abs(kappa_other - kappa)
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
    expected = report.c_expected
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


def _row_csv(row, gamma0: complex) -> str:
    """The convergence.csv line of row: every cell after k and status is
    derived from k, the row's collision pair and its construction."""
    def c(z):
        return _fmt(z.real), _fmt(z.imag)

    cells = [str(row.k), row.status, str(row.k >= 3).lower()]  # asymptotic from k = 3 on
    if row.collisions is None:
        cells += [""] * 13  # s, t, u_s, u_t, ratio and target pairs, deviation
    else:
        cs, ct = row.collisions
        ratio = cs.value / ct.value
        for z in (cs.value, ct.value, cs.rescaled, ct.rescaled, ratio):
            cells += c(z)
        cells += ["1", "0", _fmt(abs(ratio - 1.0))]  # the ratio's limit, the deviation
    built = row.construction
    if built is None:
        cells += [""] * 7  # gamma_k and r_k pairs, gamma_gap, postcritical_count, certified
    else:
        cells += c(built.gamma_k) + c(built.r_k)
        cells += [_fmt(abs(built.gamma_k - gamma0)), str(built.postcritical_count), "true"]
    return ",".join(cells)


def _certificate_doc(cert) -> dict:
    return {
        "preperiod": cert.preperiod,
        "period": cert.cycle.period,
        "landing_residual": cert.landing_residual,
        "multiplier": _pair(cert.cycle.multiplier),
        "repelling": cert.cycle.repelling,
    }


def cmd_construct(args) -> int:
    # usage errors are refused before --out is created or anything is solved
    if args.k_min < 1:
        raise ValueError(f"--k-min must be at least 1, got {args.k_min}")
    if args.k_min > args.k_max:
        raise ValueError(f"empty depth range: --k-min {args.k_min} > --k-max {args.k_max}")
    base_point = standard_parameters(args.x0, args.y0, args.a)
    spec0 = _spec(args)
    gamma0 = spec0.gamma.gamma
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    table = convergence_table(spec0, base_point, range(args.k_min, args.k_max + 1), tol=args.tol)
    csv_lines = ["# lattes-forge convergence-table schema 1", _CSV_HEADER]
    exhausted = False
    all_certified = True
    for row in table.rows:
        csv_lines.append(_row_csv(row, gamma0))
        built = row.construction
        if built is None:
            print(f"k={row.k}: {row.status}")
            if row.status == "precision_exhausted":
                exhausted = True
            else:
                all_certified = False
            continue
        cs, ct = row.collisions
        gap = abs(built.gamma_k - gamma0)
        print(f"k={row.k}: {row.status} deviation={abs(cs.value / ct.value - 1.0):.3e} "
              f"gamma_gap={gap:.3e} postcritical={built.postcritical_count}")
        doc = {
            "schema_version": "2",
            "a": spec0.a,
            "case": spec0.case_tag,
            "k": row.k,
            "gamma0": _pair(gamma0),
            "gamma_k": _pair(built.gamma_k),
            "r_k": _pair(built.r_k),
            "distance_to_base": gap + abs(built.r_k),
            "postcritical_count": built.postcritical_count,
            "certificates": [_certificate_doc(c) for c in built.certificates],
            "map": map_to_dict(built.g_k),
        }
        _atomic_write(os.path.join(out, f"construction_k{row.k}.json"),
                      _json_text(doc) + "\n")
    _atomic_write(os.path.join(out, "convergence.csv"), "\n".join(csv_lines) + "\n")
    if exhausted:
        return EXIT_PRECISION
    return EXIT_OK if all_certified else EXIT_VIOLATION


def cmd_certify(args) -> int:
    g = _load_map(args.map_file)
    unique = []
    for point in critical_points(g):
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
        g = lattes_map(_spec(args))
    buffer = julia_render(g, args.size, args.size, max_iter=args.max_iter, span=args.span)
    path = args.out if args.out else "render.ppm"
    if os.path.isdir(path):
        path = os.path.join(path, "render.ppm")
    _atomic_write(path, ppm_bytes(buffer))
    print(f"wrote {path} ({args.size}x{args.size})")
    return EXIT_OK


def _add_spec(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=int, default=2, help="integer multiplier, 2 <= |a| <= 5")
    p.add_argument("--case", type=int, choices=(1, 2, 3), default=1,
                   help="1 = a even, 2 = a odd untranslated, 3 = a odd with half-period shift")
    p.add_argument("--x0", type=_parse_rational, default=Fraction(1, 3),
                   help="rational p/q, real part of gamma0")
    p.add_argument("--y0", type=_parse_rational, default=Fraction(1),
                   help="rational p/q, imaginary part of gamma0 (> 0)")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < float("inf"):  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _grid_size(text: str) -> int:
    value = _positive_int(text)
    if value < MIN_GRID:
        raise argparse.ArgumentTypeError(f"must be at least {MIN_GRID}, got {text!r}")
    return value


def _add_tol(p: argparse.ArgumentParser, default: float) -> None:
    p.add_argument("--tol", type=_positive_float, default=default,
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
    pc.set_defaults(fn=cmd_construct)

    pf = sub.add_parser("certify", help="certify an arbitrary map from its JSON coefficients")
    _add_tol(pf, 1e-8)
    pf.add_argument("--out", type=str, default=None, help="output directory")
    pf.add_argument("map_file", type=str)
    pf.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=300)
    pf.set_defaults(fn=cmd_certify)

    pr = sub.add_parser("render", help="render a Julia set to PPM")
    _add_spec(pr)
    pr.add_argument("--out", type=str, default=None, help="output file or directory")
    pr.add_argument("--map-file", dest="map_file", type=str, default=None)
    pr.add_argument("--size", type=_grid_size, default=512)
    pr.add_argument("--span", type=_positive_float, default=2.0)
    pr.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=40)
    pr.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # here, so that a closed stdout is an error line and exit 1
        return code
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


def run() -> None:
    """Console entry point: main(), flush, then os._exit without interpreter teardown."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    finally:  # os._exit also when a flush fails, as on a stdout closed early
        os._exit(code)


if __name__ == "__main__":
    run()
