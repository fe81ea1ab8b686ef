"""Compare the render PPMs of two tools/same_outputs.py output directories.

    python tools/render_agreement.py OUT_A OUT_B

For every PPM that both directories hold at the same relative path, prints
the share of pixels whose red differs by at most the bench's RED_LEVELS, the
gap between the two bright-green shares, and whether both pictures keep the
renderer's palette (green 80 or 255, blue 255 or equal to red).  Exits 1 when
a pair is outside the bench's render check (bench/workloads.py: red agreement
below RED_AGREE, a share gap above GREEN_SHARE_TOL, a palette break or a
shape mismatch) or when no PPM is held in both, 0 otherwise.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import GREEN_SHARE_TOL, RED_AGREE, RED_LEVELS, read_ppm  # noqa: E402


def _ppms(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, files in os.walk(top) for f in files if f.endswith(".ppm")}


def _palette_ok(pixels: bytes) -> bool:
    red, green, blue = pixels[0::3], pixels[1::3], pixels[2::3]
    return set(green) <= {80, 255} and all(b == 255 or b == r for r, b in zip(red, blue))


def compare(path_a: str, path_b: str) -> tuple[bool, str]:
    """(within the bench's render check, report line) for one pair of PPMs."""
    (ha, wa, a), (hb, wb, b) = read_ppm(path_a), read_ppm(path_b)
    if (ha, wa) != (hb, wb):
        return False, f"shapes {wa}x{ha} and {wb}x{hb}"
    n = ha * wa
    agree = sum(abs(x - y) <= RED_LEVELS for x, y in zip(a[0::3], b[0::3])) / n
    gap = abs(a[1::3].count(255) - b[1::3].count(255)) / n
    palette = _palette_ok(a) and _palette_ok(b)
    ok = agree >= RED_AGREE and gap <= GREEN_SHARE_TOL and palette
    return ok, (f"red within {RED_LEVELS} {agree:.5f}  bright-green gap {gap:.4f}  "
                f"palette {'ok' if palette else 'BROKEN'}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    top_a, top_b = argv
    common = sorted(_ppms(top_a) & _ppms(top_b))
    if not common:
        print("no PPM is held in both directories", file=sys.stderr)
        return 1
    failed = 0
    for rel in common:
        ok, line = compare(os.path.join(top_a, rel), os.path.join(top_b, rel))
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {rel}: {line}")
    print(f"{len(common) - failed} of {len(common)} PPMs within the bench's render check "
          f"(red within {RED_LEVELS} on >= {RED_AGREE}, green share gap <= {GREEN_SHARE_TOL})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
