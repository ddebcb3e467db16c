#!/usr/bin/env python3
"""Write a few example OFF meshes and contact files for CLI experiments.

Usage: python scripts/make_example_meshes.py [output_dir]
"""

import math
import sys
from pathlib import Path

from globalloops import build_complex
from globalloops.surface import boundary_components
from globalloops.meshio import write_off


def annulus(n=8):
    faces = []
    for i in range(n):
        a, b = i, (i + 1) % n
        A, B = n + i, n + (i + 1) % n
        faces.append((a, b, B))
        faces.append((a, B, A))
    coords = []
    for r in (1.0, 2.0):
        for i in range(n):
            angle = 2 * math.pi * i / n
            coords.append((r * math.cos(angle), r * math.sin(angle), 0.0))
    return build_complex(2 * n, faces, coords=coords)


def moebius(n=8):
    def v(i, r):
        if i == n:
            return 1 - r
        return 2 * i + r

    faces = []
    for i in range(n):
        p, q = v(i, 0), v(i + 1, 0)
        r, s = v(i + 1, 1), v(i, 1)
        faces.append((p, q, r))
        faces.append((p, r, s))
    coords = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        half = angle / 2
        for w in (-0.5, 0.5):
            rad = 2.0 + w * math.cos(half)
            coords.append(
                (rad * math.cos(angle), rad * math.sin(angle), w * math.sin(half))
            )
    return build_complex(2 * n, faces, coords=coords)


def torus(n=8, m=8):
    def v(i, j):
        return (i % n) * m + (j % m)

    faces = []
    for i in range(n):
        for j in range(m):
            faces.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            faces.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    coords = []
    for i in range(n):
        for j in range(m):
            u = 2 * math.pi * i / n
            w = 2 * math.pi * j / m
            rad = 2.0 + 0.7 * math.cos(w)
            coords.append((rad * math.cos(u), rad * math.sin(u), 0.7 * math.sin(w)))
    return build_complex(n * m, faces, coords=coords)


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("example_meshes")
    out.mkdir(parents=True, exist_ok=True)

    K = annulus()
    write_off(out / "annulus.off", K)
    arcs = []
    for cyc in boundary_components(K):
        arcs.extend(cyc.edges[:3])
    lines = [f"{K.edges[e][0]} {K.edges[e][1]}" for e in sorted(arcs)]
    (out / "annulus_contacts.txt").write_text(
        "# one three-edge port per rim\n" + "\n".join(lines) + "\n"
    )

    write_off(out / "moebius.off", moebius())
    write_off(out / "torus.off", torus())
    print(f"wrote annulus.off, annulus_contacts.txt, moebius.off, torus.off to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
