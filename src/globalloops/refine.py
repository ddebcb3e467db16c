"""Uniform 1-to-4 refinement: one new vertex per edge midpoint."""

from __future__ import annotations

from .surface import SurfaceComplex, build_complex


def refine(complex: SurfaceComplex) -> SurfaceComplex:
    """Split every triangle into four; midpoints get ids after the old
    vertices, in edge-id order, so refinement is deterministic."""
    base = complex.num_vertices

    coords = None
    if complex.coords is not None:
        coords = list(complex.coords)
        for a, b in complex.edges:
            xa, ya, za = complex.coords[a]
            xb, yb, zb = complex.coords[b]
            coords.append(((xa + xb) / 2.0, (ya + yb) / 2.0, (za + zb) / 2.0))

    faces = []
    # Half-edges 3f, 3f + 1 and 3f + 2 are the sides ab, bc and ca of face f;
    # mid holds the midpoint of each one's edge.
    mid = [base + eid for eid in complex.half]
    for (a, b, c), mab, mbc, mca in zip(complex.faces, mid[0::3], mid[1::3], mid[2::3]):
        faces.extend(
            [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        )
    return build_complex(base + complex.num_edges, faces, coords=coords)

