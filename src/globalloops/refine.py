"""Uniform 1-to-4 refinement: one new vertex per edge midpoint."""

from __future__ import annotations

from .surface import SurfaceComplex, build_complex


def refine(complex: SurfaceComplex) -> SurfaceComplex:
    """Split every triangle into four; midpoints get ids after the old
    vertices, in edge-id order, so refinement is deterministic."""
    base = complex.num_vertices
    midpoint = [base + eid for eid in range(complex.num_edges)]

    coords = None
    if complex.coords is not None:
        coords = list(complex.coords)
        for a, b in complex.edges:
            xa, ya, za = complex.coords[a]
            xb, yb, zb = complex.coords[b]
            coords.append(((xa + xb) / 2.0, (ya + yb) / 2.0, (za + zb) / 2.0))

    faces = []
    # A face's edges are listed in the order ab, bc, ca.
    for (a, b, c), ((eab, _), (ebc, _), (eca, _)) in zip(complex.faces, complex.face_edges):
        mab, mbc, mca = midpoint[eab], midpoint[ebc], midpoint[eca]
        faces.extend(
            [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        )
    return build_complex(base + complex.num_edges, faces, coords=coords)

