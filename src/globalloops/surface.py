"""Indexed triangulations: incidence numbers and boundary structure.

The complex is purely combinatorial; vertex coordinates, when present, are
carried along only so that exporters can write them back out.  This module
holds what the generator pipeline runs and nothing else: the oracle
(``oracle.py``) rebuilds its own incidence from the face list and closes up
the surface itself.

``build_complex`` indexes and validates the faces in one pass over flat
half-edge lists; it numbers the edges, in order of first appearance, in
the one dict it returns as ``edge_index``, keyed by the vertex pair (a, b)
with a < b.  A failed check rescans the faces in order, so a fault of one
face wins over a fault between faces.  The complex keeps that pass's
half-edge tables (``half``, ``sign``, ``twin`` and ``edge_half``, see
``SurfaceComplex``) and no per-face or per-edge tuples, so an edge's faces
and a face's sign on an edge are O(1) reads.  ``boundary_components``
walks two boundary neighbours per vertex.  Connected components are
numbered by the dual forest (``forest.py``), not here.
"""

from __future__ import annotations

from itertools import chain, count, groupby
from operator import eq
from typing import NamedTuple

from .errors import (
    DegenerateFace,
    DuplicateFace,
    IsolatedVertex,
    NonManifoldEdge,
    NotABoundaryEdge,
    PinchVertex,
)

Edge = tuple[int, int]
Face = tuple[int, int, int]


class SurfaceComplex(NamedTuple):
    """A triangulated surface, immutable after construction.

    Edges are stored as vertex pairs (a, b) with a < b; the pair order is the
    edge orientation (tail a, head b).  Faces keep their input vertex order,
    which fixes each face orientation.  Half-edge h = 3f + i is side i of
    face f (a, b, c), in the order ab, bc, ca, so its face is h // 3.  Four
    flat lists hold the incidence: ``half[h]`` is the edge id of half-edge
    h and ``sign[h]`` is +1 when the edge orientation agrees with the
    traversal the face induces, else -1; ``twin[h]`` is the other half-edge
    of the same edge, on the other face, or -1 on the boundary; and
    ``edge_half[e]`` is the half-edge of edge e on its lower face, since an
    edge is indexed from its first half-edge.
    """

    num_vertices: int
    edges: list[Edge]
    faces: list[Face]
    half: list[int]
    sign: list[int]
    twin: list[int]
    edge_half: list[int]
    edge_index: dict[Edge, int]
    vertex_edges: list[list[int]]  # per vertex: its edge ids, ascending
    coords: list[tuple[float, float, float]] | None
    boundary_edge_ids: list[int]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def is_boundary_edge(self, edge_id: int) -> bool:
        """Whether the edge lies on one face; False for an id off the list."""
        return 0 <= edge_id < len(self.edge_half) and self.twin[self.edge_half[edge_id]] < 0

    def incidence(self, face_id: int, edge_id: int) -> int:
        """Signed incidence of an edge on a face; 0 when the edge is not on
        it, or is no edge of the complex."""
        if not 0 <= edge_id < len(self.edge_half):
            return 0
        h = self.edge_half[edge_id]
        if h // 3 != face_id:
            h = self.twin[h]
            if h < 0 or h // 3 != face_id:
                return 0
        return self.sign[h]

    def __repr__(self) -> str:
        return (
            f"SurfaceComplex(V={self.num_vertices}, E={self.num_edges}, "
            f"F={self.num_faces}, boundary_edges={len(self.boundary_edge_ids)})"
        )


class BoundaryCycle(NamedTuple):
    """One boundary circle, listed in traversal order.

    ``edges[i]`` joins ``vertices[i]`` and ``vertices[(i + 1) % len]``.
    """

    vertices: list[int]
    edges: list[int]


class BoundaryPartition(NamedTuple):
    """Split of the boundary into contact components and the insulated rest.

    The insulated part is a closed subcomplex: every non-contact boundary
    edge together with both endpoints of each such edge, so the interface
    vertices between contact and insulation belong to it.  It is derived,
    not stored: the boundary edges not in ``contact_edges``.
    """

    hole_components: list[BoundaryCycle]
    contact_components: list[list[int]]
    contact_edges: set[int]


def build_complex(
    vertex_count: int,
    faces: list[Face],
    coords: list[tuple[float, float, float]] | None = None,
) -> SurfaceComplex:
    """Build and validate the indexed triangulation from a raw face list.

    Edge ids and orientations are derived deterministically from the face
    order, so identical input always yields an identical complex.  Raises
    DegenerateFace, DuplicateFace, NonManifoldEdge, PinchVertex or
    IsolatedVertex on invalid input, and ValueError on a vertex out of
    range; a fault of one face wins over a fault between faces.
    """
    if coords is not None and len(coords) != vertex_count:
        raise ValueError(
            f"got {len(coords)} coordinate triples for {vertex_count} vertices"
        )
    clean_faces = list(map(tuple, faces))
    if set(map(len, clean_faces)) - {3}:
        raise _face_fault(faces, vertex_count)
    # Half-edge h = 3f + i runs from tail[h] to head[h] along face f, whose
    # third vertex is apex[h]; twin[h] is the other half-edge of its edge.
    tail = list(chain.from_iterable(clean_faces))
    a, b, c = tail[0::3], tail[1::3], tail[2::3]
    head = list(chain.from_iterable(zip(b, c, a)))
    apex = list(chain.from_iterable(zip(c, a, b)))
    if tail and (min(tail) < 0 or max(tail) >= vertex_count or any(map(eq, tail, head))):
        raise _face_fault(faces, vertex_count)

    edge_index: dict[Edge, int] = {}  # edge id by vertex pair, a < b
    new_edge = edge_index.setdefault
    first: list[int] = []  # per edge: its half-edge on the first face
    twin = [-1] * len(tail)
    half: list[int] = []
    sign = [1 if u < w else -1 for u, w in zip(tail, head)]
    vertex_edges: list[list[int]] = [[] for _ in range(vertex_count)]
    for h, u, w, x in zip(count(), tail, head, apex):
        key = (u, w) if u < w else (w, u)
        eid = new_edge(key, len(first))
        half.append(eid)
        if eid == len(first):
            first.append(h)
            vertex_edges[u].append(eid)
            vertex_edges[w].append(eid)
        else:
            g = first[eid]
            # A second face on an edge with the same apex repeats the first.
            if twin[g] >= 0 or apex[g] == x:
                raise _face_fault(faces, vertex_count) or NonManifoldEdge(
                    f"edge {key} lies on more than two faces"
                )
            twin[g], twin[h] = h, g

    if not all(vertex_edges):
        raise IsolatedVertex(f"vertex {vertex_edges.index([])} belongs to no face")
    _check_fans(tail, twin, first, vertex_edges)

    return SurfaceComplex(
        num_vertices=vertex_count,
        edges=list(edge_index),
        faces=clean_faces,
        half=half,
        sign=sign,
        twin=twin,
        edge_half=first,
        edge_index=edge_index,
        vertex_edges=vertex_edges,
        coords=list(coords) if coords is not None else None,
        boundary_edge_ids=[eid for eid, g in enumerate(first) if twin[g] < 0],
    )


def _face_fault(faces, vertex_count) -> Exception | None:
    """The first fault of a single face, in face order: a face that is not
    a triangle of distinct in-range vertices or repeats an earlier face."""
    seen: set[Face] = set()
    for idx, f in enumerate(faces):
        if len(f) != 3:
            return DegenerateFace(f"face {idx} has {len(f)} vertices")
        a, b, c = f
        if a == b or b == c or a == c:
            return DegenerateFace(f"face {idx} repeats a vertex: {f}")
        for v in f:
            if not 0 <= v < vertex_count:
                return ValueError(f"face {idx} references vertex {v} out of range")
        key = tuple(sorted(f))
        if key in seen:
            return DuplicateFace(f"face {idx} duplicates an earlier face: {f}")
        seen.add(key)


def _check_fans(tail, twin, first, vertex_edges):
    # The faces around each vertex must form a single fan (path or cycle),
    # not a pinch of several.  Walk a fan both ways from one edge at v,
    # leaving each face by its other edge at v: a lone fan reaches every
    # edge at v, and an open fan has one edge more than it has faces.
    third = range(0, len(tail), 3)
    before = list(chain.from_iterable(zip(range(2, len(tail), 3), third, range(1, len(tail), 3))))
    after = list(chain.from_iterable(zip(range(1, len(tail), 3), range(2, len(tail), 3), third)))
    for v, local in enumerate(vertex_edges):
        start = first[local[0]]
        h, walked = start, 0
        while True:
            walked += 1
            h = twin[before[h] if tail[h] == v else after[h]]
            if h < 0 or h == start:
                break
        if h < 0:
            walked += 1
            h = twin[start]
            while h >= 0:
                walked += 1
                h = twin[before[h] if tail[h] == v else after[h]]
        if walked != len(local):
            raise PinchVertex(f"vertex {v} joins more than one face fan")


def euler_characteristic(complex: SurfaceComplex) -> int:
    return complex.num_vertices - complex.num_edges + complex.num_faces


def boundary_components(complex: SurfaceComplex) -> list[BoundaryCycle]:
    """Boundary circles in traversal order, one cycle per component.

    Components are listed by ascending minimal vertex id; each cycle starts
    at its minimal vertex and walks toward the lower-id neighbor first.
    """
    # With pinch vertices excluded every boundary vertex has two boundary
    # edges (edge1, edge2, to end1, end2), so the boundary is simple cycles.
    # edge1 is -1 off the boundary and once the vertex is walked.
    n = complex.num_vertices
    edge1, end1, edge2, end2 = [-1] * n, [-1] * n, [-1] * n, [-1] * n
    edges = complex.edges
    for eid in complex.boundary_edge_ids:
        a, b = edges[eid]
        if edge1[a] < 0:
            edge1[a], end1[a] = eid, b
        else:
            edge2[a], end2[a] = eid, b
        if edge1[b] < 0:
            edge1[b], end1[b] = eid, a
        else:
            edge2[b], end2[b] = eid, a

    cycles: list[BoundaryCycle] = []
    for start in range(n):
        if edge1[start] < 0:
            continue
        if end1[start] < end2[start]:
            prev_edge, cur = edge1[start], end1[start]
        else:
            prev_edge, cur = edge2[start], end2[start]
        edge1[start] = -1
        verts, cyc_edges = [start], [prev_edge]
        while cur != start:
            verts.append(cur)
            e1, edge1[cur] = edge1[cur], -1
            if e1 == prev_edge:
                prev_edge, cur = edge2[cur], end2[cur]
            else:
                prev_edge, cur = e1, end1[cur]
            cyc_edges.append(prev_edge)
        cycles.append(BoundaryCycle(vertices=verts, edges=cyc_edges))
    return cycles


def classify_boundary(
    complex: SurfaceComplex, contact_edges: set[int] | frozenset[int] | list[int]
) -> BoundaryPartition:
    """Partition the boundary into contact components and the insulated rest.

    Contact components are connected by edge adjacency (shared vertices)
    within the boundary.  Every boundary vertex has exactly two boundary
    edges, so a component is a maximal run of contact edges along one
    circle, and a circle without insulated edges is one component.  Each
    component lists its edge ids in ascending order; components come in
    ascending order of their minimal vertex.  Raises NotABoundaryEdge when a
    contact edge is not on the boundary, and warns of nothing:
    ``compute_generators`` warns of a one-edge component.
    """
    contact = set(contact_edges)
    edges, edge_half, twin = complex.edges, complex.edge_half, complex.twin
    for eid in sorted(contact):
        if eid < 0 or eid >= len(edges):
            raise NotABoundaryEdge(f"edge id {eid} is not an edge of the mesh")
        if twin[edge_half[eid]] >= 0:
            raise NotABoundaryEdge(
                f"edge {edges[eid]} (id {eid}) is not a boundary edge"
            )

    holes = boundary_components(complex)

    components: list[list[int]] = []
    for cyc in holes:
        ring = cyc.edges
        # Start just past an insulated edge so that no run wraps around.
        start = next((i + 1 for i, eid in enumerate(ring) if eid not in contact), 0)
        rotated = ring[start:] + ring[:start]
        for in_contact, run in groupby(rotated, contact.__contains__):
            if in_contact:
                components.append(sorted(run))
    components.sort(key=lambda comp: min([edges[e][0] for e in comp]))
    return BoundaryPartition(
        hole_components=holes,
        contact_components=components,
        contact_edges=contact,
    )
