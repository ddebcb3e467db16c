"""Indexed triangulations: incidence numbers, boundary structure, components.

The complex is purely combinatorial; vertex coordinates, when present, are
carried along only so that exporters can write them back out.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    CountMismatch,
    DegenerateFace,
    DuplicateFace,
    IsolatedVertex,
    NonManifoldEdge,
    NotABoundaryEdge,
    PinchVertex,
)

Edge = tuple[int, int]
Face = tuple[int, int, int]


@dataclass
class SurfaceComplex:
    """A triangulated surface, immutable after construction.

    Edges are stored as vertex pairs (a, b) with a < b; the pair order is the
    edge orientation (tail a, head b).  Faces keep their input vertex order,
    which fixes each face orientation.  ``face_edges[f]`` lists the three
    (edge id, sign) pairs of face f, where the sign is +1 when the edge
    orientation agrees with the traversal induced by the face.
    """

    num_vertices: int
    edges: list[Edge]
    faces: list[Face]
    face_edges: list[tuple[tuple[int, int], tuple[int, int], tuple[int, int]]]
    edge_faces: list[tuple[int, ...]]
    edge_index: dict[Edge, int]
    vertex_edges: list[list[tuple[int, int]]]  # per vertex: (edge id, other vertex)
    coords: list[tuple[float, float, float]] | None = None
    boundary_edge_ids: list[int] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def is_boundary_edge(self, edge_id: int) -> bool:
        return len(self.edge_faces[edge_id]) == 1

    def incidence(self, face_id: int, edge_id: int) -> int:
        """Signed incidence of an edge on a face; 0 when the edge is not on it."""
        for eid, sign in self.face_edges[face_id]:
            if eid == edge_id:
                return sign
        return 0

    def __repr__(self) -> str:
        return (
            f"SurfaceComplex(V={self.num_vertices}, E={self.num_edges}, "
            f"F={self.num_faces}, boundary_edges={len(self.boundary_edge_ids)})"
        )


@dataclass
class BoundaryCycle:
    """One boundary circle, listed in traversal order.

    ``edges[i]`` joins ``vertices[i]`` and ``vertices[(i + 1) % len]``.
    """

    vertices: list[int]
    edges: list[int]


@dataclass
class BoundaryPartition:
    """Split of the boundary into contact components and the insulated rest.

    The insulated part is a closed subcomplex: it holds every non-contact
    boundary edge together with both endpoints of each such edge, so the
    interface vertices between contact and insulation belong to it.
    """

    hole_components: list[BoundaryCycle]
    contact_components: list[list[int]]
    contact_edges: set[int]
    insulated_edges: set[int]
    insulated_vertices: set[int]

    @property
    def num_holes(self) -> int:
        return len(self.hole_components)

    @property
    def num_contacts(self) -> int:
        return len(self.contact_components)


@dataclass
class ClosedComplex:
    """CW complex obtained by collapsing each boundary circle to a point.

    Boundary edges are deleted and the vertices of the k-th circle are all
    identified to one new 0-cell.  Only the integer boundary maps survive:
    ``d1[e]`` maps vertex id to coefficient (empty when both endpoints land
    on the same 0-cell) and ``d2[f]`` maps edge id to coefficient.
    """

    num_vertices: int
    num_edges: int
    num_faces: int
    d1: list[dict[int, int]]
    d2: list[dict[int, int]]
    edge_map: list[int]  # closed edge id -> edge id in the source complex
    vertex_map: list[int]  # source vertex id -> closed vertex id

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces


def build_complex(
    vertex_count: int,
    faces: list[Face],
    coords: list[tuple[float, float, float]] | None = None,
) -> SurfaceComplex:
    """Build and validate the indexed triangulation from a raw face list.

    Edge ids and orientations are derived deterministically from the face
    order, so identical input always yields an identical complex.  Raises
    DegenerateFace, DuplicateFace, NonManifoldEdge, PinchVertex or
    IsolatedVertex on invalid input.
    """
    if coords is not None and len(coords) != vertex_count:
        raise ValueError(
            f"got {len(coords)} coordinate triples for {vertex_count} vertices"
        )

    seen_faces: set[frozenset[int]] = set()
    clean_faces: list[Face] = []
    for idx, f in enumerate(faces):
        if len(f) != 3:
            raise DegenerateFace(f"face {idx} has {len(f)} vertices")
        a, b, c = f
        if a == b or b == c or a == c:
            raise DegenerateFace(f"face {idx} repeats a vertex: {f}")
        for v in f:
            if not 0 <= v < vertex_count:
                raise ValueError(f"face {idx} references vertex {v} out of range")
        key = frozenset(f)
        if key in seen_faces:
            raise DuplicateFace(f"face {idx} duplicates an earlier face: {f}")
        seen_faces.add(key)
        clean_faces.append((a, b, c))

    edge_index: dict[Edge, int] = {}
    edges: list[Edge] = []
    face_edges = []
    edge_face_lists: list[list[int]] = []
    for fid, (a, b, c) in enumerate(clean_faces):
        triple = []
        for u, w in ((a, b), (b, c), (c, a)):
            pair = (u, w) if u < w else (w, u)
            eid = edge_index.get(pair)
            if eid is None:
                eid = len(edges)
                edge_index[pair] = eid
                edges.append(pair)
                edge_face_lists.append([])
            incident = edge_face_lists[eid]
            if len(incident) == 2:
                raise NonManifoldEdge(f"edge {pair} lies on more than two faces")
            incident.append(fid)
            triple.append((eid, 1 if u < w else -1))
        face_edges.append(tuple(triple))

    vertex_edges: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for eid, (a, b) in enumerate(edges):
        vertex_edges[a].append((eid, b))
        vertex_edges[b].append((eid, a))

    for v in range(vertex_count):
        if not vertex_edges[v]:
            raise IsolatedVertex(f"vertex {v} belongs to no face")

    _check_vertex_links(clean_faces, edges, edge_face_lists, face_edges, vertex_edges)

    boundary_edge_ids = [
        eid for eid, fl in enumerate(edge_face_lists) if len(fl) == 1
    ]
    return SurfaceComplex(
        num_vertices=vertex_count,
        edges=edges,
        faces=clean_faces,
        face_edges=face_edges,
        edge_faces=[tuple(fl) for fl in edge_face_lists],
        edge_index=edge_index,
        vertex_edges=vertex_edges,
        coords=list(coords) if coords is not None else None,
        boundary_edge_ids=boundary_edge_ids,
    )


def _check_vertex_links(faces, edges, edge_face_lists, face_edges, vertex_edges):
    # The faces around each vertex must form a single fan (path or cycle);
    # two fans meeting at a point is a pinch, which the algorithms do not
    # support.  Walk the fan from a boundary edge (or anywhere on a closed
    # fan) and require that it reaches every face at the vertex.
    face_count_at = [0] * len(vertex_edges)
    for f in faces:
        for v in f:
            face_count_at[v] += 1

    def other_edge_at(fid, v, eid):
        for eid2, _ in face_edges[fid]:
            if eid2 != eid:
                a, b = edges[eid2]
                if a == v or b == v:
                    return eid2
        raise AssertionError("triangle lost an edge at its own vertex")

    for v, local in enumerate(vertex_edges):
        if face_count_at[v] <= 1:
            continue
        entry = None
        for eid, _ in local:
            if len(edge_face_lists[eid]) == 1:
                entry = eid
                break
        if entry is None:
            entry = local[0][0]
        start = edge_face_lists[entry][0]
        cur, in_edge = start, entry
        visited = 1
        while True:
            out_edge = other_edge_at(cur, v, in_edge)
            incident = edge_face_lists[out_edge]
            if len(incident) == 1:
                break
            nxt = incident[1] if incident[0] == cur else incident[0]
            if nxt == start:
                break
            cur, in_edge = nxt, out_edge
            visited += 1
        if visited != face_count_at[v]:
            raise PinchVertex(
                f"vertex {v} joins more than one face fan"
            )


def euler_characteristic(complex: SurfaceComplex) -> int:
    return complex.num_vertices - complex.num_edges + complex.num_faces


def boundary_components(complex: SurfaceComplex) -> list[BoundaryCycle]:
    """Boundary circles in traversal order, one cycle per component.

    Components are listed by ascending minimal vertex id; each cycle starts
    at its minimal vertex and walks toward the lower-id neighbor first.
    """
    # Every boundary vertex has exactly two boundary edges once pinch
    # vertices are excluded, so the boundary decomposes into simple cycles.
    at_vertex: dict[int, list[tuple[int, int]]] = {}
    for eid in complex.boundary_edge_ids:
        a, b = complex.edges[eid]
        at_vertex.setdefault(a, []).append((eid, b))
        at_vertex.setdefault(b, []).append((eid, a))

    cycles: list[BoundaryCycle] = []
    visited: set[int] = set()
    for start in sorted(at_vertex):
        if start in visited:
            continue
        nbrs = sorted(at_vertex[start], key=lambda item: item[1])
        first_edge, nxt = nbrs[0]
        verts = [start]
        cyc_edges = [first_edge]
        visited.add(start)
        prev_edge = first_edge
        cur = nxt
        while cur != start:
            verts.append(cur)
            visited.add(cur)
            (e1, w1), (e2, w2) = at_vertex[cur]
            prev_edge, cur = (e2, w2) if e1 == prev_edge else (e1, w1)
            cyc_edges.append(prev_edge)
        cycles.append(BoundaryCycle(vertices=verts, edges=cyc_edges))
    return cycles


def classify_boundary(
    complex: SurfaceComplex, contact_edges: set[int] | frozenset[int] | list[int]
) -> BoundaryPartition:
    """Partition the boundary into contact components and the insulated rest.

    Contact components are connected by edge adjacency (shared vertices)
    within the boundary.  Raises NotABoundaryEdge when a contact edge is not
    on the boundary.
    """
    contact = set(contact_edges)
    boundary = set(complex.boundary_edge_ids)
    for eid in sorted(contact):
        if eid < 0 or eid >= complex.num_edges:
            raise NotABoundaryEdge(f"edge id {eid} is not an edge of the mesh")
        if eid not in boundary:
            raise NotABoundaryEdge(
                f"edge {complex.edges[eid]} (id {eid}) is not a boundary edge"
            )

    holes = boundary_components(complex)

    at_vertex: dict[int, list[int]] = {}
    for eid in contact:
        a, b = complex.edges[eid]
        at_vertex.setdefault(a, []).append(eid)
        at_vertex.setdefault(b, []).append(eid)

    components: list[list[int]] = []
    seen: set[int] = set()
    for seed in sorted(contact):
        if seed in seen:
            continue
        queue = deque([seed])
        seen.add(seed)
        comp = []
        while queue:
            eid = queue.popleft()
            comp.append(eid)
            for v in complex.edges[eid]:
                for other in at_vertex[v]:
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        components.append(sorted(comp))
    components.sort(key=lambda comp: min(complex.edges[e][0] for e in comp))

    for j, comp in enumerate(components):
        if len(comp) == 1:
            warnings.warn(
                f"contact component {j} consists of a single edge "
                f"{complex.edges[comp[0]]}; a one-edge port is physically dubious",
                stacklevel=2,
            )

    insulated_edges = boundary - contact
    insulated_vertices: set[int] = set()
    for eid in insulated_edges:
        insulated_vertices.update(complex.edges[eid])

    return BoundaryPartition(
        hole_components=holes,
        contact_components=components,
        contact_edges=contact,
        insulated_edges=insulated_edges,
        insulated_vertices=insulated_vertices,
    )


def connected_components(complex: SurfaceComplex) -> list[list[int]]:
    """Face-connectivity components as ascending lists of face ids.

    Faces are adjacent when they share an edge.  Components come out in
    ascending order of their minimal face id.
    """
    comp_of_face = [-1] * complex.num_faces
    comp_count = 0
    for seed in range(complex.num_faces):
        if comp_of_face[seed] >= 0:
            continue
        queue = deque([seed])
        comp_of_face[seed] = comp_count
        while queue:
            fid = queue.popleft()
            for eid, _ in complex.face_edges[fid]:
                for other in complex.edge_faces[eid]:
                    if comp_of_face[other] < 0:
                        comp_of_face[other] = comp_count
                        queue.append(other)
        comp_count += 1

    components: list[list[int]] = [[] for _ in range(comp_count)]
    for fid, cid in enumerate(comp_of_face):
        components[cid].append(fid)
    return components


def build_closed_complex(complex: SurfaceComplex) -> ClosedComplex:
    """Collapse each boundary circle to a single 0-cell.

    Interior vertices keep their relative order and the circle cells are
    appended after them; boundary edges are deleted.  The Euler
    characteristic grows by exactly the number of boundary circles.
    """
    holes = boundary_components(complex)
    circle_of_vertex: dict[int, int] = {}
    for k, cyc in enumerate(holes):
        for v in cyc.vertices:
            circle_of_vertex[v] = k

    interior = [v for v in range(complex.num_vertices) if v not in circle_of_vertex]
    vertex_map = [-1] * complex.num_vertices
    for i, v in enumerate(interior):
        vertex_map[v] = i
    for v, k in circle_of_vertex.items():
        vertex_map[v] = len(interior) + k

    boundary = set(complex.boundary_edge_ids)
    edge_map = [eid for eid in range(complex.num_edges) if eid not in boundary]
    closed_id = {eid: i for i, eid in enumerate(edge_map)}

    d1: list[dict[int, int]] = []
    for eid in edge_map:
        a, b = complex.edges[eid]
        row: dict[int, int] = {}
        row[vertex_map[b]] = row.get(vertex_map[b], 0) + 1
        row[vertex_map[a]] = row.get(vertex_map[a], 0) - 1
        d1.append({v: c for v, c in row.items() if c})

    d2: list[dict[int, int]] = []
    for triple in complex.face_edges:
        d2.append({closed_id[eid]: sign for eid, sign in triple if eid in closed_id})

    closed = ClosedComplex(
        num_vertices=len(interior) + len(holes),
        num_edges=len(edge_map),
        num_faces=complex.num_faces,
        d1=d1,
        d2=d2,
        edge_map=edge_map,
        vertex_map=vertex_map,
    )
    expected = euler_characteristic(complex) + len(holes)
    if closed.euler_characteristic != expected:
        raise CountMismatch(
            f"closed complex has Euler characteristic {closed.euler_characteristic}, "
            f"expected {expected}"
        )
    return closed
