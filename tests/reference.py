"""Step-by-step references the tests compare the package's fast paths with.

``transport`` is the original face-by-face cocycle transport: it reads
every sign with ``SurfaceComplex.incidence`` and pushes the value across
one face at a time along an explicit ``tree_path``.  The package computes
the same values in closed form from the dual forest's face orientation.

``build_primal_tree`` and ``classify_boundary`` are the original searches:
a breadth-first search inside every boundary circle, absorbed as a
re-rooted fragment, and a breadth-first search over contact edges that
share a vertex.  The package reads the same search order, and the same
contact components, off each circle's traversal order.  Both primal forests
are a ``forest.Tree``, parent for parent.

``build_complex`` (with ``_check_vertex_links``) and ``boundary_components``
are the original indexing and boundary walk: tuple-keyed edges, one
frozenset per face for duplicates, a fan walk that searches each face for
its other edge at the vertex, and a dict of boundary neighbours sorted per
circle; it derives the complex's half-edge tables from its per-face
(edge id, sign) triples and per-edge face lists last.  The package makes
the same complex and cycles in one pass over flat half-edge arrays.
``face_edges`` and ``edge_faces`` are views of a complex's tables in those
two former shapes, for tests that read a face's edges or an edge's faces.
``parse_off`` is the original OFF parser, which fetches each non-blank
line through a closure.

``refine`` is the original 1-to-4 refinement, which looks each face's
edge ids up by vertex pair; ``meshes.refine`` reads them off ``half``.
``write_vtk`` is the original VTK overlay writer, which builds one row per
support edge before writing any block.

``report_dict`` is the original report builder, one dict per support edge
and one meta row per component; ``meshio.report_text`` must be its
indented JSON dump byte for byte, and the package's ``report_dict``, the
parse of that text, must equal it.  ``report_to_generators`` reads a
parsed report back into generators, so a test can check that the report
loses nothing.

``sparse_rank`` is the oracle's former elimination, a sparse rank modulo
a prime (``PRIME`` by default) with Markowitz-style pivoting; the tests
hold the oracle's closed-form counts and the generators' independence over
small fields to it.  ``exact_rank`` (fraction-free Bareiss elimination)
and ``smith_invariant_factors`` (integer Smith normal form) are the dense,
cubic references for the same counts on small meshes.

``evaluate``, ``coboundary0``, ``connected_components`` and ``of_kind`` are
test helpers with no counterpart in the package: the pairing of a cochain
with a chain, the vertex-to-edge coboundary, a face breadth-first search for
components (the package numbers them by its dual forest), and one class of
a generator set's cochains.  ``betti1_relative`` reads the oracle's Betti
number off ``verify`` on an empty generator set, ``is_orientable`` runs the
oracle's face-component search on a complex (the package's ``info`` reads
orientability off the dual forest), and ``closed_edges`` and ``closed_d2``
are the closed-up complex (each boundary circle collapsed to a point) whose
torsion the oracle counts as its non-orientable face components.  They read
``complex.faces`` and ``complex.edges`` directly (``rim``, ``circle_root``
and ``face_rows``), never the oracle's tables, which they are held against.
"""

import pathlib
import warnings
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from globalloops.errors import (
    CountMismatch,
    DegenerateFace,
    DuplicateFace,
    EdgeNotOnFace,
    IsolatedVertex,
    NodeNotInTree,
    NonManifoldEdge,
    NotABoundaryEdge,
    OffParseError,
    PinchVertex,
)
from globalloops.forest import Tree
from globalloops.generators import Cochain1, GeneratorSet
from globalloops.oracle import DEFAULT_WORK_CAP, _face_components, _Incidence, verify
from globalloops.surface import build_complex as package_build_complex
from globalloops.surface import (
    BoundaryCycle,
    BoundaryPartition,
    Edge,
    Face,
    SurfaceComplex,
)


@dataclass
class Path:
    """Alternating node/edge walk: edges[i] joins nodes[i] and nodes[i+1]."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]


def tree_path(tree, a, b):
    """The unique path from node a to node b of a parent-pointer forest."""
    if tree.tree_of[a] < 0:
        raise NodeNotInTree(a)
    if tree.tree_of[b] < 0:
        raise NodeNotInTree(b)
    if tree.tree_of[a] != tree.tree_of[b]:
        raise NodeNotInTree(f"nodes {a} and {b} lie in different trees")
    left_nodes, left_edges, right_nodes, right_edges = [], [], [], []
    while tree.depth[a] > tree.depth[b]:
        left_nodes.append(a)
        left_edges.append(tree.parent_edge[a])
        a = tree.parent[a]
    while tree.depth[b] > tree.depth[a]:
        right_nodes.append(b)
        right_edges.append(tree.parent_edge[b])
        b = tree.parent[b]
    while a != b:
        left_nodes.append(a)
        left_edges.append(tree.parent_edge[a])
        a = tree.parent[a]
        right_nodes.append(b)
        right_edges.append(tree.parent_edge[b])
        b = tree.parent[b]
    nodes = left_nodes + [a] + right_nodes[::-1]
    edges = left_edges + right_edges[::-1]
    return Path(nodes=tuple(nodes), edges=tuple(edges))


@dataclass
class TransportResult:
    cochain: Cochain1
    consistent: bool


def transport(complex, path, start_edge, end_edge):
    """Push +1 on start_edge across each face of the path onto end_edge.

    A self-pair whose value comes back as -1 yields the zero cochain with
    consistent=False.
    """
    faces = path.nodes
    first, last = faces[0], faces[-1]
    if complex.incidence(first, start_edge) == 0:
        raise EdgeNotOnFace(f"edge {start_edge} is not on face {first}")
    if complex.incidence(last, end_edge) == 0:
        raise EdgeNotOnFace(f"edge {end_edge} is not on face {last}")

    coeffs = {start_edge: 1}
    prev_edge = start_edge
    value = 1
    for i, eid in enumerate(path.edges):
        face = faces[i]
        # Signs are +-1, so the sign ratio is just their product.
        value = -complex.incidence(face, eid) * complex.incidence(face, prev_edge) * value
        if eid == start_edge or eid == end_edge:
            raise CountMismatch("tree path revisits the transported edge pair")
        coeffs[eid] = value
        prev_edge = eid

    carried = (
        -complex.incidence(last, end_edge) * complex.incidence(last, prev_edge) * value
    )
    if end_edge == start_edge:
        # The initial +1 plus the carried value: cancellation means the loop
        # reverses orientation and no cocycle exists along it.
        if carried != 1:
            return TransportResult(cochain=Cochain1(), consistent=False)
        return TransportResult(cochain=Cochain1(coeffs), consistent=True)
    coeffs[end_edge] = carried
    return TransportResult(cochain=Cochain1(coeffs), consistent=True)


def orient(complex, tree):
    """Fill a hand-built dual forest's ``sigma``/``tau`` from their defining
    formulas, reading every sign with ``SurfaceComplex.incidence``."""
    for face in sorted(range(len(tree.parent)), key=tree.depth.__getitem__):
        parent = tree.parent[face]
        if tree.tree_of[face] < 0 or parent < 0:
            continue
        edge = tree.parent_edge[face]
        tree.sigma[face] = (
            -tree.sigma[parent]
            * complex.incidence(parent, edge)
            * complex.incidence(face, edge)
        )
        tree.tau[face] = tree.sigma[face] * complex.incidence(face, edge)
    return tree


def build_primal_tree(
    complex: SurfaceComplex, holes: list[BoundaryCycle]
) -> tuple[Tree, list[int]]:
    """Boundary-first primal spanning forest, one tree per component.

    Returns the forest and the per-circle leftover boundary edges.  When a
    breadth-first search first touches a circle's partial tree, the whole
    fragment is absorbed at once (re-rooted at the touched vertex) so none
    of its edges are lost.
    """
    nv = complex.num_vertices
    fragment_of = [-1] * nv
    fragment_adj: list[dict[int, list[tuple[int, int]]]] = []
    leftovers: list[int] = []
    boundary = set(complex.boundary_edge_ids)

    for k, cyc in enumerate(holes):
        root = min(cyc.vertices)
        comp_edges = set(cyc.edges)
        # BFS restricted to this circle, lower vertex id first.
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in cyc.vertices}
        for eid in cyc.edges:
            a, b = complex.edges[eid]
            adj[a].append((eid, b))
            adj[b].append((eid, a))
        for v in adj:
            adj[v].sort(key=lambda item: item[1])
        visited = {root}
        used: set[int] = set()
        queue = deque([root])
        tree_adj: dict[int, list[tuple[int, int]]] = {v: [] for v in cyc.vertices}
        while queue:
            u = queue.popleft()
            for eid, w in adj[u]:
                if w not in visited:
                    visited.add(w)
                    used.add(eid)
                    tree_adj[u].append((eid, w))
                    tree_adj[w].append((eid, u))
                    queue.append(w)
        leftover = sorted(comp_edges - used)
        if len(leftover) != 1:
            raise CountMismatch(
                f"boundary circle {k} left {len(leftover)} edges out of its tree"
            )
        leftovers.append(leftover[0])
        for v in cyc.vertices:
            fragment_of[v] = k
        fragment_adj.append(tree_adj)

    tree = Tree(nv)
    queue: deque[int] = deque()

    def absorb(entry: int, parent: int, edge_id: int) -> None:
        # Attach the fragment containing `entry`, re-rooted at `entry`.
        if parent < 0:
            tree.add_root(entry)
        else:
            tree.attach(entry, parent, edge_id)
        queue.append(entry)
        k = fragment_of[entry]
        if k < 0:
            return
        adj = fragment_adj[k]
        inner = deque([entry])
        while inner:
            u = inner.popleft()
            for eid, w in adj[u]:
                if tree.tree_of[w] < 0:
                    tree.attach(w, u, eid)
                    queue.append(w)
                    inner.append(w)

    for root in range(nv):
        if tree.tree_of[root] >= 0:
            continue
        absorb(root, -1, -1)
        while queue:
            u = queue.popleft()
            for eid in complex.vertex_edges[u]:
                a, b = complex.edges[eid]
                w = b if a == u else a
                if eid in boundary or tree.tree_of[w] >= 0:
                    continue
                absorb(w, u, eid)
    return tree, leftovers


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
    triples = []
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
        triples.append(tuple(triple))

    vertex_edges: list[list[int]] = [[] for _ in range(vertex_count)]
    for eid, (a, b) in enumerate(edges):
        vertex_edges[a].append(eid)
        vertex_edges[b].append(eid)

    for v in range(vertex_count):
        if not vertex_edges[v]:
            raise IsolatedVertex(f"vertex {v} belongs to no face")

    _check_vertex_links(clean_faces, edges, edge_face_lists, triples, vertex_edges)

    boundary_edge_ids = [
        eid for eid, fl in enumerate(edge_face_lists) if len(fl) == 1
    ]
    # The flat tables, read off the per-face triples and per-edge face lists.
    half = [eid for triple in triples for eid, _ in triple]
    twin = [-1] * len(half)
    edge_half = []
    for eid, fl in enumerate(edge_face_lists):
        ends = [3 * f + [e for e, _ in triples[f]].index(eid) for f in fl]
        edge_half.append(ends[0])
        if len(ends) == 2:
            twin[ends[0]], twin[ends[1]] = ends[1], ends[0]
    return SurfaceComplex(
        num_vertices=vertex_count,
        edges=edges,
        faces=clean_faces,
        half=half,
        sign=[sign for triple in triples for _, sign in triple],
        twin=twin,
        edge_half=edge_half,
        edge_index=edge_index,
        vertex_edges=vertex_edges,
        coords=list(coords) if coords is not None else None,
        boundary_edge_ids=boundary_edge_ids,
    )


def _check_vertex_links(faces, edges, edge_face_lists, triples, vertex_edges):
    # The faces around each vertex must form a single fan (path or cycle);
    # two fans meeting at a point is a pinch, which the algorithms do not
    # support.  Walk the fan from a boundary edge (or anywhere on a closed
    # fan) and require that it reaches every face at the vertex.
    face_count_at = [0] * len(vertex_edges)
    for f in faces:
        for v in f:
            face_count_at[v] += 1

    def other_edge_at(fid, v, eid):
        for eid2, _ in triples[fid]:
            if eid2 != eid:
                a, b = edges[eid2]
                if a == v or b == v:
                    return eid2
        raise CountMismatch(f"face {fid} has no second edge at its vertex {v}")

    for v, local in enumerate(vertex_edges):
        if face_count_at[v] <= 1:
            continue
        entry = None
        for eid in local:
            if len(edge_face_lists[eid]) == 1:
                entry = eid
                break
        if entry is None:
            entry = local[0]
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

    return BoundaryPartition(
        hole_components=holes,
        contact_components=components,
        contact_edges=contact,
    )


def report_dict(complex, generators, verification=None):
    """The report as data, built record by record from the generator set."""
    edges = complex.edges
    records = [
        {
            "class": gen.kind,
            "component_id": gen.component,
            "edges": [
                {"v_a": edges[eid][0], "v_b": edges[eid][1], "coefficient": val}
                for eid, val in sorted(gen.cochain.coeffs.items())
            ],
        }
        for gen in generators.generators
    ]
    rows = [
        {
            "component_id": cid,
            "N_ho": len(meta.circles),
            "N_co": len(meta.contact_components),
            "E_M": len(meta.candidate_edges),
            "E_M_II": len(meta.twisted_edges),
            "orientable": not meta.twisted_edges,
            "betti1": sum(gen.component == cid for gen in generators.generators),
        }
        for cid, meta in enumerate(generators.components)
    ]
    meta = {key: sum(row[key] for row in rows) for key in ("N_ho", "N_co", "E_M", "E_M_II")}
    meta["components"] = rows
    meta["orientable"] = all(row["orientable"] for row in rows)
    meta["betti1"] = len(generators.generators)
    report = {"generators": records, "meta": meta}
    if verification is not None:
        report["verification"] = {**verification._asdict(), "passed": verification.passed}
    return report


def report_to_generators(report, complex):
    """Rebuild (class, component, cochain) triples from a parsed report."""
    out = []
    for record in report["generators"]:
        coeffs = {}
        for item in record["edges"]:
            pair = (item["v_a"], item["v_b"])
            coeffs[complex.edge_index[pair]] = item["coefficient"]
        out.append((record["class"], record["component_id"], Cochain1(coeffs)))
    return out


def parse_off(text: str) -> tuple[int, list[tuple[float, float, float]], list[tuple[int, int, int]]]:
    """Parse OFF text into (vertex count, coordinates, triangle list).

    Only triangles are accepted.  Parse errors carry 1-based line numbers.
    """
    lines = text.splitlines()
    pos = 0

    def next_tokens():
        nonlocal pos
        while pos < len(lines):
            lineno = pos + 1
            raw = lines[pos].split("#", 1)[0].strip()
            pos += 1
            if raw:
                return lineno, raw.split()
        return len(lines), None

    lineno, tokens = next_tokens()
    if tokens is None or tokens != ["OFF"]:
        raise OffParseError(lineno, "expected OFF header")
    lineno, tokens = next_tokens()
    if tokens is None or len(tokens) != 3:
        raise OffParseError(lineno, "expected 'vertices faces edges' counts")
    try:
        nv, nf, _ = (int(t) for t in tokens)
    except ValueError:
        raise OffParseError(lineno, "counts must be integers") from None
    if nv < 0 or nf < 0:
        raise OffParseError(lineno, "counts must be nonnegative")

    coords = []
    for _ in range(nv):
        lineno, tokens = next_tokens()
        if tokens is None:
            raise OffParseError(lineno, "unexpected end of file in vertex block")
        if len(tokens) != 3:
            raise OffParseError(lineno, f"expected 3 coordinates, got {len(tokens)}")
        try:
            coords.append(tuple(float(t) for t in tokens))
        except ValueError:
            raise OffParseError(lineno, "coordinates must be numbers") from None

    faces = []
    for _ in range(nf):
        lineno, tokens = next_tokens()
        if tokens is None:
            raise OffParseError(lineno, "unexpected end of file in face block")
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise OffParseError(lineno, "face indices must be integers") from None
        if not values or values[0] != 3 or len(values) != 4:
            raise OffParseError(lineno, "only triangular faces ('3 i j k') are supported")
        tri = tuple(values[1:])
        for v in tri:
            if not 0 <= v < nv:
                raise OffParseError(lineno, f"vertex index {v} out of range")
        faces.append(tri)

    lineno, tokens = next_tokens()
    if tokens is not None:
        raise OffParseError(lineno, "trailing content after face block")
    return nv, coords, faces


def refine(complex):
    """The original 1-to-4 refinement, each face's edge ids looked up by
    vertex pair in ``edge_index``."""
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
    for a, b, c in complex.faces:
        eab = complex.edge_index[(a, b) if a < b else (b, a)]
        ebc = complex.edge_index[(b, c) if b < c else (c, b)]
        eca = complex.edge_index[(c, a) if c < a else (a, c)]
        mab, mbc, mca = midpoint[eab], midpoint[ebc], midpoint[eca]
        faces.extend(
            [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        )
    return package_build_complex(base + complex.num_edges, faces, coords=coords)


def write_vtk(path, complex, generators):
    """The original VTK overlay writer, through one (a, b, generator,
    coefficient) row per support edge."""
    if complex.coords is None:
        raise ValueError("VTK export needs vertex coordinates")
    segments = []
    for gi, gen in enumerate(generators.generators):
        for eid, val in sorted(gen.cochain.coeffs.items()):
            a, b = complex.edges[eid]
            segments.append((a, b, gi, val))

    lines = [
        "# vtk DataFile Version 3.0",
        "generator support overlay",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {complex.num_vertices} float",
    ]
    for x, y, z in complex.coords:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    lines.append(f"LINES {len(segments)} {3 * len(segments)}")
    for a, b, _, _ in segments:
        lines.append(f"2 {a} {b}")
    lines.append(f"CELL_DATA {len(segments)}")
    lines.append("SCALARS generator_index int 1")
    lines.append("LOOKUP_TABLE default")
    for _, _, gi, _ in segments:
        lines.append(str(gi))
    lines.append("SCALARS coefficient int 1")
    lines.append("LOOKUP_TABLE default")
    for _, _, _, val in segments:
        lines.append(str(val))
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def face_edges(complex):
    """Per face, its three (edge id, sign) pairs in the order ab, bc, ca:
    a view of ``half`` and ``sign`` in the complex's former per-face shape."""
    pairs = list(zip(complex.half, complex.sign))
    return [tuple(pairs[h : h + 3]) for h in range(0, len(pairs), 3)]


def edge_faces(complex):
    """Per edge, its one or two faces in ascending id: a view of
    ``edge_half`` and ``twin`` in the complex's former per-edge shape."""
    twin = complex.twin
    return [(h // 3,) if twin[h] < 0 else (h // 3, twin[h] // 3) for h in complex.edge_half]


def evaluate(cochain, chain):
    """Scalar pairing: sum of coefficient products over shared cells."""
    return sum(v * cochain.coeffs.get(k, 0) for k, v in chain.items())


def coboundary0(complex, vertex_cochain):
    """The vertex-to-edge coboundary: value at head minus value at tail."""
    return Cochain1({
        eid: vertex_cochain.get(head, 0) - vertex_cochain.get(tail, 0)
        for eid, (tail, head) in enumerate(complex.edges)
    })


def connected_components(complex):
    """Face-connectivity components as ascending lists of face ids, in
    ascending order of their minimal face id."""
    triples, incident = face_edges(complex), edge_faces(complex)
    seen = [False] * complex.num_faces
    components = []
    for seed in range(complex.num_faces):
        if seen[seed]:
            continue
        seen[seed] = True
        comp, queue = [], deque([seed])
        while queue:
            fid = queue.popleft()
            comp.append(fid)
            for eid, _ in triples[fid]:
                for other in incident[eid]:
                    if not seen[other]:
                        seen[other] = True
                        queue.append(other)
        components.append(sorted(comp))
    return components


def of_kind(generators, kind):
    """The cochains of one generator class ("ha", "ho" or "co"), in order."""
    return [g.cochain for g in generators.generators if g.kind == kind]


PRIME = 2**31 - 1


def sparse_rank(rows, p: int = PRIME) -> int:
    """Rank over GF(p) of a matrix given as sparse rows ``{column: value}``.

    ``p`` is any prime.  Elimination is right-looking with a
    Markowitz-style pivot order: the shortest remaining row first, pivoting
    on its column with the fewest remaining rows, so that little fill-in is
    created.  The input rows are not modified.
    """
    active: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        reduced = {c: v % p for c, v in row.items() if v % p}
        if reduced:
            active[i] = reduced
            for c in reduced:
                cols.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in active.items()]
    heapify(heap)
    rank = 0
    while heap:
        length, i = heappop(heap)
        pivot_row = active.get(i)
        if pivot_row is None or len(pivot_row) != length:
            continue  # stale entry: the row was eliminated or has changed
        del active[i]
        for c in pivot_row:
            cols[c].discard(i)
        col = min(pivot_row, key=lambda c: len(cols[c]))
        rank += 1
        inv = pow(pivot_row[col], p - 2, p)
        rest = [(c, v) for c, v in pivot_row.items() if c != col]
        for j in cols.pop(col):
            row = active[j]
            factor = row.pop(col) * inv % p
            for c, v in rest:
                value = (row.get(c, 0) - factor * v) % p
                if value:
                    if c not in row:
                        cols[c].add(j)
                    row[c] = value
                elif c in row:
                    del row[c]
                    cols[c].discard(j)
            if row:
                heappush(heap, (len(row), j))
            else:
                del active[j]
    return rank


def exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    mat = [row[:] for row in rows if any(row)]
    if not mat:
        return 0
    n_cols = len(mat[0])
    rank = 0
    prev = 1
    col = 0
    while rank < len(mat) and col < n_cols:
        pivot_row = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        row_r = mat[rank]
        for i in range(rank + 1, len(mat)):
            # Every row below is updated, zero heads included: the entries
            # must stay equal to minors for the division to remain exact.
            head = mat[i][col]
            row_i = mat[i]
            for j in range(col, n_cols):
                row_i[j] = (row_i[j] * pivot - row_r[j] * head) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank


def smith_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form (positive, divisibility chain)."""
    mat = [row[:] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    factors: list[int] = []
    t = 0
    while True:
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        mat[t], mat[i0] = mat[i0], mat[t]
        for row in mat:
            row[t], row[j0] = row[j0], row[t]

        while True:
            pivot = mat[t][t]
            dirty = False
            for i in range(t + 1, n_rows):
                if mat[i][t]:
                    q = mat[i][t] // pivot
                    if q:
                        for j in range(t, n_cols):
                            mat[i][j] -= q * mat[t][j]
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n_cols):
                if mat[t][j]:
                    q = mat[t][j] // pivot
                    if q:
                        for i in range(t, n_rows):
                            mat[i][j] -= q * mat[i][t]
                    if mat[t][j]:
                        for i in range(n_rows):
                            mat[i][t], mat[i][j] = mat[i][j], mat[i][t]
                        dirty = True
                        break
            if dirty:
                continue
            offender = None
            for i in range(t + 1, n_rows):
                for j in range(t + 1, n_cols):
                    if mat[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n_cols):
                mat[t][j] += mat[offender][j]
        factors.append(abs(mat[t][t]))
        t += 1
        if t >= n_rows or t >= n_cols:
            break
    return factors


def betti1_relative(complex, partition, cap=DEFAULT_WORK_CAP):
    """Dimension of the first relative cohomology space, as ``verify`` counts it."""
    return verify(complex, partition, GeneratorSet(), cap).betti1_relative


def is_orientable(complex):
    """The oracle's face-component search on the complex's own faces: no
    component met a sign contradiction."""
    return all(_face_components(_Incidence(complex))[1])


def rim(complex):
    """The ids of the edges of ``complex`` on one face, read off
    ``signed_cofaces``."""
    return {eid for eid, cofaces in enumerate(signed_cofaces(complex)) if len(cofaces) == 1}


def circle_root(complex):
    """Each boundary vertex of ``complex`` -> the root of its circle, by
    ``dict_roots`` over the ``rim`` edges."""
    return dict_roots(complex.edges[eid] for eid in rim(complex))


def face_rows(complex, dropped):
    """The face boundary map of ``complex``, ``signed_cofaces`` turned face
    by face: one sparse row {edge id: sign} per face, over the edges not in
    ``dropped``."""
    rows = [{} for _ in complex.faces]
    for eid, cofaces in enumerate(signed_cofaces(complex)):
        if eid not in dropped:
            for fid, sign in cofaces:
                rows[fid][eid] = sign
    return rows


def closed_edges(complex):
    """The kept (interior) edges of the closed-up complex of ``complex`` as
    ``(ca, cb)`` pairs of end cells, each boundary circle collapsed to its
    ``circle_root``; both ends are one cell when they land on one circle."""
    boundary, root = rim(complex), circle_root(complex)
    return [
        (root.get(a, a), root.get(b, b))
        for eid, (a, b) in enumerate(complex.edges)
        if eid not in boundary
    ]


def closed_d2(complex):
    """The face boundary map of the same closed-up complex: one sparse row
    per face over the ids of the edges ``closed_edges`` keeps."""
    return face_rows(complex, rim(complex))


def signed_cofaces(complex):
    """Per edge id of ``complex.edges``, its (face id, sign) pairs in face
    order, read face by face from ``complex.faces``: the sign is +1 where
    the face runs the edge from its lower vertex."""
    index = {pair: eid for eid, pair in enumerate(complex.edges)}
    out = [[] for _ in complex.edges]
    for fid, (a, b, c) in enumerate(complex.faces):
        for u, w in ((a, b), (b, c), (c, a)):
            out[index[(min(u, w), max(u, w))]].append((fid, 1 if u < w else -1))
    return out


def dict_roots(pairs):
    """A plain union-find over vertex pairs in a dict: each vertex named
    maps to its class root."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in parent}
