"""Concrete test meshes used throughout the suite.

All builders are deterministic; the random ones take an explicit seed.
Coordinates are attached only where a test needs export (OFF or VTK).
"""

import math
import random

from globalloops import build_complex


def triangle():
    return build_complex(3, [(0, 1, 2)])


def two_triangles():
    return build_complex(4, [(0, 1, 2), (1, 3, 2)])


def octahedron():
    faces = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ]
    coords = [
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
        (0.0, 0.0, -1.0),
    ]
    return build_complex(6, faces, coords=coords)


def disk(n=6):
    """Triangle fan: center 0, rim vertices 1..n."""
    faces = [(0, 1 + i, 1 + (i + 1) % n) for i in range(n)]
    coords = [(0.0, 0.0, 0.0)] + [
        (math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n), 0.0)
        for i in range(n)
    ]
    return build_complex(n + 1, faces, coords=coords)


def annulus(n=6, rings=2):
    """Concentric rings of n vertices each; ring r vertex i has id r*n + i."""
    faces = []
    for r in range(rings - 1):
        for i in range(n):
            a = r * n + i
            b = r * n + (i + 1) % n
            A = (r + 1) * n + i
            B = (r + 1) * n + (i + 1) % n
            faces.append((a, b, B))
            faces.append((a, B, A))
    coords = []
    for r in range(rings):
        radius = 1.0 + r
        for i in range(n):
            angle = 2 * math.pi * i / n
            coords.append((radius * math.cos(angle), radius * math.sin(angle), 0.0))
    return build_complex(rings * n, faces, coords=coords)


def torus_grid(n=4, m=4):
    """Closed torus: n by m vertex grid wrapped in both directions."""
    def v(i, j):
        return (i % n) * m + (j % m)

    faces = []
    for i in range(n):
        for j in range(m):
            faces.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            faces.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    return build_complex(n * m, faces)


def csaszar_torus():
    """The 7-vertex torus: every vertex pair is an edge; V=7 E=21 F=14."""
    faces = []
    for i in range(7):
        faces.append((i % 7, (i + 1) % 7, (i + 3) % 7))
        faces.append((i % 7, (i + 2) % 7, (i + 3) % 7))
    return build_complex(7, faces)


def moebius(n=6):
    """Strip of n quads closed with a flip; vertex (i, r) is 2*i + r."""
    def v(i, r):
        if i == n:
            return 1 - r  # the closing column attaches reversed
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
        for r in (-0.5, 0.5):
            rad = 2.0 + r * math.cos(half)
            coords.append((rad * math.cos(angle), rad * math.sin(angle), r * math.sin(half)))
    return build_complex(2 * n, faces, coords=coords)


def klein_grid(n=5, m=4):
    """Closed Klein surface: torus-like grid with one direction reflected."""
    def v(i, j):
        if i == n:
            return (-j) % m  # reflected gluing of the last column onto the first
        return (i % n) * m + (j % m)

    faces = []
    for i in range(n):
        for j in range(m):
            p, q = v(i, j), v(i, j + 1)
            r, s = v(i + 1, j + 1), v(i + 1, j)
            faces.append((p, q, r))
            faces.append((p, r, s))
    return build_complex(n * m, faces)


def klein_minus_disk(n=5, m=4):
    closed = klein_grid(n, m)
    return build_complex(closed.num_vertices, closed.faces[1:])


def torus_with_hole(n=4, m=4):
    """Torus minus two faces sharing an edge: one quad-shaped hole."""
    closed = torus_grid(n, m)
    shared = None
    for eid in range(closed.num_edges):
        if len(closed.edge_faces[eid]) == 2:
            f1, f2 = closed.edge_faces[eid]
            if f1 == 0 and f2 == 1 or f1 == 1 and f2 == 0:
                shared = eid
                break
    assert shared is not None
    faces = [f for i, f in enumerate(closed.faces) if i not in (0, 1)]
    return build_complex(closed.num_vertices, faces)


def pair_of_pants(n=6):
    """Sphere minus three disks: a 4-ring annulus with an interior quad removed."""
    base = annulus(n=n, rings=4)
    a, b = n, n + 1
    B, A = 2 * n + 1, 2 * n
    removed = {(a, b, B), (a, B, A)}
    faces = [f for f in base.faces if f not in removed]
    assert len(faces) == base.num_faces - 2
    return build_complex(base.num_vertices, faces, coords=base.coords)


def genus2():
    """Two grid tori glued along a removed face (reversed identification)."""
    ta = torus_grid(4, 4)
    tb = torus_grid(4, 4)
    fa = ta.faces[0]
    fb = tb.faces[0]
    # Map tb's removed-face vertices onto ta's in reversed cyclic order so
    # the orientations match across the glue.
    glue = {fb[0]: fa[0], fb[1]: fa[2], fb[2]: fa[1]}
    offset = ta.num_vertices
    remap = {}
    fresh = 0
    for v in range(tb.num_vertices):
        if v in glue:
            remap[v] = glue[v]
        else:
            remap[v] = offset + fresh
            fresh += 1
    faces = list(ta.faces[1:])
    for f in tb.faces[1:]:
        faces.append((remap[f[0]], remap[f[1]], remap[f[2]]))
    return build_complex(offset + fresh, faces)


def disjoint_union(*complexes):
    faces = []
    offset = 0
    for k in complexes:
        for a, b, c in k.faces:
            faces.append((a + offset, b + offset, c + offset))
        offset += k.num_vertices
    return build_complex(offset, faces)


def boundary_arc(complex, circle_index, length, start=0):
    """Edge ids of a contact arc on one boundary circle."""
    from globalloops.surface import boundary_components

    cyc = boundary_components(complex)[circle_index]
    assert length < len(cyc.edges)
    return {cyc.edges[(start + i) % len(cyc.edges)] for i in range(length)}


def _grow_random(base, steps, rng):
    """Ear growth: attach a new triangle to a boundary edge, or fill the
    ear at a boundary vertex when the closing edge is still missing."""
    vertex_count = base.num_vertices
    faces = list(base.faces)

    def rebuild():
        return build_complex(vertex_count, faces)

    current = base
    for _ in range(steps):
        boundary = current.boundary_edge_ids
        if rng.random() < 0.35:
            # Fill: close off a boundary vertex between its two boundary edges.
            candidates = []
            at_vertex = {}
            for eid in boundary:
                for v in current.edges[eid]:
                    at_vertex.setdefault(v, []).append(eid)
            for v, eids in at_vertex.items():
                if len(eids) != 2:
                    continue
                (a1, b1), (a2, b2) = current.edges[eids[0]], current.edges[eids[1]]
                u = a1 if b1 == v else b1
                w = a2 if b2 == v else b2
                pair = (u, w) if u < w else (w, u)
                if u != w and pair not in current.edge_index:
                    candidates.append((v, u, w))
            if candidates:
                v, u, w = candidates[rng.randrange(len(candidates))]
                faces.append((u, v, w))
                current = rebuild()
                continue
        eid = boundary[rng.randrange(len(boundary))]
        u, w = current.edges[eid]
        faces.append((w, u, vertex_count))
        vertex_count += 1
        current = rebuild()
    return current


def random_disk(seed, steps=12):
    return _grow_random(triangle(), steps, random.Random(seed))


def random_annulus(seed, steps=12):
    return _grow_random(annulus(n=5), steps, random.Random(seed))


def random_contact_arc(complex, seed, max_len=3):
    """A random proper contact arc on a random boundary circle."""
    from globalloops.surface import boundary_components

    rng = random.Random(seed)
    cycles = boundary_components(complex)
    cyc = cycles[rng.randrange(len(cycles))]
    length = rng.randint(1, min(max_len, len(cyc.edges) - 1))
    start = rng.randrange(len(cyc.edges))
    return {cyc.edges[(start + i) % len(cyc.edges)] for i in range(length)}


def mixed_surface(n=16):
    """Every generator class in one file, with E > 2000 at the default n.

    A disjoint union of a torus with a hole (handles), a Klein bottle
    minus a disk (crosscaps), a pair of pants (holes), a Moebius strip and
    an annulus, with two contact arcs of two edges on every boundary circle
    of at least eight edges.  Returns the complex and its contact edge ids.
    """
    from globalloops.surface import boundary_components

    K = disjoint_union(
        torus_with_hole(n, n),
        klein_minus_disk(n, n),
        pair_of_pants(3 * n // 2),
        moebius(3 * n // 2),
        annulus(4 * n, 6),
    )
    contact = set()
    for cyc in boundary_components(K):
        if len(cyc.edges) >= 8:
            half = len(cyc.edges) // 2
            contact |= {cyc.edges[i] for i in (0, 1, half, half + 1)}
    return K, contact
