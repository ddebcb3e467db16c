"""Concrete test meshes used throughout the suite, the 1-to-4 refinement,
and the refinement-family timer and growth fit of ``test_linear_scaling``.

All builders are deterministic; the random ones take an explicit seed.
Coordinates are attached only where a test needs export (OFF or VTK).
"""

import functools
import gc
import importlib.util
import math
import random
import sys
import time
from pathlib import Path

from globalloops import build_complex, compute_generators
from reference import edge_faces


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


def disk(n=6, shift=0):
    """Triangle fan: center 0, rim vertices 1..n; the rim's labels are
    rotated by ``shift``, so the first face reaches the rim at 1 + shift."""
    faces = [(0, 1 + (i + shift) % n, 1 + (i + 1 + shift) % n) for i in range(n)]
    coords = [(0.0, 0.0, 0.0)] + [
        (math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n), 0.0)
        for i in range(-shift, n - shift)
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
    assert (0, 1) in edge_faces(closed)
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


def write_off(path, complex):
    """Write ``complex`` as an OFF file, at the origin where it has no
    coordinates."""
    lines = ["OFF", f"{complex.num_vertices} {complex.num_faces} {complex.num_edges}"]
    coords = complex.coords or [(0.0, 0.0, 0.0)] * complex.num_vertices
    for x, y, z in coords:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in complex.faces:
        lines.append(f"3 {a} {b} {c}")
    Path(path).write_text("\n".join(lines) + "\n")


def refine(complex):
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


def _time_pipeline(complex):
    """Wall time of one rebuild of ``complex`` plus ``compute_generators``.

    The collector is paused during the timed region so allocation bursts do
    not distort the growth fit.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rebuilt = build_complex(
            complex.num_vertices, complex.faces, coords=complex.coords
        )
        compute_generators(rebuilt, frozenset())
        seconds = time.perf_counter() - t0
        gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return seconds


def refinement_timings(base, levels, repeats):
    """(edges, faces, seconds) of ``base`` and of ``levels`` successive
    refinements of it, seconds being the best ``_time_pipeline`` of each.

    Each of the ``repeats`` rounds times every level once.  A slow spell of
    a shared machine outlasts one timing, so timing a level's repeats back
    to back lets one spell slow them all and tilt the growth fit; spread
    over rounds, it costs each level at most the rounds it overlaps.
    """
    family = [base]
    for _ in range(levels):
        family.append(refine(family[-1]))
    best = [math.inf] * len(family)
    for _ in range(repeats):
        for level, K in enumerate(family):
            best[level] = min(best[level], _time_pipeline(K))
    return [(K.num_edges, K.num_faces, seconds) for K, seconds in zip(family, best)]


def fit_exponent(points):
    """Least-squares slope of log(time) against log(edge count) over
    (edges, seconds) points."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit a growth exponent")
    xs = [math.log(edges) for edges, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    n = len(points)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


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


@functools.cache
def workloads():
    """The benchmark's input generator, imported read-only (it is not a
    package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def scrambled(seed):
    """A union of benchmark constructions of seeded sizes, relabelled, face
    shuffled and partly flipped by the benchmark's own ``scramble``, so each
    boundary circle's minimal vertex falls anywhere along it."""
    wl = workloads()
    parts = [
        wl.annulus(3 + seed % 5, 2 + seed % 3),
        wl.moebius(3 + seed % 4),
        # Four rings: with fewer the removed quad touches the outer ring,
        # which leaves two circles, not the three the pants declares.
        wl.pants(4 + seed % 3, 4),
        wl.klein_minus_strip(5, 4),
    ]
    s = wl.scramble(wl.union(parts), random.Random(seed))
    return build_complex(s.num_vertices, s.faces)


def random_gluing(F0, seed, orientable, holes=0):
    """A random surface glued from ``F0`` triangles, as a benchmark
    ``Surface`` whose component topology is counted from the gluing.

    The 3 * F0 sides are paired at random and glued, reversed when
    ``orientable`` and in a random direction otherwise, so the surface may
    have several components and irregular vertex degrees.  A union-find
    over the corners names the vertices, and two barycentric subdivisions
    (36 faces per triangle) make the result simplicial.  Then ``holes``
    faces that share no vertex are deleted, and each new circle gets a
    contact arc of one or two edges, or none.  Each component's Euler
    characteristic comes from the gluing's own vertex, side and triangle
    counts and its orientability from a two-colouring of the triangles, so
    neither is read off the code under test.
    """
    if F0 < 2 or F0 % 2:
        raise ValueError(f"cannot pair the sides of {F0} triangles")
    rng = random.Random(seed)
    wl = workloads()
    sides = list(range(3 * F0))  # side s runs from corner s to corner _next(s)
    rng.shuffle(sides)
    root = list(range(3 * F0))  # union-find over the corners

    def find(c):
        while root[c] != c:
            root[c] = root[root[c]]
            c = root[c]
        return c

    # Per side: its edge (the pair it belongs to) and whether it runs
    # against the edge, which runs along the pair's first side.
    edge_of, against = [0] * (3 * F0), [False] * (3 * F0)
    glued = [[] for _ in range(F0)]  # per triangle: (other triangle, flipped)
    for e in range(0, 3 * F0, 2):
        s, t = sides[e], sides[e + 1]
        reverse = orientable or rng.random() < 0.5
        edge_of[s] = edge_of[t] = e // 2
        against[t] = reverse
        ends = (_next(t), t) if reverse else (t, _next(t))
        root[find(s)] = find(ends[0])
        root[find(_next(s))] = find(ends[1])
        # A reversed side keeps both orientations of the triangles coherent.
        glued[s // 3].append((t // 3, not reverse))
        glued[t // 3].append((s // 3, not reverse))

    comp, flip, coherent = [-1] * F0, [False] * F0, []
    for start in range(F0):
        if comp[start] < 0:
            comp[start], stack = len(coherent), [start]
            coherent.append(True)
            while stack:
                t = stack.pop()
                for u, flipped in glued[t]:
                    if comp[u] < 0:
                        comp[u], flip[u] = comp[t], flip[t] ^ flipped
                        stack.append(u)
                    elif flip[u] != flip[t] ^ flipped:
                        coherent[comp[t]] = False

    label, vertex_count = {}, [0] * len(coherent)
    for c in range(3 * F0):
        if find(c) not in label:
            label[find(c)] = len(label)
            vertex_count[comp[c // 3]] += 1
    tris = [
        (tuple(label[find(c)] for c in range(3 * t, 3 * t + 3)),
         [(edge_of[s], against[s]) for s in range(3 * t, 3 * t + 3)])
        for t in range(F0)
    ]
    nv, ne = len(label), 3 * F0 // 2
    for _ in range(2):
        nv, ne, tris = _subdivide(nv, ne, tris)
    faces = [vs for vs, _ in tris]

    dropped, used = [], set()
    for fid in rng.sample(range(len(faces)), len(faces)):
        if len(dropped) == holes:
            break
        if used.isdisjoint(faces[fid]):
            dropped.append(fid)
            used.update(faces[fid])
    circles, arcs = [], []
    hole_count, contact_count = [0] * len(coherent), [0] * len(coherent)
    for fid in dropped:
        a, b, c = faces[fid]
        circles.append([a, b, c])
        hole_count[comp[fid // 36]] += 1
        length = rng.randrange(3)
        if length:
            arcs.append([(a, b), (b, c)][:length])
            contact_count[comp[fid // 36]] += 1
    components = []
    for k, ok in enumerate(coherent):
        chi = vertex_count[k] - comp.count(k) // 2  # V - E + F with E = 3F / 2
        components.append(
            wl.Component(ok, (2 - chi) // 2 if ok else 2 - chi, hole_count[k], contact_count[k])
        )
    for fid in sorted(dropped, reverse=True):
        del faces[fid]
    return wl.Surface(nv, faces, [(0.0, 0.0, 0.0)] * nv, components, circles, arcs)


def _next(side):
    """The corner a triangle side runs to: side 3t + i ends at corner
    3t + (i + 1) % 3."""
    return side - side % 3 + (side + 1) % 3


def _subdivide(nv, ne, tris):
    """The barycentric subdivision of a Delta-complex of ``nv`` vertices
    and ``ne`` edges.  Each triangle is its three corners and, per side i
    from corner i to corner i + 1, its edge and whether it runs against it.

    Midpoints and centres number after the old vertices; the halves of edge
    e are 2e (at its tail) and 2e + 1 (at its head), and triangle t adds
    the spokes 2 * ne + 6t + i to corner i and 2 * ne + 6t + 3 + i to the
    midpoint of side i, each run toward the centre.  Triangle t becomes
    triangles 6t to 6t + 5, in its own orientation.
    """
    out = []
    for t, (vs, sides) in enumerate(tris):
        centre, spoke = nv + ne + t, 2 * ne + 6 * t
        for i, (e, back) in enumerate(sides):
            mid = nv + e
            out.append(((vs[i], mid, centre),
                        [(2 * e + back, back), (spoke + 3 + i, False), (spoke + i, True)]))
            out.append(((mid, vs[(i + 1) % 3], centre),
                        [(2 * e + 1 - back, back), (spoke + (i + 1) % 3, False),
                         (spoke + 3 + i, True)]))
    return nv + ne + len(tris), 2 * ne + 6 * len(tris), out


@functools.cache
def _mixed():
    return mixed_surface()[0]


SAMPLE_KINDS = (
    "random_annulus", "random_disk", "union", "scrambled", "random_gluing", "mixed_surface",
)


def sample(kind, seed):
    """One seeded mesh of a family in SAMPLE_KINDS, for property tests;
    ``mixed_surface`` ignores the seed and is built once.  A
    ``random_gluing`` sample glues 4, 6 or 8 triangles, orientably or not,
    and cuts up to two holes."""
    if kind == "random_annulus":
        return random_annulus(seed)
    if kind == "random_disk":
        return random_disk(seed)
    if kind == "union":
        return disjoint_union(random_annulus(seed), moebius(6), random_disk(seed + 1))
    if kind == "scrambled":
        return scrambled(seed)
    if kind == "random_gluing":
        s = random_gluing(4 + 2 * (seed // 3 % 3), seed, seed % 2 == 0, holes=seed % 3)
        return build_complex(s.num_vertices, s.faces)
    return _mixed()
