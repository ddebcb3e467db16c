"""Seeded input generation for the benchmark workloads.

Every mesh is built from a construction whose topology is known in advance
(genus, crosscaps, boundary circles, contact arcs, components), so the
expected generator counts follow from the dimension formulas without asking
the code under test.  The seed only relabels vertices, shuffles the face
order, flips the orientation of random faces and places contact arcs; none
of that changes the expected counts.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass
class Component:
    """Topology of one connected component, as constructed."""

    orientable: bool
    genus: int  # handles when orientable, crosscaps otherwise
    holes: int
    contacts: int

    @property
    def candidate_edges(self) -> int:
        # Edges in neither tree: 2 - chi - holes, i.e. 2g or k.
        return 2 * self.genus if self.orientable else self.genus

    def expected(self) -> tuple[int, int, int]:
        """Expected (ha, ho, co) sizes from the paper's dimension formulas."""
        n_ha = self.candidate_edges - (0 if self.orientable else 1)
        n_ho = max(self.holes - 1, 0)
        if self.contacts == 0:
            n_co = 0
        elif self.orientable:
            n_co = self.contacts - 1
        else:
            n_co = self.contacts
        return n_ha, n_ho, n_co


@dataclass
class Surface:
    """A face list with coordinates, boundary circles and component topology.

    ``circles`` lists each boundary circle as its vertices in traversal
    order; ``arcs`` holds the contact arcs as lists of vertex pairs.
    """

    num_vertices: int
    faces: list[tuple[int, int, int]]
    coords: list[tuple[float, float, float]]
    components: list[Component]
    circles: list[list[int]] = field(default_factory=list)
    arcs: list[list[tuple[int, int]]] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        edges = set()
        for a, b, c in self.faces:
            for u, w in ((a, b), (b, c), (c, a)):
                edges.add((u, w) if u < w else (w, u))
        return len(edges)


@dataclass
class Input:
    """The input file of a workload: the mesh, its contacts and how to run it."""

    name: str
    surface: Surface
    verify: bool

    @property
    def expected(self) -> dict:
        comps = self.surface.components
        sizes = [c.expected() for c in comps]
        return {
            "ha": sum(s[0] for s in sizes),
            "ho": sum(s[1] for s in sizes),
            "co": sum(s[2] for s in sizes),
            "orientable": all(c.orientable for c in comps),
            "components": len(comps),
            "E_M": sum(c.candidate_edges for c in comps),
            "N_ho": sum(c.holes for c in comps),
            "N_co": sum(c.contacts for c in comps),
        }

    def off_text(self) -> str:
        s = self.surface
        lines = ["OFF", f"{s.num_vertices} {len(s.faces)} 0"]
        lines += [f"{x:.6f} {y:.6f} {z:.6f}" for x, y, z in s.coords]
        lines += [f"3 {a} {b} {c}" for a, b, c in s.faces]
        return "\n".join(lines) + "\n"

    def contacts_text(self) -> str | None:
        if not self.surface.arcs:
            return None
        lines = ["# contact arcs, one boundary edge per line"]
        for arc in self.surface.arcs:
            lines += [f"{u} {w}" for u, w in arc]
        return "\n".join(lines) + "\n"


# --- constructions -------------------------------------------------------


def annulus(n: int, rings: int) -> Surface:
    """Concentric rings of n vertices; ring r vertex i has id r*n + i."""
    faces = []
    for r in range(rings - 1):
        for i in range(n):
            a, b = r * n + i, r * n + (i + 1) % n
            A, B = a + n, b + n
            faces += [(a, b, B), (a, B, A)]
    coords = []
    for r in range(rings):
        for i in range(n):
            t = 2 * math.pi * i / n
            coords.append(((1 + r) * math.cos(t), (1 + r) * math.sin(t), 0.0))
    inner = list(range(n))
    outer = [(rings - 1) * n + i for i in range(n)]
    return Surface(
        n * rings, faces, coords, [Component(True, 0, 2, 0)], [inner, outer]
    )


def _grid(n: int, m: int, glue) -> list[tuple[int, int, int]]:
    faces = []
    for i in range(n):
        for j in range(m):
            p, q, r, s = glue(i, j), glue(i, j + 1), glue(i + 1, j + 1), glue(i + 1, j)
            faces += [(p, q, r), (p, r, s)]
    return faces


def _grid_coords(n: int, m: int) -> list[tuple[float, float, float]]:
    return [(float(i), float(j), 0.0) for i in range(n) for j in range(m)]


def torus(n: int, m: int) -> Surface:
    faces = _grid(n, m, lambda i, j: (i % n) * m + j % m)
    return Surface(n * m, faces, _grid_coords(n, m), [Component(True, 1, 0, 0)])


def klein(n: int, m: int) -> Surface:
    """Closed Klein bottle: a torus grid whose last column is glued reflected."""

    def glue(i, j):
        return (-j) % m if i == n else (i % n) * m + j % m

    faces = _grid(n, m, glue)
    return Surface(n * m, faces, _grid_coords(n, m), [Component(False, 2, 0, 0)])


def moebius(n: int) -> Surface:
    """Strip of n quads closed with a flip; one boundary circle of 2n edges."""

    def v(i, r):
        return 1 - r if i == n else 2 * i + r

    faces = []
    for i in range(n):
        p, q, r, s = v(i, 0), v(i + 1, 0), v(i + 1, 1), v(i, 1)
        faces += [(p, q, r), (p, r, s)]
    coords = [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n), r - 0.5)
              for i in range(n) for r in (0, 1)]
    circle = [v(i, 0) for i in range(n)] + [v(i, 1) for i in range(n)]
    return Surface(2 * n, faces, coords, [Component(False, 1, 1, 0)], [circle])


def klein_minus_strip(n: int, m: int) -> Surface:
    """Klein bottle minus a disk: three adjacent quads of row 1 removed,
    which leaves one boundary circle of eight edges and no lone vertex."""
    base = klein(n, m)

    def v(i, j):
        return i * m + j

    strip = {v(1, j) for j in range(3)}
    faces = [f for k, f in enumerate(base.faces) if k // 2 not in strip]
    circle = [v(1, j) for j in range(4)] + [v(2, j) for j in range(3, -1, -1)]
    return Surface(
        base.num_vertices, faces, base.coords, [Component(False, 2, 1, 0)], [circle]
    )


def pants(n: int, rings: int) -> Surface:
    """Sphere minus three disks: an annulus with one interior quad removed."""
    base = annulus(n, rings)
    a, b = n, n + 1
    removed = {(a, b, b + n), (a, b + n, a + n)}
    faces = [f for f in base.faces if f not in removed]
    return Surface(
        base.num_vertices, faces, base.coords, [Component(True, 0, 3, 0)],
        base.circles + [[a, b, b + n, a + n]],
    )


def connect_sum(pieces: list[Surface]) -> Surface:
    """Chain of closed connected pieces, each glued to the next along a
    removed face.  A piece loses the face at index 0 toward its left
    neighbour and the face in the middle of its list toward its right one,
    so the two holes of a piece share no vertex."""
    faces: list[tuple[int, int, int]] = []
    coords: list[tuple[float, float, float]] = []
    prev_right: tuple[int, int, int] | None = None
    for k, piece in enumerate(pieces):
        left = piece.faces[0]
        right_index = len(piece.faces) // 2
        remap: dict[int, int] = {}
        if prev_right is not None:
            # Reversed identification keeps orientable pieces coherent.
            x0, x1, x2 = prev_right
            remap = {left[0]: x0, left[1]: x2, left[2]: x1}
        ids = []
        for v in range(piece.num_vertices):
            if v in remap:
                ids.append(remap[v])
            else:
                ids.append(len(coords))
                coords.append(tuple(x + 8.0 * k for x in piece.coords[v]))
        for index, (a, b, c) in enumerate(piece.faces):
            if (index == 0 and k > 0) or (index == right_index and k < len(pieces) - 1):
                continue
            faces.append((ids[a], ids[b], ids[c]))
        right = piece.faces[right_index]
        prev_right = (ids[right[0]], ids[right[1]], ids[right[2]])
    orientable = all(p.components[0].orientable for p in pieces)
    if orientable:
        genus = sum(p.components[0].genus for p in pieces)
    else:
        genus = sum(
            p.components[0].genus * (2 if p.components[0].orientable else 1)
            for p in pieces
        )
    return Surface(len(coords), faces, coords, [Component(orientable, genus, 0, 0)])


def union(parts: list[Surface]) -> Surface:
    faces, coords, circles, arcs, comps = [], [], [], [], []
    for k, part in enumerate(parts):
        off = len(coords)
        faces += [(a + off, b + off, c + off) for a, b, c in part.faces]
        coords += [(x + 20.0 * k, y, z) for x, y, z in part.coords]
        circles += [[v + off for v in cyc] for cyc in part.circles]
        arcs += [[(u + off, w + off) for u, w in arc] for arc in part.arcs]
        comps += part.components
    return Surface(len(coords), faces, coords, comps, circles, arcs)


def with_arcs(s: Surface, circle: int, count: int, rng: random.Random) -> Surface:
    """Place ``count`` contact arcs of 2 or 3 edges on one boundary circle.

    The circle is cut into ``count`` equal blocks; each arc sits inside its
    block and leaves the block's last edge insulated, so arcs never merge
    and the circle keeps insulated edges.  Only the arc lengths and offsets
    depend on the seed.
    """
    if len(s.components) != 1:
        raise ValueError("arcs are placed on single-component surfaces")
    cyc = s.circles[circle]
    block = len(cyc) // count
    if block < 4:
        raise ValueError(f"circle of {len(cyc)} edges cannot hold {count} arcs")
    arcs = []
    for j in range(count):
        length = rng.choice((2, 3))
        start = j * block + rng.randrange(block - length)
        arcs.append(
            [(cyc[(start + i) % len(cyc)], cyc[(start + i + 1) % len(cyc)])
             for i in range(length)]
        )
    comp = s.components[0]
    return Surface(
        s.num_vertices, s.faces, s.coords,
        [Component(comp.orientable, comp.genus, comp.holes, comp.contacts + count)],
        s.circles, s.arcs + arcs,
    )


def scramble(s: Surface, rng: random.Random) -> Surface:
    """Relabel vertices, shuffle face order, flip and rotate random faces."""
    perm = list(range(s.num_vertices))
    rng.shuffle(perm)
    coords: list = [None] * s.num_vertices
    for v, new in enumerate(perm):
        coords[new] = s.coords[v]
    faces = []
    for a, b, c in s.faces:
        tri = (perm[a], perm[b], perm[c])
        if rng.random() < 0.5:
            tri = (tri[0], tri[2], tri[1])
        turn = rng.randrange(3)
        faces.append(tri[turn:] + tri[:turn])
    rng.shuffle(faces)
    arcs = [[(perm[u], perm[w]) for u, w in arc] for arc in s.arcs]
    circles = [[perm[v] for v in cyc] for cyc in s.circles]
    return Surface(s.num_vertices, faces, coords, s.components, circles, arcs)


# --- workloads -----------------------------------------------------------

# ``scale`` shrinks a workload's inputs for the benchmark's own tests.


def loops_heavy(rng: random.Random, scale: int = 1) -> Input:
    # Twelve thin annuli rather than one wide one: each component has its
    # own BFS roots, so the seed-to-seed spread of the total support size
    # averages out over twelve draws.
    rim = 96 // scale
    parts = []
    for _ in range(12 // scale):
        ring = annulus(rim, 2)
        ring = with_arcs(ring, 0, rim // 4, rng)
        ring = with_arcs(ring, 1, rim // 4, rng)
        parts.append(ring)
    chain = [torus(6, 6) for _ in range(12 // scale)] + [klein(6, 6)]
    parts.append(connect_sum(chain))
    return Input("loops-heavy", scramble(union(parts), rng), verify=False)


def verify_small(rng: random.Random, scale: int = 1) -> Input:
    # Every class the paper claims, as four components of one file: pants
    # with arcs (orientable, holes, contacts), a Moebius strip and a Klein
    # bottle minus a disk with arcs (the non-orientable contact branch), and
    # a closed torus # Klein chain (the torsion path).  One file rather than
    # one per class keeps the samples of a run at one cost level.
    del scale  # already small
    surface = union([
        with_arcs(pants(8, 4), 0, 2, rng),
        with_arcs(moebius(8), 0, 2, rng),
        with_arcs(klein_minus_strip(5, 4), 0, 2, rng),
        connect_sum([torus(4, 4), klein(4, 4)]),
    ])
    return Input("verify-small", scramble(surface, rng), verify=True)


WORKLOADS = {
    "loops-heavy": loops_heavy,
    "verify-small": verify_small,
}


def make_input(workload: str, seed: int, scale: int = 1) -> Input:
    return WORKLOADS[workload](random.Random(seed), scale)
