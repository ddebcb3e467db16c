"""Independent verification of a generator set, by exact and modular ranks.

Everything here re-derives edges and incidence signs from the raw face
list rather than reusing the pipeline's tables, so a bug in the fast path
cannot hide from the checks.  That incidence stores each edge's cofaces
with their signs, so the cocycle check and the orientability search read
a sign where it is stored.  The boundary circles, the contact components
and the closed-up complex (each circle collapsed to a point) all come from
union-finds over vertex pairs of that incidence; of the pipeline's output
only the partition's contact edge ids and the generators are read, each
translated into oracle edge ids through one vertex-pair lookup per edge.
The insulated edges are the rest of the oracle's own boundary.

Every rank comes from one sparse elimination, ``sparse_rank``, over GF(p)
for the fixed prime ``PRIME`` = 2**31 - 1, and over GF(2) for torsion.
The verdict stays sound:

* The relative vertex coboundary d0 is a graph incidence matrix, hence
  totally unimodular, so its rank over GF(p) equals its rank over Q.
* A rank over GF(p) never exceeds the rank over Q.  When the generators
  stacked on d0 reach full rank over GF(p), they are independent over Q
  modulo relative coboundaries: a passed independence check is a
  certificate.
* The cocycle check is exact integer arithmetic.
* A Betti number computed over GF(p) is never below the rational one, and
  independent relative cocycles number at most the rational one.  So the
  count check and the independence check pass together only when the
  count equals the rational Betti number.
* On a surface the only torsion is Z/2: every invariant factor of a
  coboundary or boundary map is 0, 1 or 2.  Ranks over the odd prime then
  equal rational ranks, and H1 of the closed-up complex has one Z/2 for
  each unit of rank that its face boundary map loses over GF(2).

The dense references the tests compare these ranks with (fraction-free
Bareiss elimination and the integer Smith normal form) live in
``tests/reference.py``.  ``verify`` refuses meshes above an edge cap.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from .errors import CountMismatch, MeshTooLargeForOracle
from .surface import BoundaryPartition, SurfaceComplex

# Near this cap verify took about 2.7 s and 110 MB on torus_grid(115, 115)
# and 7-8 s and 235 MB on a scrambled chain of 380 tori (CHANGES.md).
DEFAULT_EDGE_CAP = 40_000
PRIME = 2**31 - 1


def sparse_rank(rows, p: int = PRIME) -> int:
    """Rank over GF(p) of a matrix given as sparse rows ``{column: value}``.

    ``p`` is ``PRIME`` or 2.  Elimination is right-looking with a
    Markowitz-style pivot order: the shortest remaining row first, pivoting
    on its column with the fewest remaining rows, so that little fill-in is
    created.  The input rows are not modified.
    """
    # Imported here so that start-up of a run without --verify stays as is.
    from heapq import heapify, heappop, heappush

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


@dataclass
class _Incidence:
    """Edge table rebuilt from scratch out of the raw face list."""

    edges: list[tuple[int, int]]
    index: dict[tuple[int, int], int]
    face_signs: list[list[tuple[int, int]]]  # per face: (edge id, sign)
    edge_faces: list[list[tuple[int, int]]]  # per edge: (face id, sign)
    boundary: set[int]
    circle_root: dict[int, int]  # boundary vertex -> root of its circle

    @classmethod
    def from_faces(cls, faces):
        edges: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        face_signs = []
        edge_faces: list[list[tuple[int, int]]] = []
        for fid, (a, b, c) in enumerate(faces):
            signs = []
            for u, w in ((a, b), (b, c), (c, a)):
                pair = (u, w) if u < w else (w, u)
                eid = index.get(pair)
                if eid is None:
                    eid = len(edges)
                    index[pair] = eid
                    edges.append(pair)
                    edge_faces.append([])
                sign = 1 if u < w else -1
                edge_faces[eid].append((fid, sign))
                signs.append((eid, sign))
            face_signs.append(signs)
        boundary = {e for e, fl in enumerate(edge_faces) if len(fl) == 1}
        circle_root = _roots(edges[eid] for eid in boundary)
        return cls(edges, index, face_signs, edge_faces, boundary, circle_root)

    @property
    def euler_characteristic(self) -> int:
        num_vertices = len({v for edge in self.edges for v in edge})
        return num_vertices - len(self.edges) + len(self.face_signs)


def _relative(complex: SurfaceComplex, inc, contact: set[int]):
    """The relative cochain complex in oracle edge ids, as sparse rows.

    ``contact`` holds the contact edges' oracle ids; every other boundary
    edge of ``inc`` is insulated.  Returns the insulated edge ids, ``d0``
    (one row per relative vertex) and ``d1`` (one row per face).  Insulated
    edges have no column.
    """
    insulated = inc.boundary - contact
    insulated_vertices = {v for eid in insulated for v in inc.edges[eid]}
    # Vertices touching the insulated subcomplex get no d0 row.  Every
    # insulated edge has both ends there, so the rows hold relative
    # edges only, and no row is empty.
    d0 = {v: {} for v in range(complex.num_vertices) if v not in insulated_vertices}
    for eid, (a, b) in enumerate(inc.edges):
        if b in d0:
            d0[b][eid] = 1
        if a in d0:
            d0[a][eid] = -1
    d1 = [
        {eid: sign for eid, sign in signs if eid not in insulated}
        for signs in inc.face_signs
    ]
    return insulated, list(d0.values()), d1


def _orientable(inc: _Incidence) -> bool:
    """Sign propagation over faces, one face-connectivity component at a
    time: orientable iff no contradiction arises in any of them."""
    n_faces = len(inc.face_signs)
    sign = [0] * n_faces
    for seed in range(n_faces):
        if sign[seed]:
            continue
        sign[seed] = 1
        queue = deque([seed])
        while queue:
            fid = queue.popleft()
            for eid, s in inc.face_signs[fid]:
                for other, s_other in inc.edge_faces[eid]:
                    if other == fid:
                        continue
                    # Adjacent faces must induce opposite signs on the edge.
                    want = -sign[fid] * s * s_other
                    if sign[other] == 0:
                        sign[other] = want
                        queue.append(other)
                    elif sign[other] != want:
                        return False
    return True


def _roots(pairs) -> dict[int, int]:
    """Union-find over vertex pairs: each vertex named maps to its class root."""
    parent: dict[int, int] = {}

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


def _closed_rows(inc: _Incidence):
    """Cell counts and face boundary map of the closed-up complex.

    Each boundary circle collapses to one 0-cell; other vertices are their
    own cells, and boundary edges are deleted.  Returns the 0-cell count,
    the kept edge count and ``d2`` (one sparse row per face over oracle
    edge ids).  The Euler characteristic grows by exactly the number of
    circles; anything else raises CountMismatch.
    """
    root = inc.circle_root
    circles = len(set(root.values()))
    cells = len({v for edge in inc.edges for v in edge}) - len(root) + circles
    kept = len(inc.edges) - len(inc.boundary)
    d2 = [
        {eid: sign for eid, sign in signs if eid not in inc.boundary}
        for signs in inc.face_signs
    ]
    chi = cells - kept + len(d2)
    if chi != inc.euler_characteristic + circles:
        raise CountMismatch(
            f"closed complex has Euler characteristic {chi}, "
            f"expected {inc.euler_characteristic + circles}"
        )
    return cells, kept, d2


def homology_snf(inc: _Incidence) -> list[int]:
    """Torsion of the first homology of the closed-up complex over the integers.

    Returns the nontrivial invariant factors.  On a surface these are all
    2, one for each unit of rank that the face boundary map loses over
    GF(2) against GF(p) (see the module docstring).
    """
    _, _, d2 = _closed_rows(inc)
    return [2] * (sparse_rank(d2) - sparse_rank(d2, 2))


@dataclass
class VerificationReport:
    betti1_relative: int
    generator_count: int
    cocycle_ok: list[bool]
    independence_ok: bool
    orientable: bool
    torsion_coefficients: list[int]
    dimension_formula_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify(
    complex: SurfaceComplex,
    partition: BoundaryPartition,
    generators,
    cap: int = DEFAULT_EDGE_CAP,
) -> VerificationReport:
    """Full validation of a generator set against the oracle.

    Checks, in order: every generator is a relative cocycle; the count
    matches the Betti number; the generators are independent modulo
    relative coboundaries; the twisted-edge count agrees with orientability
    and integer torsion; the per-class sizes match the dimension formulas.
    """
    if complex.num_edges > cap:
        raise MeshTooLargeForOracle(
            f"{complex.num_edges} edges exceeds the oracle cap of {cap}"
        )
    failures: list[str] = []
    inc = _Incidence.from_faces(complex.faces)
    to_oracle = [inc.index[pair] for pair in complex.edges]
    contact = {to_oracle[eid] for eid in partition.contact_edges}
    insulated, d0, d1 = _relative(complex, inc, contact)

    # 1. Relative cocycle condition, using the oracle's own incidence.
    cocycle_ok = []
    gen_rows = []
    for gi, gen in enumerate(generators.generators):
        translated = {to_oracle[eid]: val for eid, val in gen.cochain.coeffs.items()}
        gen_rows.append(
            {eid: val for eid, val in translated.items() if eid not in insulated}
        )
        ok = len(gen_rows[-1]) == len(translated)
        if ok:
            face_sums: dict[int, int] = {}
            for eid, val in translated.items():
                for fid, sign in inc.edge_faces[eid]:
                    face_sums[fid] = face_sums.get(fid, 0) + sign * val
            ok = all(v == 0 for v in face_sums.values())
        cocycle_ok.append(ok)
        if not ok:
            failures.append(f"generator {gi} is not a relative cocycle")

    # 2. Count against the Betti number.
    rank_d0 = sparse_rank(d0)
    betti = len(inc.edges) - len(insulated) - sparse_rank(d1) - rank_d0
    count = len(generators.generators)
    if count != betti:
        failures.append(f"{count} generators but Betti number is {betti}")

    # 3. Independence modulo relative coboundaries: stacking the generators
    # on top of a spanning set of the coboundary image must add full rank.
    independence_ok = sparse_rank(gen_rows + d0) == count + rank_d0
    if not independence_ok:
        failures.append("generators are dependent modulo relative coboundaries")

    # 4. Twisted edges vs orientability vs integer torsion.
    orientable = _orientable(inc)
    twisted = generators.num_twisted_edges
    if (twisted > 0) == orientable:
        failures.append(
            f"twisted edge count {twisted} contradicts orientable={orientable}"
        )
    torsion = homology_snf(inc)
    if (len(torsion) > 0) == orientable:
        failures.append(
            f"torsion {torsion} contradicts orientable={orientable}"
        )

    # 5. Class sizes against the dimension formulas, with the hole and
    # contact counts recomputed on the oracle side.
    found = Counter(g.kind for g in generators.generators)
    expected = Counter()
    for m in generators.components:
        expected["ho"] += max(m.num_holes - 1, 0)
        if m.num_contacts:
            expected["co"] += m.num_contacts - (1 if m.orientable else 0)
        expected["ha"] += m.num_candidate_edges - (1 if m.num_twisted_edges else 0)
    n_ho = len(set(inc.circle_root.values()))
    n_co = len(set(_roots(inc.edges[eid] for eid in contact).values()))
    formula_failures = [
        f"pipeline reports {reported} {what}, oracle {n}"
        for what, reported, n in (
            ("boundary circles", generators.num_holes, n_ho),
            ("contact components", generators.num_contacts, n_co),
        )
        if reported != n
    ]
    formula_failures += [
        f"{found[kind]} {name} generators, expected {expected[kind]}"
        for kind, name in (("ho", "hole"), ("co", "contact"), ("ha", "handle"))
        if found[kind] != expected[kind]
    ]
    dimension_formula_ok = not formula_failures
    failures.extend(formula_failures)

    return VerificationReport(
        betti1_relative=betti,
        generator_count=count,
        cocycle_ok=cocycle_ok,
        independence_ok=independence_ok,
        orientable=orientable,
        torsion_coefficients=torsion,
        dimension_formula_ok=dimension_formula_ok,
        failures=failures,
    )
