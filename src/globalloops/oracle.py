"""Independent verification of a generator set, by exact and modular ranks.

Everything here re-derives edges and incidence signs from the raw face
list rather than reusing the pipeline's tables, so a bug in the fast path
cannot hide from the checks.

Ranks come from one sparse elimination, ``sparse_rank``, over GF(p) for the
fixed prime ``PRIME`` = 2**31 - 1, and over GF(2) for torsion.  The verdict
stays sound:

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

``exact_rank`` (fraction-free Bareiss elimination) and
``smith_invariant_factors`` (integer Smith normal form) are dense and cubic.
They are kept as the reference that tests compare the sparse ranks with on
small meshes; no check calls them.  Every check refuses meshes above an
edge cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import MeshTooLargeForOracle
from .surface import (
    BoundaryPartition,
    ClosedComplex,
    SurfaceComplex,
    build_closed_complex,
)

# Verify time grows about as E**1.2.  At this cap the slowest measured
# mesh family took about 5 s and 130 MB (table in CHANGES.md).
DEFAULT_EDGE_CAP = 40_000
PRIME = 2**31 - 1


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
    edge_faces: list[list[int]]
    boundary: set[int] = field(default_factory=set)

    @classmethod
    def from_faces(cls, faces):
        edges: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        face_signs = []
        edge_faces: list[list[int]] = []
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
                edge_faces[eid].append(fid)
                signs.append((eid, 1 if u < w else -1))
            face_signs.append(signs)
        inc = cls(
            edges=edges, index=index, face_signs=face_signs, edge_faces=edge_faces
        )
        inc.boundary = {e for e, fl in enumerate(edge_faces) if len(fl) == 1}
        return inc


def _check_cap(num_edges: int, cap: int) -> None:
    if num_edges > cap:
        raise MeshTooLargeForOracle(
            f"{num_edges} edges exceeds the oracle cap of {cap}"
        )


@dataclass
class _Relative:
    """The relative cochain complex in oracle edge ids, as sparse rows.

    Columns are oracle edge ids; insulated edges have no column.
    """

    insulated: set[int]
    num_edges: int
    d0: list[dict[int, int]]  # one row per relative vertex
    d1: list[dict[int, int]]  # one row per face

    @classmethod
    def build(cls, complex: SurfaceComplex, partition: BoundaryPartition, inc):
        insulated = {inc.index[complex.edges[eid]] for eid in partition.insulated_edges}
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
        return cls(
            insulated=insulated,
            num_edges=len(inc.edges) - len(insulated),
            d0=list(d0.values()),
            d1=d1,
        )


def betti1_relative(
    complex: SurfaceComplex,
    partition: BoundaryPartition,
    cap: int = DEFAULT_EDGE_CAP,
) -> int:
    """Dimension of the first relative cohomology space.

    Standard rank-nullity on the relative cochain complex: relative edge
    count minus the ranks of the two restricted coboundary maps.
    """
    _check_cap(complex.num_edges, cap)
    rel = _Relative.build(complex, partition, _Incidence.from_faces(complex.faces))
    return rel.num_edges - sparse_rank(rel.d1) - sparse_rank(rel.d0)


def is_orientable(complex: SurfaceComplex) -> bool:
    """Sign propagation over faces: orientable iff no contradiction arises.

    Works per face-connectivity component, so a disconnected complex is
    orientable iff every component is.
    """
    return _orientable(_Incidence.from_faces(complex.faces))


def _orientable(inc: _Incidence) -> bool:
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
                for other in inc.edge_faces[eid]:
                    if other == fid:
                        continue
                    s_other = 0
                    for eid2, s2 in inc.face_signs[other]:
                        if eid2 == eid:
                            s_other = s2
                            break
                    # Adjacent faces must induce opposite signs on the edge.
                    want = -sign[fid] * s * s_other
                    if sign[other] == 0:
                        sign[other] = want
                        queue.append(other)
                    elif sign[other] != want:
                        return False
    return True


def homology_snf(
    closed: ClosedComplex, cap: int = DEFAULT_EDGE_CAP
) -> tuple[int, list[int]]:
    """First homology of the closed-up complex over the integers.

    Returns the free rank and the nontrivial invariant factors.  On a
    surface these are all 2, one for each unit of rank that the face
    boundary map loses over GF(2) against GF(p) (see the module docstring).
    """
    _check_cap(closed.num_edges, cap)
    rank_d2 = sparse_rank(closed.d2)
    betti = closed.num_edges - sparse_rank(closed.d1) - rank_d2
    torsion = [2] * (rank_d2 - sparse_rank(closed.d2, 2))
    return betti, torsion


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
    _check_cap(complex.num_edges, cap)
    failures: list[str] = []
    inc = _Incidence.from_faces(complex.faces)
    rel = _Relative.build(complex, partition, inc)

    # 1. Relative cocycle condition, using the oracle's own incidence.
    cocycle_ok = []
    gen_rows = []
    for gi, gen in enumerate(generators.generators):
        translated = {
            inc.index[complex.edges[eid]]: val
            for eid, val in gen.cochain.coeffs.items()
        }
        gen_rows.append(
            {eid: val for eid, val in translated.items() if eid not in rel.insulated}
        )
        ok = len(gen_rows[-1]) == len(translated)
        if ok:
            face_sums: dict[int, int] = {}
            for eid, val in translated.items():
                for fid in inc.edge_faces[eid]:
                    for eid2, sign in inc.face_signs[fid]:
                        if eid2 == eid:
                            face_sums[fid] = face_sums.get(fid, 0) + sign * val
            ok = all(v == 0 for v in face_sums.values())
        cocycle_ok.append(ok)
        if not ok:
            failures.append(f"generator {gi} is not a relative cocycle")

    # 2. Count against the Betti number.
    rank_d0 = sparse_rank(rel.d0)
    betti = rel.num_edges - sparse_rank(rel.d1) - rank_d0
    count = len(generators.generators)
    if count != betti:
        failures.append(f"{count} generators but Betti number is {betti}")

    # 3. Independence modulo relative coboundaries: stacking the generators
    # on top of a spanning set of the coboundary image must add full rank.
    independence_ok = sparse_rank(gen_rows + rel.d0) == count + rank_d0
    if not independence_ok:
        failures.append("generators are dependent modulo relative coboundaries")

    # 4. Twisted edges vs orientability vs integer torsion.
    orientable = _orientable(inc)
    twisted = generators.num_twisted_edges
    if (twisted > 0) == orientable:
        failures.append(
            f"twisted edge count {twisted} contradicts orientable={orientable}"
        )
    _, torsion = homology_snf(build_closed_complex(complex), cap=cap)
    if (len(torsion) > 0) == orientable:
        failures.append(
            f"torsion {torsion} contradicts orientable={orientable}"
        )

    # 5. Class sizes against the dimension formulas, with the hole and
    # contact counts recomputed on the oracle side.
    kinds = [g.kind for g in generators.generators]
    n_ho_oracle = _count_boundary_circles(inc)
    n_co_oracle = _count_contact_components(complex, inc, partition)
    formula_failures: list[str] = []
    per_comp_holes = [m.num_holes for m in generators.components]
    if n_ho_oracle != sum(per_comp_holes):
        formula_failures.append(
            f"pipeline reports {sum(per_comp_holes)} boundary circles, oracle {n_ho_oracle}"
        )
    if n_co_oracle != sum(m.num_contacts for m in generators.components):
        formula_failures.append(
            f"pipeline reports {sum(m.num_contacts for m in generators.components)} "
            f"contact components, oracle {n_co_oracle}"
        )
    expected_ho = sum(max(h - 1, 0) for h in per_comp_holes)
    if kinds.count("ho") != expected_ho:
        formula_failures.append(
            f"{kinds.count('ho')} hole generators, expected {expected_ho}"
        )
    expected_co = 0
    for m in generators.components:
        if m.num_contacts:
            expected_co += m.num_contacts - 1 if m.orientable else m.num_contacts
    if kinds.count("co") != expected_co:
        formula_failures.append(
            f"{kinds.count('co')} contact generators, expected {expected_co}"
        )
    expected_ha = sum(
        m.num_candidate_edges - (1 if m.num_twisted_edges else 0)
        for m in generators.components
    )
    if kinds.count("ha") != expected_ha:
        formula_failures.append(
            f"{kinds.count('ha')} handle generators, expected {expected_ha}"
        )
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


def _count_boundary_circles(inc: _Incidence) -> int:
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in inc.boundary:
        for v in inc.edges[eid]:
            parent.setdefault(v, v)
    for eid in inc.boundary:
        a, b = inc.edges[eid]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in parent})


def _count_contact_components(
    complex: SurfaceComplex, inc: _Incidence, partition: BoundaryPartition
) -> int:
    contact_ids = {
        inc.index[complex.edges[eid]] for eid in partition.contact_edges
    }
    parent = {e: e for e in contact_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_vertex: dict[int, list[int]] = {}
    for eid in contact_ids:
        for v in inc.edges[eid]:
            by_vertex.setdefault(v, []).append(eid)
    for edges_here in by_vertex.values():
        for other in edges_here[1:]:
            ra, rb = find(edges_here[0]), find(other)
            if ra != rb:
                parent[ra] = rb
    return len({find(e) for e in contact_ids})
