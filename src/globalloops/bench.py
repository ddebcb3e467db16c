"""Scaling benchmark over a refinement family plus a log-log growth fit."""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

from .generators import compute_generators
from .refine import refine
from .surface import SurfaceComplex, build_complex


@dataclass
class BenchLevel:
    level: int
    num_vertices: int
    num_edges: int
    num_faces: int
    seconds: float


def time_pipeline(complex: SurfaceComplex) -> float:
    """Wall time of one run of the full pipeline, construction included.

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


def run_refinement_bench(
    base: SurfaceComplex, levels: int, repeats: int = 3
) -> list[BenchLevel]:
    """Time the pipeline on the base mesh and `levels` refinements of it.

    Each of the `repeats` rounds times every level once, and the best time
    of each level is kept.  A slow spell of a shared machine outlasts one
    timing, so timing a level's repeats back to back lets one spell slow
    them all and tilt the growth fit; spread over rounds, it costs each
    level at most the rounds it overlaps.
    """
    family = [base]
    for _ in range(levels):
        family.append(refine(family[-1]))
    best = [math.inf] * len(family)
    for _ in range(max(repeats, 1)):
        for level, mesh in enumerate(family):
            best[level] = min(best[level], time_pipeline(mesh))
    return [
        BenchLevel(
            level=level,
            num_vertices=mesh.num_vertices,
            num_edges=mesh.num_edges,
            num_faces=mesh.num_faces,
            seconds=best[level],
        )
        for level, mesh in enumerate(family)
    ]


def fit_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(edge count)."""
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


def format_table(levels: list[BenchLevel], fit_from: int = 0) -> str:
    lines = ["level  vertices  edges  faces  seconds"]
    for row in levels:
        lines.append(
            f"{row.level:>5}  {row.num_vertices:>8}  {row.num_edges:>5}  "
            f"{row.num_faces:>5}  {row.seconds:.6f}"
        )
    fitted = fit_exponent(
        [(row.num_edges, row.seconds) for row in levels if row.level >= fit_from]
    )
    lines.append(f"fitted exponent (levels {fit_from}..{levels[-1].level}): {fitted:.3f}")
    return "\n".join(lines)
