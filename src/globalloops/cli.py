"""Command line interface.

Exit codes: 0 success, 1 file, parse or usage error (a file that cannot
be read or written, or is not UTF-8; bench options that leave the growth
fit fewer than two levels), 2 topology error, 3 verification failure
(including an oracle refusal under --verify), 4 internal error (a violated
invariant of the computation, not bad input).  ``main`` maps each failure
to its code and one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import bench as bench_mod
from . import meshio, oracle
from .errors import (
    ContactSpecError,
    InternalError,
    MeshTooLargeForOracle,
    OffParseError,
    TopologyError,
    UsageError,
)
from .generators import compute_generators
from .oracle import DEFAULT_EDGE_CAP
from .surface import (
    boundary_components,
    connected_components,
    euler_characteristic,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="global-loops",
        description=(
            "Compute a basis of relative cohomology generators (global loops) "
            "for a triangulated surface with marked contact regions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute generators for a mesh")
    p_compute.add_argument("mesh", help="OFF mesh file")
    p_compute.add_argument("--contacts", help="contact edge file ('i j' per line)")
    p_compute.add_argument("--out", help="write the JSON report here (default stdout)")
    p_compute.add_argument(
        "--verify",
        action="store_true",
        help="run the verification oracle and append its report; nonzero exit on failure",
    )
    p_compute.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_EDGE_CAP,
        help="edge-count refusal threshold of the oracle (default %(default)s)",
    )
    p_compute.add_argument("--vtk", help="write a VTK line overlay of the supports")

    p_info = sub.add_parser("info", help="print mesh summary")
    p_info.add_argument("mesh", help="OFF mesh file")

    p_bench = sub.add_parser(
        "bench", help="time the pipeline over a 1-to-4 refinement family"
    )
    p_bench.add_argument("mesh", help="OFF base mesh file")
    p_bench.add_argument("--levels", type=int, default=4, help="refinement levels")
    p_bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing rounds over all levels (best time per level kept)",
    )
    p_bench.add_argument(
        "--fit-from",
        type=int,
        default=0,
        help="first level of the growth fit, which needs at least two levels "
        "up to --levels (exit 1 otherwise)",
    )
    return parser


@contextmanager
def _reading(path: str):
    """Name ``path`` on a decode, parse or topology failure raised while reading it."""
    try:
        yield
    except (UnicodeDecodeError, OffParseError, ContactSpecError, TopologyError) as exc:
        exc.filename = path
        raise


def _load_mesh(path: str):
    with _reading(path):
        return meshio.load_off(path)


def cmd_compute(args) -> int:
    complex = _load_mesh(args.mesh)
    contact_edges: set[int] = set()
    if args.contacts:
        with _reading(args.contacts):
            contact_edges = meshio.load_contacts(args.contacts, complex)
    generators = compute_generators(complex, contact_edges)

    verification = None
    exit_code = 0
    if args.verify:
        verification = oracle.verify(
            complex, generators.partition, generators, cap=args.oracle_cap
        )
        if not verification.passed:
            for failure in verification.failures:
                print(f"verification failure: {failure}", file=sys.stderr)
            exit_code = 3

    text = meshio.report_text(complex, generators, verification)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    if args.vtk:
        meshio.write_vtk(args.vtk, complex, generators)
    return exit_code


def cmd_info(args) -> int:
    complex = _load_mesh(args.mesh)
    chi = euler_characteristic(complex)
    holes = boundary_components(complex)
    parts = connected_components(complex)
    orientable = oracle.is_orientable(complex)
    print(
        f"V={complex.num_vertices} E={complex.num_edges} F={complex.num_faces} "
        f"χ={chi} boundary components={len(holes)} "
        f"connected components={len(parts)} "
        f"orientable={'yes' if orientable else 'no'}"
    )
    return 0


def cmd_bench(args) -> int:
    fitted = args.levels + 1 - max(args.fit_from, 0)
    if fitted < 2:
        raise UsageError(
            f"the growth fit needs at least two levels; --levels {args.levels} "
            f"--fit-from {args.fit_from} leaves {max(fitted, 0)}"
        )
    complex = _load_mesh(args.mesh)
    levels = bench_mod.run_refinement_bench(
        complex, levels=args.levels, repeats=args.repeats
    )
    print(bench_mod.format_table(levels, fit_from=args.fit_from))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The one place where a failure becomes an exit code and a stderr line.
    try:
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "info":
            return cmd_info(args)
        return cmd_bench(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except MeshTooLargeForOracle as exc:
        print(f"error: verification refused: {exc}", file=sys.stderr)
        return 3
    except (
        OSError, UnicodeDecodeError, OffParseError, ContactSpecError, TopologyError,
        UsageError,
    ) as exc:
        detail = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        where = getattr(exc, "filename", None)
        prefix = f"{where}: " if where else ""
        print(f"error: {prefix}{detail}", file=sys.stderr)
        return 2 if isinstance(exc, TopologyError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
