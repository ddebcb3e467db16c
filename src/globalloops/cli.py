"""Command line interface.

``main()`` with no arguments is what the ``global-loops`` console script
and ``python -m globalloops.cli`` run, and it owns the process: it reads
``sys.argv``, freezes everything loaded so far into the collector's
permanent generation and runs the command with the cyclic collector off.
The commands leave no reference cycles to free but a few dozen objects of
the JSON encoder, whatever the mesh, so the collector would only traverse
the start-up heap, in each young collection and again in the sweep at
exit.  ``main(argv)`` runs one command inside its caller's process
and leaves the collector as it found it.

Exit codes: 0 success (and ``--help``), 1 usage, file or parse error (an
unknown command, a missing argument or one that does not parse; a file
that cannot be read or written, or is not UTF-8; a negative --oracle-cap;
bench options that leave the growth fit fewer than two levels, a negative
--fit-from, a --repeats below 1, or a bench mesh with no edges), 2
topology error, 3 verification failure (including an oracle refusal under
--verify), 4 internal error (a violated invariant of the computation, not
bad input).  ``main`` maps each failure
to its code and its lines on stderr: one ``error:`` or ``internal error:``
line, or one ``verification failure:`` line per failed check.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import contextmanager

from . import meshio
from .errors import (
    DEFAULT_WORK_CAP,
    ContactSpecError,
    InternalError,
    MeshTooLargeForOracle,
    OffParseError,
    TopologyError,
    UsageError,
)
from .forest import build_tree_cotree
from .generators import compute_generators
from .surface import boundary_components, classify_boundary, euler_characteristic
from .transport import is_twisted


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` where argparse would print the usage and exit
    2, the topology error's code; its subcommands' parsers are of this
    class too."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        default=DEFAULT_WORK_CAP,
        help="refuse to verify when the edges plus the entries of the generators and "
        "of their witness cycles exceed this (default %(default)s)",
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
    if args.oracle_cap < 0:
        raise UsageError(
            f"--oracle-cap {args.oracle_cap} is not a count of edges and chain entries; "
            "give 0 or more"
        )
    complex = _load_mesh(args.mesh)
    contact_edges: set[int] = set()
    if args.contacts:
        with _reading(args.contacts):
            contact_edges = meshio.load_contacts(args.contacts, complex)
    generators = compute_generators(complex, contact_edges)

    verification = None
    exit_code = 0
    if args.verify:
        from . import oracle  # only --verify pays for loading the oracle

        # Checked against the contact file, not against the generators' own record.
        partition = classify_boundary(complex, contact_edges)
        verification = oracle.verify(complex, partition, generators, cap=args.oracle_cap)
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
    # The dual forest has one tree per component, as ``compute`` numbers them.
    _, dual, candidates = build_tree_cotree(complex, holes)
    orientable = not any(is_twisted(complex, dual, eid) for eid in candidates)
    print(
        f"V={complex.num_vertices} E={complex.num_edges} F={complex.num_faces} "
        f"χ={chi} boundary components={len(holes)} "
        f"connected components={len(dual.roots)} "
        f"orientable={'yes' if orientable else 'no'}"
    )
    return 0


def cmd_bench(args) -> int:
    from . import bench  # only this command needs refinement and its timers

    if args.repeats < 1:
        raise UsageError(f"--repeats {args.repeats} leaves no timing round; give at least 1")
    if args.fit_from < 0:
        raise UsageError(f"--fit-from {args.fit_from} is not a level; levels start at 0")
    fitted = args.levels + 1 - args.fit_from
    if fitted < 2:
        raise UsageError(
            f"the growth fit needs at least two levels; --levels {args.levels} "
            f"--fit-from {args.fit_from} leaves {max(fitted, 0)}"
        )
    complex = _load_mesh(args.mesh)
    if not complex.num_edges:
        raise UsageError("the growth fit needs a mesh with at least one edge")
    levels = bench.run_refinement_bench(
        complex, levels=args.levels, repeats=args.repeats
    )
    print(bench.format_table(levels, fit_from=args.fit_from))
    return 0


def main(argv=None) -> int:
    """Run the command that ``argv`` names (``sys.argv[1:]`` when None)
    and return its exit code; without ``argv`` it owns the process and
    leaves the collector frozen and off (see the module docstring)."""
    if argv is None:
        gc.freeze()
        gc.disable()
    # The one place where a failure becomes an exit code and a stderr line.
    try:
        args = build_parser().parse_args(argv)
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
