"""Command line interface.

``main()`` with no arguments is what the ``global-loops`` console script
and ``python -m globalloops.cli`` run, and it owns the process: it reads
``sys.argv``, freezes everything loaded so far into the collector's
permanent generation and runs the command with the cyclic collector off.
The commands leave no reference cycles to free, whatever the mesh, so the
collector would only traverse the start-up heap, in each young collection
and again in the sweep at exit.  ``main(argv)`` runs one command inside
its caller's process and leaves the collector as it found it.

Start-up loads no argparse, json or pathlib: ``_plain_args`` reads the argv
users type, and argparse, the one source of help and error text, loads
only for help, a usage error or an argv that reader declines.

Exit codes: 0 success (and ``--help``), 1 usage, file or parse error (an
unknown command, a missing argument or one that does not parse; a file
that cannot be read or written, or is not UTF-8; a negative --oracle-cap),
2 topology error, 3 verification failure (including an oracle refusal under
--verify), 4 internal error (a violated invariant of the computation, not
bad input).  ``main`` maps each failure
to its code and its lines on stderr: one ``error:`` or ``internal error:``
line, or one ``verification failure:`` line per failed check.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from types import SimpleNamespace

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
from .forest import build_tree_cotree, is_twisted
from .generators import compute_generators
from .surface import boundary_components, classify_boundary, euler_characteristic


def build_parser():
    """The argparse parser of every argv, the reference of ``_plain_args``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Raises ``UsageError`` where argparse would print the usage and exit
        2, the topology error's code; the subcommands' parsers are one too."""

        def error(self, message):
            raise UsageError(message)

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

    return parser


# The attributes of ``compute``'s options, with their defaults, by option.
_DEFAULTS = {"contacts": None, "out": None, "vtk": None, "oracle_cap": DEFAULT_WORK_CAP,
             "verify": False}
_OPTIONS = {"--" + name.replace("_", "-"): name for name in _DEFAULTS}


def _plain_args(argv):
    """What ``build_parser`` reads from ``info MESH``, or ``compute MESH`` with each option
    in full at most once, in any order, where no mesh or value starts with '-' and
    --oracle-cap's is decimal digits; None for any other argv, which goes to argparse."""
    command, *rest = argv or [""]
    if command not in ("compute", "info"):
        return None
    options = _OPTIONS if command == "compute" else {}
    args, tokens = {}, iter(rest)
    for token in tokens:
        key = options.get(token, "mesh")
        value = True if key == "verify" else token if key == "mesh" else next(tokens, "-")
        if key in args or value is not True and value.startswith("-"):
            return None
        if key == "oracle_cap":
            if not value.isdecimal() or len(value) > 640:  # int() reads 640 digits at least
                return None
            value = int(value)
        args[key] = value
    if "mesh" not in args:
        return None
    return SimpleNamespace(command=command, **{**(_DEFAULTS if options else {}), **args})


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


def main(argv=None) -> int:
    """Run the command that ``argv`` names (``sys.argv[1:]`` when None)
    and return its exit code; without ``argv`` it owns the process and
    leaves the collector frozen and off (see the module docstring)."""
    if argv is None:
        gc.freeze()
        gc.disable()
    # The one place where a failure becomes an exit code and a stderr line.
    try:
        args = _plain_args(sys.argv[1:] if argv is None else argv)
        args = args or build_parser().parse_args(argv)
        if args.command == "compute":
            return cmd_compute(args)
        return cmd_info(args)
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
