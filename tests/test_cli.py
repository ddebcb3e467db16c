"""Command line behavior and exit codes."""

import gc
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meshes
import reference
import globalloops
from globalloops import cli, errors, generators, meshio, oracle
from globalloops.cli import _plain_args, build_parser, main
from globalloops.errors import CountMismatch, EdgeNotOnFace, NodeNotInTree
from globalloops.meshio import render_report
from globalloops.oracle import verify
from globalloops.surface import build_complex, classify_boundary
from meshes import refine, write_off
from test_golden import corpus
from test_oracle import every_test_mesh


def write_annulus(tmp_path, name="annulus.off"):
    path = tmp_path / name
    write_off(path, meshes.annulus(6))
    return path


def write_moebius(tmp_path):
    path = tmp_path / "moebius.off"
    write_off(path, meshes.moebius(6))
    return path


class TestInfo:
    def test_octahedron_summary(self, tmp_path, capsys):
        path = tmp_path / "oct.off"
        write_off(path, meshes.octahedron())
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "V=6 E=12 F=8" in out
        assert "χ=2" in out
        assert "boundary components=0" in out
        assert "orientable=yes" in out

    def test_annulus_summary(self, tmp_path, capsys):
        path = write_annulus(tmp_path)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "χ=0" in out
        assert "boundary components=2" in out

    def test_moebius_not_orientable(self, tmp_path, capsys):
        path = write_moebius(tmp_path)
        assert main(["info", str(path)]) == 0
        assert "orientable=no" in capsys.readouterr().out

    def test_torus_summary(self, tmp_path, capsys):
        path = tmp_path / "torus.off"
        K = meshes.csaszar_torus()
        write_off(path, K)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "χ=0" in out
        assert "boundary components=0" in out

    def test_union_summary(self, tmp_path, capsys):
        # Components are the dual forest's trees, as ``compute`` numbers them.
        torus_annulus = tmp_path / "union.off"
        write_off(torus_annulus, meshes.disjoint_union(meshes.csaszar_torus(), meshes.annulus(6)))
        mixed = tmp_path / "mixed.off"
        write_off(mixed, meshes.mixed_surface()[0])
        empty = tmp_path / "empty.off"
        empty.write_text("OFF\n0 0 0\n")
        for path, count in ((torus_annulus, 2), (mixed, 5), (empty, 0)):
            assert main(["info", str(path)]) == 0
            assert f"connected components={count} " in capsys.readouterr().out

    def test_orientability_matches_the_oracle(self, tmp_path, capsys):
        # ``info`` reads orientability off the dual forest (no twisted
        # candidate); the oracle's face-sign search must agree.
        seen = set()
        for k, K in enumerate(every_test_mesh()):
            path = tmp_path / f"mesh{k}.off"
            write_off(path, K)
            assert main(["info", str(path)]) == 0
            expected = "yes" if reference.is_orientable(K) else "no"
            assert capsys.readouterr().out.endswith(f" orientable={expected}\n"), k
            seen.add(expected)
        assert seen == {"yes", "no"}


class TestCompute:
    def test_annulus_report(self, tmp_path):
        mesh = write_annulus(tmp_path)
        out = tmp_path / "report.json"
        assert main(["compute", str(mesh), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [g["class"] for g in report["generators"]] == ["ho"]
        assert report["meta"]["betti1"] == 1

    def test_moebius_report(self, tmp_path):
        mesh = write_moebius(tmp_path)
        out = tmp_path / "report.json"
        assert main(["compute", str(mesh), "--out", str(out), "--verify"]) == 0
        report = json.loads(out.read_text())
        assert report["generators"] == []
        assert report["meta"]["E_M_II"] == 1
        assert report["meta"]["orientable"] is False
        assert report["verification"]["passed"] is True

    def test_contacts_flow(self, tmp_path):
        K = meshes.annulus(6)
        mesh = write_annulus(tmp_path)
        arcs = meshes.boundary_arc(K, 0, 3) | meshes.boundary_arc(K, 1, 3)
        contact_file = tmp_path / "contacts.txt"
        contact_file.write_text(
            "# ports\n"
            + "\n".join(f"{K.edges[e][0]} {K.edges[e][1]}" for e in sorted(arcs))
            + "\n"
        )
        out = tmp_path / "report.json"
        code = main(
            [
                "compute",
                str(mesh),
                "--contacts",
                str(contact_file),
                "--out",
                str(out),
                "--verify",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert sorted(g["class"] for g in report["generators"]) == ["co", "ho"]

    def test_one_edge_port_warns_once_under_verify(self, tmp_path):
        K = meshes.annulus(6)
        mesh = write_annulus(tmp_path)
        (port,) = meshes.boundary_arc(K, 0, 1)
        contact_file = tmp_path / "port.txt"
        contact_file.write_text(f"{K.edges[port][0]} {K.edges[port][1]}\n")
        out = tmp_path / "report.json"
        with pytest.warns(UserWarning, match="one-edge port") as record:
            code = main(
                ["compute", str(mesh), "--contacts", str(contact_file),
                 "--out", str(out), "--verify"]
            )
        assert code == 0
        assert len(record) == 1

        with pytest.warns(UserWarning):
            gens = generators.compute_generators(K, {port})
            partition = classify_boundary(K, {port})
        expected = render_report(reference.report_dict(K, gens, verify(K, partition, gens)))
        assert out.read_text() == expected

    def test_missing_file_is_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.off"
        assert main(["compute", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_parse_error_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.off"
        bad.write_text("not an off file\n")
        assert main(["compute", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_empty_mesh_file_is_exit_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.off"
        empty.write_text("")
        assert main(["compute", str(empty)]) == 1
        assert "line 1: expected OFF header" in capsys.readouterr().err

    def test_topology_error_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "pinch.off"
        bad.write_text(
            "OFF\n5 2 0\n"
            "0 0 0\n1 0 0\n0 1 0\n-1 0 0\n0 -1 0\n"
            "3 0 1 2\n3 0 3 4\n"
        )
        assert main(["compute", str(bad)]) == 2
        assert "fan" in capsys.readouterr().err

    def test_oracle_refusal_is_exit_three(self, tmp_path, capsys):
        mesh = write_annulus(tmp_path)
        code = main(["compute", str(mesh), "--verify", "--oracle-cap", "3"])
        assert code == 3
        assert "refused" in capsys.readouterr().err

    def test_failed_verification_is_exit_three(self, tmp_path, capsys, monkeypatch):
        # A set whose generator 0 comes twice: every failure gets its own
        # stderr line, and the report is still written, marked failed.
        K = meshes.csaszar_torus()
        mesh, out = tmp_path / "torus.off", tmp_path / "r.json"
        write_off(mesh, K)

        def doubled(complex, contact_edges):
            gens = generators.compute_generators(complex, contact_edges)
            return gens._replace(generators=gens.generators + gens.generators[:1])

        monkeypatch.setattr(cli, "compute_generators", doubled)
        assert main(["compute", str(mesh), "--verify", "--out", str(out)]) == 3
        failures = verify(K, classify_boundary(K, set()), doubled(K, set())).failures
        assert len(failures) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"verification failure: {failure}" for failure in failures]
        report = json.loads(out.read_text())
        assert report["verification"]["passed"] is False
        assert report["verification"]["failures"] == failures
        assert len(report["generators"]) == 3

    def test_verify_holds_the_generators_to_the_contact_file(self, tmp_path, capsys, monkeypatch):
        # A pipeline that loses circle 1's arc yields a consistent set for
        # the contacts it kept; the oracle reads the file's two arcs.
        K = meshes.annulus(8)
        mesh, contacts = tmp_path / "annulus.off", tmp_path / "c.txt"
        write_off(mesh, K)
        arcs = meshes.boundary_arc(K, 0, 2) | meshes.boundary_arc(K, 1, 2)
        contacts.write_text("".join(f"{K.edges[e][0]} {K.edges[e][1]}\n" for e in sorted(arcs)))

        def lossy(complex, contact_edges):
            dropped = meshes.boundary_arc(complex, 1, 2)
            return generators.compute_generators(complex, contact_edges - dropped)

        monkeypatch.setattr(cli, "compute_generators", lossy)
        argv = ["compute", str(mesh), "--contacts", str(contacts), "--verify"]
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "verification failure: 1 generators but Betti number is 2",
            "verification failure: pipeline reports 1 contact components, oracle 2",
        ]

    @pytest.mark.parametrize("flags", [["--verify"], []])
    def test_negative_oracle_cap_is_exit_one(self, tmp_path, capsys, flags):
        # A usage error before the mesh is read, not an oracle refusal.
        mesh = write_annulus(tmp_path)
        assert main(["compute", str(mesh), "--oracle-cap", "-1", *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "--oracle-cap -1" in err[0]

    def test_cycles_are_built_only_to_verify(self, tmp_path, monkeypatch):
        # A Klein bottle with a twisted chain, and a contact arc on a
        # Moebius strip, whose cycles need the anchor loop.
        K = meshes.disjoint_union(meshes.klein_grid(3, 6), meshes.moebius(6))
        mesh, contacts = tmp_path / "m.off", tmp_path / "c.txt"
        write_off(mesh, K)
        arc = meshes.boundary_arc(K, 0, 3)
        contacts.write_text("".join(f"{K.edges[e][0]} {K.edges[e][1]}\n" for e in sorted(arc)))
        argv = ["compute", str(mesh), "--contacts", str(contacts), "--out", str(tmp_path / "r.json")]

        def refused(self, complex):
            raise AssertionError("cycle builder called")

        monkeypatch.setattr(generators.GeneratorSet, "cycles", refused)
        assert main(argv) == 0
        with pytest.raises(AssertionError, match="cycle builder called"):
            main([*argv, "--verify"])

    def test_internal_error_is_exit_four(self, tmp_path, capsys, monkeypatch):
        # A violated invariant is a bug, not bad input: exit 4, not 2.
        mesh = tmp_path / "torus.off"
        write_off(mesh, meshes.csaszar_torus())

        def broken(*args, **kwargs):
            raise CountMismatch("tree path revisits the transported edge pair")

        monkeypatch.setattr(generators, "transport", broken)
        assert main(["compute", str(mesh)]) == 4
        assert "internal error: tree path revisits" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [NodeNotInTree, EdgeNotOnFace])
    def test_transport_precondition_is_exit_four(self, tmp_path, capsys, monkeypatch, error):
        # Transport's guards are internal invariants too: exit 4 and one
        # line, not a traceback.
        mesh = tmp_path / "torus.off"
        write_off(mesh, meshes.csaszar_torus())

        def broken(*args, **kwargs):
            raise error("planted transport fault")

        monkeypatch.setattr(generators, "transport", broken)
        assert main(["compute", str(mesh)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["internal error: planted transport fault"]

    @pytest.mark.parametrize("role", ["mesh", "contacts"])
    @pytest.mark.parametrize("failure", ["directory", "permission"])
    def test_unreadable_input_is_exit_one(
        self, tmp_path, capsys, monkeypatch, role, failure
    ):
        mesh = write_annulus(tmp_path)
        bad = tmp_path / "input"
        if failure == "directory":
            bad.mkdir()
        else:
            # Permission bits do not stop a superuser, so the read is refused
            # at the loader instead.
            bad.write_text("")
            loader = "load_off" if role == "mesh" else "load_contacts"

            def refuse(path, *args):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(meshio, loader, refuse)
        if role == "mesh":
            argv = ["compute", str(bad)]
        else:
            argv = ["compute", str(mesh), "--contacts", str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]

    def test_mesh_not_utf8_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "latin1.off"
        bad.write_bytes("OFF\n# maille déformée\n".encode("latin-1"))
        assert main(["compute", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]
        assert "utf-8" in err[0]

    def test_contacts_not_utf8_is_exit_one(self, tmp_path, capsys):
        mesh = write_annulus(tmp_path)
        bad = tmp_path / "contacts.txt"
        bad.write_bytes(b"\xff\xfe0 1\n")
        assert main(["compute", str(mesh), "--contacts", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]

    def test_mesh_with_a_byte_order_mark(self, tmp_path, capsys):
        plain = write_annulus(tmp_path)
        marked = tmp_path / "marked.off"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["compute", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["compute", str(marked)]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_contacts_with_a_byte_order_mark(self, tmp_path, capsys):
        K = meshes.annulus(6)
        mesh = write_annulus(tmp_path)
        arc = sorted(meshes.boundary_arc(K, 0, 3))
        pairs = "".join(f"{K.edges[e][0]} {K.edges[e][1]}\n" for e in arc)
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(pairs, encoding="utf-8")
        marked.write_text(pairs, encoding="utf-8-sig")
        assert main(["compute", str(mesh), "--contacts", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert '"N_co": 1' in expected
        assert main(["compute", str(mesh), "--contacts", str(marked)]) == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize("flag", ["--out", "--vtk"])
    def test_output_into_missing_directory_is_exit_one(self, tmp_path, capsys, flag):
        mesh = write_annulus(tmp_path)
        target = tmp_path / "missing" / "result"
        argv = ["compute", str(mesh), flag, str(target)]
        if flag == "--vtk":
            argv += ["--out", str(tmp_path / "report.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(target) in err[0]

    def test_vtk_written(self, tmp_path):
        mesh = write_annulus(tmp_path)
        overlay = tmp_path / "overlay.vtk"
        out = tmp_path / "r.json"
        assert (
            main(["compute", str(mesh), "--out", str(out), "--vtk", str(overlay)])
            == 0
        )
        assert overlay.read_text().startswith("# vtk DataFile")

    def test_stdout_by_default(self, tmp_path, capsys):
        mesh = write_annulus(tmp_path)
        assert main(["compute", str(mesh)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["meta"]["betti1"] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mesh.off"], "argument command: invalid choice: 'mesh.off'"),
        (["compute"], "the following arguments are required: mesh"),
        (
            ["compute", "mesh.off", "--oracle-cap", "abc"],
            "argument --oracle-cap: invalid int value: 'abc'",
        ),
        (["bench", "mesh.off"], "argument command: invalid choice: 'bench'"),
    ],
)
def test_usage_error_is_exit_one(capsys, argv, message):
    # argparse's own exit 2 and usage text would read as a topology error.
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


def test_cli_import_loads_no_dataclasses():
    # The result records are named tuples: `dataclasses`, and the `inspect`
    # it pulls in, would cost every run its start-up time.  `-S` keeps what
    # the interpreter's site hooks import out of the check.
    env = dict(os.environ, PYTHONPATH=str(Path(globalloops.__file__).parents[1]))
    probe = "import sys, globalloops.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def _modules_at_end(code, *flags):
    """The modules of a fresh interpreter, started with ``flags``, at the end
    of ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(globalloops.__file__).parents[1]))
    probe = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    argv = [sys.executable, *flags, "-c", probe]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


@cache
def _bare_modules():
    return _modules_at_end("pass")


def modules_loaded_by(code):
    """The modules that a fresh interpreter that runs ``code`` has loaded
    by its end and a bare one has not, so that what a site preloads does
    not count; ``code`` must run without an exception."""
    return _modules_at_end(code) - _bare_modules()


def oracle_loaded_by(code):
    """Whether a fresh interpreter that runs ``code`` has loaded the oracle
    by its end."""
    return "globalloops.oracle" in modules_loaded_by(code)


def run_main(argv):
    return f"from globalloops.cli import main\nassert main({argv!r}) == 0"


@pytest.fixture
def files(tmp_path):
    """An annulus with a contact arc on disk: (mesh, contacts, report path)."""
    K, contacts = corpus()["annulus+arc"]()
    mesh, arcs = tmp_path / "annulus.off", tmp_path / "arcs.txt"
    write_off(mesh, K)
    arcs.write_text("".join("%d %d\n" % K.edges[e] for e in sorted(contacts)))
    return str(mesh), str(arcs), str(tmp_path / "report.json")


class TestLazyOracle:
    """Only ``compute --verify`` and the package's ``verify`` and
    ``VerificationReport`` load the oracle."""

    @pytest.mark.parametrize("module", ["globalloops.cli", "globalloops"])
    def test_import_leaves_the_oracle_unloaded(self, module):
        assert not oracle_loaded_by(f"import {module}")

    def test_commands_without_verify_leave_it_unloaded(self, files):
        mesh, arcs, out = files
        assert not oracle_loaded_by(run_main(["compute", mesh, "--contacts", arcs, "--out", out]))
        assert not oracle_loaded_by(run_main(["info", mesh]))

    def test_verify_loads_it_and_passes(self, files):
        mesh, arcs, out = files
        argv = ["compute", mesh, "--contacts", arcs, "--verify", "--out", out]
        assert oracle_loaded_by(run_main(argv))
        assert json.loads(Path(out).read_text())["verification"]["passed"] is True

    def test_the_package_loads_it_on_first_use(self):
        assert oracle_loaded_by(
            "import globalloops\n"
            "assert 'globalloops.oracle' not in sys.modules\n"
            "from globalloops import VerificationReport, verify\n"
            "from globalloops import oracle\n"
            "assert verify is globalloops.verify is oracle.verify\n"
            "assert VerificationReport is oracle.VerificationReport\n"
            "assert {'verify', 'VerificationReport'} <= set(vars(globalloops))"
        )

    def test_the_package_names_are_unchanged(self):
        assert globalloops.__all__ == [
            "BoundaryPartition",
            "GeneratorSet",
            "SurfaceComplex",
            "VerificationReport",
            "build_complex",
            "classify_boundary",
            "compute_generators",
            "verify",
        ]
        assert globalloops.verify is oracle.verify
        with pytest.raises(AttributeError, match="no_such_name"):
            globalloops.no_such_name

    def test_cap_default_needs_no_oracle(self, capsys):
        assert oracle.DEFAULT_WORK_CAP is errors.DEFAULT_WORK_CAP == 2_000_000
        with pytest.raises(SystemExit) as done:
            main(["compute", "--help"])
        assert done.value.code == 0
        assert "(default 2000000)" in " ".join(capsys.readouterr().out.split())


class TestLeanStartUp:
    """Start-up and a plain run load neither argparse nor json: the plain
    argv reader stands in for the parser, and the report writer for the
    encoder.  Nor do they load the ``utf-8-sig`` codec: the input files are
    read as bytes.  Help and usage errors still go to argparse."""

    HEAVY = {"argparse", "json", "encodings.utf_8_sig"}

    def test_import_loads_neither(self):
        assert not self.HEAVY & modules_loaded_by("import globalloops.cli")

    def test_plain_commands_load_neither(self, files):
        mesh, arcs, out = files
        argv = ["compute", mesh, "--contacts", arcs, "--out", out]
        assert not self.HEAVY & modules_loaded_by(run_main(argv))
        assert not self.HEAVY & modules_loaded_by(run_main(["info", mesh]))

    def test_passing_verify_loads_neither(self, files):
        mesh, arcs, out = files
        argv = ["compute", mesh, "--contacts", arcs, "--verify", "--out", out]
        assert not self.HEAVY & modules_loaded_by(run_main(argv))
        assert json.loads(Path(out).read_text())["verification"]["passed"] is True

    @pytest.mark.parametrize("run", ["import", "compute"])
    def test_without_site_hooks_pathlib_stays_out_too(self, files, run):
        # Under -S no site hook preloads a module, so everything loaded
        # counts.  The records are plain named tuples, so typing stays out,
        # and re with it on import; the run's one-edge-port warning prints
        # its source line through linecache, which loads re.
        mesh, arcs, out = files
        argv = ["compute", mesh, "--contacts", arcs, "--out", out]
        code = run_main(argv) if run == "compute" else "import globalloops.cli"
        light = {"pathlib", "typing"} | ({"re"} if run == "import" else set())
        assert not (self.HEAVY | light) & _modules_at_end(code, "-S")

    @pytest.mark.parametrize("argv", [["compute", "--help"], ["unknown", "mesh.off"]])
    def test_help_and_usage_errors_load_argparse(self, argv):
        code = (
            "import contextlib\n"
            "from globalloops.cli import main\n"
            f"with contextlib.suppress(SystemExit):\n    main({argv!r})"
        )
        # Loaded by the end, whether or not the site had loaded it first.
        assert "argparse" in _modules_at_end(code)


# Words of argv: the commands, every option, their abbreviations and
# '=' forms, help, '--', negative and odd numbers ('²' is a digit that
# int() refuses, '٣' a decimal digit it reads), the empty string and
# values with spaces.
OPTIONS = ["--contacts", "--out", "--vtk", "--oracle-cap", "--verify"]
WORDS = [
    "compute", "info", "m.off", "arcs.txt", "x y", *OPTIONS,
    "--opt=v", "--out=r.json", "--cont", "--oracle", "--verify=1",
    "-h", "--help", "--", "-", "-1",
    "5", "007", "٣", "²", "1_0", " 5", "",
]
VALUES = [word for word in WORDS if not word.startswith("-")]
words = st.sampled_from(WORDS)


def phrase(option):
    """An option and its value, or --verify alone."""
    if option == "--verify":
        return st.just([option])
    numbers = [word for word in VALUES if word.isdecimal()]
    return st.sampled_from(numbers if option == "--oracle-cap" else VALUES).map(
        lambda value: [option, value]
    )


# ``info MESH``, or ``compute MESH`` with each option at most once, in any
# order: the argv the reader reads.
plain_argvs = st.sampled_from(VALUES).map(lambda mesh: ["info", mesh]) | st.builds(
    lambda mesh, phrases, at: ["compute", *sum(phrases[:at] + [[mesh]] + phrases[at:], [])],
    st.sampled_from(VALUES),
    st.lists(st.sampled_from(OPTIONS), unique=True, max_size=5).flatmap(
        lambda options: st.tuples(*map(phrase, options)).map(list)
    ),
    st.integers(0, 5),
)
# Any words, and plain argv with a word put in, repeated or taken out.
argvs = st.lists(words, max_size=9) | st.builds(
    lambda argv, at, word, change: (
        argv[:at] + [word] + argv[at:] if change == "put" else
        argv[:at] + argv[at:at + 1] + argv[at:] if change == "repeat" else
        argv[:at] + argv[at + 1:]
    ),
    plain_argvs,
    st.integers(0, 12),
    words,
    st.sampled_from(["put", "repeat", "take"]),
)


class TestPlainArgs:
    """``_plain_args`` reads the plain argv as the argparse parser does and
    leaves every other argv to it."""

    @settings(max_examples=300, deadline=None)
    @given(plain_argvs)
    def test_reads_the_plain_argv(self, argv):
        args = _plain_args(argv)
        assert args is not None
        assert vars(args) == vars(build_parser().parse_args(argv))

    @settings(max_examples=400, deadline=None)
    @given(argvs)
    @example(["compute", "m.off", "--contacts", "arcs.txt", "--verify", "--out", "",
              "--oracle-cap", "007", "--vtk", "x y"])
    @example(["compute", "--oracle-cap", "٣", "compute"])
    def test_agrees_with_argparse_where_it_accepts(self, argv):
        args = _plain_args(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["compute", "--help"], ["unknown", "m.off"], ["compute"],
        ["info", "m.off", "--verify"], ["compute", "m.off", "--cont", "c.txt"],
        ["compute", "m.off", "--out=r.json"], ["compute", "m.off", "--out"],
        ["compute", "m.off", "--verify", "--verify"], ["compute", "a.off", "b.off"],
        ["compute", "--", "m.off"], ["compute", "m.off", "--oracle-cap", "-1"],
        ["compute", "m.off", "--oracle-cap", "²"], ["compute", "m.off", "--oracle-cap", "1_0"],
        ["compute", "m.off", "--oracle-cap", "9" * 641],
    ])
    def test_leaves_every_other_argv_to_argparse(self, argv):
        assert _plain_args(argv) is None


def run_as_console_script(argv):
    """Run ``main()`` in a fresh interpreter whose ``sys.argv`` carries
    ``argv``: (exit code, stdout lines), the last line being the collector's
    ``isenabled()`` and whether anything is frozen, after ``main`` returned."""
    probe = (
        "import gc, sys\n"
        "from globalloops.cli import main\n"
        f"sys.argv = ['global-loops', *{argv!r}]\n"
        "code = main()\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(globalloops.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    return run.returncode, run.stdout.splitlines()


def cyclic_garbage(K, contacts):
    """Objects ``gc.collect()`` finds unreachable after each step of the
    pipeline, run with the collector off."""
    counts = {}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        K = build_complex(K.num_vertices, K.faces, coords=K.coords)
        counts["build_complex"] = gc.collect()
        gens = generators.compute_generators(K, contacts)
        counts["compute_generators"] = gc.collect()
        result = verify(K, classify_boundary(K, contacts), gens)
        assert result.passed
        counts["verify"] = gc.collect()
        meshio.report_text(K, gens, result)
        counts["report_text"] = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return counts


class TestCollector:
    """``main()`` owns its process: the collector stays frozen and off, on
    the premise that the commands leave no cyclic garbage.  ``main(argv)``
    leaves its caller's collector as it found it."""

    def test_the_pipeline_leaves_no_cyclic_garbage(self):
        K, contacts = corpus()["disjoint_union+arcs"]()
        fine = refine(refine(K))
        fine_contacts = set().union(*(meshes.boundary_arc(fine, c, 4) for c in range(3)))
        small, large = cyclic_garbage(K, contacts), cyclic_garbage(fine, fine_contacts)
        for counts in (small, large):
            assert counts == {
                "build_complex": 0,
                "compute_generators": 0,
                "verify": 0,
                "report_text": 0,
            }

    def test_console_script_turns_the_collector_off(self, tmp_path):
        K, contacts = corpus()["disjoint_union+arcs"]()
        mesh, arcs = tmp_path / "union.off", tmp_path / "arcs.txt"
        write_off(mesh, K)
        arcs.write_text("".join("%d %d\n" % K.edges[e] for e in sorted(contacts)))
        argv = ["compute", str(mesh), "--contacts", str(arcs), "--verify", "--out"]
        code, out = run_as_console_script([*argv, str(tmp_path / "child.json")])
        assert (code, out) == (0, ["False True"])
        assert main([*argv, str(tmp_path / "in_process.json")]) == 0
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_with_argv_leaves_the_collector_alone(self, tmp_path, capsys, enabled):
        mesh = str(write_annulus(tmp_path))
        frozen, was_enabled = gc.get_freeze_count(), gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in [
                (["compute", mesh], 0),
                (["info", mesh], 0),
                (["compute", str(tmp_path / "missing.off")], 1),
            ]:
                assert main(argv) == code
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            (gc.enable if was_enabled else gc.disable)()
