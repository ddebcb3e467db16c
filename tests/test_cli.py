"""Command line behavior and exit codes."""

import json

import pytest

import meshes
from globalloops import generators, meshio
from globalloops.cli import main
from globalloops.errors import CountMismatch
from globalloops.meshio import render_report, report_dict, write_off
from globalloops.oracle import verify
from globalloops.surface import classify_boundary


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
        path = tmp_path / "union.off"
        write_off(path, meshes.disjoint_union(meshes.csaszar_torus(), meshes.annulus(6)))
        assert main(["info", str(path)]) == 0
        assert "connected components=2" in capsys.readouterr().out


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
        expected = render_report(report_dict(K, gens, verify(K, partition, gens)))
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

    def test_internal_error_is_exit_four(self, tmp_path, capsys, monkeypatch):
        # A violated invariant is a bug, not bad input: exit 4, not 2.
        mesh = tmp_path / "torus.off"
        write_off(mesh, meshes.csaszar_torus())

        def broken(*args, **kwargs):
            raise CountMismatch("tree path revisits the transported edge pair")

        monkeypatch.setattr(generators, "transport", broken)
        assert main(["compute", str(mesh)]) == 4
        assert "internal error: tree path revisits" in capsys.readouterr().err

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


class TestBench:
    def test_smoke(self, tmp_path, capsys):
        mesh = write_annulus(tmp_path)
        code = main(
            ["bench", str(mesh), "--levels", "2", "--repeats", "1", "--fit-from", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fitted exponent" in out
        assert out.splitlines()[0].startswith("level")

    @pytest.mark.parametrize(
        "flags", [["--levels", "0"], ["--levels", "1", "--fit-from", "3"]]
    )
    def test_fewer_than_two_fitted_levels_is_exit_one(self, tmp_path, capsys, flags):
        # The growth fit needs two levels; refuse before refining or timing.
        mesh = write_annulus(tmp_path)
        assert main(["bench", str(mesh), "--repeats", "1", *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "two levels" in err[0]
