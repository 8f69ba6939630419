import csv

import pytest

import hhobiharm as hb
import hhobiharm.cli as cli
from hhobiharm.cli import main


def run(args):
    return main(args)


class TestMeshCommand:
    def test_rect(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["mesh", "--kind", "rect", "--n", "8",
                    "--out", str(out)]) == 0
        mesh = hb.load_mesh(out)
        assert mesh.n_cells == 64
        assert "valid" in capsys.readouterr().out

    def test_tri_cell_count_sequence_start(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["mesh", "--kind", "tri", "--n", "4", "--out", str(out)]) == 0
        assert hb.load_mesh(out).n_cells == 32

    def test_voronoi_deterministic(self, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        for o in (o1, o2):
            assert run(["mesh", "--kind", "voronoi", "--cells", "64",
                        "--seed", "42", "--out", str(o)]) == 0
        assert o1.read_text() == o2.read_text()


class TestSolveCommand:
    def test_patch_config(self, tmp_path, capsys):
        code = run(["solve", "--mesh-kind", "rect", "--n", "2", "--k", "1",
                    "--case", "poly3", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        err_line = [l for l in out.splitlines() if "err_h2_rel" in l][0]
        assert float(err_line.split("=")[1]) <= 1e-8

    def test_case1_smoke(self, tmp_path):
        code = run(["solve", "--mesh-kind", "rect", "--n", "16", "--k", "1",
                    "--case", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "report_A_k1_strong.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "level"
        assert float(rows[1][3]) > 0

    def test_nitsche_case2(self, tmp_path):
        code = run(["solve", "--mesh-kind", "voronoi", "--cells", "16",
                    "--seed", "7", "--k", "0", "--case", "2",
                    "--bc-mode", "nitsche", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_A_k0_nitsche.csv").exists()


class TestConvergenceCommand:
    def test_reproducible_csv_excluding_timings(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            code = run(["convergence", "--mesh-kind", "rect",
                        "--levels", "2,4,8", "--k", "0", "--case", "1",
                        "--out-dir", str(d)])
            assert code == 0
            with open(d / "report_A_k0_strong.csv") as fh:
                rows = [r[:7] for r in csv.reader(fh)]  # drop timing columns
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_needs_levels(self, tmp_path):
        code = run(["convergence", "--mesh-kind", "rect", "--k", "0",
                    "--case", "1", "--out-dir", str(tmp_path)])
        assert code == 2


class TestCompareCommand:
    def test_variants_three_csvs(self, tmp_path, capsys):
        code = run(["compare", "--what", "variants", "--mesh-kind", "voronoi",
                    "--levels", "8,16", "--seed", "3", "--k", "0",
                    "--case", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        for v in ("A", "B", "C"):
            assert (tmp_path / f"report_{v}_k0_strong.csv").exists()
        assert "max/min" in capsys.readouterr().out

    def test_bc_modes(self, tmp_path, capsys):
        code = run(["compare", "--what", "bc", "--mesh-kind", "rect",
                    "--levels", "2,4", "--k", "0", "--case", "2",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "strong/nitsche" in out

    @pytest.mark.parametrize("what, flags", [("variants", ["--bc-mode", "nitsche"]),
                                             ("bc", ["--variant", "C"])])
    def test_nitsche_variant_c_rejected_before_any_solve(
            self, what, flags, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("a family was solved")

        monkeypatch.setattr(hb.solving, "solve_and_measure", unreachable)
        code = run(["compare", "--what", what, *flags, "--mesh-kind", "rect",
                    "--levels", "2,4", "--k", "0", "--case", "2",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        assert "Nitsche" in capsys.readouterr().err


class TestConfigHandling:
    @pytest.mark.parametrize("command",
                             ["mesh", "solve", "convergence", "compare"])
    def test_print_config(self, command, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the mesh was built")

        monkeypatch.setattr(cli.RunConfig, "build_mesh", unreachable)
        assert run([command, "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "variant = A" in out
        assert "k = 1" in out

    def test_bad_bc_mode_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bc_mode = weak\n")
        assert run(["solve", "--config", str(cfg)]) == 2
        assert "'weak'" in capsys.readouterr().err

    def test_config_file_merge(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = B\nk = 2\n# comment\ncase = 1\n")
        assert run(["solve", "--config", str(cfg), "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "variant = B" in out
        assert "k = 2" in out

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = B\n")
        assert run(["solve", "--config", str(cfg), "--variant", "C",
                    "--print-config"]) == 0
        assert "variant = C" in capsys.readouterr().out

    def test_bad_key_exit2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nope = 1\n")
        assert run(["solve", "--config", str(cfg)]) == 2

    def test_bad_degree_exit2(self):
        assert run(["solve", "--k", "9"]) == 2

    def test_nitsche_variant_c_exit2(self):
        assert run(["solve", "--variant", "C", "--bc-mode", "nitsche"]) == 2

    def test_unknown_case_exit2(self, tmp_path):
        assert run(["solve", "--case", "bogus",
                    "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["threads", "rhs_extra_degree",
                                     "bc_extra_degree", "error_extra_degree",
                                     "solver", "cg_tol"])
    def test_removed_key_is_unknown(self, tmp_path, monkeypatch, capsys, key):
        def unreachable(*args, **kwargs):
            raise AssertionError("the mesh was built")

        monkeypatch.setattr(cli.RunConfig, "build_mesh", unreachable)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2\n")
        assert run(["solve", "--config", str(cfg),
                    "--out-dir", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--rhs-extra-degree", "3"],
                                      ["--solver", "cg"], ["--cg-tol", "0"]],
                             ids=["--rhs-extra-degree", "--solver", "--cg-tol"])
    def test_removed_flag_is_rejected(self, args):
        with pytest.raises(SystemExit) as exc:
            run(["solve"] + args)
        assert exc.value.code == 2

    def test_internal_key_error_is_not_a_config_error(self, tmp_path,
                                                      monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("face 3 carries no global unknowns")

        monkeypatch.setattr(cli, "solve_and_measure", broken)
        with pytest.raises(KeyError):
            run(["solve", "--mesh-kind", "rect", "--n", "2",
                 "--out-dir", str(tmp_path)])


class TestExitCodes:
    """2 for a bad configuration or mesh file, 3 for a failure inside the
    mesh layer that the configuration did not cause."""

    @pytest.mark.parametrize("args", [
        ["--mesh-kind", "rect", "--n", "0"],
        ["--mesh-kind", "tri", "--n", "-1"],
        ["--mesh-kind", "voronoi", "--cells", "0"]],
        ids=["rect-n0", "tri-n-1", "voronoi-cells0"])
    def test_size_below_one_is_a_config_error(self, args, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the mesh was built")

        monkeypatch.setattr(cli.RunConfig, "build_mesh", unreachable)
        assert run(["solve", *args]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_level_below_one_is_a_config_error(self, tmp_path, capsys):
        assert run(["convergence", "--mesh-kind", "rect", "--levels", "0,4",
                    "--k", "0", "--out-dir", str(tmp_path)]) == 2
        assert "--levels" in capsys.readouterr().err

    def test_malformed_mesh_file_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--mesh-kind", "file", "--mesh-file", str(bad),
                    "--out-dir", str(tmp_path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_mesh_file_is_a_config_error(self, tmp_path, capsys):
        assert run(["solve", "--mesh-kind", "file", "--mesh-file",
                    str(tmp_path / "absent.json"),
                    "--out-dir", str(tmp_path)]) == 2
        assert "cannot read mesh file" in capsys.readouterr().err

    # The generator's give-up, and the ear clipping inside a solve.
    @pytest.mark.parametrize("where,message", [
        ("build_voronoi_mesh",
         "Voronoi generation failed after 10 attempts: degenerate cell"),
        ("solve_and_measure",
         "ear clipping failed (self-intersecting polygon?)")],
        ids=["generator", "solve"])
    def test_mesh_layer_failure_exits_3(self, where, message, tmp_path,
                                        monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise hb.MeshError(message)

        monkeypatch.setattr(cli, where, failing)
        assert run(["solve", "--mesh-kind", "voronoi", "--cells", "16",
                    "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "mesh failure" in err and message in err
        assert "configuration error" not in err
