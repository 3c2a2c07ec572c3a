from pathlib import Path

import numpy as np
import pytest

from corrosim import cli
from corrosim.config import ConfigError, load_config, scenario_config
from corrosim.verify import suite_green_micro

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))


def write_config(path, scenario="fig1", t_end=100.0,
                 snapshots="0 25 50 75 100", extra=""):
    path.write_text(
        f"[run]\nscenario = {scenario}\nseed = 0\n\n"
        f"[time]\nt_end = {t_end}\nsnapshots = {snapshots}\n"
        f"{extra}")
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConfig:
    def test_scenario_defaults_resolve(self):
        cfg = scenario_config("fig1")
        assert cfg.grid.n_x == 16
        assert cfg.params.bi_m == pytest.approx(0.15)
        assert cfg.time.snapshot_times == (0.0, 80.0, 160.0, 240.0, 320.0, 400.0)

    def test_overrides_apply(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenario = fig1\n\n[grid]\nnx = 8\nny = 4\n\n"
                     "[time]\nt_end = 10\n")
        cfg = load_config(str(p))
        assert (cfg.grid.n_x, cfg.grid.n_y) == (8, 4)
        assert cfg.time.t_end == 10.0

    def test_missing_required_key_named(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenario = fig1\n\n[time]\nmode = fixed\n")
        with pytest.raises(ConfigError, match="time.t_end"):
            load_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenario = fig1\nwho = 1\n\n[time]\nt_end = 1\n")
        with pytest.raises(ConfigError, match="run.who"):
            load_config(str(p))

    def test_unknown_scenario_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenario = nope\n\n[time]\nt_end = 1\n")
        with pytest.raises(ConfigError, match="nope"):
            load_config(str(p))

    def test_default_step_follows_default_mode(self, tmp_path):
        # the scenario's default dt holds only while the file leaves the
        # mode alone; a file that sets the mode without a dt drops it
        assert (scenario_config("fig1").time.mode, scenario_config("fig1").time.dt) \
            == ("fixed", 0.2)
        fixed = scenario_config("fig1", mode="fixed")
        assert fixed.time.dt is None and "dt" not in fixed.resolved["time"]
        assert scenario_config("fig1", mode="fixed", dt=0.1).time.dt == 0.1
        adaptive = scenario_config("fig1", mode="adaptive")
        assert adaptive.time.dt is None and "dt" not in adaptive.resolved["time"]
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenario = fig1\n\n[time]\nt_end = 1\nmode = fixed\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 0
        assert "method rk4" in (out / "summary.txt").read_text().splitlines()

    @pytest.mark.parametrize("extra", ["", "dt = 0.2\n"], ids=["no-dt", "with-dt"])
    def test_rkc_mode_exits_2(self, tmp_path, capsys, extra):
        p = tmp_path / "c.ini"
        p.write_text(f"[run]\nscenario = zero\n\n[time]\nt_end = 1\nmode = rkc\n{extra}")
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "mode must be 'fixed' or 'adaptive', got 'rkc'" in capsys.readouterr().err

    def test_acid_kernel_key_exits_2(self, tmp_path, capsys):
        # the acid kernel is the identity; there is no key to choose another
        p = write_config(tmp_path / "c.ini", extra="\n[params]\nr_kind = identity\n")
        assert cli.main(["run", "--config", p, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'params.r_kind'" in capsys.readouterr().err

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        cfg = load_config(str(path))
        assert cfg.scenario == path.stem and cfg.time.mode == "fixed"

    @pytest.mark.parametrize("key,config", [
        ("time.t_end", dict(t_end="fast")),
        ("time.dt", dict(extra="dt = fast\n")),
        ("time.rtol", dict(extra="rtol = fast\n")),
        ("time.atol", dict(extra="atol = fast\n")),
        ("output.micro_slice_x", dict(extra="\n[output]\nmicro_slice_x = fast\n")),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_malformed_number_names_its_key(self, tmp_path, capsys, key, config):
        cfg = write_config(tmp_path / "c.ini", **config)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"key '{key}' must be a number" in capsys.readouterr().err

    def test_nan_snapshot_time_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", t_end=10.0, snapshots="0 nan 10")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "snapshot times must be finite" in capsys.readouterr().err

    def test_adaptive_with_a_step_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", t_end=1.0, snapshots="0 1",
                           extra="mode = adaptive\ndt = 0.1\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "adaptive mode" in capsys.readouterr().err

    def test_seed_only_on_verify(self):
        for command in ("run", "mms", "sweep"):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args([command, "--seed", "1"])
            assert exc.value.code == 2
        assert cli.build_parser().parse_args(["verify", "--seed", "1"]).seed == 1

    def test_hash_stable_under_key_order(self, tmp_path):
        a = tmp_path / "a.ini"
        a.write_text("[run]\nscenario = fig1\nseed = 3\n\n[time]\nt_end = 10\n")
        b = tmp_path / "b.ini"
        b.write_text("[time]\nt_end = 10\n\n[run]\nseed = 3\nscenario = fig1\n")
        assert load_config(str(a)).config_hash() == load_config(str(b)).config_hash()


class TestRunCommand:
    def test_zero_scenario_all_zero_profiles(self, tmp_path):
        cfg = write_config(tmp_path / "z.ini", scenario="zero", t_end=1.0,
                           snapshots="0 0.5 1")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "macro_profiles.csv")
        for row in rows:
            assert float(row[2]) == 0.0 and float(row[3]) == 0.0

    def test_fig1_outputs_and_monotone_gypsum(self, tmp_path):
        cfg = write_config(tmp_path / "f.ini")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        for name in ("macro_profiles.csv", "micro_slice_0.5.csv",
                     "energy.csv", "summary.txt"):
            assert (out / name).exists(), name
        summary = (out / "summary.txt").read_text().splitlines()
        # fig1 at 16^2 with steps of 0.2, beyond RK4's reach (0.133): rkc
        # with 3 stages, 500 steps to t = 100
        assert "method rkc" in summary and "stages_per_step 3" in summary
        assert "steps_accepted 500" in summary and "rhs_evaluations 1500" in summary
        header, rows = read_csv(out / "macro_profiles.csv")
        assert header == ["t", "x", "u1", "u4"]
        by_x: dict[str, list[float]] = {}
        for row in rows:
            by_x.setdefault(row[1], []).append(float(row[3]))
        for series in by_x.values():
            assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    def test_missing_key_exits_2(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenario = fig1\n")
        assert cli.main(["run", "--config", str(p), "--out",
                         str(tmp_path / "o")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "f.ini", t_end=50.0, snapshots="0 25 50")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("macro_profiles.csv", "micro_slice_0.5.csv",
                     "energy.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_diverged_run_writes_last_state(self, tmp_path, monkeypatch, capsys):
        from corrosim.integrator import DivergedError
        from corrosim.model import project_initial

        cfg = write_config(tmp_path / "f.ini", t_end=10.0, snapshots="0 10")
        resolved = load_config(cfg)
        last = project_initial(resolved.initial, resolved.params, resolved.grid)
        last.t = 4.25
        last.u4 += 0.5
        last.u3 += np.linspace(0.0, 1.0, last.u3.size).reshape(last.u3.shape)

        def diverge(*args, **kwargs):
            raise DivergedError("non-finite state at t=4.5", last_state=last)

        monkeypatch.setattr(cli, "integrate", diverge)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "diverged: non-finite state at t=4.5" in capsys.readouterr().err
        header, rows = read_csv(out / "diverged_state.csv")
        assert header == ["t", "x", "u1", "u4"]
        assert len(rows) == resolved.grid.n_x + 1
        assert all(float(r[0]) == 4.25 for r in rows)
        u1 = last.u1 + resolved.params.u1_d
        assert [float(r[2]) for r in rows] == list(u1)
        assert [float(r[3]) for r in rows] == list(last.u4)
        header, rows = read_csv(out / "diverged_micro.csv")
        assert header == ["t", "x", "y", "u2", "u3"]
        x, y = np.meshgrid(resolved.grid.x_nodes(), resolved.grid.y_nodes(),
                           indexing="ij")
        want = np.column_stack([np.full(x.size, 4.25), x.ravel(), y.ravel(),
                                last.u2.ravel(), last.u3.ravel()])
        assert np.array_equal(np.array(rows, dtype=float), want)
        assert not (out / "macro_profiles.csv").exists()

    @pytest.mark.parametrize("extra", [
        # fixed steps of 20 against a stiff exchange term: rkc with 315
        # stages is stable there, but undershoots in the acid field
        "mode = fixed\ndt = 20\n\n[params]\nbi_m = 50\n",
        # rkc far beyond its accuracy range: undershoots in the acid field
        "dt = 20\n",
    ], ids=["fixed-stiff-exchange", "rkc-large-dt"])
    def test_negative_state_exits_3_with_a_nonnegative_last_state(
            self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path / "f.ini", t_end=40.0, snapshots="0 20 40",
                           extra=extra)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "diverged: negative concentration u" in capsys.readouterr().err
        _, rows = read_csv(out / "diverged_state.csv")
        assert min(float(v) for row in rows for v in row[2:]) >= 0.0
        assert not (out / "macro_profiles.csv").exists()


    @pytest.mark.parametrize("bi_m", [0.3, 0.5, 1.0, 2.0])
    def test_coarse_stiff_exchange_finishes_under_rk4(self, tmp_path, bi_m):
        # at 8^2 the exchange row of the Gershgorin bound, not diffusion,
        # limits RK4's step; with the diffusion limit alone these runs go
        # negative at t = 0.625
        cfg = write_config(tmp_path / "f.ini", t_end=2.0, snapshots="0 1 2",
                           extra=f"mode = fixed\n\n[grid]\nnx = 8\nny = 8\n\n"
                                 f"[params]\nbi_m = {bi_m}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert "method rk4" in (out / "summary.txt").read_text().splitlines()
        for name in ("macro_profiles.csv", "micro_slice_0.5.csv"):
            _, rows = read_csv(out / name)
            assert min(float(v) for row in rows for v in row[2:]) >= 0.0


class TestMmsCommand:
    def test_single_level_is_usage_error(self, tmp_path):
        assert cli.main(["mms", "--levels", "1", "--out",
                         str(tmp_path / "o")]) == 2

    def test_defaults_write_table(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["mms", "--levels", "2", "--out", str(out)]) == 0
        header, rows = read_csv(out / "mms.csv")
        assert header[:7] == ["level", "N_x", "N_y", "e_u1", "e_u2", "e_u3", "e_u4"]
        assert len(rows) == 2
        assert float(rows[1][7]) >= 1.9  # p_u1 on the refined level

    def test_config_sets_the_base_grid(self, tmp_path):
        cfg = write_config(tmp_path / "f.ini", extra="\n[grid]\nnx = 4\nny = 4\n")
        out = tmp_path / "o"
        assert cli.main(["mms", "--config", cfg, "--levels", "2", "--out", str(out)]) == 0
        header, rows = read_csv(out / "mms.csv")
        assert [(r[1], r[2]) for r in rows] == [("4", "4"), ("8", "8")]
        first = (out / "mms.csv").read_text().splitlines()[0]
        assert first == f"# config {load_config(cfg).config_hash()}"

    @pytest.mark.parametrize("grid,key", [("length = 2\ncell_length = 3", "grid.length"),
                                          ("cell_length = 3", "grid.cell_length")],
                             ids=["length", "cell_length"])
    def test_non_unit_domain_is_usage_error(self, tmp_path, capsys, grid, key):
        # the manufactured solution lives on the unit square
        cfg = write_config(tmp_path / "f.ini",
                           extra=f"\n[grid]\n{grid}\nnx = 4\nny = 4\n")
        out = tmp_path / "o"
        assert cli.main(["mms", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_all_suites_pass(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["verify", "--out", str(out), "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert "all suites passed" in text
        header, rows = read_csv(out / "verify_report.csv")
        assert header == ["suite", "max_residual", "threshold", "passed"]
        assert all(row[3] == "1" for row in rows)
        names = {row[0] for row in rows}
        assert {"green_macro", "green_micro", "trace_inequality",
                "dissipation", "conservation", "positivity",
                "monotone_gypsum", "boundedness"} <= names

    def test_config_runs_fig1_and_hashes_the_seed(self, tmp_path, capsys):
        config = str(Path(__file__).parent.parent / "configs" / "fig1.ini")
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", config, "--seed", "1",
                         "--out", str(out)]) == 0
        assert "all suites passed" in capsys.readouterr().out
        first = (out / "verify_report.csv").read_text().splitlines()[0]
        chash = load_config(config, seed_override=1).config_hash()
        assert first == f"# config {chash}" and chash != load_config(config).config_hash()
        _, rows = read_csv(out / "verify_report.csv")
        assert len(rows) == 12 and all(row[3] == "1" for row in rows)

    def test_broken_ghost_closure_fails_green_micro(self, lower_bottom_ghost):
        # bottom flux data skewed by 0.05 lowers the ghost edge by 0.1
        lower_bottom_ghost(0.1)
        rng = np.random.default_rng(0)
        result = suite_green_micro(rng)
        assert not result.passed
        assert result.max_residual > result.threshold


class TestSweepCommand:
    def test_short_sweep_passes(self, tmp_path):
        cfg = write_config(tmp_path / "f.ini", t_end=50.0,
                           snapshots="0 10 20 30 40 50",
                           extra="\n[grid]\nnx = 8\nny = 8\n")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         "--levels", "3"]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert [r[1] for r in rows] == ["8", "16", "32"]
        _, ratio_rows = read_csv(out / "sweep_ratios.csv")
        assert all(r[3] == "1" for r in ratio_rows)
