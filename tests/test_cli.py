from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from corrosim import cli, verify
from corrosim.config import ConfigError, load_config, scenario_config
from corrosim.grids import GridSpec
from corrosim.model import State, _add_diffusion
from corrosim.verify import run_all, suite_green_micro

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


def perturbed(state, t, grid):
    """A copy of state at time t with u4 and, node by node, u3 changed, so
    that a transposed or shifted write of it shows."""
    last = State.view(t, state.y.copy(), grid)
    last.u4[...] += 0.5
    last.u3[...] += np.linspace(0.0, 1.0, last.u3.size).reshape(last.u3.shape)
    return last


def assert_diverged_files(out, last, grid, params):
    """diverged_state.csv and diverged_micro.csv hold `last` exactly, on the
    nodes of `grid`."""
    header, rows = read_csv(out / "diverged_state.csv")
    assert header == ["t", "x", "u1", "u4"]
    want = np.column_stack([np.full(grid.n_x + 1, last.t), grid.x_nodes(),
                            last.u1 + params.u1_d, last.u4])
    assert np.array_equal(np.array(rows, dtype=float), want)
    header, rows = read_csv(out / "diverged_micro.csv")
    assert header == ["t", "x", "y", "u2", "u3"]
    x, y = np.meshgrid(grid.x_nodes(), grid.y_nodes(), indexing="ij")
    want = np.column_stack([np.full(x.size, last.t), x.ravel(), y.ravel(),
                            last.u2.ravel(), last.u3.ravel()])
    assert np.array_equal(np.array(rows, dtype=float), want)


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
        # adaptive mode's tolerances are constants, not keys
        for key, run_line, time_line in (
                ("run.who", "who = 1\n", ""),
                ("time.rtol", "", "mode = adaptive\nrtol = 1e-6\n"),
                ("time.atol", "", "mode = adaptive\natol = 1e-9\n")):
            p = tmp_path / "c.ini"
            p.write_text(f"[run]\nscenario = fig1\n{run_line}\n"
                         f"[time]\nt_end = 1\n{time_line}")
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_config(str(p))

    def test_unknown_scenario_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenario = nope\n\n[time]\nt_end = 1\n")
        with pytest.raises(ConfigError, match="nope"):
            load_config(str(p))

    def test_zero_scenario_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "z.ini", scenario="zero", t_end=1.0,
                           snapshots="0 0.5 1")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown scenario 'zero'" in capsys.readouterr().err

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
        p.write_text(f"[run]\nscenario = dissipation\n\n[time]\nt_end = 1\nmode = rkc\n{extra}")
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

    @pytest.mark.parametrize("config,message", [
        pytest.param(dict(t_end="fast"), "key 'time.t_end' must be a number",
                     id="time.t_end-"),
        pytest.param(dict(extra="dt = fast\n"), "key 'time.dt' must be a number",
                     id="time.dt-"),
        # adaptive mode's tolerances are constants: the key itself is refused
        pytest.param(dict(extra="rtol = fast\n"), "unknown key 'time.rtol'",
                     id="time.rtol-"),
        pytest.param(dict(extra="atol = fast\n"), "unknown key 'time.atol'",
                     id="time.atol-"),
        pytest.param(dict(extra="\n[output]\nmicro_slice_x = fast\n"),
                     "key 'output.micro_slice_x' must be a number",
                     id="output.micro_slice_x-"),
    ])
    def test_malformed_number_names_its_key(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path / "c.ini", **config)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_nan_snapshot_time_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", t_end=10.0, snapshots="0 nan 10")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "snapshot times must be finite" in capsys.readouterr().err

    def test_adaptive_with_a_step_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", t_end=1.0, snapshots="0 1",
                           extra="mode = adaptive\ndt = 0.1\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "adaptive mode" in capsys.readouterr().err

    def test_seed_only_on_verify(self, tmp_path, monkeypatch):
        # the flags each command takes: verify alone has random input, mms
        # solves its built-in problem, and only mms chooses its levels;
        # run and sweep cannot start without a config file
        takes = {"run": ("--config",), "mms": ("--levels",),
                 "verify": ("--config", "--seed"), "sweep": ("--config",)}
        monkeypatch.chdir(tmp_path)
        for command, flags in takes.items():
            if command in ("run", "sweep"):
                with pytest.raises(SystemExit) as exc:
                    cli.main([command])
                assert exc.value.code == 2, command
            else:
                cli.build_parser().parse_args([command])
            for flag in ("--config", "--seed", "--levels"):
                argv = [command, flag, "1"]
                if flag in flags:
                    cli.build_parser().parse_args(argv)
                    continue
                with pytest.raises(SystemExit) as exc:
                    cli.build_parser().parse_args(argv)
                assert exc.value.code == 2, argv
        assert cli.build_parser().parse_args(["verify", "--seed", "1"]).seed == 1
        assert not any(tmp_path.iterdir())

    def test_hash_stable_under_key_order(self, tmp_path):
        a = tmp_path / "a.ini"
        a.write_text("[run]\nscenario = fig1\nseed = 3\n\n[time]\nt_end = 10\n")
        b = tmp_path / "b.ini"
        b.write_text("[time]\nt_end = 10\n\n[run]\nseed = 3\nscenario = fig1\n")
        assert load_config(str(a)).config_hash() == load_config(str(b)).config_hash()


class TestRunCommand:
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
        last = perturbed(project_initial(resolved.initial, resolved.params,
                                         resolved.grid), 4.25, resolved.grid)

        def diverge(*args, **kwargs):
            raise DivergedError("non-finite state at t=4.5", last_state=last)

        monkeypatch.setattr(cli, "integrate", diverge)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "diverged: non-finite state at t=4.5" in capsys.readouterr().err
        assert_diverged_files(out, last, resolved.grid, resolved.params)
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
        assert cli.main(["mms", "--levels", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out / "mms.csv")
        assert header == ["level", "N_x", "N_y", "e_u1", "e_u2", "e_u3", "e_u4",
                          "p_u1", "p_u2", "p_u3", "p_u4"]
        assert [row[:3] for row in rows] == [["0", "8", "8"], ["1", "16", "16"],
                                             ["2", "32", "32"]]
        errors = np.array([[float(v) for v in row[3:7]] for row in rows])
        orders = np.array([[float(v) for v in row[7:]] for row in rows])
        assert np.all(np.isnan(orders[0]))
        # each level's orders come from its own errors and the level above
        np.testing.assert_array_equal(orders[1:], np.log2(errors[:-1] / errors[1:]))
        assert np.all(orders[1:, 0] >= 1.9)  # p_u1 on the refined levels

    @pytest.mark.parametrize("grid", ["length = 2\ncell_length = 3", "cell_length = 3"],
                             ids=["length", "cell_length"])
    def test_non_unit_domain_is_usage_error(self, tmp_path, capsys, grid):
        # the manufactured solution lives on the unit square, so mms takes no
        # config that could move it off
        cfg = write_config(tmp_path / "f.ini",
                           extra=f"\n[grid]\n{grid}\nnx = 4\nny = 4\n")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main(["mms", "--config", cfg, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
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

    def test_diverged_trajectory_fails_positivity(self, tmp_path, capsys):
        # one fixed step of 20 drives u3 negative: the two fig1 suites fail,
        # the other ten still run and the report is written
        config = tmp_path / "f.ini"
        config.write_text("[run]\nscenario = fig1\n\n[time]\nt_end = 20\ndt = 20\n")
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "diverged: negative concentration u3" in text
        assert "FAILED: positivity monotone_gypsum" in text
        _, rows = read_csv(out / "verify_report.csv")
        assert len(rows) == 12
        failed = {row[0]: row[1] for row in rows if row[3] == "0"}
        assert failed == {"positivity": "inf", "monotone_gypsum": "inf"}

    @pytest.mark.parametrize("seed, residual", [(0, -706.1987712913333),
                                                (7, -714.4476754639272)])
    def test_identity_suites_keep_their_draw_order(self, seed, residual):
        # the trace suite draws after both green suites, so its worst
        # violation moves if any suite before it draws in another order
        trace = [r for r in run_all(seed, None) if r.name == "trace_inequality"]
        assert trace[0].max_residual == pytest.approx(residual, rel=1e-12)

    def test_nan_residual_fails_its_suite(self, monkeypatch):
        # NaN compares false with every threshold; a running max that
        # skipped it would report the suite as passed
        def nans(u):
            return np.full(len(u), np.nan)

        def nan_diffusion(state, params, grid, flux, surface, out):
            out.y[:] = np.nan
        monkeypatch.setattr(verify, "_add_diffusion", nan_diffusion)
        monkeypatch.setattr(verify, "trace_inequality_check",
                            lambda g, u: (nans(u), np.zeros(len(u))))
        monkeypatch.setattr(verify, "extension_product_residuals",
                            lambda g, u, *rest: {"macro_values": nans(u)})
        rng = np.random.default_rng(0)
        for result in (verify.suite_green_macro(rng), verify.suite_trace(rng),
                       *verify.suite_extensions(rng)[:1]):
            assert not result.passed and np.isnan(result.max_residual)

    def test_broken_ghost_closure_fails_green_micro(self, skew_bottom_flux):
        # the kernel folds flux + 0.1 into its Robin ghost at y = 0
        skew_bottom_flux(0.1)
        rng = np.random.default_rng(0)
        result = suite_green_micro(rng)
        assert not result.passed
        assert result.max_residual > result.threshold

    def test_green_suites_run_the_kernel_rhs_runs(self):
        assert verify._add_diffusion is _add_diffusion

    @pytest.mark.parametrize("suite, mutation", [
        ("green_macro", "reflection"), ("green_micro", "d2_d3"),
        ("green_macro", "h_x_h_y"), ("green_micro", "h_x_h_y")])
    def test_broken_diffusion_kernel_fails_its_suite(self, monkeypatch, suite, mutation):
        # the ghost at x = L taken as 1.1 u_{n_x-1} instead of u_{n_x-1};
        # d2 and d3 swapped; h_x and h_y swapped, which only a cell that is
        # not square shows
        original = verify._add_diffusion

        def broken(state, params, grid, flux, surface, out):
            if mutation == "d2_d3":
                params = replace(params, d2=params.d3, d3=params.d2)
            elif mutation == "h_x_h_y":
                grid = GridSpec(grid.cell_length, grid.length, grid.n_y, grid.n_x)
            original(state, params, grid, flux, surface, out)
            if mutation == "reflection":
                out.u1[-1] += 0.1 * params.d1 / grid.h_x**2 * state.u1[-2]
        monkeypatch.setattr(verify, "_add_diffusion", broken)
        rng = np.random.default_rng(0)
        result = getattr(verify, f"suite_{suite}")(rng)
        assert not result.passed
        assert result.max_residual > 1e-3


class TestSweepCommand:
    def test_short_sweep_passes(self, tmp_path):
        cfg = write_config(tmp_path / "f.ini", t_end=50.0,
                           snapshots="0 10 20 30 40 50",
                           extra="\n[grid]\nnx = 8\nny = 8\n")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert [r[1] for r in rows] == ["8", "16", "32"]
        _, ratio_rows = read_csv(out / "sweep_ratios.csv")
        assert all(r[3] == "1" for r in ratio_rows)

    def test_dissipation_config_sweep_passes(self, tmp_path):
        # its cell profile meets the Robin closure at y = 0, so the rate
        # norms stay bounded under refinement
        config = str(Path(__file__).parent.parent / "configs" / "dissipation.ini")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
        _, ratio_rows = read_csv(out / "sweep_ratios.csv")
        assert all(r[3] == "1" for r in ratio_rows)

    def test_diverged_level_writes_its_last_state(self, tmp_path, monkeypatch, capsys):
        # the second level diverges: its last state is written on its own,
        # refined grid, and no sweep table is
        from corrosim import diagnostics
        from corrosim.integrator import DivergedError, integrate

        cfg = write_config(tmp_path / "f.ini", t_end=1.0, snapshots="0 1",
                           extra="\n[grid]\nnx = 8\nny = 4\n")
        resolved = load_config(cfg)
        fine = resolved.grid.refine(2)
        diverged = []

        def diverge_on_fine(state0, params, grid, timespec):
            if grid.n_x == resolved.grid.n_x:
                return integrate(state0, params, grid, timespec)
            diverged.append(perturbed(state0, 0.75, grid))
            raise DivergedError("non-finite state at t=0.8", last_state=diverged[0])

        monkeypatch.setattr(diagnostics, "integrate", diverge_on_fine)
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert "diverged: non-finite state at t=0.8" in capsys.readouterr().err
        assert diverged[0].shape == (fine.n_x + 1, fine.n_y + 1)
        assert_diverged_files(out, diverged[0], fine, resolved.params)
        assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "mms", "verify"])
def test_unwritable_out_exits_2(tmp_path, monkeypatch, capsys, command):
    # --out names a regular file: main returns 2 with a one-line message, no
    # exception escapes, and verify stops before its suites
    def never(*args, **kwargs):
        raise AssertionError("verify ran its suites before making --out")

    monkeypatch.setattr(cli, "run_all", never)
    out = tmp_path / "afile"
    out.write_text("")
    cfg = write_config(tmp_path / "f.ini")
    extra = {"run": ["--config", cfg], "sweep": ["--config", cfg],
             "mms": ["--levels", "2"], "verify": []}[command]
    assert cli.main([command, *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("cannot write output: ")

