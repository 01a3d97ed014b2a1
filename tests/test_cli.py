import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nlrecover.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_OUTPUT,
    ConfigError,
    build_solver_configs,
    main,
    parse_data_spec,
    parse_lifting,
    resolve_rank,
    run_cluster_trial,
    run_trial,
    select_lambda,
)
import nlrecover.solvers
from nlrecover import cli, lifting
from nlrecover.lifting import LiftingSpec, kernel_tail_cost
from nlrecover.manifold import DegenerateRetractionError, MeasurementSubspace
from nlrecover.solvers import TRACE_COLUMNS, AltminConfig, RtrConfig, fit_subspace
from nlrecover.synth import ClusterSpec, UosSpec, cluster_assign, gen_clusters, gen_entry_mask

RECOVER_CFG = {
    "data": {"kind": "uos", "n": 6, "k": 2, "dim": 1, "pts_per": 8},
    "sensing": {"kind": "mask", "delta": 0.8},
    "lifting": {"kind": "monomial_kernel", "degree": 2, "offset": 1.0},
    "rank": "auto",
    "solver": "rtr2",
    "solver_options": {"eps_g": 1e-6, "max_iter": 200},
    "trials": 3,
    "seed": 0,
}

# rank-sweep sets the rank of each cell itself
RANK_SWEEP_CFG = {key: value for key, value in RECOVER_CFG.items() if key != "rank"}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture
def solves(monkeypatch):
    """The names of the solvers that the CLI calls during the test."""
    calls = []
    for name in ("rtr_solve", "rtr_solve_restarts", "altmin_solve"):
        def recorded(*args, _name=name, _solve=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
    return calls


class TestConfigParsing:
    def test_data_spec_round_trip(self):
        spec = parse_data_spec(RECOVER_CFG)
        assert isinstance(spec, UosSpec)
        assert spec.dims == (1, 1)
        cspec = parse_data_spec({"data": {"kind": "clusters", "n": 5, "k": 3, "pts_per": 20}})
        assert isinstance(cspec, ClusterSpec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_data_spec({"data": {"kind": "spirals"}})

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError, match="pts_per"):
            parse_data_spec({"data": {"kind": "uos", "n": 5}})

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_boolean_field_must_be_json_boolean(self, value):
        data = dict(RECOVER_CFG["data"], affine=value)
        with pytest.raises(ConfigError, match="field 'data.affine' must be true or false"):
            parse_data_spec({"data": data})
        assert parse_data_spec({"data": dict(data, affine=False)}).affine is False

    def test_lifting_routing(self):
        uos = parse_data_spec(RECOVER_CFG)
        clusters = parse_data_spec({"data": {"kind": "clusters", "n": 5, "k": 3, "pts_per": 20}})
        assert parse_lifting({}, uos).kind == "monomial_kernel"
        assert parse_lifting({}, clusters).kind == "gaussian_kernel"
        explicit = parse_lifting({"lifting": {"kind": "gaussian_kernel", "sigma": 1.0}}, uos)
        assert explicit.sigma == 1.0

    def test_solver_options_applied(self):
        cfg = dict(RECOVER_CFG, solver_options={"eps_g": 1e-4, "max_iter": 7})
        rtr = build_solver_configs(cfg, "rtr2")
        assert rtr.eps_g == 1e-4 and rtr.max_iter == 7
        alt = build_solver_configs({"solver_options": {"eps_x": 1e-3}}, "altmin1")
        assert alt.eps_x == 1e-3
        alt2 = build_solver_configs({}, "altmin2")
        assert alt2.inner == "trust_region"

    def test_solver_option_types(self):
        # an integer where a float is asked; null is no solver field's value
        rtr = build_solver_configs({"solver_options": {"eps_g": 1}}, "rtr2")
        assert rtr.eps_g == 1.0 and isinstance(rtr.eps_g, float)
        for options in ({"eps_g": None}, {"max_iter": None}, {"eps_h": None}):
            with pytest.raises(ConfigError, match="bad solver_options"):
                build_solver_configs({"solver_options": options}, "rtr2")

    def test_per_column_mask_sensing(self):
        # every mask-sensing command reads per_column, not only cluster
        target = np.random.default_rng(0).standard_normal((6, 20))
        cfg = {"sensing": {"kind": "mask", "delta": 0.5, "per_column": True}}
        meas, _ = cli.build_sensing(cfg, target, np.random.default_rng(1))
        assert (meas.mask.sum(axis=0) == 3).all()

    def test_bad_solver_option_rejected(self):
        with pytest.raises(ConfigError):
            build_solver_configs({"solver_options": {"unknown_knob": 1}}, "rtr2")

    def test_required_keys_alone_give_the_dataclass_defaults(self):
        # every default of a section is its dataclass's own; the CLI adds
        # only k = 1 and dim = 2 for union-of-subspaces data
        uos = {"kind": "uos", "n": 6, "k": 2, "dims": [1, 2], "pts_per": 4}
        assert parse_data_spec({"data": uos}) == UosSpec(n=6, k=2, dims=(1, 2), pts_per=4)
        assert (parse_data_spec({"data": {"kind": "uos", "n": 6, "pts_per": 4}})
                == UosSpec(n=6, k=1, dims=(2,), pts_per=4))
        clusters = {"kind": "clusters", "n": 5, "k": 3, "pts_per": 20}
        assert parse_data_spec({"data": clusters}) == ClusterSpec(n=5, k=3, pts_per=20)
        spec = parse_data_spec({"data": uos})
        for kind in ("monomial_kernel", "monomial_features", "gaussian_kernel"):
            assert parse_lifting({"lifting": {"kind": kind}}, spec) == LiftingSpec(kind, 6)
        assert parse_lifting({}, spec) == LiftingSpec("monomial_kernel", 6)
        assert build_solver_configs({}, "rtr2") == RtrConfig()
        assert build_solver_configs({}, "altmin1") == AltminConfig()

    def test_auto_rank_uses_lifted_rank(self):
        spec = UosSpec(n=6, k=2, dims=(1, 1), pts_per=10)
        from nlrecover.synth import gen_uos

        target, _ = gen_uos(spec, np.random.default_rng(0))
        lifting = parse_lifting({}, spec)
        rank = resolve_rank({"rank": "auto"}, lifting, spec, target)
        assert rank == 5  # 2 * C(3, 2) - 1 shared constant
        assert resolve_rank({"rank": 4}, lifting, spec, target) == 4


class TestRunTrial:
    def test_fully_observed_trivial_success(self):
        cfg = dict(RECOVER_CFG)
        cfg["sensing"] = {"kind": "mask", "delta": 1.0}
        row = run_trial(cfg, (0, 0), "rtr2")
        assert row["success"] == 1
        assert row["iters"] <= 1

    def test_restarts_keep_the_best_start(self, monkeypatch):
        # key (0, 2) at delta 0.6: the measured start ends at a spurious
        # minimum and the perturbed second start recovers the target
        cfg = dict(RECOVER_CFG, sensing={"kind": "mask", "delta": 0.6})
        single = run_trial(cfg, (0, 2), "rtr2")
        finals = []
        solve_one = nlrecover.solvers.rtr_solve

        def recorded(*args, **kwargs):
            z, trace = solve_one(*args, **kwargs)
            finals.append(trace.final.f)
            return z, trace

        monkeypatch.setattr(nlrecover.solvers, "rtr_solve", recorded)
        row = run_trial(dict(cfg, restarts=2), (0, 2), "rtr2")
        assert len(finals) == 2 and finals[0] == single["f_final"]
        assert row["f_final"] == min(finals) < single["f_final"]
        assert (single["success"], row["success"]) == (0, 1)

    def test_trial_reproducibility(self):
        a = run_trial(RECOVER_CFG, (0, 1), "rtr2")
        b = run_trial(RECOVER_CFG, (0, 1), "rtr2")
        assert a["rmse"] == b["rmse"]
        assert a["f_final"] == b["f_final"]


class TestRecoverCommand:
    def run(self, tmp_path, cfg, sub="out", extra=()):
        out = tmp_path / sub
        code = main([
            "recover", "--config", write_cfg(tmp_path, cfg), "--out", str(out), *extra
        ])
        return code, out

    def test_outputs_and_consistency(self, tmp_path):
        code, out = self.run(tmp_path, RECOVER_CFG)
        assert code == EXIT_OK
        rows = read_csv(out / "trials.csv")
        assert rows[0][:4] == ["trial", "seed", "rmse", "success"]
        assert len(rows) == 4  # header + 3 trials
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        flags = [int(r[3]) for r in rows[1:]]
        assert summary["aggregates"]["success_fraction"] == pytest.approx(np.mean(flags))
        for t in range(3):
            assert (out / f"trace_{t}.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = self.run(tmp_path, RECOVER_CFG, "out1")
        _, out2 = self.run(tmp_path, RECOVER_CFG, "out2")
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_trace_csv_format(self, tmp_path):
        # the trace of trial 0 as the CLI writes it: header TRACE_COLUMNS, one
        # line per record, floats with 17 significant digits (exact round trip)
        _, out = self.run(tmp_path, RECOVER_CFG, extra=("--trials", "1"))
        rows = read_csv(out / "trace_0.csv")
        trace = run_trial(RECOVER_CFG, (0, 0), "rtr2")["trace"]
        assert rows[0] == list(TRACE_COLUMNS)
        assert len(rows) == len(trace.records) + 1
        assert [float(row[1]) for row in rows[1:]] == trace.column("f")
        first_f = rows[1][1]
        assert len(first_f.replace(".", "").replace("-", "").lstrip("0")) >= 15

    def test_parallel_matches_serial(self, tmp_path):
        _, out1 = self.run(tmp_path, RECOVER_CFG, "serial")
        _, out2 = self.run(tmp_path, RECOVER_CFG, "parallel", extra=("--jobs", "2"))
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()

    def test_solver_override(self, tmp_path):
        cfg = dict(RECOVER_CFG, solver_options={"eps_x": 1e-5, "max_outer": 30, "max_inner": 30})
        code, out = self.run(tmp_path, cfg, extra=("--solver", "altmin1", "--trials", "1"))
        assert code == EXIT_OK

    @pytest.mark.parametrize("solver", ["rtr1", "rtr2", "altmin1", "altmin2", "simple"])
    def test_every_solver_name_runs(self, tmp_path, solves, solver):
        # each name runs its own solver; restarts apply to rtr1 and rtr2 alike
        rtr = solver.startswith("rtr")
        cfg = dict(RECOVER_CFG, trials=1, solver=solver,
                   solver_options={"max_iter": 20} if rtr else {"max_outer": 5})
        code, out = self.run(tmp_path, dict(cfg, restarts=2) if rtr else cfg)
        assert code == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["solver"] == solver
        assert solves == (["rtr_solve_restarts"] if rtr else ["altmin_solve"])

    def test_altmin2_step_column(self, tmp_path):
        # each round records the norm of its first accepted inner trust-region
        # step; only the final record, at the grad_tol exit, has none
        cfg = {k: v for k, v in RECOVER_CFG.items() if k != "solver_options"}
        code, out = self.run(tmp_path, cfg, extra=("--solver", "altmin2", "--trials", "1"))
        assert code == EXIT_OK
        rows = read_csv(out / "trace_0.csv")
        step = rows[0].index("step")
        assert [row[step] for row in rows[-1:]] == [""]
        assert len(rows) > 10 and all(float(row[step]) > 0.0 for row in rows[1:-1])

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["recover", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_missing_field_exit_code(self, tmp_path):
        cfg = {"data": {"kind": "uos", "n": 5, "pts_per": 4}}
        code = main(["recover", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("change,solver", [
        # rank at least the number of columns (ambient dimension 10)
        ({"rank": 50, "data": {"kind": "uos", "n": 6, "k": 2, "dim": 1, "pts_per": 5}}, "rtr2"),
        # N(40, 4) = 135751 explicit features, above the cap
        ({"lifting": {"kind": "monomial_features", "degree": 4},
          "data": {"kind": "uos", "n": 40, "k": 2, "dim": 1, "pts_per": 5}}, "rtr2"),
        # 30 dense measurements of a 3 x 8 matrix: no feasible point
        ({"sensing": {"kind": "dense", "m": 30},
          "data": {"kind": "uos", "n": 3, "k": 2, "dim": 1, "pts_per": 4}}, "altmin1"),
    ], ids=["rank_above_ambient", "features_above_cap", "dense_overdetermined"])
    def test_unsolvable_config_exit_code(self, tmp_path, capsys, change, solver):
        code, _ = self.run(tmp_path, dict(RECOVER_CFG, **change), extra=("--solver", solver))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize("change", [
        {"rank": "five"},
        {"sensing": {"kind": "dense", "m": "many"}},
        {"trials": "three"},
    ], ids=["rank", "dense_m", "trials"])
    def test_non_numeric_value_exit_code(self, tmp_path, capsys, change):
        code, _ = self.run(tmp_path, dict(RECOVER_CFG, **change))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        field = next(iter(change))
        assert len(err) == 1 and err[0].startswith(f"config error: field '{field}")

    @pytest.mark.parametrize("change,message", [
        ({"init": "randon"}, "unknown field 'init'"),
        ({"restarts": 3, "solver": "altmin1", "solver_options": {}}, "field 'restarts'"),
        ({"restarts": 0}, "field 'restarts'"),
        ({"restarts": 2, "init": "random"}, "unknown field 'init'"),
    ], ids=["unknown_init", "restarts_without_rtr2", "restarts_below_one", "restarts_with_random_init"])
    def test_start_field_exit_code(self, tmp_path, capsys, change, message):
        # the start is always the measured one: "init" is not a config key
        code, _ = self.run(tmp_path, dict(RECOVER_CFG, **change))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message}")

    @pytest.mark.parametrize("options,solver", [
        ({"armijo": {"beta": 1e-3}}, "altmin1"),
        ({"svd_policy": {"tau1": 1e-4}}, "altmin1"),
        ({"theta": 0.3}, "altmin1"),
        ({"rho_prime": 0.2}, "rtr2"),
        ({"tcg": {"kappa": 0.2}}, "rtr2"),
        ({"tcg": {"theta": 0.5}}, "rtr2"),
    ], ids=["armijo", "svd_policy", "theta", "rho_prime", "tcg_kappa", "tcg_theta"])
    def test_fixed_method_constant_exit_code(self, tmp_path, capsys, options, solver):
        # the method constants are not solver options
        cfg = dict(RECOVER_CFG, solver_options=options, trials=1)
        code, _ = self.run(tmp_path, cfg, extra=("--solver", solver))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad solver_options: ")

    @pytest.mark.parametrize("options,solver,field", [
        ({"eps_g": "1e-6"}, "rtr2", "eps_g"),
        ({"max_iter": 2.5}, "rtr2", "max_iter"),
    ], ids=["string_eps_g", "float_max_iter"])
    def test_mistyped_solver_option_exit_code(self, tmp_path, capsys, options, solver, field):
        # no string becomes a number and no fraction an integer
        cfg = dict(RECOVER_CFG, solver_options=options, trials=1)
        code, _ = self.run(tmp_path, cfg, extra=("--solver", solver))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        prefix = f"config error: bad solver_options: field 'solver_options.{field}' must be "
        assert len(err) == 1 and err[0].startswith(prefix)

    def test_degenerate_retraction_exit_code(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateRetractionError("U + H is numerically rank deficient")

        monkeypatch.setattr(cli, "rtr_solve", degenerate)
        code, out = self.run(tmp_path, RECOVER_CFG)
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.strip().splitlines() == [
            "numerical failure: U + H is numerically rank deficient"]
        assert not out.exists()  # a command writes nothing unless it runs to the end

    @pytest.mark.parametrize("noise_sigma,solver,pattern", [
        # the cost overflows to a finite f and an infinite gradient
        (1e70, "rtr2", r"gradient is not finite at iteration 0 \(norm inf\)"),
        (1e70, "altmin1", r"non-finite cost or gradient at round 0: f=\S+, "
                          r"\|\|grad_X\|\|=inf, \|\|grad_U\|\|=inf"),
        (1e70, "altmin2", r"non-finite cost or gradient at round 0: f=\S+, "
                          r"\|\|grad_X\|\|=inf, \|\|grad_U\|\|=inf"),
        # the lifting of the initial point overflows, and the SVD refuses it
        # before LAPACK sees it
        (1e77, "rtr2", "the 16 x 16 SVD input has 23 inf and 0 NaN entries"),
        (1e77, "altmin1", "the 16 x 16 SVD input has 23 inf and 0 NaN entries"),
        (1e77, "altmin2", "the 16 x 16 SVD input has 23 inf and 0 NaN entries"),
    ], ids=[f"{s}_{kind}" for kind in ("inf_gradient", "svd") for s in ("rtr2", "altmin1", "altmin2")])
    def test_overflowing_measurements_exit_code(self, tmp_path, capsys, noise_sigma, solver, pattern):
        # each ends in exit 3 and one stderr line, never as a solver status
        # or a traceback
        sensing = {"kind": "dense", "m": 40, "noise_sigma": noise_sigma}
        code, out = self.run(tmp_path, dict(RECOVER_CFG, sensing=sensing, solver=solver,
                                            solver_options={}, trials=1))
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(f"numerical failure: {pattern}", err[0]), err
        assert not out.exists()

    @staticmethod
    def run_from_shell(tmp_path, cfg):
        """`recover` as its own process without PYTHONWARNINGS, where numpy's
        RuntimeWarnings (overflow in the lifting) would print their own lines
        ahead of the failure's; pytest captures them in process. Returns the
        finished process and the --out path."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "nlrecover.cli", "recover", "--config",
                               write_cfg(tmp_path, cfg), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        return proc, out

    def test_numerical_failure_is_one_stderr_line_from_a_shell(self, tmp_path):
        # LAPACK's messages, which C code writes to stdout, are not covered
        cfg = dict(RECOVER_CFG, sensing={"kind": "dense", "m": 40, "noise_sigma": 1e77}, trials=1)
        proc, out = self.run_from_shell(tmp_path, cfg)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.splitlines() == [
            "numerical failure: the 16 x 16 SVD input has 23 inf and 0 NaN entries"]
        assert not out.exists()

    def test_overflowing_rank_kernel_is_one_stderr_line_from_a_shell(self, tmp_path):
        # rank "auto" counts the singular values of a kernel that overflows
        # everywhere: the rank refuses it before LAPACK sees it, so there is
        # no illegal-value message and no rank of 0 to reject as a config
        cfg = dict(RECOVER_CFG, lifting={"kind": "monomial_kernel", "degree": 2, "offset": 1e300},
                   trials=1)
        proc, out = self.run_from_shell(tmp_path, cfg)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.splitlines() == [
            "numerical failure: the 16 x 16 SVD input has 256 inf and 0 NaN entries"]
        assert "DLASCL" not in proc.stdout + proc.stderr
        assert not out.exists()

    def test_overflowing_dense_measurements_exit_code(self, tmp_path, capsys):
        # noise_sigma 1e308 overflows b itself: the measurement refuses it
        # before LAPACK sees it, where the start point's triangular solve
        # used to raise out of main
        cfg = dict(RECOVER_CFG, sensing={"kind": "dense", "m": 70, "noise_sigma": 1e308}, trials=1)
        code, out = self.run(tmp_path, cfg)
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "numerical failure: the length-70 measurement vector b has 5 inf and 0 NaN entries"]
        assert not out.exists()

    def test_failed_write_exit_code(self, tmp_path, capsys):
        # a write that fails after the solve is one stderr line and exit 4;
        # the tables written before it stay, and summary.json comes last
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        code, _ = self.run(tmp_path, RECOVER_CFG, extra=("--trials", "1"))
        assert code == EXIT_OUTPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("output error: ") and "summary.json" in err[0]
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace_0.csv", "trials.csv"]
        assert (out / "summary.json").is_dir()


class TestPhaseCommand:
    def test_small_grid(self, tmp_path):
        cfg = dict(RECOVER_CFG, trials=2,
                   grid={"deltas": [0.9], "param": "k", "values": [1, 2]})
        out = tmp_path / "out"
        code = main(["phase", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "heatmap.csv")
        assert rows[0] == ["k\\delta", "0.9"]
        assert len(rows) == 3
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0

    @pytest.mark.parametrize("data,param,values,read", [
        (RECOVER_CFG["data"], "dim", [1, 2], lambda spec: spec.dims),
        ({"kind": "clusters", "n": 5, "k": 2, "pts_per": 8}, "sigma_c", [0.5, 1],
         lambda spec: spec.sigma_c),
    ], ids=["dim", "sigma_c"])
    def test_data_parameter_sweep(self, tmp_path, monkeypatch, data, param, values, read):
        specs = []
        trial = cli.run_trial

        def recorded(cfg, seed_key, solver):
            specs.append(parse_data_spec(cfg))
            return trial(cfg, seed_key, solver)

        monkeypatch.setattr(cli, "run_trial", recorded)
        cfg = {key: value for key, value in RECOVER_CFG.items() if key != "lifting"}
        cfg.update(data=data, trials=1, grid={"deltas": [0.9], "param": param, "values": values})
        out = tmp_path / "out"
        assert main(["phase", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "heatmap.csv")
        assert [row[0] for row in rows] == [f"{param}\\delta", *map(str, values)]
        assert [read(spec) for spec in specs] == ([(1, 1), (2, 2)] if param == "dim" else [0.5, 1.0])


    def test_mask_section_of_the_config_kept(self, tmp_path, monkeypatch):
        # each cell sets only kind and delta; per_column comes from the config.
        # Every cell's first trial is built, and so checked, before any solve,
        # so each cell samples its first mask twice
        sampled = []
        sample = cli.gen_entry_mask

        def recorded(target, delta, rng, per_column=False):
            sampled.append((delta, per_column))
            return sample(target, delta, rng, per_column=per_column)

        monkeypatch.setattr(cli, "gen_entry_mask", recorded)
        cfg = dict(RECOVER_CFG, trials=1, sensing={"kind": "mask", "delta": 0.5, "per_column": True},
                   grid={"deltas": [0.8, 0.9], "param": "k", "values": [2]})
        out = tmp_path / "out"
        assert main(["phase", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        assert sampled == [(0.8, True), (0.9, True)] * 2


@pytest.mark.parametrize("command,change,field", [
    ("phase", {"grid": {"deltas": 0.5, "param": "k", "values": [2]}}, "grid.deltas"),
    ("phase", {"grid": {"deltas": [0.5], "param": "k", "values": 2}}, "grid.values"),
    ("rank-sweep", {"ranks": 3}, "ranks"),
    ("rank-sweep", {"rank_offsets": 0}, "rank_offsets"),
    ("phase", {"grid": [0.5]}, "grid"),
], ids=["grid_deltas", "grid_values", "ranks", "rank_offsets", "grid"])
def test_non_list_sweep_field_exit_code(tmp_path, capsys, command, change, field):
    cfg = dict(RANK_SWEEP_CFG if command == "rank-sweep" else RECOVER_CFG, trials=1, **change)
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    kind = "an object" if field == "grid" else "a list"
    assert len(err) == 1 and err[0].startswith(f"config error: field '{field}' must be {kind}")


@pytest.mark.parametrize("command,change,message", [
    ("phase", {"grid": {"deltas": [], "param": "k", "values": []}},
     "field 'grid.deltas' must be a list of at least one value, got []"),
    ("phase", {"grid": {"param": "k", "values": [2]}}, "missing field 'deltas' in grid"),
    ("phase", {"grid": {"deltas": [], "param": "k", "values": [2]}},
     "field 'grid.deltas' must be a list of at least one value, got []"),
    ("phase", {"grid": {"deltas": [0.5], "param": "k"}}, "missing field 'values' in grid"),
    ("phase", {"grid": {"deltas": [0.5], "param": "k", "values": []}},
     "field 'grid.values' must be a list of at least one value, got []"),
    ("rank-sweep", {"ranks": []}, "field 'ranks' must be a list of at least one value, got []"),
    ("rank-sweep", {"rank_offsets": []}, "field 'rank_offsets' must be a list of at least one value, got []"),
    # the true rank of this config is 5
    ("rank-sweep", {"rank_offsets": [-100]}, "field 'rank_offsets' leaves no rank >= 1 (the true rank is 5)"),
], ids=["empty_grid", "no_deltas", "empty_deltas", "no_values", "empty_values", "empty_ranks",
        "empty_rank_offsets", "offsets_below_rank_one"])
def test_sweep_that_solves_nothing_exit_code(tmp_path, capsys, solves, command, change, message):
    # a sweep without a cell writes no header-only file: it is a config error
    cfg = dict(RANK_SWEEP_CFG if command == "rank-sweep" else RECOVER_CFG, trials=1, **change)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
    assert solves == [] and not out.exists()


@pytest.mark.parametrize("command,field", [
    ("recover", "data"),
    ("recover", "sensing"),
    ("recover", "lifting"),
    ("recover", "solver_options"),
    ("noise", "lambda_schedule"),
])
def test_non_object_section_exit_code(tmp_path, capsys, command, field):
    cfg = dict(RECOVER_CFG, trials=1)
    if command == "noise":
        del cfg["trials"], cfg["solver"]  # noise solves one ladder with rtr2
    cfg[field] = 5
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: field '{field}' must be an object, got 5"]


@pytest.mark.parametrize("change,field,kind,section", [
    ({"data": dict(RECOVER_CFG["data"], n=6.7)}, "data.n", "an integer", "bad data: "),
    ({"sensing": {"kind": "mask", "delta": "0.8"}}, "sensing.delta", "a number", ""),
    ({"lifting": {"kind": "monomial_kernel", "degree": 2, "offset": True}}, "lifting.offset",
     "a number", "bad lifting: "),
    ({"rank": 2.5}, "rank", "an integer", ""),
    ({"data": {"kind": "uos", "n": 6, "k": 2, "dims": [2.7, "2"], "pts_per": 8}}, "data.dims",
     "a list of integers", "bad data: "),
], ids=["fraction_n", "string_delta", "boolean_offset", "fraction_rank", "mistyped_dims"])
def test_mistyped_number_exit_code(tmp_path, capsys, change, field, kind, section):
    # a number is never read from a string or a boolean, nor an integer
    # truncated from a fraction; a dataclass section prefixes its name
    cfg = dict(RECOVER_CFG, trials=1, **change)
    code = main(["recover", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {section}field '{field}' must be {kind}, got ")


NOISE_CFG = {
    "data": {"kind": "uos", "n": 5, "k": 2, "dim": 1, "pts_per": 6},
    "sensing": {"kind": "dense", "m": 50, "noise_sigma": 1e-3},
    "lambda_schedule": {"lambda0": 1e-4, "factor": 10.0, "steps": 6},
}


@pytest.mark.parametrize("command,cfg,extra,message", [
    ("recover", dict(RECOVER_CFG, lifting={"kind": "monomial_kernel", "degre": 3}), (),
     "bad lifting: unknown field 'lifting.degre'"),
    ("recover", dict(RECOVER_CFG, data=dict(RECOVER_CFG["data"], afine=True)), (),
     "bad data: unknown field 'data.afine'"),
    ("phase", dict(RECOVER_CFG, data={"kind": "clusters", "n": 5, "k": 2, "pts_per": 8},
                   grid={"deltas": [0.9], "param": "dim", "values": [1]}), (),
     "bad data: unknown field 'data.dim'"),
    ("recover", dict(RECOVER_CFG, data={"kind": "uos", "n": 6, "k": 0, "dims": [], "pts_per": 8}), (),
     "bad data: need k >= 1 subspaces and pts_per >= 1 points on each"),
    ("recover", dict(RECOVER_CFG, data=dict(RECOVER_CFG["data"], pts_per=0)), (),
     "bad data: need k >= 1 subspaces and pts_per >= 1 points on each"),
    ("recover", dict(RECOVER_CFG, data={"kind": "clusters", "n": 5, "k": 0, "pts_per": 8}), (),
     "bad data: need n, k and pts_per >= 1"),
    ("recover", dict(RECOVER_CFG, data={"kind": "clusters", "n": 0, "k": 2, "pts_per": 8}), (),
     "bad data: need n, k and pts_per >= 1"),
    ("recover", dict(RECOVER_CFG, sensing={"kind": "dense", "m": 0}), (),
     "dense sensing needs 1 <= m <= n*s = 96, got m=0"),
    ("recover", dict(RECOVER_CFG, sensing={"kind": "dense", "m": -3}), (),
     "dense sensing needs 1 <= m <= n*s = 96, got m=-3"),
    ("noise", dict(NOISE_CFG, lambda_schedule={"steps": 0}), (),
     "field 'lambda_schedule.steps' must be >= 1, got 0"),
    ("noise", dict(NOISE_CFG, lambda_schedule={"steps": -2}), (),
     "field 'lambda_schedule.steps' must be >= 1, got -2"),
    ("recover", dict(RECOVER_CFG, seed=-1), (), "field 'seed' must be >= 0, got -1"),
    ("recover", RECOVER_CFG, ("--seed", "-1"), "field 'seed' must be >= 0, got -1"),
    ("check", None, ("--seed", "-1"), "field 'seed' must be >= 0, got -1"),
    # every key of every section is one that some command reads
    ("recover", dict(RECOVER_CFG, solver_option={"max_iter": 3}), (), "unknown field 'solver_option'"),
    ("recover", dict(RECOVER_CFG, trails=2), (), "unknown field 'trails'"),
    ("recover", dict(RECOVER_CFG, lifting={"kind": "monomial_kernel", "sigma": 0.1}), (),
     "bad lifting: unknown field 'lifting.sigma'"),
    ("recover", dict(RECOVER_CFG, lifting={"kind": "monomial_features", "offset": 2.0}), (),
     "bad lifting: unknown field 'lifting.offset'"),
    ("recover", dict(RECOVER_CFG, lifting={"kind": "gaussian_kernel", "degree": 3}), (),
     "bad lifting: unknown field 'lifting.degree'"),
    ("recover", dict(RECOVER_CFG, sensing={"kind": "mask", "delta": 0.8, "per_col": True}), (),
     "unknown field 'sensing.per_col'"),
    ("recover", dict(RECOVER_CFG, sensing={"kind": "dense", "m": 40, "per_column": True}), (),
     "unknown field 'sensing.per_column'"),
    ("noise", dict(NOISE_CFG, lambda_schedule={"lambda0": 1e-4, "step": 3}), (),
     "unknown field 'lambda_schedule.step'"),
    ("phase", dict(RECOVER_CFG, grid={"delta": [0.5], "param": "k", "values": [2]}), (),
     "unknown field 'grid.delta'"),
    ("phase", dict(RECOVER_CFG, grid={"deltas": [0.5], "param": "kk", "values": []}), (),
     "unknown sweep parameter 'kk'"),
    ("phase", dict(RECOVER_CFG, grid={"deltas": [0.9], "param": "k", "values": ["2"]}), (),
     "bad data: field 'data.k' must be an integer, got '2'"),
    ("phase", dict(RECOVER_CFG, sensing={"kind": "dense", "m": 40},
                   grid={"deltas": [0.9], "param": "k", "values": [2]}), (),
     "unknown field 'sensing.m'"),
    ("cluster", {"data": {"kind": "clusters", "n": 4, "k": 2, "pts_per": 8},
                 "sensing": {"kind": "mask", "delta": 0.8}, "solver_options": {"max_iter": 5}}, (),
     "unknown field 'solver_options'"),
    ("noise", dict(NOISE_CFG, sensing={"kind": "dense", "m": 50, "noise_sigma": -1}), (),
     "bad sensing spec: noise_sigma must be >= 0, got -1.0"),
    ("noise", dict(NOISE_CFG, lambda_schedule={"factor": 0}), (),
     "field 'lambda_schedule.factor' must be > 1, got 0.0"),
    ("noise", dict(NOISE_CFG, lambda_schedule={"lambda0": -1e-4}), (),
     "field 'lambda_schedule.lambda0' must be > 0, got -0.0001"),
    ("recover", RECOVER_CFG, ("--jobs", "0"), "--jobs must be >= 1, got 0"),
    ("recover", RECOVER_CFG, ("--jobs", "-3"), "--jobs must be >= 1, got -3"),
    # a solver setting outside its range, and a JSON NaN for any number
    ("recover", dict(RECOVER_CFG, solver_options={"max_iter": -4}), (),
     "bad solver_options: max_iter must be >= 0, got -4"),
    ("recover", dict(RECOVER_CFG, solver_options={"eps_g": -1e-6}), (),
     "bad solver_options: eps_g must be >= 0, got -1e-06"),
    ("recover", dict(RECOVER_CFG, solver_options={"eps_h": -1}), (),
     "bad solver_options: eps_h must be >= 0, got -1.0"),
    ("recover", dict(RECOVER_CFG, solver_options={"tcg": {"max_inner": 0}}), (),
     "bad solver_options: unknown field 'solver_options.tcg'"),
    ("recover", dict(RECOVER_CFG, solver="altmin1", solver_options={"max_outer": -1}), (),
     "bad solver_options: max_outer must be >= 0, got -1"),
    ("recover", dict(RECOVER_CFG, solver="altmin1", solver_options={"max_inner": -1}), (),
     "bad solver_options: max_inner must be >= 0, got -1"),
    ("recover", dict(RECOVER_CFG, solver="altmin1", solver_options={"eps_x": -1e-6}), (),
     "bad solver_options: eps_x must be >= 0, got -1e-06"),
    ("recover", dict(RECOVER_CFG, solver="altmin1", solver_options={"eps_u": -1e-6}), (),
     "bad solver_options: eps_u must be >= 0, got -1e-06"),
    ("recover", dict(RECOVER_CFG, solver_options={"eps_g": float("nan")}), (),
     "bad solver_options: field 'solver_options.eps_g' must be a number, got nan"),
    ("recover", dict(RECOVER_CFG, sensing={"kind": "mask", "delta": float("nan")}), (),
     "field 'sensing.delta' must be a number, got nan"),
    # an explicit rank below 1, and ranks given both ways
    ("rank-sweep", dict(RANK_SWEEP_CFG, ranks=[0, 5]), (), "field 'ranks' must be >= 1, got 0"),
    ("rank-sweep", dict(RANK_SWEEP_CFG, ranks=[5], rank_offsets=[-1, 0, 1]), (),
     "field 'rank_offsets' does not apply when 'ranks' is given"),
    # a bad later cell of a sweep stops it before its first cell is solved
    ("phase", dict(RECOVER_CFG, grid={"deltas": [0.7, 0.9], "param": "k", "values": [1, 2, "x"]}), (),
     "bad data: field 'data.k' must be an integer, got 'x'"),
    ("phase", dict(RECOVER_CFG, grid={"deltas": [0.7, 1.5], "param": "k", "values": [2]}), (),
     "bad sensing spec: undersampling ratio must lie in (0, 1]"),
    ("rank-sweep", dict(RANK_SWEEP_CFG, ranks=[3, 4, 500]), (),
     "bad objective: rank 500 must satisfy 1 <= r < 16, the ambient dimension of the subspace"),
    # a Gaussian width whose square overflows or underflows to 0, at the
    # given width or at the continuation's widest rung (4 sigma)
    *(("cluster", {"data": {"kind": "clusters", "n": 4, "k": 2, "pts_per": 8},
                   "sensing": {"kind": "mask", "delta": 0.8},
                   "lifting": {"kind": "gaussian_kernel", "sigma": sigma}}, (), message)
      for sigma, message in [
          (1e300, "bad lifting: sigma must be positive with sigma^2 finite and above 0, got 1e+300"),
          (1e-300, "bad lifting: sigma must be positive with sigma^2 finite and above 0, got 1e-300"),
          (1e154, "bad lifting at width 4.0 x sigma: sigma must be positive with sigma^2 finite "
                  "and above 0, got 4e+154")]),
    # a rank the clustering pipeline's objective cannot take
    ("cluster", {"data": {"kind": "clusters", "n": 4, "k": 2, "pts_per": 8},
                 "sensing": {"kind": "mask", "delta": 0.8}, "rank": 50}, (),
     "bad objective: rank 50 must satisfy 1 <= r < 16, the ambient dimension of the subspace"),
    # features whose auto rank is the number of columns, below N(7, 2) = 36:
    # the truncated SVD of the 36 x 12 feature matrix needs r < 12
    ("recover", dict(RECOVER_CFG, data={"kind": "clusters", "n": 7, "k": 2, "pts_per": 6},
                     lifting={"kind": "monomial_features", "degree": 2}), (),
     "bad objective: rank 12 must satisfy 1 <= r < 12, the number of columns (the subspace's "
     "ambient dimension is 36)"),
], ids=["lifting_unknown_key", "data_unknown_key", "dim_sweep_over_clusters", "uos_no_subspace",
        "no_points", "no_clusters", "clusters_in_r0", "dense_no_measurement",
        "dense_negative_m", "no_lambda_steps", "negative_lambda_steps", "negative_config_seed",
        "negative_seed_flag", "check_negative_seed", "top_level_typo", "trials_typo",
        "sigma_on_monomial_kernel", "offset_on_features", "degree_on_gaussian", "sensing_typo",
        "per_column_on_dense", "lambda_schedule_typo", "grid_typo", "unknown_sweep_parameter",
        "mistyped_sweep_value", "dense_sensing_under_phase", "cluster_solver_options",
        "negative_noise_sigma", "zero_lambda_factor", "negative_lambda0", "zero_jobs",
        "negative_jobs", "negative_max_iter", "negative_eps_g", "negative_eps_h",
        "zero_tcg_max_inner", "negative_max_outer", "negative_altmin_max_inner",
        "negative_eps_x", "negative_eps_u", "nan_eps_g", "nan_delta", "rank_below_one",
        "ranks_and_rank_offsets", "late_phase_value", "late_phase_delta", "late_rank",
        "overflowing_sigma", "underflowing_sigma", "overflowing_ladder_sigma", "cluster_rank",
        "features_rank_at_columns"])
def test_rejected_input_exit_code(tmp_path, capsys, solves, command, cfg, extra, message):
    # a typo, a mistyped value or an empty size ends in one line on stderr
    # before any solve, never in a run of something else or a traceback,
    # and leaves no --out behind
    args = [command, *extra]
    if cfg is not None:
        args += ["--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
    assert solves == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/out", "file/out/deeper"])
def test_unwritable_out_exit_code(tmp_path, capsys, solves, out):
    # an --out that is, or would be under, a regular file is found before
    # any solve and touches nothing
    (tmp_path / "file").write_text("kept\n")
    args = ["recover", "--config", write_cfg(tmp_path, RECOVER_CFG), "--out", str(tmp_path / out)]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: --out {tmp_path / out} cannot be written: {tmp_path / 'file'} is not a "
        "writable directory"]
    assert solves == [] and (tmp_path / "file").read_text() == "kept\n"


def test_lambda_ladder_checked_before_the_first_rung(tmp_path, capsys, monkeypatch):
    # a factor that does not grow lambda is reported by name, and no rung runs
    solves = []
    solve_one = cli.rtr_solve

    def recorded(*args, **kwargs):
        solves.append(args)
        return solve_one(*args, **kwargs)

    monkeypatch.setattr(cli, "rtr_solve", recorded)
    cfg = dict(NOISE_CFG, lambda_schedule={"lambda0": 1e-4, "factor": 0, "steps": 3})
    code = main(["noise", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "lambda_schedule.factor" in err[0]
    assert solves == []


class TestSelectLambda:
    def test_canonical_shape(self):
        # fall, plateau at the floor, then steady overfit decay
        misfits = [1.3, 1.29, 1.28, 0.18, 0.17, 0.16, 0.02, 0.002, 0.0002]
        lifted = [1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 5e-2, 0.3, 0.5, 0.6]
        idx = select_lambda(misfits, lifted)
        assert idx == 3  # leftmost point of the floor plateau

    def test_noiseless_decay_to_floor(self):
        misfits = [1.0, 0.1, 0.01, 1e-3, 1e-8, 9e-9, 8.5e-9]
        lifted = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]
        idx = select_lambda(misfits, lifted)
        assert idx == 4  # the terminal tolerance floor

    def test_single_entry(self):
        assert select_lambda([0.5], [0.1]) == 0

    def test_no_plateau_falls_back_to_lifted_min(self):
        misfits = [1.0, 0.1, 0.01, 0.001]
        lifted = [0.5, 0.01, 0.2, 0.9]
        assert select_lambda(misfits, lifted) == 1


CLUSTER_CFG = {
    "data": {"kind": "clusters", "n": 4, "k": 2, "pts_per": 8},
    "sensing": {"kind": "mask", "delta": 0.8},
    "rank": "auto",
    "trials": 2,
    "seed": 1,
}


class TestClusterCommand:
    def run(self, tmp_path, cfg, sub="out", extra=()):
        out = tmp_path / sub
        code = main(["cluster", "--config", write_cfg(tmp_path, cfg), "--out", str(out), *extra])
        return code, out

    def test_cluster_trial_fields(self):
        cfg = {
            "data": {"kind": "clusters", "n": 5, "k": 2, "pts_per": 10},
            "sensing": {"kind": "mask", "delta": 0.8},
            "rank": "auto",
        }
        row = run_cluster_trial(cfg, (0, 0))
        assert 0.0 <= row["rand_index"] <= 1.0
        assert row["cluster_success"] in (0, 1)

    def test_command_outputs(self, tmp_path):
        code, out = self.run(tmp_path, CLUSTER_CFG)
        assert code == EXIT_OK
        rows = read_csv(out / "trials.csv")
        assert rows[0][2] == "rand_index"
        assert len(rows) == 3
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        fracs = [int(r[3]) for r in rows[1:]]
        assert summary["aggregates"]["cluster_success_fraction"] == pytest.approx(np.mean(fracs))
        assert summary["solver"] == "rtr2"

    def test_parallel_matches_serial(self, tmp_path):
        _, out1 = self.run(tmp_path, CLUSTER_CFG, "serial")
        _, out2 = self.run(tmp_path, CLUSTER_CFG, "parallel", extra=("--jobs", "2"))
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()

    def test_rejects_other_solvers(self, tmp_path, capsys):
        # the completion always runs rtr2, so the command reads no solver
        # key and takes no --solver flag
        code, out = self.run(tmp_path, dict(CLUSTER_CFG, solver="altmin1"))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.strip().splitlines() == ["config error: unknown field 'solver'"]
        assert not (out / "summary.json").exists()
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, CLUSTER_CFG, extra=("--solver", "altmin1"))
        assert exc.value.code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "nlrecover: error: unrecognized arguments: --solver altmin1")

    def test_overflowing_data_exit_code(self, tmp_path, capsys):
        # the lifting of the initial point overflows, and the SVD refuses it
        # before LAPACK sees it
        data = dict(CLUSTER_CFG["data"], sigma_c=1e200)
        code, out = self.run(tmp_path, dict(CLUSTER_CFG, data=data, trials=1))
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: the 16 x 16 SVD input has 0 inf and 124 NaN entries"]
        assert not out.exists()

    def test_per_column_must_be_json_boolean(self, tmp_path, capsys):
        sensing = dict(CLUSTER_CFG["sensing"], per_column="false")
        code, _ = self.run(tmp_path, dict(CLUSTER_CFG, sensing=sensing))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: field 'sensing.per_column' must be true or false, got 'false'"]


def reference_snap(obj, z, k, rng):
    """`_snap_columns` that lifts every candidate X whole and scores it with
    kernel_tail_cost."""
    labels = cluster_assign(z.x, k, rng)
    centers = np.stack([z.x[:, labels == j].mean(axis=1) for j in range(k)], axis=1)
    x = z.x.copy()
    mask = obj.measurement.mask
    for j in np.argsort(mask.sum(axis=0)):
        if mask[:, j].all():
            continue
        best = None
        for c in range(k):
            cand = x.copy()
            cand[~mask[:, j], j] = centers[~mask[:, j], c]
            f = kernel_tail_cost(obj.lifting.lift(cand).lifted, obj.rank_r)
            if best is None or f < best[0]:
                best = (f, cand)
        x = best[1]
    return fit_subspace(obj, x)


class TestSnapColumns:
    @pytest.mark.parametrize("k,seed,full_column", [(2, 0, False), (3, 1, False), (3, 2, True)],
                             ids=["k2", "k3", "k3_full_column"])
    def test_matches_lifting_every_candidate(self, k, seed, full_column, monkeypatch):
        # the snap builds each candidate's kernel from X's with one row and
        # column replaced; at the point the clustering pipeline snaps, it
        # picks the candidates that whole lifts pick
        rng = np.random.default_rng(seed)
        target, _ = gen_clusters(ClusterSpec(n=5, k=k, pts_per=12, sigma_c=0.5), rng)
        mask = gen_entry_mask(target, 0.6, rng, per_column=True).mask.copy()
        if full_column:
            mask[:, 4] = True
        snaps = []
        snap = cli._snap_columns

        def checked(obj, z, k, rng):
            ref_rng = np.random.default_rng()
            ref_rng.bit_generator.state = rng.bit_generator.state
            snapped = snap(obj, z, k, rng)
            snaps.append((z, snapped, reference_snap(obj, z, k, ref_rng)))
            return snapped

        monkeypatch.setattr(cli, "_snap_columns", checked)
        cli.cluster_complete(MeasurementSubspace.from_mask(mask, target), k, 2.5, rng)
        [(z, snapped, expected)] = snaps
        assert snapped.x.tobytes() == expected.x.tobytes()
        assert snapped.u.basis.tobytes() == expected.u.basis.tobytes()
        assert not np.array_equal(snapped.x, z.x)
        if full_column:
            assert np.array_equal(snapped.x[:, 4], z.x[:, 4])

    @pytest.mark.parametrize("k,seed,full_column", [(2, 0, False), (3, 1, False), (3, 2, True)],
                             ids=["k2", "k3", "k3_full_column"])
    def test_few_columns_take_the_exact_path(self, k, seed, full_column, monkeypatch):
        # the Rayleigh-Ritz bounds pick the candidate of at least nine in ten
        # snapped columns; only the rest score every candidate by eigvalsh
        rng = np.random.default_rng(seed)
        target, _ = gen_clusters(ClusterSpec(n=5, k=k, pts_per=12, sigma_c=0.5), rng)
        mask = gen_entry_mask(target, 0.6, rng, per_column=True).mask.copy()
        if full_column:
            mask[:, 4] = True
        exact, snaps = [], []
        tail_cost, snap = lifting.kernel_tail_cost, cli._snap_columns

        def counted_cost(k_mat, r):
            exact.append(k_mat.shape)
            return tail_cost(k_mat, r)

        def counted_snap(*args):
            monkeypatch.setattr(lifting, "kernel_tail_cost", counted_cost)
            snaps.append(snap(*args))
            monkeypatch.setattr(lifting, "kernel_tail_cost", tail_cost)
            return snaps[-1]

        monkeypatch.setattr(cli, "_snap_columns", counted_snap)
        cli.cluster_complete(MeasurementSubspace.from_mask(mask, target), k, 2.5, rng)
        assert len(snaps) == 1
        assert 10 * len(exact) <= (~mask).any(axis=0).sum()

    def test_no_candidate_from_an_empty_cluster(self):
        # 8 columns of two distinct points give k-means two clusters of the
        # three asked for; the empty one's center would be NaN, which
        # eigvalsh refused. Each column's own center reproduces it, and
        # keeps the kernel at rank 2
        x = np.random.default_rng(0).standard_normal((5, 2))[:, [0, 1] * 4]
        mask = np.ones(x.shape, dtype=bool)
        mask[:2, 0] = mask[3, 5] = False
        obj = cli.build_objective(LiftingSpec.gaussian(5, 2.5), 2, MeasurementSubspace.from_mask(mask, x))
        assert np.unique(cluster_assign(x, 3, np.random.default_rng(1))).tolist() == [0, 1]
        snapped = cli._snap_columns(obj, fit_subspace(obj, x), 3, np.random.default_rng(1))
        assert np.array_equal(snapped.x, x)


class TestRankSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        cfg = dict(RANK_SWEEP_CFG, trials=1, rank_offsets=[-1, 0, 1])
        out = tmp_path / "out"
        code = main(["rank-sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "rank_sweep.csv")
        assert rows[0] == ["rank", "is_true_rank", "success_fraction"]
        assert len(rows) == 4
        marked_true = [r for r in rows[1:] if r[1] == "1"]
        assert len(marked_true) == 1

    def test_offsets_below_rank_one_are_skipped(self, tmp_path):
        # the true rank of this config is 5: offset -5 would be rank 0
        cfg = dict(RANK_SWEEP_CFG, trials=1, rank_offsets=[-5, 0])
        out = tmp_path / "out"
        assert main(["rank-sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        assert [row[:2] for row in read_csv(out / "rank_sweep.csv")] == [
            ["rank", "is_true_rank"], ["5", "1"]]


# the top-level config keys each command reads
COMMAND_KEYS = {
    "recover": {"data", "sensing", "lifting", "rank", "solver", "solver_options", "seed", "trials",
                "restarts"},
    "phase": {"data", "sensing", "lifting", "rank", "solver", "solver_options", "seed", "trials",
              "restarts", "grid"},
    "noise": {"data", "sensing", "lifting", "rank", "solver_options", "seed", "lambda_schedule"},
    "cluster": {"data", "sensing", "lifting", "rank", "seed", "trials"},
    "rank-sweep": {"data", "sensing", "lifting", "solver", "solver_options", "seed", "trials",
                   "restarts", "ranks", "rank_offsets"},
}
# a valid config of each command, and a value for each key
COMMAND_CFGS = {
    "recover": RECOVER_CFG,
    "phase": dict(RECOVER_CFG, grid={"deltas": [0.9], "param": "k", "values": [2]}),
    "noise": NOISE_CFG,
    "cluster": CLUSTER_CFG,
    "rank-sweep": dict(RANK_SWEEP_CFG, rank_offsets=[0]),
}
KEY_VALUES = {"rank": 3, "solver": "rtr2", "solver_options": {"max_iter": 5}, "trials": 2, "restarts": 2,
              "grid": {"deltas": [0.9], "param": "k", "values": [2]},
              "lambda_schedule": {"steps": 2}, "ranks": [2], "rank_offsets": [0]}


def test_command_table():
    assert {name: set(keys) for name, (_, keys) in cli.COMMANDS.items()} == COMMAND_KEYS
    assert sum(map(len, COMMAND_KEYS.values())) == 42
    for name, cfg in COMMAND_CFGS.items():
        assert set(cfg) <= COMMAND_KEYS[name]


def _cli_outputs_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_check_configs_fit_their_commands():
    # tools/cli_outputs.py runs only configs whose keys their commands read
    module = _cli_outputs_tool()
    assert {command for command, _ in module.RUNS.values()} == {*COMMAND_KEYS, "check"}
    for command, cfg in module.RUNS.values():
        assert cfg is None if command == "check" else set(cfg) <= COMMAND_KEYS[command]


def test_output_compare_tells_roundoff_from_text(tmp_path, capsys):
    # --compare: identical runs, runs that differ in numbers only (with the
    # largest relative difference per file, and for a CSV file per column,
    # named by the header) and runs that differ in text
    runs = {
        "same": ({"a.csv": "x,1\n"}, {"a.csv": "x,1\n"}),
        "roundoff": ({"a.csv": "name,value,count\nx,1.0,2\n", "s.json": '{"f": 0.5}'},
                     {"a.csv": "name,value,count\nx,1.0000000000000002,2\n", "s.json": '{"f": 0.25}'}),
        # an integer column that moves 1 -> 0 does not hide a float column
        # that moves at roundoff
        "trace": ({"t.csv": "k,rho,hess_calls\n0,0.5,3\n1,2.0,1\n2,0.25,1\n"},
                  {"t.csv": "k,rho,hess_calls\n0,0.5000000000000001,3\n1,2.0,0\n2,0.25,0\n"}),
        "text": ({"a.csv": "x,1\n", "b.txt": "ok"}, {"a.csv": "y,1\n"}),
    }
    for side in (0, 1):
        for name, files in runs.items():
            (tmp_path / str(side) / name).mkdir(parents=True)
            for f, text in files[side].items():
                (tmp_path / str(side) / name / f).write_text(text)
    assert _cli_outputs_tool().compare(tmp_path / "0", tmp_path / "1") == 1
    assert capsys.readouterr().out.splitlines() == [
        "roundoff: numbers only: a.csv max rel diff 2.22e-16, s.json max rel diff 5.00e-01",
        "  a.csv value: differs in 1 row, largest relative difference 2.22e-16",
        "same: identical",
        "text: text differs: a.csv, b.txt (missing)",
        "trace: numbers only: t.csv max rel diff 1.00e+00",
        "  t.csv rho: differs in 1 row, largest relative difference 2.22e-16",
        "  t.csv hess_calls: differs in 2 rows, largest relative difference 1",
    ]


def test_output_compare_names_text_cells(tmp_path, capsys):
    # --compare on a CSV file that differs in text names each differing
    # column: a column with text cells gives its first FIRST_ROWS of them
    # (row below the header: cell -> cell, a blank cell as ''), a column
    # that differs in numbers only its largest relative difference; a
    # differing row count is reported too
    trace = [f"{k},{0.5 ** k},{'rand_plain' if k > 8 else 'exact'}" for k in range(12)]
    moved = [row.replace("rand_plain", "rand_power") if row.startswith("11,") else row
             for row in trace]
    moved[3] = "3,0.12500000000000003,exact"
    runs = {
        "svd": ("\n".join(["k,f,svd_mode", *trace, "12,0.0,"]),
                "\n".join(["k,f,svd_mode", *moved, "12,0.0,exact"])),
        "modes": ("k,mode\n" + "".join(f"{k},a\n" for k in range(5)),
                  "k,mode\n" + "".join(f"{k},b\n" for k in range(5))),
        "rows": ("k,f\n0,1.0\n1,0.5\n2,0.25\n", "k,f\n0,1.0\n1,0.5\n"),
    }
    for side in (0, 1):
        for name, texts in runs.items():
            (tmp_path / str(side) / name).mkdir(parents=True)
            (tmp_path / str(side) / name / "trace_0.csv").write_text(texts[side])
    tool = _cli_outputs_tool()
    assert tool.FIRST_ROWS == 3
    assert tool.compare(tmp_path / "0", tmp_path / "1") == 3
    assert capsys.readouterr().out.splitlines() == [
        "modes: text differs: trace_0.csv",
        "  trace_0.csv mode: 5 rows (0: a -> b, 1: a -> b, 2: a -> b, ...)",
        "rows: text differs: trace_0.csv",
        "  trace_0.csv: 3 rows -> 2 rows",
        "svd: text differs: trace_0.csv",
        "  trace_0.csv f: differs in 1 row, largest relative difference 2.22e-16",
        "  trace_0.csv svd_mode: 2 rows (11: rand_plain -> rand_power, 12: '' -> exact)",
    ]


@pytest.mark.parametrize("command,key", [
    (command, key) for command, keys in COMMAND_KEYS.items()
    for key in sorted(set().union(*COMMAND_KEYS.values()) - keys)])
def test_key_of_another_command_exit_code(tmp_path, capsys, solves, command, key):
    # a key that only other commands read is an unknown field, not ignored
    cfg = dict(COMMAND_CFGS[command], **{key: KEY_VALUES[key]})
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: unknown field '{key}'"]
    assert solves == []


# the fields each solver name fixes; solver_options sets only the others
FIXED_FIELDS = {
    "rtr1": {"use_hessian": False},
    "rtr2": {"use_hessian": True},
    "altmin1": {"inner": "gradient", "exact_svd": False},
    "altmin2": {"inner": "trust_region", "exact_svd": False},
    "simple": {"inner": "gradient", "max_inner": 1, "exact_svd": True, "schedule": "greedy"},
}


def test_solver_table():
    # one name per algorithm: the name alone fixes the method
    for name, fixed in FIXED_FIELDS.items():
        config_cls = RtrConfig if name.startswith("rtr") else AltminConfig
        assert cli.SOLVERS[name] == (config_cls, fixed)
        assert build_solver_configs({}, name) == config_cls(**fixed)
    assert set(cli.SOLVERS) == set(FIXED_FIELDS)
    # the values solver_options can set, summed over the names
    assert sum(len(fields(cls)) - len(fixed) for cls, fixed in cli.SOLVERS.values()) == 19
    # the two configs perfbench/workloads.py builds through the CLI
    assert build_solver_configs({}, "altmin1") == AltminConfig()
    assert (build_solver_configs({"solver_options": {"eps_g": 1e-6, "max_iter": 300}}, "rtr2")
            == RtrConfig(eps_g=1e-6, max_iter=300))


@pytest.mark.parametrize("solver,key", [
    (name, key) for name, fixed in FIXED_FIELDS.items()
    for key in sorted({*fixed, "use_hessian", "tcg"})])
def test_fixed_solver_field_exit_code(tmp_path, capsys, solves, solver, key):
    # a field the name fixes is an unknown field, even at the fixed value;
    # so are use_hessian (rtr1 is the first-order trust region) and tcg
    value = FIXED_FIELDS[solver].get(key, {"max_inner": 20} if key == "tcg" else False)
    cfg = dict(RECOVER_CFG, solver=solver, trials=1, solver_options={key: value})
    code = main(["recover", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: bad solver_options: unknown field 'solver_options.{key}'"]
    assert solves == []


@pytest.mark.parametrize("command,flag,message", [
    ("noise", ("--trials", "3"), "nlrecover: error: unrecognized arguments: --trials 3"),
    ("noise", ("--jobs", "2"), "nlrecover: error: unrecognized arguments: --jobs 2"),
    ("check", ("--out", "x"), "nlrecover: error: unrecognized arguments: --out x"),
    ("recover", ("--solver", "x"), "nlrecover recover: error: argument --solver: invalid choice: 'x'"),
    ("noise", ("--solver", "rtr2"), "nlrecover: error: unrecognized arguments: --solver rtr2"),
    ("cluster", ("--solver", "rtr2"), "nlrecover: error: unrecognized arguments: --solver rtr2"),
], ids=["noise_trials", "noise_jobs", "check_out", "recover_solver", "noise_solver", "cluster_solver"])
def test_unread_flag_exit_code(tmp_path, capsys, solves, command, flag, message):
    # the noise study solves one ladder, so it has no trials to count or
    # spread; noise and cluster always run rtr2; the self-check writes no
    # file; a flag error is one stderr line, like a config error
    args = [command, *flag]
    if command != "check":
        args += ["--config", write_cfg(tmp_path, NOISE_CFG), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert err.startswith(message)  # invalid choices go on to list the valid ones
    assert solves == []


class TestNoiseCommand:
    def test_small_ladder_outputs(self, tmp_path):
        cfg = {
            "data": {"kind": "uos", "n": 5, "k": 2, "dim": 1, "pts_per": 6},
            "sensing": {"kind": "dense", "m": 50, "noise_sigma": 1e-3},
            "lifting": {"kind": "monomial_kernel", "degree": 2, "offset": 1.0},
            "rank": "auto",
            "solver_options": {"eps_g": 1e-6, "max_iter": 120},
            "lambda_schedule": {"lambda0": 1e-4, "factor": 10.0, "steps": 6},
        }
        out = tmp_path / "out"
        code = main(["noise", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "lambda_ladder.csv")
        assert rows[0][0] == "lambda"
        assert len(rows) == 7
        selected = [r for r in rows[1:] if r[6] == "1"]
        assert len(selected) == 1
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert "lambda_star" in summary["aggregates"]
        assert summary["solver"] == "rtr2"

    def test_rung_status_and_hessian_products(self, tmp_path):
        # a rung that runs out of outer iterations says so in the file
        cfg = dict(NOISE_CFG, solver_options={"eps_g": 1e-6, "max_iter": 3})
        out = tmp_path / "out"
        code = main(["noise", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "lambda_ladder.csv")
        assert rows[0] == ["lambda", "misfit_noisy", "misfit_clean", "err_fro", "lifted_residual",
                           "iters", "selected", "status", "hess_calls"]
        assert "max_iter" in [r[7] for r in rows[1:]]
        assert all(r[7] in ("grad_tol", "max_iter", "stalled") for r in rows[1:])
        assert all(int(r[8]) >= int(r[5]) for r in rows[1:])

    def test_overflowing_measurements_exit_code(self, tmp_path, capsys):
        # as for recover: b overflows, and the ladder never starts
        cfg = dict(NOISE_CFG, sensing={"kind": "dense", "m": 50, "noise_sigma": 1e308})
        out = tmp_path / "out"
        code = main(["noise", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "numerical failure: the length-50 measurement vector b has 6 inf and 0 NaN entries"]
        assert not out.exists()

    def test_rejects_altmin(self, tmp_path, capsys):
        # the ladder always runs rtr2, so the command reads no solver key
        cfg = {
            "data": {"kind": "uos", "n": 5, "k": 2, "dim": 1, "pts_per": 6},
            "sensing": {"kind": "dense", "m": 50, "noise_sigma": 1e-3},
            "solver": "altmin1",
        }
        out = tmp_path / "out"
        code = main(["noise", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.strip().splitlines() == ["config error: unknown field 'solver'"]

    @pytest.mark.parametrize("solver", ["altmin1", "altmin2", "simple"])
    def test_ladder_rejects_a_solver_that_is_not_a_trust_region(self, solver, monkeypatch):
        # the ladder's warm starts run rtr_solve, so another name is refused
        # before an instance is built
        def unreachable(*args):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(cli, "_instance", unreachable)
        expect = f"noise continuation needs a trust-region solver (rtr1 or rtr2), got '{solver}'"
        with pytest.raises(ConfigError) as exc:
            cli.run_lambda_continuation(NOISE_CFG, 0, 1e-4, 10.0, 6, solver)
        assert str(exc.value) == expect


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert main(["check", "--seed", "0"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert len(lines) >= 5

    def test_check_prints_every_hessian_error(self, capsys):
        main(["check", "--seed", "0"])
        lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()}
        for label in ("monomial_kernel_d2", "gaussian_kernel", "monomial_features_d2"):
            line = lines[f"fd_check[{label}]"]
            assert float(line.split("hess_err=")[1].rstrip(")")) <= 1e-5


class TestRecoveryRegimes:
    def test_high_sampling_rate_mostly_recovers(self):
        cfg = {
            "data": {"kind": "uos", "n": 10, "k": 2, "dim": 2, "pts_per": 20},
            "sensing": {"kind": "mask", "delta": 0.9},
            "rank": "auto",
            "solver_options": {"eps_g": 1e-6, "max_iter": 400},
        }
        flags = [run_trial(cfg, (3, t), "rtr2")["success"] for t in range(5)]
        assert np.mean(flags) >= 0.8

    def test_impossible_below_kernel_rank(self):
        # 4 subspaces of dim 2 in R^15 at degree 2: the kernel has rank 21, so
        # with s = 20 <= 21 points it is not rank deficient and no estimated
        # rank below s can succeed
        cfg = {
            "data": {"kind": "uos", "n": 15, "k": 4, "dim": 2, "pts_per": 5},
            "sensing": {"kind": "mask", "delta": 0.8},
            "rank": 19,
            "solver_options": {"eps_g": 1e-6, "max_iter": 300},
        }
        flags = [run_trial(cfg, (6, t), "rtr2")["success"] for t in range(3)]
        assert sum(flags) == 0


class TestWarmStartContinuation:
    def test_warm_starts_do_not_cost_more(self):
        # along the lambda ladder, a warm-started solve at step j >= 2 takes
        # no more iterations than a cold start at the same lambda, on most seeds
        from nlrecover.cli import parse_lifting
        from nlrecover.objective import Objective
        from nlrecover.solvers import RtrConfig, default_init, rtr_solve
        from nlrecover.synth import UosSpec, gen_gaussian_sensing, gen_uos

        wins = 0
        total = 0
        for seed in range(6):
            rng = np.random.default_rng((seed, 77))
            target, _ = gen_uos(UosSpec(n=5, k=2, dims=(1, 1), pts_per=6), rng)
            meas, _ = gen_gaussian_sensing(target, 24, rng, 1e-3)
            spec = UosSpec(n=5, k=2, dims=(1, 1), pts_per=6)
            lifting = parse_lifting({}, spec)
            from nlrecover.synth import numerical_rank

            rank = numerical_rank(lifting.kernel(target), 1e-8)
            cfg = RtrConfig(eps_g=1e-6, max_iter=150)
            lambdas = [1e-3, 1e-2, 1e-1]
            z_warm = None
            for j, lam in enumerate(lambdas):
                obj = Objective(lifting=lifting, rank_r=rank, measurement=meas,
                                penalty_lambda=lam)
                cold0 = default_init(Objective(lifting=lifting, rank_r=rank, measurement=meas))
                _, tr_cold = rtr_solve(obj, cold0, cfg)
                z0 = cold0 if z_warm is None else z_warm
                z_warm, tr_warm = rtr_solve(obj, z0, cfg)
                if j >= 1:
                    total += 1
                    wins += tr_warm.final.k <= tr_cold.final.k
        assert wins / total >= 0.7


# the fuzz grammar: one small config per command and solver path, each of
# which solves in well under a second (max_iter and max_outer at most 8)
_FUZZ_UOS = {"kind": "uos", "n": 4, "k": 2, "dim": 1, "pts_per": 5}
_FUZZ_MASK = {"kind": "mask", "delta": 0.8}
FUZZ_CONFIGS = {
    "recover": {"data": _FUZZ_UOS, "sensing": _FUZZ_MASK,
                "lifting": {"kind": "monomial_kernel", "degree": 2, "offset": 1.0}, "rank": "auto",
                "solver": "rtr2", "solver_options": {"eps_g": 1e-6, "max_iter": 8}, "trials": 1, "seed": 0},
    "recover:gaussian": {"data": _FUZZ_UOS, "sensing": _FUZZ_MASK,
                         "lifting": {"kind": "gaussian_kernel", "sigma": 2.5}, "rank": 2,
                         "solver_options": {"max_iter": 8}, "seed": 0},
    "recover:features": {"data": _FUZZ_UOS, "sensing": _FUZZ_MASK,
                         "lifting": {"kind": "monomial_features", "degree": 2}, "rank": "auto",
                         "solver_options": {"max_iter": 8}, "seed": 0},
    "recover:dense": {"data": _FUZZ_UOS, "sensing": {"kind": "dense", "m": 15, "noise_sigma": 0.0},
                      "solver_options": {"max_iter": 8}, "seed": 0},
    "recover:rtr1": {"data": _FUZZ_UOS, "sensing": _FUZZ_MASK, "solver": "rtr1",
                     "solver_options": {"max_iter": 8}, "restarts": 2, "seed": 0},
    "recover:altmin1": {"data": _FUZZ_UOS, "sensing": _FUZZ_MASK, "solver": "altmin1",
                        "solver_options": {"eps_x": 1e-5, "max_outer": 8, "max_inner": 8}, "seed": 0},
    "recover:altmin2": {"data": _FUZZ_UOS, "sensing": _FUZZ_MASK, "solver": "altmin2",
                        "solver_options": {"eps_u": 1e-5, "max_outer": 8, "max_inner": 8}, "seed": 0},
    "phase": {"data": _FUZZ_UOS, "sensing": _FUZZ_MASK, "solver_options": {"max_iter": 8},
              "grid": {"param": "pts_per", "values": [5], "deltas": [0.8]}, "trials": 1, "seed": 0},
    "noise": {"data": _FUZZ_UOS, "sensing": {"kind": "dense", "m": 15, "noise_sigma": 1e-3},
              "solver_options": {"max_iter": 8},
              "lambda_schedule": {"lambda0": 1e-2, "factor": 10.0, "steps": 2}, "seed": 0},
    "cluster": {"data": {"kind": "clusters", "n": 3, "k": 2, "pts_per": 4, "sigma_c": 0.1},
                "sensing": {"kind": "mask", "delta": 0.8}, "lifting": {"kind": "gaussian_kernel", "sigma": 2.5},
                "trials": 1, "seed": 0},
    "rank-sweep": {"data": _FUZZ_UOS, "sensing": _FUZZ_MASK, "solver_options": {"max_iter": 8},
                   "ranks": [2, 3], "trials": 1, "seed": 0},
}
FUZZ_EDGES = (0, -1, 1e-300, 1e300, 1e308, 40, 200, float("nan"))
# the fields that scale the work take only the edges that cannot ask for a
# long run (200 clusters, or 200 trust-region iterations per trial)
FUZZ_SIZE_FIELDS = ("k", "pts_per", "trials", "max_iter", "max_outer", "max_inner", "steps")


def _fuzz_fields(cfg, prefix=()):
    """The paths of a config's leaf fields but the names that choose a kind,
    a solver or a sweep parameter."""
    paths = []
    for key, value in cfg.items():
        if isinstance(value, dict):
            paths += _fuzz_fields(value, prefix + (key,))
        elif key not in ("kind", "solver", "param"):
            paths.append(prefix + (key,))
    return paths


@st.composite
def fuzzed_configs(draw):
    """(command, config): a config of FUZZ_CONFIGS with one or two fields set
    to an edge value."""
    name = draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    cfg = json.loads(json.dumps(FUZZ_CONFIGS[name]))
    for path in draw(st.lists(st.sampled_from(_fuzz_fields(cfg)), min_size=1, max_size=2, unique=True)):
        edges = [v for v in FUZZ_EDGES if path[-1] not in FUZZ_SIZE_FIELDS or v not in (40, 200)]
        section = cfg
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = draw(st.sampled_from(edges))
    return name.split(":")[0], cfg


def _overflowed_measurements(name):
    """(command, config) of FUZZ_CONFIGS' name with noise_sigma 1e308, which
    overflows some entries of b to inf."""
    cfg = json.loads(json.dumps(FUZZ_CONFIGS[name]))
    cfg["sensing"]["noise_sigma"] = 1e308
    return name.split(":")[0], cfg


# the drawn set gives noise_sigma 1e308 only beside a config error, so the
# overflowed measurements of both dense commands are examples of their own
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fuzzed_configs())
@example(case=_overflowed_measurements("recover:dense"))
@example(case=_overflowed_measurements("noise"))
def test_fuzzed_config_ends_in_a_documented_exit(case):
    # every config ends in exit 0, 2, 3 or 4, with no exception out of main;
    # a failure prints one stderr line and leaves no --out
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "cfg.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", config_path, "--out", out])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OUTPUT)
        if code != EXIT_OK:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not os.path.exists(out)
