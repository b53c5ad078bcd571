"""End-to-end tests of the command-line driver: config validation, exit
codes, verdicts, report determinism, and each subcommand's behaviour."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cevnorm import cli
from cevnorm.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_PASS,
    Config,
    main,
)
from cevnorm.simulate import draw_exceedances, write_csv

from conftest import make_model

CANONICAL = {
    "erv1": {"a": 1.0, "rho": 0.5, "kappa": 1.0},
    "erv2": {"a": 1.0, "rho": 0.5, "kappa": 1.0},
    "noise1": {"family": "gaussian"},
    "noise2": {"family": "gaussian"},
}
CONSTANT = {
    "erv1": {"rho": 0.0, "kappa": 0.0},
    "erv2": {"rho": 0.0, "kappa": 0.0},
    "noise1": {"family": "gaussian"},
    "noise2": {"family": "gaussian"},
}
SMALL_LEVELS = [0.1, 0.3, 0.5, 0.7, 0.9]


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(command, cfg_path, *extra):
    return main([command, "--config", str(cfg_path), *extra])


def read_report(out_dir, command):
    path = out_dir / f"report_{command.replace('-', '_')}.json"
    return json.loads(path.read_text())


def report_bytes_sans_clock(out_dir, command):
    rep = read_report(out_dir, command)
    rep.pop("wall_clock_s")
    return json.dumps(rep, sort_keys=True)


class TestConfigValidation:
    def test_invalid_rho_exits_2_with_field_path(self, tmp_path, capsys):
        cfg = {"model": {"erv1": {"rho": "x"}}, "io": {"output_dir": str(tmp_path)}}
        code = run("simulate", write_config(tmp_path, cfg))
        assert code == EXIT_CONFIG
        assert "model.erv1.rho" in capsys.readouterr().err

    @pytest.mark.parametrize("command, block, field", [
        ("verify-rn", {"analysis": {"thresholds": {"level": float("nan")}}},
         "analysis.thresholds.level"),
        ("simulate", {"run": {"t": float("inf")}}, "run.t"),
        ("simulate", {"run": {"t_list": [2.0, float("nan")]}}, "run.t_list[1]"),
        ("simulate", {"run": {"t_list": [2.0, 0.5]}}, "run.t_list[1]"),
        ("simulate", {"run": {"t_list": []}}, "run.t_list"),
        ("verify-rn", {"analysis": {"levels": [0.5, True]}}, "analysis.levels[1]"),
        ("simulate", {"model": {"perturbation": float("-inf")}}, "model.perturbation"),
        ("limit-h", {"analysis": {"x_grid": {"x1": [0.0, float("nan")], "x2": [0.0]}}},
         "analysis.x_grid.x1[1]"),
        ("diagnose", {"data": {"path": "absent.csv", "conditioning_column": "x0",
                               "value_columns": ["x1", "x2"], "p_t": 1.5}}, "data.p_t"),
        ("diagnose", {"data": {"path": "absent.csv", "conditioning_column": "x0",
                               "value_columns": ["x1", "x2"], "p_t": float("nan")}},
         "data.p_t"),
    ])
    def test_non_finite_or_out_of_range_exits_2_before_work(self, tmp_path, capsys,
                                                            command, block, field):
        out = tmp_path / "out"
        cfg = {"model": CANONICAL, "io": {"output_dir": str(out)}}
        for key, val in block.items():
            cfg[key] = {**cfg.get(key, {}), **val}
        # json.dumps writes NaN and Infinity, which json.load reads back
        assert run(command, write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_flags_reach_the_resolved_config_and_hash(self, tmp_path):
        path = write_config(tmp_path, {"model": CANONICAL, "run": {"seed": 1}})
        plain = Config.load(path)
        cfg = Config.load(path, seed=7, out=tmp_path / "o")
        assert cfg.resolved["run"]["seed"] == 7
        assert cfg.resolved["io"]["output_dir"] == str(tmp_path / "o")
        assert cfg.hash() != plain.hash()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = {"model": {"ervX": {}}, "io": {"output_dir": str(tmp_path)}}
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "model.ervX" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("simulate", tmp_path / "absent.json") == EXIT_CONFIG

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("simulate", path) == EXIT_CONFIG

    def test_b_floor(self, tmp_path):
        cfg = {"model": CANONICAL, "analysis": {"b": 10},
               "io": {"output_dir": str(tmp_path)}}
        assert run("verify-rn", write_config(tmp_path, cfg)) == EXIT_CONFIG

    def test_empty_grid_levels(self, tmp_path):
        cfg = {"model": CANONICAL, "analysis": {"grid_levels": []},
               "io": {"output_dir": str(tmp_path)}}
        assert run("verify-dn", write_config(tmp_path, cfg)) == EXIT_CONFIG

    def test_bad_schema_version(self, tmp_path):
        cfg = {"schema_version": 99, "model": CANONICAL}
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_CONFIG

    def test_capacity_limit(self, tmp_path):
        cfg = {"model": CANONICAL, "run": {"n": 10**9},
               "io": {"output_dir": str(tmp_path)}}
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_CONFIG

    def test_threads_must_be_positive(self, tmp_path, capsys):
        cfg = {"model": CANONICAL, "io": {"output_dir": str(tmp_path)}}
        code = run("simulate", write_config(tmp_path, cfg), "--threads", "0")
        assert code == EXIT_CONFIG

    def test_bad_threads_env_is_config_error(self, tmp_path, monkeypatch, capsys):
        cfg = {"model": CANONICAL, "analysis": {"grid_levels": [0.5]},
               "io": {"output_dir": str(tmp_path)}}
        monkeypatch.setenv("CEVNORM_THREADS", "abc")
        assert run("gap", write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "config error: CEVNORM_THREADS" in capsys.readouterr().err

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        path = tmp_path / "config.json"
        path.write_text(block)
        cfg = Config.load(path)
        assert cfg.run["n"] == 100_000
        assert cfg.analysis["thresholds"]["level"] == 0.01

    @pytest.mark.parametrize("command", ["simulate", "verify-rn", "verify-dn",
                                         "limit-h", "gap", "chi", "diagnose"])
    def test_help_lists_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--seed", "--threads", "--out"):
            assert flag in out


class TestSimulate:
    def test_csv_rows_and_determinism(self, tmp_path):
        cfg = {"model": CANONICAL, "run": {"n": 10, "seed": 1, "t": 10},
               "io": {"output_dir": str(tmp_path / "a")}}
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_PASS
        sample_path = tmp_path / "a" / "sample_t10_n10_seed1.csv"
        first = sample_path.read_bytes()
        assert first.decode().count("\n") == 11  # header + 10 rows
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_PASS
        assert sample_path.read_bytes() == first

    def test_t_list_writes_one_file_per_t(self, tmp_path):
        cfg = {"model": CANONICAL, "run": {"n": 5, "seed": 2,
                                           "t_list": [10, 20, 40]},
               "io": {"output_dir": str(tmp_path)}}
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_PASS
        for t in (10, 20, 40):
            assert (tmp_path / f"sample_t{t}_n5_seed2.csv").exists()

    def test_binary_format(self, tmp_path):
        cfg = {"model": CANONICAL, "run": {"n": 5, "seed": 2, "t": 10},
               "io": {"output_dir": str(tmp_path), "formats": ["csv", "binary"]}}
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_PASS
        assert (tmp_path / "sample_t10_n5_seed2.bin").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"model": CANONICAL, "run": {"n": 5, "seed": 2, "t": 10},
               "io": {"output_dir": str(tmp_path)}}
        assert run("simulate", write_config(tmp_path, cfg), "--seed", "77") == EXIT_PASS
        rep = read_report(tmp_path, "simulate")
        assert rep["config"]["run"]["seed"] == 77
        assert (tmp_path / "sample_t10_n5_seed77.csv").exists()

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = {"model": CANONICAL, "run": {"n": 5, "seed": 2, "t": 10},
               "io": {"output_dir": str(tmp_path / "ignored")}}
        dest = tmp_path / "flagged"
        assert run("simulate", write_config(tmp_path, cfg), "--out", str(dest)) == EXIT_PASS
        assert (dest / "sample_t10_n5_seed2.csv").exists()

    def test_threads_env_default(self, tmp_path, monkeypatch):
        cfg = {"model": CANONICAL, "run": {"n": 2000, "seed": 3, "t": 10},
               "io": {"output_dir": str(tmp_path / "env")}}
        monkeypatch.setenv("CEVNORM_THREADS", "2")
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_PASS
        monkeypatch.delenv("CEVNORM_THREADS")
        cfg["io"]["output_dir"] = str(tmp_path / "plain")
        assert run("simulate", write_config(tmp_path, cfg)) == EXIT_PASS
        a = (tmp_path / "env" / "sample_t10_n2000_seed3.csv").read_bytes()
        b = (tmp_path / "plain" / "sample_t10_n2000_seed3.csv").read_bytes()
        assert a == b


class TestVerify:
    def test_verify_rn_canonical_passes(self, tmp_path):
        cfg = {"model": CANONICAL,
               "run": {"n": 2 * 10**4, "seed": 0, "t": 50},
               "analysis": {"b": 99, "levels": SMALL_LEVELS,
                            "thresholds": {"delta_max": 0.02, "level": 0.01}},
               "io": {"output_dir": str(tmp_path)}}
        assert run("verify-rn", write_config(tmp_path, cfg)) == EXIT_PASS
        rep = read_report(tmp_path, "verify-rn")
        assert rep["metrics"]["delta"] < 0.02
        assert rep["verdicts"]["independence_not_rejected"] is True
        assert rep["metrics"]["ks1"] < 0.02 and rep["metrics"]["ks2"] < 0.02

    def test_verify_rn_negative_control_fails(self, tmp_path):
        model = dict(CANONICAL)
        cfg = {"model": {**model, "negative_control": True},
               "run": {"n": 10**4, "seed": 0, "t": 50},
               "analysis": {"b": 99, "levels": SMALL_LEVELS,
                            "thresholds": {"level": 0.01}},
               "io": {"output_dir": str(tmp_path)}}
        assert run("verify-rn", write_config(tmp_path, cfg)) == EXIT_FAIL
        rep = read_report(tmp_path, "verify-rn")
        assert rep["metrics"]["p_value"] == pytest.approx(1.0 / 100.0)

    def test_non_finite_pairs_exit_4(self, tmp_path, capsys):
        # beta1(x0) overflows at kappa 1e308, t 1e300, so every w1 is NaN
        model = {**CANONICAL, "erv1": {"a": 1e-300, "kappa": 1e308}}
        cfg = {"model": model, "run": {"n": 2000, "seed": 0, "t": 1e300},
               "analysis": {"b": 99,
                            "thresholds": {"delta_max": 0.5, "level": 0.01}},
               "io": {"output_dir": str(tmp_path / "out")}}
        with np.errstate(all="ignore"):
            code = run("verify-rn", write_config(tmp_path, cfg))
        assert code == EXIT_NUMERIC
        assert "2000 of 2000 rows are not finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report_verify_rn.json").exists()

    @pytest.mark.parametrize("command", ["chi", "simulate"])
    def test_non_finite_sample_exit_4(self, tmp_path, capsys, command):
        # at t = 1, beta1(x0) overflows to inf in 326 of the 2000 rows
        model = {**CANONICAL, "erv1": {"a": 1e-300, "kappa": 1e308}}
        out = tmp_path / "out"
        cfg = {"model": model, "run": {"n": 2000, "seed": 0, "t": 1.0},
               "analysis": {"p_levels": [0.5, 0.9]},
               "io": {"output_dir": str(out), "formats": ["csv", "binary"]}}
        with np.errstate(all="ignore"):
            code = run(command, write_config(tmp_path, cfg))
        assert code == EXIT_NUMERIC
        assert "326 of 2000 rows are not finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_non_finite_metric_writes_no_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli.COMMANDS, "gap",
                            lambda cfg, threads: ({"gap": 0.1, "argmax_x1": np.nan}, {}, []))
        cfg = {"io": {"output_dir": str(tmp_path / "out")}}
        assert run("gap", write_config(tmp_path, cfg)) == EXIT_NUMERIC
        assert "metric argmax_x1 is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report_gap.json").exists()

    def test_verify_dn_canonical(self, tmp_path):
        cfg = {"model": CANONICAL,
               "run": {"n": 2 * 10**4, "seed": 0, "t": 50},
               "analysis": {"b": 99, "levels": SMALL_LEVELS,
                            "grid_levels": SMALL_LEVELS,
                            "thresholds": {"sup_max": 0.02, "level": 0.01,
                                           "expect_dependence": True}},
               "io": {"output_dir": str(tmp_path)}}
        assert run("verify-dn", write_config(tmp_path, cfg)) == EXIT_PASS
        rep = read_report(tmp_path, "verify-dn")
        assert rep["metrics"]["sup_ecdf_h"] < 0.02
        assert rep["verdicts"]["independence_rejected"] is True

    def test_constant_model_norming_schemes_agree(self, tmp_path):
        base = {"run": {"n": 5000, "seed": 1, "t": 20},
                "analysis": {"b": 99, "levels": SMALL_LEVELS,
                             "grid_levels": SMALL_LEVELS}}
        cfg_rn = {"model": CONSTANT, **base, "io": {"output_dir": str(tmp_path / "rn")}}
        cfg_dn = {"model": CONSTANT, **base, "io": {"output_dir": str(tmp_path / "dn")}}
        run("verify-rn", write_config(tmp_path, cfg_rn, "rn.json"))
        run("verify-dn", write_config(tmp_path, cfg_dn, "dn.json"))
        rn = read_report(tmp_path / "rn", "verify-rn")["metrics"]
        dn = read_report(tmp_path / "dn", "verify-dn")["metrics"]
        assert rn["delta"] == dn["delta"]
        assert rn["p_value"] == dn["p_value"]

    def test_verify_dn_degenerate_first_coordinate_size(self, tmp_path):
        model = {"erv1": {"rho": 0.0, "kappa": 0.0},
                 "erv2": {"a": 1.0, "rho": 0.5, "kappa": 1.0},
                 "noise1": {"family": "gaussian"},
                 "noise2": {"family": "gaussian"}}
        not_rejected = 0
        for seed in range(10):
            cfg = {"model": model,
                   "run": {"n": 2 * 10**4, "seed": seed, "t": 50},
                   "analysis": {"b": 99, "levels": SMALL_LEVELS,
                                "grid_levels": SMALL_LEVELS,
                                "thresholds": {"level": 0.01}},
                   "io": {"output_dir": str(tmp_path / f"s{seed}")}}
            code = run("verify-dn", write_config(tmp_path, cfg, f"c{seed}.json"))
            if code == EXIT_PASS:
                not_rejected += 1
        assert not_rejected >= 9


class TestVerdictTable:
    """Each command applies its own thresholds and no others, whatever the
    config sets, and its exit code follows its verdicts."""

    KEYS = {
        "simulate": set(),
        "verify-rn": {"delta_below_max", "independence"},
        "verify-dn": {"ecdf_matches_H", "independence"},
        "limit-h": set(),
        "gap": {"gap_below_max", "gap_above_min"},
        "chi": set(),
        "diagnose": {"independence"},
    }

    @pytest.mark.parametrize("expect_dependence", [False, True])
    @pytest.mark.parametrize("command", list(KEYS))
    def test_verdict_keys_and_exit(self, tmp_path, canonical_model, command,
                                   expect_dependence):
        data_path = tmp_path / "data.csv"
        write_csv(draw_exceedances(canonical_model, 1.0, 2000, 0), data_path)
        levels = [0.25, 0.5, 0.75]
        cfg = {"model": CANONICAL,
               "run": {"n": 2000, "seed": 0, "t": 10},
               "analysis": {"b": 99, "levels": levels, "grid_levels": levels,
                            "p_levels": [0.5, 0.9],
                            "thresholds": {"delta_max": 0.5, "sup_max": 0.5,
                                           "level": 0.01, "gap_max": 0.01,
                                           "gap_min": 0.01,
                                           "expect_dependence": expect_dependence}},
               "data": {"path": str(data_path), "conditioning_column": "x0",
                        "value_columns": ["x1", "x2"]},
               "io": {"output_dir": str(tmp_path / "out")}}
        code = run(command, write_config(tmp_path, cfg))
        verdicts = read_report(tmp_path / "out", command)["verdicts"]
        independence = ("independence_rejected" if expect_dependence
                        else "independence_not_rejected")
        assert set(verdicts) == {independence if k == "independence" else k
                                 for k in self.KEYS[command]}
        assert code == (EXIT_PASS if all(verdicts.values()) else EXIT_FAIL)


class TestTracing:
    def test_limit_h_spans(self, tmp_path):
        """perfbench's tracer still finds the names it rebinds in the CLI."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        cfg = {"model": CANONICAL,
               "analysis": {"x_grid": {"x1": [0.0, 1.0], "x2": [0.0, 1.0]}},
               "io": {"output_dir": str(tmp_path)}}
        cfg_path = write_config(tmp_path, cfg)
        original = cli.write_report
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            with tracer.span("cli.main", command="limit-h") as main_span:
                assert run("limit-h", cfg_path) == EXIT_PASS
        assert cli.write_report is original
        (report,) = [s for s in tracer.spans if s["name"] == "cli.report"]
        assert report["command"] == "limit-h" and report["points"] == 4
        rows = [s for s in tracer.spans
                if s["name"] == "limits.H" and s["parent"] == main_span["id"]]
        assert len(rows) == 2


class TestSurfacesAndGap:
    def test_limit_h_surface_monotone(self, tmp_path):
        xs = [-1.0, 0.0, 1.0, 2.0, 4.0, 25.0]
        cfg = {"model": CANONICAL,
               "analysis": {"x_grid": {"x1": xs, "x2": xs}},
               "io": {"output_dir": str(tmp_path)}}
        assert run("limit-h", write_config(tmp_path, cfg)) == EXIT_PASS
        lines = (tmp_path / "limit_h_surface.csv").read_text().strip().splitlines()
        assert lines[0] == "x1,x2,H,H1H2,diff"
        H = np.array([float(ln.split(",")[2]) for ln in lines[1:]]).reshape(6, 6)
        assert np.all(np.diff(H, axis=0) >= -1e-9)
        assert np.all(np.diff(H, axis=1) >= -1e-9)
        assert H[-1, -1] > 0.9  # corner approaches total mass

    def test_gap_degenerate_model(self, tmp_path):
        cfg = {"model": CONSTANT,
               "analysis": {"grid_levels": SMALL_LEVELS,
                            "thresholds": {"gap_max": 1e-8}},
               "io": {"output_dir": str(tmp_path)}}
        assert run("gap", write_config(tmp_path, cfg)) == EXIT_PASS
        rep = read_report(tmp_path, "gap")
        assert rep["metrics"]["gap"] <= 1e-8
        assert (tmp_path / "gap_table.csv").exists()

    def test_gap_canonical_positive_and_reproducible(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"model": CANONICAL,
               "analysis": {"grid_levels": SMALL_LEVELS,
                            "thresholds": {"gap_min": 0.01}},
               "io": {"output_dir": str(out)}}
        cfg_path = write_config(tmp_path, cfg)
        assert run("gap", cfg_path) == EXIT_PASS
        first = report_bytes_sans_clock(out, "gap")
        table = (out / "gap_table.csv").read_bytes()
        assert run("gap", cfg_path) == EXIT_PASS
        assert report_bytes_sans_clock(out, "gap") == first
        assert (out / "gap_table.csv").read_bytes() == table
        assert read_report(out, "gap")["metrics"]["gap"] > 0.01

    def test_gap_unreachable_level_exits_4(self, tmp_path, capsys):
        # H1(x) ~ 1/x**2 far left: level 1e-30 lies beyond the +-1e12 bracket
        cfg = {"model": CANONICAL, "analysis": {"grid_levels": [1e-30, 0.5]},
               "io": {"output_dir": str(tmp_path)}}
        assert run("gap", write_config(tmp_path, cfg)) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical error" in err
        assert "1e-30" in err and "[-1e12, 1e12]" in err


class TestChi:
    def test_near_comonotone_model(self, tmp_path):
        # rho = 1, kappa = 1 with tiny noise makes X_i an almost strictly
        # increasing function of X0, so all three tails move together
        model = {"erv1": {"rho": 1.0, "kappa": 1.0},
                 "erv2": {"rho": 1.0, "kappa": 1.0},
                 "noise1": {"family": "gaussian", "scale": 1e-8},
                 "noise2": {"family": "gaussian", "scale": 1e-8}}
        cfg = {"model": model,
               "run": {"n": 10**4, "seed": 0},
               "analysis": {"p_levels": [0.5, 0.9]},
               "io": {"output_dir": str(tmp_path)}}
        assert run("chi", write_config(tmp_path, cfg)) == EXIT_PASS
        rep = read_report(tmp_path, "chi")
        assert rep["metrics"]["chi_0.5"] >= 0.9
        assert rep["metrics"]["chi_0.9"] >= 0.9

    def test_independent_synthetic(self, tmp_path):
        cfg = {"model": CONSTANT,
               "run": {"n": 10**5, "seed": 0},
               "analysis": {"p_levels": [0.5, 0.9]},
               "io": {"output_dir": str(tmp_path)}}
        assert run("chi", write_config(tmp_path, cfg)) == EXIT_PASS
        rep = read_report(tmp_path, "chi")
        assert rep["metrics"]["chi_0.5"] == pytest.approx(0.25, abs=0.01)
        assert rep["metrics"]["chi_0.9"] == pytest.approx(0.01, abs=0.006)

    def test_too_few_exceedances(self, tmp_path):
        cfg = {"model": CONSTANT, "run": {"n": 1000, "seed": 0},
               "analysis": {"p_levels": [0.999]},
               "io": {"output_dir": str(tmp_path)}}
        assert run("chi", write_config(tmp_path, cfg)) == EXIT_CONFIG


class TestDiagnose:
    def _data_csv(self, tmp_path, model, n=4000, seed=0):
        sample = draw_exceedances(model, 1.0, n, seed)
        path = tmp_path / "data.csv"
        write_csv(sample, path)
        return path

    def _cfg(self, tmp_path, data_path, **extra):
        return {"model": CANONICAL,
                "run": {"seed": 0},
                "analysis": {"b": 199, "levels": SMALL_LEVELS,
                             "thresholds": {"level": 0.01}},
                "data": {"path": str(data_path), "conditioning_column": "x0",
                         "value_columns": ["x1", "x2"], **extra},
                "io": {"output_dir": str(tmp_path)}}

    def test_simulated_data_passes(self, tmp_path, canonical_model):
        data_path = self._data_csv(tmp_path, canonical_model)
        cfg = self._cfg(tmp_path, data_path)
        assert run("diagnose", write_config(tmp_path, cfg)) == EXIT_PASS
        rep = read_report(tmp_path, "diagnose")
        assert rep["metrics"]["n_exceedances"] >= 150
        assert abs(rep["metrics"]["rho1"] - 0.5) < 0.35  # small-sample fit
        assert (tmp_path / "fitted_norming.json").exists()
        assert (tmp_path / "residuals.csv").exists()

    def test_uniform_noise_fits(self, tmp_path):
        data_path = self._data_csv(tmp_path, make_model(family="uniform"), n=2 * 10**4)
        cfg = self._cfg(tmp_path, data_path, family="uniform")
        assert run("diagnose", write_config(tmp_path, cfg)) == EXIT_PASS
        rep = read_report(tmp_path, "diagnose")
        assert abs(rep["metrics"]["rho1"] - 0.5) < 0.1
        assert abs(rep["metrics"]["rho2"] - 0.5) < 0.1

    def test_negative_control_detected(self, tmp_path):
        model = make_model(negative_control=True)
        data_path = self._data_csv(tmp_path, model, n=10**4)
        cfg = self._cfg(tmp_path, data_path)
        assert run("diagnose", write_config(tmp_path, cfg)) == EXIT_FAIL

    def test_missing_file_exit_3(self, tmp_path):
        cfg = self._cfg(tmp_path, tmp_path / "absent.csv")
        assert run("diagnose", write_config(tmp_path, cfg)) == EXIT_IO

    def test_header_only_data_exit_3(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        data_path.write_text("x0,x1,x2\n")
        cfg = self._cfg(tmp_path, data_path)
        assert run("diagnose", write_config(tmp_path, cfg)) == EXIT_IO
        assert "no clean numeric rows" in capsys.readouterr().err

    def test_undersized_data_exit_2(self, tmp_path, canonical_model, capsys):
        data_path = self._data_csv(tmp_path, canonical_model, n=50)
        cfg = self._cfg(tmp_path, data_path)
        assert run("diagnose", write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "100" in capsys.readouterr().err

    def test_missing_data_block(self, tmp_path):
        cfg = {"model": CANONICAL, "io": {"output_dir": str(tmp_path)}}
        assert run("diagnose", write_config(tmp_path, cfg)) == EXIT_CONFIG
