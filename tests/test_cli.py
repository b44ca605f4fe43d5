import csv
import json
import math
import os

import numpy as np
import pytest

from isac_beamkit.cli import (
    CSV_COLUMNS,
    ConfigError,
    RunConfig,
    apply_overrides,
    design_from_dict,
    design_to_dict,
    execute,
    export,
    load_scenario,
    scenario_from_dict,
)
from isac_beamkit.bench import SweepRow
from isac_beamkit.designs import HybridDesign, RxPhases

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def base_doc():
    with open(os.path.join(SCENARIO_DIR, "default.json")) as fh:
        return json.load(fh)


def small_doc():
    """Desk-scale scenario document for fast CLI runs."""
    doc = base_doc()
    doc["arrays"] = {
        "n_tx": 4, "n_rx": 4, "n_user": 2, "n_rf_tx": 2, "n_rf_rx": 2,
        "rx_architecture": "partially_connected",
    }
    doc["angle_prior"] = [
        {"weight": 0.6, "mean": -0.5, "variance": 3e-3},
        {"weight": 0.4, "mean": 0.7, "variance": 1e-3},
    ]
    doc["channel"] = {
        "type": "rician", "theta_user": 0.3, "distance_m": 120.0,
        "rician_factor_db": -7.0, "reference_gain_db": -30.0, "path_exponent": 3.0,
    }
    doc["rate_target_bits"] = 0.0
    doc["quadrature_points"] = 512
    doc["symbols"] = 16
    return doc


class TestLoadScenario:
    def test_default_file_parses_reference_values(self):
        sc = load_scenario(os.path.join(SCENARIO_DIR, "default.json"))
        assert sc.power == pytest.approx(1.0)
        assert sc.noise_comm == pytest.approx(1e-12)
        assert sc.rate_target == pytest.approx(4.5 * math.log(2.0))
        assert sc.arrays.n_tx == 8 and sc.arrays.n_rx == 12

    def test_divisibility_error_names_check(self, tmp_path):
        doc = base_doc()
        doc["arrays"]["n_rf_rx"] = 5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="divisible"):
            load_scenario(str(p))

    def test_missing_key_named(self):
        doc = base_doc()
        del doc["reflection_gamma"]
        with pytest.raises(ConfigError, match="reflection_gamma"):
            scenario_from_dict(doc)

    def test_override_single_field(self):
        doc = base_doc()
        sc0 = scenario_from_dict(doc)
        sc1 = scenario_from_dict(apply_overrides(doc, ["n_rf_tx=2"]))
        assert sc1.arrays.n_rf_tx == 2
        assert sc1.arrays.n_rx == sc0.arrays.n_rx
        assert sc1.power == sc0.power
        np.testing.assert_array_equal(sc1.channel.h, sc0.channel.h)

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="not in the scenario"):
            apply_overrides(base_doc(), ["bogus_key=1"])

    def test_override_unit_swap(self):
        doc = apply_overrides(base_doc(), ["power_w=0.5"])
        sc = scenario_from_dict(doc)
        assert sc.power == pytest.approx(0.5)


class TestDesignRoundTrip:
    def test_round_trip(self, rng):
        v = np.exp(2j * np.pi * rng.random((4, 2)))
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        r = x @ x.conj().T
        d = np.exp(2j * np.pi * rng.random(4))
        des = HybridDesign(v, (r,), RxPhases(d))
        back = design_from_dict(design_to_dict(des))
        np.testing.assert_array_equal(back.v_rf, des.v_rf)
        np.testing.assert_allclose(back.r_bb[0], des.r_bb[0], atol=1e-15)
        np.testing.assert_array_equal(back.rx.d, des.rx.d)


class TestExport:
    def rows(self):
        return [
            SweepRow("power_dbm", 0.1 + 0.2, "proposed", 0, 1.2345678912345e-6,
                     0.5, 0.5 / math.log(2.0), 3, True, 0.0),
            SweepRow("power_dbm", 10.0, "proposed", 1, float("nan"),
                     0.25, 0.25 / math.log(2.0), 0, False, 0.0),
        ]

    def test_csv_round_trip_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        export(self.rows(), str(path), "csv")
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CSV_COLUMNS
            recs = list(reader)
        assert float(recs[0]["value"]) == 0.1 + 0.2
        assert float(recs[0]["pcrb_theta"]) == 1.2345678912345e-6
        assert math.isnan(float(recs[1]["pcrb_theta"]))
        assert recs[0]["feasible"] == "true" and recs[1]["feasible"] == "false"

    def test_rate_units_identity(self, tmp_path):
        path = tmp_path / "out.csv"
        export(self.rows(), str(path), "csv")
        with open(path) as fh:
            for rec in csv.DictReader(fh):
                assert float(rec["rate_bits"]) == pytest.approx(
                    float(rec["rate_nats"]) / math.log(2.0), rel=1e-15
                )

    def test_json_mirror(self, tmp_path):
        path = tmp_path / "out.json"
        export(self.rows(), str(path), "json")
        recs = json.load(open(path))
        assert recs[0]["scheme"] == "proposed"
        assert recs[0]["value"] == 0.1 + 0.2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export([], str(tmp_path / "x.csv"), "csv")


class TestExecute:
    def _write(self, tmp_path, doc, name="sc.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_optimize_sensing_writes_report(self, tmp_path):
        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "report.json"
        code = execute(RunConfig("optimize-sensing", sc_path, str(out)))
        assert code == 0
        doc = json.load(open(out))
        assert doc["pcrb_theta"] > 0
        assert doc["feasible"] is True
        trace = doc["objective_trace"]
        assert all(trace[i + 1] <= trace[i] * (1 + 1e-10) for i in range(len(trace) - 1))

    def test_pcrb_command_round_trip(self, tmp_path):
        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "report.json"
        assert execute(RunConfig("optimize-sensing", sc_path, str(out))) == 0
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(json.load(open(out))["design"]))
        out2 = tmp_path / "pcrb.json"
        code = execute(
            RunConfig("pcrb", sc_path, str(out2), design_path=str(design_path))
        )
        assert code == 0
        doc = json.load(open(out2))
        assert doc["pcrb_theta"] == pytest.approx(
            json.load(open(out))["pcrb_theta"], rel=1e-9
        )
        assert doc["j_theta_alpha"] == [0.0, 0.0]

    def test_rate_constrained_report_is_json(self, tmp_path):
        doc = small_doc()
        doc["rate_target_bits"] = 1.0
        sc_path = self._write(tmp_path, doc)
        out = tmp_path / "report.json"
        assert execute(RunConfig("optimize-isac", sc_path, str(out))) == 0
        rep = json.load(open(out))
        assert rep["feasible"] is True
        assert rep["rate_bits"] >= 1.0 - 1e-6

    def test_infeasible_rate_exits_one_with_diagnostic(self, tmp_path):
        doc = small_doc()
        doc["rate_target_bits"] = 80.0
        sc_path = self._write(tmp_path, doc)
        out = tmp_path / "diag.json"
        code = execute(RunConfig("optimize-isac", sc_path, str(out)))
        assert code == 1
        diag = json.load(open(out))
        assert diag["error"] == "rate_infeasible"
        assert 0 < diag["max_rate_bits"] < 80.0

    def test_schema_error_exits_two(self, tmp_path):
        doc = small_doc()
        doc["arrays"]["n_rf_rx"] = 3  # 4 % 3 != 0
        sc_path = self._write(tmp_path, doc)
        assert execute(RunConfig("optimize-sensing", sc_path)) == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "path",
        [
            ("power_dbm",),
            ("noise_sense_dbm",),
            ("rate_target_bits",),
            ("reflection_gamma",),
            ("angle_prior", 0, "mean"),
            ("channel", "theta_user"),
        ],
    )
    def test_non_finite_input_exits_two(self, tmp_path, capsys, path, value):
        doc = small_doc()
        doc["rate_target_bits"] = 1.0
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        sc_path = self._write(tmp_path, doc)
        out = tmp_path / "report.json"
        assert execute(RunConfig("optimize-isac", sc_path, str(out))) == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_unexpected_exception_exits_two(self, tmp_path, monkeypatch, capsys):
        import isac_beamkit.cli as cli

        def broken(cfg, scenario):
            raise IndexError("index 0 is out of bounds")

        monkeypatch.setattr(cli, "_cmd_optimize", broken)
        sc_path = self._write(tmp_path, small_doc())
        assert execute(RunConfig("optimize-sensing", sc_path)) == 2
        assert "IndexError" in capsys.readouterr().err

    def test_sweep_row_count_and_byte_identical(self, tmp_path):
        sc_path = self._write(tmp_path, small_doc())
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = RunConfig(
                "sweep",
                sc_path,
                str(out),
                sweep_var="power_dbm",
                values=(0.0, 10.0, 20.0),
                schemes=("random_phase:2", "fully_digital"),
                seed=7,
            )
            assert execute(cfg) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode()
        assert len(text.strip().splitlines()) == 1 + 3 * 2

    @pytest.mark.parametrize(
        "args",
        [
            ("power_dbm", "20,abc"),
            ("power_dbm", "nan"),
            ("rate_target_bits", "1,inf"),
            ("n_rf_tx", "2.7"),
            ("n_rf_tx", "0,2"),
            ("n_rf_tx", "2,8"),
            ("n_rf_tx", "2,6"),   # more transmit chains than the 4 antennas
        ],
    )
    def test_bad_sweep_values_exit_two(self, tmp_path, capsys, args):
        from isac_beamkit.cli import main

        var, values = args
        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", sc_path, "--out", str(out), "--var", var, "--values", values,
                "--schemes", "fully_digital", "--budget", "8"]
        assert main(argv) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["sweep", "benchmark", "pattern"])
    def test_missing_out_exits_two_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        import isac_beamkit.cli as cli

        calls = []
        for name in ("sweep", "scheme_row", "run_scheme"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        sc_path = self._write(tmp_path, small_doc())
        cfg = RunConfig(command, sc_path, None, sweep_var="power_dbm", values=(0.0,),
                        schemes=("fully_digital",))
        assert execute(cfg) == 2
        assert calls == []
        assert "needs --out" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "benchmark"])
    @pytest.mark.parametrize("schemes", [",", " , ", ""])
    def test_empty_scheme_list_exits_two_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, schemes
    ):
        import isac_beamkit.cli as cli

        calls = []
        for name in ("sweep", "scheme_row", "run_scheme"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "out.csv"
        argv = [command, "--scenario", sc_path, "--out", str(out), "--schemes", schemes]
        if command == "sweep":
            argv += ["--var", "power_dbm", "--values", "0"]
        assert cli.main(argv) == 2
        assert calls == []
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: --schemes names no scheme")

    @pytest.mark.parametrize("seed", [-3, True, 2.0])
    def test_bad_scenario_seed_exits_two(self, tmp_path, capsys, seed):
        doc = small_doc()
        doc["seed"] = seed
        with pytest.raises(ConfigError, match="seed"):
            scenario_from_dict(doc)
        sc_path = self._write(tmp_path, doc)
        out = tmp_path / "report.json"
        assert execute(RunConfig("optimize-sensing", sc_path, str(out))) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")

    @pytest.mark.parametrize("field", ["subcarriers", "quadrature_points"])
    def test_boolean_integer_field_exits_two(self, tmp_path, capsys, field):
        doc = small_doc()
        doc[field] = True
        with pytest.raises(ConfigError, match=field):
            scenario_from_dict(doc)
        sc_path = self._write(tmp_path, doc)
        out = tmp_path / "report.json"
        assert execute(RunConfig("optimize-sensing", sc_path, str(out))) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {field} must be a positive integer")

    def test_direction_align_sweep_with_repeated_columns(self, tmp_path):
        # 7 chains over 4 prior components repeat the user column
        from isac_beamkit.cli import main

        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", os.path.join(SCENARIO_DIR, "default.json"),
                "--var", "n_rf_tx", "--values", "7", "--budget", "8",
                "--schemes", "direction_align", "--set", "rate_target_bits=2.0", "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["scheme"] == "direction_align" and rows[0]["feasible"] == "true"

    @pytest.mark.parametrize("command", ["optimize-sensing", "pcrb"])
    def test_negative_seed_override_exits_two(self, tmp_path, capsys, command):
        from isac_beamkit.cli import main

        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "report.json"
        argv = [command, "--scenario", sc_path, "--out", str(out), "--seed", "-3"]
        if command == "pcrb":
            report = tmp_path / "sensing.json"
            assert main(["optimize-sensing", "--scenario", sc_path, "--out", str(report)]) == 0
            design = tmp_path / "design.json"
            design.write_text(json.dumps(json.load(open(report))["design"]))
            argv += ["--design", str(design)]
        assert main(argv) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: --seed must be a non-negative integer")

    def test_pattern_command(self, tmp_path):
        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "pattern.csv"
        cfg = RunConfig("pattern", sc_path, str(out), scheme="fully_digital")
        assert execute(cfg) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 721
        assert all(float(r["power_w"]) >= 0 for r in rows)

    def test_benchmark_command(self, tmp_path):
        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "bench.csv"
        cfg = RunConfig(
            "benchmark", sc_path, str(out),
            schemes=("fully_digital", "random_phase:2", "proposed"),
        )
        assert execute(cfg) == 0
        with open(out) as fh:
            rows = {r["scheme"]: r for r in csv.DictReader(fh)}
        assert set(rows) == {"fully_digital", "random_phase:2", "proposed"}
        assert float(rows["proposed"].get("pcrb_theta")) <= float(
            rows["random_phase:2"]["pcrb_theta"]
        ) * (1 + 1e-9)

    @pytest.mark.parametrize(
        "label",
        ["random_phase:0", "random_phase:-3", "random_phase:abc", "no_such_scheme", "proposed:5"],
    )
    def test_bad_scheme_label_exits_two(self, tmp_path, capsys, label):
        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "bench.csv"
        code = execute(RunConfig("benchmark", sc_path, str(out), schemes=(label,)))
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scheme" in err

    def test_cli_main_parses(self, tmp_path):
        from isac_beamkit.cli import main

        sc_path = self._write(tmp_path, small_doc())
        out = tmp_path / "r.json"
        code = main(
            ["optimize-sensing", "--scenario", sc_path, "--out", str(out), "--set", "power_dbm=20"]
        )
        assert code == 0
        assert json.load(open(out))["pcrb_theta"] > 0
