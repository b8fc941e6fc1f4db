import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sagnacsim
from sagnacsim.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def make_scan(tmp_path, name, *argv):
    out = tmp_path / name
    assert run_cli("simulate", "--out", out, *argv) == 0
    return out


class TestSimulate:
    def test_exact_qutrit_probability_column(self, tmp_path, capsys):
        out = make_scan(tmp_path, "d3_t1.csv", "--d", 3, "--t", 1, "--exact",
                        "--contrast", 1)
        printed = capsys.readouterr().out.strip()
        assert printed == str(out)
        rows = {float(r["theta_deg"]): float(r["probability"])
                for r in csv.DictReader(out.open())}
        assert rows[15.0] == pytest.approx(0.25, abs=1e-12)
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["dim"] == 3 and meta["t"] == 1.0 and meta["mode"] == "exact"

    def test_t_out_of_range_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--d", 2, "--t", 1.5, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_missing_dimension_exits_2(self, tmp_path):
        assert run_cli("simulate", "--t", 0.5, "--out", tmp_path / "x.csv") == 2

    def test_seeded_runs_byte_identical(self, tmp_path):
        a = make_scan(tmp_path, "a.csv", "--d", 2, "--t", 1, "--seed", 7)
        b = make_scan(tmp_path, "b.csv", "--d", 2, "--t", 1, "--seed", 7)
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schema_version": 1, "dim": 3, "t": 0.0, "seed": 3,
            "contrast": 0.5, "mode": "exact",
        }))
        out = tmp_path / "scan.csv"
        assert run_cli("simulate", "--config", config, "--t", 1, "--out", out) == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["t"] == 1.0 and meta["contrast"] == 0.5 and meta["mode"] == "exact"

    def test_outdir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SAGNACSIM_OUTDIR", str(tmp_path))
        assert run_cli("simulate", "--d", 2, "--t", 0) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == str(tmp_path / "scan_d2_t0.csv")
        assert (tmp_path / "scan_d2_t0.csv").exists()

    def test_custom_schedule_file(self, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({
            "dim": 2,
            "breakpoints": [[0.0, [0.0, 0.0]], [1.0, [180.0, -180.0]]],
        }))
        out = make_scan(tmp_path, "custom.csv", "--d", 2, "--t", 1, "--exact",
                        "--contrast", 1, "--schedule-file", sched)
        rows = {float(r["theta_deg"]): float(r["probability"])
                for r in csv.DictReader(out.open())}
        # same endpoint as the builtin qubit schedule
        assert rows[0.0] == pytest.approx(1.0, abs=1e-12)


class TestFit:
    def test_exact_ququart_shift(self, tmp_path, capsys):
        ref = make_scan(tmp_path, "t0.csv", "--d", 4, "--t", 0, "--exact")
        op = make_scan(tmp_path, "t1.csv", "--d", 4, "--t", 1, "--exact")
        capsys.readouterr()
        assert run_cli("fit", op, "--ref", ref) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shift"]["shift_deg"] == pytest.approx(90.0, abs=1e-6)
        assert report["shift"]["sigma_deg"] < 1e-6

    def test_noisy_qubit_regression(self, tmp_path, capsys):
        ref = make_scan(tmp_path, "t0.csv", "--d", 2, "--t", 0, "--seed", 42)
        op = make_scan(tmp_path, "t1.csv", "--d", 2, "--t", 1, "--seed", 42)
        capsys.readouterr()
        assert run_cli("fit", op, "--ref", ref) == 0
        report = json.loads(capsys.readouterr().out)
        shift = report["shift"]["shift_deg"]
        sigma = report["shift"]["sigma_deg"]
        # frozen reference-run value, plus the statistical contract
        assert shift == pytest.approx(168.355229135644, abs=1e-6)
        assert abs(shift - 180.0) <= 3.0 * sigma

    def test_flat_operand_rejected(self, tmp_path, capsys):
        ref = make_scan(tmp_path, "t0.csv", "--d", 2, "--t", 0, "--exact")
        flat = make_scan(tmp_path, "flat.csv", "--d", 2, "--t", 0.5, "--exact")
        capsys.readouterr()
        assert run_cli("fit", flat, "--ref", ref) == 1
        assert "visibility" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("fit", tmp_path / "nope.csv") == 2

    def test_corrupt_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("only,garbage\n1,2\n")
        assert run_cli("fit", bad) == 2

    @pytest.mark.parametrize("sidecar", ['{"schema_version": 1, "dim": 2, "t": ', '[0.5, 1]'])
    def test_bad_sidecar_exits_2(self, tmp_path, capsys, sidecar):
        scan = make_scan(tmp_path, "s.csv", "--d", 2, "--t", 0, "--exact")
        scan.with_suffix(".json").write_text(sidecar)
        capsys.readouterr()
        assert run_cli("fit", scan) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sidecar" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_probability_exits_2(self, tmp_path, capsys, bad):
        scan = make_scan(tmp_path, "s.csv", "--d", 2, "--t", 0, "--exact")
        rows = scan.read_text().splitlines()
        rows[5] = rows[5].split(",")[0] + "," + bad
        scan.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run_cli("fit", scan) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_report_to_file(self, tmp_path):
        scan = make_scan(tmp_path, "s.csv", "--d", 3, "--t", 0, "--exact")
        out = tmp_path / "fit.json"
        assert run_cli("fit", scan, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["fit"]["radians"]["frequency"] == pytest.approx(4.0, abs=1e-6)


class TestCampaign:
    def write_spec(self, tmp_path, **overrides):
        spec = {
            "schema_version": 1,
            "dims": [2, 3, 4],
            "mode": "exact",
            "out_dir": str(tmp_path / "out"),
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_exact_campaign_summary(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        assert run_cli("campaign", path) == 0
        out_dir = tmp_path / "out"
        summary = json.loads((out_dir / "summary.json").read_text())
        shifts = {r["dim"]: r["shift_deg"] for r in summary["results"]}
        assert shifts[2] == pytest.approx(180.0, abs=1e-6)
        assert shifts[3] == pytest.approx(120.0, abs=1e-6)
        assert shifts[4] == pytest.approx(90.0, abs=1e-6)
        for r in summary["results"]:
            assert r["theory_deg"] == pytest.approx(360.0 / r["dim"])
            assert r["sigma_deg"] < 1e-6
        for d in (2, 3, 4):
            for t in ("0", "0.5", "1"):
                assert (out_dir / f"scan_d{d}_t{t}.csv").exists()
                assert (out_dir / f"scan_d{d}_t{t}.json").exists()
                assert (out_dir / f"fit_d{d}_t{t}.json").exists()
        # SVG must be well-formed XML with drawable content
        svg = ET.parse(out_dir / "campaign.svg").getroot()
        assert svg.tag.endswith("svg")
        assert len(list(svg.iter())) > 50

    def test_sampled_campaign_regression(self, tmp_path):
        path = self.write_spec(tmp_path, dims=[3], mode="sampled", seed=1)
        assert run_cli("campaign", path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        entry = summary["results"][0]
        assert entry["shift_deg"] == pytest.approx(122.322120134492, abs=1e-6)
        assert abs(entry["shift_deg"] - 120.0) <= 3.0 * entry["sigma_deg"]

    def test_empty_t_values_rejected(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, t_values=[])
        assert run_cli("campaign", path) == 2
        assert "t value" in capsys.readouterr().err

    def test_missing_reference_t_rejected(self, tmp_path):
        path = self.write_spec(tmp_path, t_values=[0.5, 1.0])
        assert run_cli("campaign", path) == 2

    def test_unknown_field_rejected(self, tmp_path):
        path = self.write_spec(tmp_path, bogus=1)
        assert run_cli("campaign", path) == 2

    @pytest.mark.parametrize("field", [{"dims": 3}, {"dims": ["x"]}, {"t_values": ["x"]},
                                       {"t_values": 1}])
    def test_malformed_list_field_exits_2(self, tmp_path, capsys, field):
        path = self.write_spec(tmp_path, **field)
        assert run_cli("campaign", path) == 2
        assert capsys.readouterr().err.startswith("error: invalid campaign spec")

    @pytest.mark.parametrize("seed", [-1, "x", 1.5])
    def test_bad_sampled_seed_exits_2(self, tmp_path, capsys, seed):
        path = self.write_spec(tmp_path, dims=[2], mode="sampled", seed=seed)
        assert run_cli("campaign", path) == 2
        assert capsys.readouterr().err.startswith("error: seed")

    @pytest.mark.parametrize("field", [{"t_values": [0, 0.1234567, 0.1234568, 1]},
                                       {"t_values": [0, 0.5, 0.5, 1]},
                                       {"dims": [3, 3]}])
    def test_colliding_output_names_rejected(self, tmp_path, capsys, field):
        path = self.write_spec(tmp_path, **field)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run_cli("campaign", path) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(out_dir.iterdir()) == []

    def test_out_flag_overrides_dir(self, tmp_path):
        path = self.write_spec(tmp_path, dims=[2])
        other = tmp_path / "elsewhere"
        assert run_cli("campaign", path, "--out", other) == 0
        assert (other / "summary.json").exists()

    def test_failure_cleans_outputs(self, tmp_path, monkeypatch):
        import sagnacsim.campaign as campaign_mod

        path = self.write_spec(tmp_path, dims=[2, 3])
        calls = {"n": 0}
        real = campaign_mod.fit_fringe

        def exploding(scan):
            calls["n"] += 1
            if calls["n"] > 4:
                raise RuntimeError("boom")
            return real(scan)

        monkeypatch.setattr(campaign_mod, "fit_fringe", exploding)
        with pytest.raises(RuntimeError):
            campaign_mod.run_campaign(
                campaign_mod.load_campaign_spec(path)
            )
        leftovers = list((tmp_path / "out").iterdir()) if (tmp_path / "out").exists() else []
        assert leftovers == []


class TestVerify:
    def test_passes(self, capsys):
        assert run_cli("verify", "--trials", 200, "--seed", 0) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5 and "[FAIL]" not in out

    def test_zero_trials_usage_error(self, capsys):
        assert run_cli("verify", "--trials", 0) == 2
        assert "--trials" in capsys.readouterr().err

    def test_state_file(self, tmp_path, capsys):
        from sagnacsim import make_antisymmetric_mes

        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(make_antisymmetric_mes(3).to_json_dict()))
        assert run_cli("verify", "--trials", 10, "--state", state_path) == 0


def test_installed_entry_point():
    # the child imports the same package as this suite, installed or from src/
    package_root = str(Path(sagnacsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sagnacsim.cli", "verify", "--trials", "5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout
