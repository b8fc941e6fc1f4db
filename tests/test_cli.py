import copy
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sagnacsim
from _helpers import (
    FROZEN_PLATFORM,
    circular_diff,
    NEGATIVE_AMPLITUDE_COUNTS,
    NEGATIVE_AMPLITUDE_THETAS,
    frozen_on,
    platform_key,
    state_json,
)
from sagnacsim import CampaignSpec, make_antisymmetric_mes
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
                for r in csv.DictReader(out.read_text().splitlines())}
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
                for r in csv.DictReader(out.read_text().splitlines())}
        # same endpoint as the builtin qubit schedule
        assert rows[0.0] == pytest.approx(1.0, abs=1e-12)

    def test_undecodable_schedule_file_exits_2(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_bytes(b'\xff{"dim": 2}')
        assert run_cli("simulate", "--d", 2, "--t", 0, "--schedule-file", sched,
                       "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err.startswith("error: cannot read schedule file")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("dim", ["2.7", "1e400", '"2"'])
    def test_non_integer_schedule_dim_exits_2(self, tmp_path, capsys, dim):
        sched = tmp_path / "sched.json"
        sched.write_text(f'{{"dim": {dim}, "breakpoints": [[0, [0, 0]], [1, [180, -180]]]}}')
        assert run_cli("simulate", "--d", 2, "--t", 1, "--schedule-file", sched,
                       "--out", tmp_path / "out" / "x.csv") == 2
        assert capsys.readouterr().err.startswith("error: malformed schedule file")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("breakpoints", [
        '[["0", [0, 0]], ["1", [180, -180]]]',
        '[[false, [0, 0]], [true, [180, -180]]]',
        '[[0, ["0", "0"]], [1, ["180", "-180"]]]',
    ], ids=["string-times", "bool-times", "string-phases"])
    def test_non_numeric_schedule_breakpoint_exits_2(self, tmp_path, capsys, breakpoints):
        sched = tmp_path / "sched.json"
        sched.write_text(f'{{"dim": 2, "breakpoints": {breakpoints}}}')
        assert run_cli("simulate", "--d", 2, "--t", 1, "--schedule-file", sched,
                       "--out", tmp_path / "out" / "x.csv") == 2
        assert capsys.readouterr().err.startswith("error: malformed schedule file")
        assert not (tmp_path / "out").exists()

    def test_schedule_gap_overflowing_slope_exits_2(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text('{"dim": 2, "breakpoints": [[0, [0, 0]], [1e-323, [1, -1]], [1, [0, 0]]]}')
        assert run_cli("simulate", "--d", 2, "--t", 1, "--schedule-file", sched,
                       "--out", tmp_path / "out" / "x.csv") == 2
        assert "a phase slope overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_counts_beyond_ceiling_exits_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--d", 2, "--t", 0, "--counts", 10 ** 20,
                       "--out", tmp_path / "out" / "x.csv") == 2
        assert capsys.readouterr().err.startswith("error: counts_per_point")
        assert not (tmp_path / "out").exists()

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        # 1.8e11 points: refused from the count, before any allocation
        assert run_cli("simulate", "--d", 2, "--t", 0, "--theta-step", 1e-9,
                       "--out", tmp_path / "x.csv") == 2
        assert "100000 points" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--theta-step", "--theta-stop"])
    def test_infinite_grid_bound_exits_2(self, tmp_path, capsys, flag):
        assert run_cli("simulate", "--d", 2, "--t", 0, flag, "inf",
                       "--out", tmp_path / "x.csv") == 2
        assert "need finite values" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_config_matches_campaign_scan(self, tmp_path):
        fields = {"mode": "sampled", "seed": 4, "counts_per_point": 700, "contrast": 0.5,
                  "theta_start_deg": 3, "theta_step_deg": 2.5}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**fields, "dims": [3], "t_values": [0, 0.5, 1],
                                    "out_dir": str(tmp_path / "camp")}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**fields, "dim": 3, "t": 0.5}))
        assert run_cli("campaign", spec) == 0
        out = make_scan(tmp_path, "sim.csv", "--config", config)
        for suffix in (".csv", ".json"):
            campaign_file = tmp_path / "camp" / f"scan_d3_t0.5{suffix}"
            assert out.with_suffix(suffix).read_bytes() == campaign_file.read_bytes()


@pytest.mark.parametrize("field, value", [
    ("contrast", "x"), ("contrast", True), ("counts_per_point", "x"),
    ("counts_per_point", 1000.5), ("dim", 2.7), ("seed", 1.5), ("seed", True), ("bogus", 1),
])
def test_bad_field_same_error_in_simulate_and_campaign(tmp_path, capsys, field, value):
    spec = {"dims": [value] if field == "dim" else [2], "mode": "exact",
            "out_dir": str(tmp_path / "out")}
    config = {"dim": 2, "t": 0, "mode": "exact"}
    if field != "dim":
        spec[field] = value
    config[field] = value
    errors = []
    for command, data in (("campaign", spec), ("simulate", config)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(data))
        argv = [command, path] if command == "campaign" else [command, "--config", path]
        assert run_cli(*argv, "--out", tmp_path / "out") == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error:") and errors[0] == errors[1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, fields", [
    ("campaign", {"t_values": [False, True]}),
    ("campaign", {"t_values": "01"}),
    ("campaign", {"t_values": [0, "0.5", 1]}),
    ("campaign", {"dims": [True]}),
    ("campaign", {"mode": 5}),
    ("campaign", {"mode": ["exact"]}),
    ("campaign", {"theta_step_deg": True}),
    ("campaign", {"theta_stop_deg": 10 ** 400}),
    ("campaign", {"seed": 1.0}),
    ("campaign", {"schedule_file": 5}),
    ("campaign", {"out_dir": 5}),
    ("campaign", {"out_dir": None}),
    ("simulate", {"t": True}),
    ("simulate", {"schedule_file": 5}),
    ("simulate", {"out_dir": 5}),
    ("simulate", {"dims": [2]}),
    ("simulate", {"t_values": [0]}),
])
def test_field_of_wrong_type_exits_2(tmp_path, monkeypatch, capsys, command, fields):
    monkeypatch.chdir(tmp_path)
    base = {"dims": [2], "t_values": [0, 1]} if command == "campaign" else {"dim": 2, "t": 0}
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**base, "mode": "exact", **fields}))
    argv = [command, path] if command == "campaign" else [command, "--config", path]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == [path]


# Every JSON value type, in and beyond float range, for the input-field sweep.
SWEEP_VALUES = [None, True, False, 0, 1, -1, 2.5, 10 ** 400, float("nan"), float("inf"),
                "x", "0.5", [], [0], {}]
CONFIG_KEYS = ["dim", "t", "mode", "theta_start_deg", "theta_stop_deg", "theta_step_deg",
               "counts_per_point", "contrast", "seed", "schedule_file", "out_dir"]
# input -> (valid document, file it is written to, command line reading it)
SWEEP_INPUTS = {
    "spec": ({"dims": [2], "t_values": [0, 1], "mode": "exact", "out_dir": "out"},
             "input.json", ["campaign", "input.json"]),
    "config": ({"dim": 2, "t": 1}, "input.json", ["simulate", "--config", "input.json"]),
    "state": (state_json(make_antisymmetric_mes(2)), "input.json",
              ["verify", "--trials", 2, "--state", "input.json"]),
    "schedule": ({"dim": 2, "breakpoints": [[0, [0, 0]], [0.5, [90, -90]], [1, [180, -180]]]},
                 "input.json",
                 ["simulate", "--d", 2, "--t", 1, "--exact", "--schedule-file", "input.json"]),
    "sidecar": ({"schema_version": 1, "dim": 2, "t": 1, "seed": 0, "contrast": 0.35,
                 "counts_per_point": 1000, "mode": "exact"}, "scan.json", ["fit", "scan.csv"]),
}
SWEEP_FIELDS = (
    [("spec", (name,)) for name in ["schema_version"]
     + [f.name for f in dataclasses.fields(CampaignSpec)]]
    + [("config", (key,)) for key in ["schema_version"] + CONFIG_KEYS]
    + [("state", ("dim",)), ("state", ("real",)), ("state", ("imag",)),
       ("state", ("real", 0, 1))]
    + [("schedule", ("dim",)), ("schedule", ("breakpoints",)),
       ("schedule", ("breakpoints", 1, 0)), ("schedule", ("breakpoints", 1, 1, 0))]
    + [("sidecar", ("t",))]
)


@pytest.mark.parametrize("kind, path", SWEEP_FIELDS,
                         ids=["-".join(map(str, (kind, *path))) for kind, path in SWEEP_FIELDS])
def test_every_value_type_in_every_input_field(tmp_path, monkeypatch, capsys, kind, path):
    # exit 0, 1 or 2 for every value, never an internal error, and nothing written on exit 2
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SAGNACSIM_OUTDIR", raising=False)
    base, name, argv = SWEEP_INPUTS[kind]
    if kind == "sidecar":
        make_scan(tmp_path, "scan.csv", "--d", 2, "--t", 1, "--exact")
    failures = []
    for value in SWEEP_VALUES:
        document = copy.deepcopy(base)
        *parents, last = path
        target = document
        for key in parents:
            target = target[key]
        target[last] = value
        (tmp_path / name).write_text(json.dumps(document))
        before = TestCampaign.tree_digest(tmp_path)
        capsys.readouterr()
        code = run_cli(*argv)
        err = capsys.readouterr().err
        if (code not in (0, 1, 2) or "internal error" in err
                or (code == 2 and TestCampaign.tree_digest(tmp_path) != before)):
            failures.append(f"{value!r:.40} -> exit {code}: {err.strip()[:120]}")
    assert not failures, f"{kind} {path}: " + "; ".join(failures)


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
        assert shift == pytest.approx(168.355267867522, abs=1e-6)
        assert abs(shift - 180.0) <= 3.0 * sigma

    def test_flat_operand_rejected(self, tmp_path, capsys):
        ref = make_scan(tmp_path, "t0.csv", "--d", 2, "--t", 0, "--exact")
        flat = make_scan(tmp_path, "flat.csv", "--d", 2, "--t", 0.5, "--exact")
        capsys.readouterr()
        assert run_cli("fit", flat, "--ref", ref) == 1
        assert "visibility" in capsys.readouterr().err

    def test_negative_amplitude_operand_exits_1(self, tmp_path, capsys):
        op = tmp_path / "negative.csv"
        op.write_text("theta_deg,counts\n" + "".join(
            f"{np.rad2deg(theta):.17g},{count}\n" for theta, count in
            zip(NEGATIVE_AMPLITUDE_THETAS, NEGATIVE_AMPLITUDE_COUNTS)))
        ref = make_scan(tmp_path, "t0.csv", "--d", 2, "--t", 0, "--exact")
        capsys.readouterr()
        assert run_cli("fit", op, "--ref", ref) == 1
        assert "operated fit has amplitude -0.198 <= 0" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("fit", tmp_path / "nope.csv") == 2

    def test_corrupt_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("only,garbage\n1,2\n")
        assert run_cli("fit", bad) == 2

    def test_undecodable_scan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"theta_deg,counts\r\n0,\xff12\r\n")
        assert run_cli("fit", bad) == 2
        assert capsys.readouterr().err.startswith("error: corrupt scan data")

    def test_header_only_scan_exits_1(self, tmp_path, capsys):
        scan = tmp_path / "empty.csv"
        scan.write_bytes(b"theta_deg,probability\r\n")
        assert run_cli("fit", scan) == 1
        assert "need at least 8 points" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", ['{"schema_version": 1, "dim": 2, "t": ', '[0.5, 1]',
                                         '{"t": "0.5"}', '{"t": true}'])
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

    def test_reports_do_not_share_state(self, tmp_path, capsys):
        # one process, one cached parser: a --ref run leaves nothing for the next
        ref = make_scan(tmp_path, "t0.csv", "--d", 3, "--t", 0, "--exact")
        op = make_scan(tmp_path, "t1.csv", "--d", 3, "--t", 1, "--exact")
        assert run_cli("fit", op, "--ref", ref, "--out", tmp_path / "with_ref.json") == 0
        capsys.readouterr()
        assert run_cli("fit", op) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"fit"}
        assert report["fit"]["fit_version"] == 5
        assert report["fit"]["termination"] == "converged"
        assert "ref_fit" in json.loads((tmp_path / "with_ref.json").read_text())

    def test_angles_on_two_fringe_points_exit_1(self, tmp_path, capsys):
        scan = tmp_path / "45.csv"
        scan.write_text("theta_deg,counts\n" + "".join(
            f"{45 * k},{count}\n" for k, count in enumerate([1, 2, 1, 3, 1, 2, 1, 5])))
        assert run_cli("fit", scan) == 1
        assert capsys.readouterr().err.startswith("error: the scan's angles resolve no fringe")

    def test_singular_covariance_exits_1(self, tmp_path, capsys, monkeypatch):
        scan = make_scan(tmp_path, "s.csv", "--d", 3, "--t", 0, "--exact")
        capsys.readouterr()

        real = sagnacsim.analysis._inverse_factor
        monkeypatch.setattr(sagnacsim.analysis, "_inverse_factor",
                            lambda normal: real([[0.0] * 5] * 4))
        assert run_cli("fit", scan) == 1
        assert capsys.readouterr().err.startswith("error: singular covariance at v = 0.35")

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
            assert r["theory_deg"] == 360.0 / r["dim"]
            assert r["sigma_deg"] < 1e-6
        for d in (2, 3, 4):
            for t in ("0", "0.5", "1"):
                assert (out_dir / f"scan_d{d}_t{t}.csv").exists()
                assert (out_dir / f"scan_d{d}_t{t}.json").exists()
                assert (out_dir / f"fit_d{d}_t{t}.json").exists()
        assert summary["fit_version"] == 5
        assert json.loads((out_dir / "fit_d3_t1.json").read_text())["fit_version"] == 5
        # SVG must be well-formed XML with drawable content
        svg = ET.parse(out_dir / "campaign.svg").getroot()
        assert svg.tag.endswith("svg")
        assert len(list(svg.iter())) > 50

    def test_sampled_campaign_regression(self, tmp_path):
        path = self.write_spec(tmp_path, dims=[3], mode="sampled", seed=1)
        assert run_cli("campaign", path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        entry = summary["results"][0]
        assert entry["shift_deg"] == pytest.approx(122.322310783304, abs=1e-6)
        assert abs(entry["shift_deg"] - 120.0) <= 3.0 * entry["sigma_deg"]

    # sha256 of every output file: "exact" and "sampled" as written by the csv-module scan
    # writer and the point-by-point SVG code that came before the column-wise ones, the
    # other entries as written by the column-wise code; each campaign.svg with the shift
    # legend "expected (circles)"
    FROZEN_SHA256 = {
        "exact": {
            "campaign.svg": "55b976206eabc70e67909f994060ffa7a85080f38faff6e5c1da773c99b4c3d1",
            "fit_d2_t0.5.json": "2e658d90304ed32efebe702e5e0f3ae8eab0687580f21c870132de3a903eb0af",
            "fit_d2_t0.json": "615aac25f852733587d01ec61588ac516ef1a251cc90a2fdad47fb7c9677fb86",
            "fit_d2_t1.json": "8afcc5f8511aa79937d78d83e7c1728129b6e65912d7855ba59e57cba8cdb9b4",
            "fit_d3_t0.5.json": "2e658d90304ed32efebe702e5e0f3ae8eab0687580f21c870132de3a903eb0af",
            "fit_d3_t0.json": "64a09e5747bc6106b31275fb8842239652534f878057d55694e63e3104c4a9bc",
            "fit_d3_t1.json": "be8d42eb34413c269969fcc810b01816b6bc6bb561aed006674c85fb9833023b",
            "scan_d2_t0.5.csv": "3ea4eabb8dd2b0f7073477162483067d327d75a0bc81c3ed672b10e106a67c78",
            "scan_d2_t0.5.json": "9a717becced985e8633c55f705bbc3b5b72bd86cae71a527ed021148ac3594ce",
            "scan_d2_t0.csv": "9c54e2850b8c9d57e1998a72ce401dd521050d1589abb161a1d1392e92be517f",
            "scan_d2_t0.json": "5ec931c76bd177fcf50ad7431f49ca400aa8b0102603d22b0dd3b0d13b4bc4eb",
            "scan_d2_t1.csv": "e1cb97b409d8dd54de907b4a159068290304aa968de82a3e46680aeb594a822a",
            "scan_d2_t1.json": "e6c9acf303bfec7c3216d7b30970fc99230e2087c5148b0da6b12dbd44398e84",
            "scan_d3_t0.5.csv": "a598a812e732c8891d21019b3fb1f01315323a93615dd36f3dd8590d1c1618c9",
            "scan_d3_t0.5.json": "a128c4f1c5a8f4fc4597bee989ddcee040487553e2a4ac770eeb318103c2b980",
            "scan_d3_t0.csv": "177f0d3f4a73f929d9ce34a14536273d58cb86cb815eb2a3d76203fcf8434c1e",
            "scan_d3_t0.json": "24675b79825f3b67bed2d57ac7f0e856b877054e0b7756f77990606098c5792a",
            "scan_d3_t1.csv": "8ef9494454c8dc8e8d63157720025c1f12564ecc13e7f030a747d4c8f3c66860",
            "scan_d3_t1.json": "eda143a0251a60a31088d743a91fe397699a5f242915951599914dfc2636a9e2",
            "summary.json": "0b04ad880bcaf0167b487943e12a192f4aa45f45aaaf7539b14a9400b12e7d71",
        },
        "sampled": {
            "campaign.svg": "91567deed43bc28213d21caf1235d9898d5534f1c78eced8a0c855b990e75d27",
            "fit_d3_t0.25.json": "4d9c88a74e9fa8899e82edd228fab4da74a6d2ed56943e873264c56528efddef",
            "fit_d3_t0.json": "f5412b7259b316c839f8108cab526f4ae7925a27439ed7c41ae0caf77cc993d4",
            "fit_d3_t1.json": "3a0f5447819642e47fe69fdcc22dfffc54eec26d6c20c6fa9349b60adb61de4e",
            "scan_d3_t0.25.csv": "3392e90a6ef98708f06a08567a00225d7b1a7cb428dfaaa92c6307a02c02016a",
            "scan_d3_t0.25.json": "de134fb61974195c3456d8e52444a160e258513a59d268b082144382d3eed77e",
            "scan_d3_t0.csv": "a5532a3e2260c7c85c31d2ad3b2e6190954935d8801e81c6e8ec2c219498df6e",
            "scan_d3_t0.json": "918d5a9d0bc302a592bc801244a193ebddfc8dee458958f5cc5652f4f993c7d9",
            "scan_d3_t1.csv": "a6b7ab39d91265150a90ee2367b9178f7d76bbbe5ce6e77677164680792e3e38",
            "scan_d3_t1.json": "b65ab36fb694d0a55566fa8634bc270d4db62e5423d7eee887f5e09fa6b2ee2a",
            "summary.json": "f146ee665afdf3c85b41ef6264ed777942d21c038e6792eb216ef53c87a08833",
        },
        "exact-d234": {
            "campaign.svg": "cc5aab875f9bbf14975b8eb87ff1e1d1a94b24a994107fde4067d21516de9acf",
            "fit_d2_t0.5.json": "2e658d90304ed32efebe702e5e0f3ae8eab0687580f21c870132de3a903eb0af",
            "fit_d2_t0.json": "615aac25f852733587d01ec61588ac516ef1a251cc90a2fdad47fb7c9677fb86",
            "fit_d2_t1.json": "8afcc5f8511aa79937d78d83e7c1728129b6e65912d7855ba59e57cba8cdb9b4",
            "fit_d3_t0.5.json": "2e658d90304ed32efebe702e5e0f3ae8eab0687580f21c870132de3a903eb0af",
            "fit_d3_t0.json": "64a09e5747bc6106b31275fb8842239652534f878057d55694e63e3104c4a9bc",
            "fit_d3_t1.json": "be8d42eb34413c269969fcc810b01816b6bc6bb561aed006674c85fb9833023b",
            "fit_d4_t0.5.json": "2e658d90304ed32efebe702e5e0f3ae8eab0687580f21c870132de3a903eb0af",
            "fit_d4_t0.json": "d502f49b1cdc9d6273b68875400e16b3ab69072ab3afff07d65ad7246c2d3f59",
            "fit_d4_t1.json": "d0641c20bc979605ffc86ea72b3c2fc21b6ceb060e3355a25164eee68e073b77",
            "scan_d2_t0.5.csv": "3ea4eabb8dd2b0f7073477162483067d327d75a0bc81c3ed672b10e106a67c78",
            "scan_d2_t0.5.json": "9a717becced985e8633c55f705bbc3b5b72bd86cae71a527ed021148ac3594ce",
            "scan_d2_t0.csv": "9c54e2850b8c9d57e1998a72ce401dd521050d1589abb161a1d1392e92be517f",
            "scan_d2_t0.json": "5ec931c76bd177fcf50ad7431f49ca400aa8b0102603d22b0dd3b0d13b4bc4eb",
            "scan_d2_t1.csv": "e1cb97b409d8dd54de907b4a159068290304aa968de82a3e46680aeb594a822a",
            "scan_d2_t1.json": "e6c9acf303bfec7c3216d7b30970fc99230e2087c5148b0da6b12dbd44398e84",
            "scan_d3_t0.5.csv": "a598a812e732c8891d21019b3fb1f01315323a93615dd36f3dd8590d1c1618c9",
            "scan_d3_t0.5.json": "a128c4f1c5a8f4fc4597bee989ddcee040487553e2a4ac770eeb318103c2b980",
            "scan_d3_t0.csv": "177f0d3f4a73f929d9ce34a14536273d58cb86cb815eb2a3d76203fcf8434c1e",
            "scan_d3_t0.json": "24675b79825f3b67bed2d57ac7f0e856b877054e0b7756f77990606098c5792a",
            "scan_d3_t1.csv": "8ef9494454c8dc8e8d63157720025c1f12564ecc13e7f030a747d4c8f3c66860",
            "scan_d3_t1.json": "eda143a0251a60a31088d743a91fe397699a5f242915951599914dfc2636a9e2",
            "scan_d4_t0.5.csv": "8dbddc28657793e870bba5e97de1be1b908c6caca07b4c959ec8e541f0814a5e",
            "scan_d4_t0.5.json": "9049a581d3c8aeb5f3f988c14043f774b821575acdeb2f534f2370fb5edd6b26",
            "scan_d4_t0.csv": "a7f74aeabc936d7a41e69643068e2213c15b4dacb702caacd1065dbaf80218c2",
            "scan_d4_t0.json": "852930196bfc1b955af82885982edd0b0713d5dae27f72b4696824e386155d62",
            "scan_d4_t1.csv": "4a673ae8d7c688171ee837886888cb6439d8a3639846567d18488ad729c238a8",
            "scan_d4_t1.json": "9f0d7cf49b8583ae934fb48e60f4bff58fcb222ade9eed7e344254527176e97f",
            "summary.json": "7ca9065600a1a24ea60868718eaf5901d92eff5f237413f0ca8aa321f0d7cba0",
        },
        "fit-ref": {
            "fit_ref_d2.json": "ec700abac0aaf6976553b716c0dc77207af998ebf1e715fee5640f7999ed95bf",
            "fit_ref_d3.json": "8e18a79368fe268b052adcbacc4fa10c641ce5ed29f448446a5283b7aa0fc564",
            "fit_ref_d4.json": "a00d4a73bce159239850159592caa260b503c7a7341796e6725005d4ca3a6fb8",
        },
        "schedule-file": {
            "campaign.svg": "b4d6a9e60cdf21ba8085a3aefa56f8573adb871226bb41a00d2385375f7a028b",
            "fit_d3_t0.5.json": "3f6e518e710c333385ce68c6855c540dab193b6dadf9146fd36d395684bd00ea",
            "fit_d3_t0.json": "64a09e5747bc6106b31275fb8842239652534f878057d55694e63e3104c4a9bc",
            "fit_d3_t1.json": "be8d42eb34413c269969fcc810b01816b6bc6bb561aed006674c85fb9833023b",
            "scan_d3_t0.5.csv": "76d61f1038f4aa8d0f15b77d8ad6551f76c7014a4386ecbba098b81b6dc785dd",
            "scan_d3_t0.5.json": "a128c4f1c5a8f4fc4597bee989ddcee040487553e2a4ac770eeb318103c2b980",
            "scan_d3_t0.csv": "177f0d3f4a73f929d9ce34a14536273d58cb86cb815eb2a3d76203fcf8434c1e",
            "scan_d3_t0.json": "24675b79825f3b67bed2d57ac7f0e856b877054e0b7756f77990606098c5792a",
            "scan_d3_t1.csv": "8ef9494454c8dc8e8d63157720025c1f12564ecc13e7f030a747d4c8f3c66860",
            "scan_d3_t1.json": "eda143a0251a60a31088d743a91fe397699a5f242915951599914dfc2636a9e2",
            "summary.json": "9f3c638f86ee0fdb132814515bb94780a330563f2c4f6c06cd93c1c696a02318",
        },
    }

    # sha256 of the numbers along the sampled path, from test_sampled_path_numbers_frozen:
    # the scan values apart from the fits and shifts, so a fit change shows it moved no count
    FROZEN_SAMPLED_PATH_SHA256 = {
        "scans": "a7de15559be9cd105104bd57345cbf108e1e3ba0f20b2b1c7c6f278ff4866bd8",
        "fits": "e7903915ffd860405a771ebf307f90845ee1ad6e5a0fdb5caef0f74f4829b193",
    }

    def test_sampled_path_numbers_frozen(self):
        """The bytes of the scan -> fit -> shift path, in memory, over seeded scans.

        One digest takes the scan values; the other every FitResult field (the
        covariance, the iteration count and the termination included) and
        each phase_shift pair, for d = 2, 3, 4 on 37- and 181-point grids:
        sampled scans at 100 and 1000 counts over 20 seeds, and exact scans,
        each at t = 0, 0.25 and 1.  Like FROZEN_SHA256 it holds per platform
        only: the bytes move by about one ulp with the SIMD kernels numpy
        dispatches for float64 sin, cos and exp.
        """
        digests = {"scans": hashlib.sha256(), "fits": hashlib.sha256()}

        def update(name, *values):
            for value in values:
                digests[name].update(value.encode() if isinstance(value, str) else
                                     np.asarray(value).tobytes())

        grids = [np.deg2rad(np.arange(0.0, 180.0 + 1e-9, step)) for step in (5.0, 1.0)]
        runs = [(d, grid, counts, seed, "sampled") for d in (2, 3, 4) for grid in grids
                for counts in (100, 1000) for seed in range(20)]
        runs += [(d, grid, 1000, 0, "exact") for d in (2, 3, 4) for grid in grids]
        for d, grid, counts, seed, mode in runs:
            cfg = sagnacsim.ExperimentConfig(dim=d, schedule=sagnacsim.builtin_schedule(d),
                                             theta_grid=grid, counts_per_point=counts,
                                             rng_seed=seed)
            fits = []
            for t in (0.0, 0.25, 1.0):
                scan = sagnacsim.generate_scan(cfg, t, mode)
                fits.append(sagnacsim.fit_fringe(scan))
                update("scans", scan.values)
                update("fits", *(getattr(fits[-1], f.name) for f in dataclasses.fields(fits[-1])))
            for fit in fits[1:]:
                update("fits", *sagnacsim.phase_shift(fits[0], fit))
        assert ({name: digest.hexdigest() for name, digest in digests.items()}
                == self.FROZEN_SAMPLED_PATH_SHA256), frozen_on()

    # a d = 3 loop given as breakpoints, not the built-in closed form; it ends in class 1
    SCHEDULE = {"dim": 3, "breakpoints": [[0.0, [0.0, 0.0, 0.0]], [0.5, [90.0, 30.0, -120.0]],
                                          [1.0, [120.0, 120.0, -240.0]]]}

    @staticmethod
    def digests(directory):
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(directory.iterdir())}

    # "exact-d234" draws three fringe panels and the shift panel on a 2 x 2 grid
    @pytest.mark.parametrize("name, fields", [
        ("exact", {"dims": [2, 3], "t_values": [0, 0.5, 1]}),
        ("sampled", {"dims": [3], "mode": "sampled", "t_values": [0, 0.25, 1], "seed": 1}),
        ("exact-d234", {"dims": [2, 3, 4], "t_values": [0, 0.5, 1]}),
    ])
    def test_output_bytes_frozen(self, tmp_path, name, fields):
        assert run_cli("campaign", self.write_spec(tmp_path, **fields)) == 0
        assert self.digests(tmp_path / "out") == self.FROZEN_SHA256[name], frozen_on()

    def test_schedule_file_output_bytes_frozen(self, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(self.SCHEDULE))
        path = self.write_spec(tmp_path, dims=[3], t_values=[0, 0.5, 1], schedule_file=str(sched))
        assert run_cli("campaign", path) == 0
        assert self.digests(tmp_path / "out") == self.FROZEN_SHA256["schedule-file"], frozen_on()

    def run_endpoint(self, tmp_path, capsys, endpoint_deg):
        """(summary entry, stdout) of a d = 3 exact campaign from 0 to ``endpoint_deg``."""
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"dim": 3, "breakpoints": [[0.0, [0.0, 0.0, 0.0]],
                                                               [1.0, endpoint_deg]]}))
        path = self.write_spec(tmp_path, dims=[3], schedule_file=str(sched))
        assert run_cli("campaign", path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        return summary["results"][0], capsys.readouterr().out

    def test_expected_shift_in_sector_two(self, tmp_path, capsys):
        # cyclic, every phase at 240 deg mod 360: sector 2, not the 360/d of sector 1
        entry, out = self.run_endpoint(tmp_path, capsys, [240.0, 240.0, -480.0])
        assert entry["theory_deg"] == 240.0
        assert "(expected 240.0)" in out
        assert circular_diff(np.deg2rad(entry["shift_deg"]), np.deg2rad(240.0)) < 1e-8

    def test_expected_shift_of_a_loop_that_is_not_cyclic(self, tmp_path, capsys):
        # z = mean_m exp(i xi_m(1)) = (i + 1 - i) / 3: the fringe shifts by arg z = 0 and
        # keeps |z| = 1/3 of the contrast
        entry, out = self.run_endpoint(tmp_path, capsys, [90.0, 0.0, -90.0])
        assert circular_diff(np.deg2rad(entry["theory_deg"]), 0.0) < 1e-12
        assert "(expected 0.0)" in out
        assert circular_diff(np.deg2rad(entry["shift_deg"]), 0.0) < 1e-8
        fit = json.loads((tmp_path / "out" / "fit_d3_t1.json").read_text())
        assert fit["radians"]["visibility"] == pytest.approx(0.35 / 3.0, abs=1e-9)

    def test_fit_ref_reports_frozen(self, tmp_path):
        assert run_cli("campaign", self.write_spec(tmp_path, t_values=[0, 0.5, 1])) == 0
        out, reports = tmp_path / "out", tmp_path / "reports"
        reports.mkdir()
        for d in (2, 3, 4):
            assert run_cli("fit", out / f"scan_d{d}_t1.csv", "--ref", out / f"scan_d{d}_t0.csv",
                           "--out", reports / f"fit_ref_d{d}.json") == 0
        assert self.digests(reports) == self.FROZEN_SHA256["fit-ref"], frozen_on()

    def test_frozen_failure_names_both_platforms(self):
        # the message is built only when a frozen test fails, so build it here
        frozen, here = frozen_on().removeprefix("frozen on ").split("; this run is on ")
        assert frozen == FROZEN_PLATFORM
        assert here == platform_key() and here.startswith(f"numpy {np.__version__}")
        if int(np.__version__.split(".")[0]) >= 2:
            assert len(here.split(", float64 sin/cos/exp at ")[1].split("/")) == 3

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

    # the last spec gives distinct names, but its first two t values share a noise stream
    @pytest.mark.parametrize("field", [{"t_values": [0, 0.1234567, 0.1234568, 1]},
                                       {"t_values": [0, 0.5, 0.5, 1]},
                                       {"dims": [3, 3]},
                                       {"dims": [3], "t_values": [0, 1e-7, 1], "mode": "sampled"}])
    def test_colliding_output_names_rejected(self, tmp_path, capsys, field):
        path = self.write_spec(tmp_path, **field)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run_cli("campaign", path) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(out_dir.iterdir()) == []

    def test_close_t_values_run_in_exact_mode(self, tmp_path):
        # exact scans draw no noise, so t values 1e-7 apart need only distinct names
        assert run_cli("campaign", self.write_spec(tmp_path, dims=[3], t_values=[0, 1e-7, 1])) == 0
        assert (tmp_path / "out" / "scan_d3_t1e-07.csv").exists()

    def test_missing_dims_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"mode": "exact", "out_dir": str(tmp_path / "out")}))
        assert run_cli("campaign", path) == 2
        assert capsys.readouterr().err == "error: campaign needs at least one dimension\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        assert run_cli("campaign", self.write_spec(tmp_path, mode="bogus")) == 2
        assert capsys.readouterr().err == (
            "error: mode must be 'exact' or 'sampled', got 'bogus'\n")
        assert not (tmp_path / "out").exists()

    def test_schedule_file_with_two_dims_rejected(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({
            "dim": 2, "breakpoints": [[0.0, [0.0, 0.0]], [1.0, [180.0, -180.0]]],
        }))
        assert run_cli("campaign", self.write_spec(tmp_path, dims=[2, 3],
                                                   schedule_file=str(sched))) == 2
        assert "a custom schedule file implies a single dimension" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_flag_overrides_dir(self, tmp_path):
        path = self.write_spec(tmp_path, dims=[2])
        other = tmp_path / "elsewhere"
        assert run_cli("campaign", path, "--out", other) == 0
        assert (other / "summary.json").exists()

    @staticmethod
    def tree_digest(root: Path) -> str:
        """sha256 over the relative path and bytes of every file under ``root``."""
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            if path.is_file():
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def test_failed_rerun_leaves_outputs_unchanged(self, tmp_path, capsys):
        assert run_cli("campaign", self.write_spec(tmp_path, dims=[2, 3], t_values=[0, 1])) == 0
        before = self.tree_digest(tmp_path / "out")
        path = self.write_spec(tmp_path, dims=[2, 3], t_values=[0, 1], contrast=0)
        assert run_cli("campaign", path) == 1
        assert "visibility" in capsys.readouterr().err
        assert self.tree_digest(tmp_path / "out") == before

    def test_render_failure_leaves_outputs_unchanged(self, tmp_path, monkeypatch, capsys):
        import sagnacsim.plotting as plotting_mod  # run_campaign imports the renderer per run

        path = self.write_spec(tmp_path, dims=[2, 3])
        assert run_cli("campaign", path) == 0
        before = self.tree_digest(tmp_path / "out")

        def broken(panels, results):
            raise RuntimeError("boom")

        monkeypatch.setattr(plotting_mod, "render_campaign_svg", broken)
        assert run_cli("campaign", path) == 3
        assert capsys.readouterr().err.endswith("RuntimeError: boom\n")
        assert self.tree_digest(tmp_path / "out") == before

    def test_failing_first_run_creates_nothing(self, tmp_path):
        assert run_cli("campaign", self.write_spec(tmp_path, contrast=0)) == 1
        assert not (tmp_path / "out").exists()

    def test_counts_beyond_ceiling_exits_2(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, dims=[2], mode="sampled", counts_per_point=1e300)
        assert run_cli("campaign", path) == 2
        assert capsys.readouterr().err.startswith("error: counts_per_point")
        assert not (tmp_path / "out").exists()

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

    def test_negative_seed_usage_error(self, capsys):
        assert run_cli("verify", "--trials", 3, "--seed", -1) == 2
        assert capsys.readouterr().err == (
            "error: --seed must be a nonnegative integer, got -1\n")

    def test_state_file(self, tmp_path, capsys):
        from sagnacsim import make_antisymmetric_mes

        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(state_json(make_antisymmetric_mes(3))))
        assert run_cli("verify", "--trials", 10, "--state", state_path) == 0

    def test_state_of_dimension_1_exits_2(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        state_path.write_text('{"dim": 1, "real": [[1]], "imag": [[0]]}')
        assert run_cli("verify", "--trials", 10, "--state", state_path) == 2
        assert capsys.readouterr().err == "error: qudit dimension must be >= 2, got 1\n"

    @pytest.mark.parametrize("text", [
        '{"dim": 2}',
        '{"dim": 2, "real": "x", "imag": "x"}',
        '{"dim": "2", "real": [[0, 1], [0, 0]], "imag": [[0, 0], [0, 0]]}',
        '{"dim": 2.9, "real": [[0, 1], [0, 0]], "imag": [[0, 0], [0, 0]]}',
        '{"dim": true, "real": [[0, 1], [0, 0]], "imag": [[0, 0], [0, 0]]}',
        '{"dim": 2, "real": [[0, 1], [0, 0]], "imag": [0, 0]}',
        '{"dim": 2, "real": [[NaN, 1], [0, 0]], "imag": [[0, 0], [0, 0]]}',
        '{"dim": ' + "2" * 5000 + "}",
        '{"dim": 2, "real": [["0", "1"], ["0", "0"]], "imag": [["0", "0"], ["0", "0"]]}',
        '{"dim": 2, "real": [[false, true], [false, false]], '
        '"imag": [[false, false], [false, false]]}',
    ], ids=["no-real", "string-real", "string-dim", "float-dim", "bool-dim", "imag-shape",
            "nan-amplitude", "overlong-int", "string-amplitudes", "bool-amplitudes"])
    def test_malformed_state_file_exits_2(self, tmp_path, capsys, text):
        state_path = tmp_path / "state.json"
        state_path.write_text(text)
        assert run_cli("verify", "--trials", 10, "--state", state_path) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""


def test_internal_error_exits_3(monkeypatch, capsys):
    import sagnacsim.cli as cli_mod

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "_cmd_verify", broken)
    assert run_cli("verify") == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def run_child(*argv):
    # the child imports the same package as this suite, installed or from src/,
    # and keeps Python's own warning filters, not this suite's
    package_root = str(Path(sagnacsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "ignore", "-m", "sagnacsim.cli", *map(str, argv)],
        capture_output=True, text=True, env=env,
    )


def test_installed_entry_point():
    proc = run_child("verify", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout


@pytest.mark.parametrize("count", ["2.5", "12.0"])
def test_non_integral_count_exits_2_with_warnings_ignored(tmp_path, count):
    # a parser that only warns on "2.5" would read it as 2 once warnings are ignored
    scan = tmp_path / "bad.csv"
    scan.write_text("theta_deg,counts\n" + "".join(f"{5 * i},{count}\n" for i in range(10)))
    proc = run_child("fit", scan)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: corrupt scan data")
