"""Command-line front end tests.

Config parsing errors carry line/field context and exit code 3; identical
configs must reproduce trace.csv, snapshots and report.json byte for byte;
run/check round-trip through the on-disk formats.
"""

import json
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from imcflow.cli import ConfigError, load_trace, main, parse_config
from imcflow.flow import TRACE_COLUMNS
from imcflow.verify import DEFAULT_C_RES

POINT_RUN = """\
warp.preset = euclidean
base.kind = point
initial.r0 = 1.0
flow.t_end = 2.0
flow.record_every = 0.1
flow.snapshot_every = 0.5
checks = growth_and_support, A_bounded
"""

FIELD_RUN = """\
warp.preset = euclidean
base.kind = axisphere
base.resolution = 50
initial.r0 = 1.0
initial.modes = 1:0.3
flow.t_end = 0.3
flow.safety = 0.5
flow.snapshot_every = 0.1
flow.record_every = 0.05
checks = growth_and_support, evolution_residuals
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(dedent(text), encoding="utf-8")
    return str(path)


def read_bytes_map(outdir):
    out = {}
    for p in sorted(Path(outdir).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(outdir))] = p.read_bytes()
    return out


class TestParseConfig:
    def test_values_keep_line_numbers(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, """\
            # comment
            warp.preset = euclidean   # trailing comment

            flow.t_end = 2.0
            """))
        assert cfg["warp.preset"] == ("euclidean", 2)
        assert cfg["flow.t_end"] == ("2.0", 4)

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(write_cfg(tmp_path, "a.b = 1\nnonsense\n"))

    def test_malformed_key(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed key"):
            parse_config(write_cfg(tmp_path, "1bad.key = 2\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_cfg(tmp_path, "a.b = 1\na.b = 2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")


class TestConfigErrorsExitThree:
    def test_unknown_preset(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "warp.preset = nope\nbase.kind = point\n"
                                  "initial.r0 = 1\nflow.t_end = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "nope" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, POINT_RUN + "bogus.key = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "bogus.key" in capsys.readouterr().err

    def test_bad_float_reports_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "warp.preset = euclidean\nbase.kind = point\n"
                                  "initial.r0 = 1\nflow.t_end = soon\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "line 4" in err and "flow.t_end" in err

    def test_phi_length_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "warp.preset = euclidean\nbase.kind = point\n"
                                  "initial.phi = 0.0, 1.0\nflow.t_end = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "initial.phi" in capsys.readouterr().err

    def test_modes_on_point_base(self, tmp_path):
        cfg = write_cfg(tmp_path, "warp.preset = euclidean\nbase.kind = point\n"
                                  "initial.r0 = 1\ninitial.modes = 2:0.1\n"
                                  "flow.t_end = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_unknown_check_id(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_RUN.replace(
            "growth_and_support, A_bounded", "growth_and_support, novelty"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_no_output_dir_anywhere(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_RUN)
        assert main(["run", "--config", cfg]) == 3

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 3
        assert "usage" in capsys.readouterr().err


class TestRunCommand:
    def test_point_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, POINT_RUN)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0

        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert rows[0] == "t," + ",".join(TRACE_COLUMNS)
        assert TRACE_COLUMNS == ("dt", "min_H", "max_H", "min_omega",
                                 "max_omega", "max_grad_phi", "max_hess_phi",
                                 "max_A", "osc_rescaled_h")
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        t = data[:, 0]
        omega = data[:, 1 + TRACE_COLUMNS.index("min_omega")]
        assert t[-1] == 2.0
        # support of the flowing sphere compensates the exponential exactly
        drift = np.abs(omega * np.exp(-t / 2.0) - omega[0])
        assert np.max(drift) < 1e-8

        snaps = sorted((out / "snapshots").glob("t=*.csv"))
        assert len(snaps) == 5
        header = snaps[0].read_text().splitlines()[0]
        assert header == "index,r,phi,Theta,H,omega"

        meta = json.loads((out / "meta.json").read_text())
        assert meta["terminal"] == {"status": "completed"}
        assert meta["config"]["warp.preset"] == "euclidean"
        assert set(meta["versions"]) >= {"imcflow", "numpy", "scipy", "python"}

        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert [c["check_id"] for c in report["checks"]] == [
            "growth_and_support", "A_bounded"]

    def test_meta_records_run_counts(self, tmp_path):
        cfg = write_cfg(tmp_path, """\
            warp.preset = euclidean
            base.kind = axisphere
            base.resolution = 32
            initial.r0 = 1.0
            initial.modes = 1:0.3
            flow.t_end = 0.2
            flow.safety = 0.5
            """)
        metas = []
        for name in ("a", "b"):
            assert main(["run", "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
            metas.append(json.loads((tmp_path / name / "meta.json").read_text()))
        stats = metas[0]["stats"]
        assert stats == metas[1]["stats"]
        assert stats["f_evals"] == 1 + 4 * stats["steps"]
        assert stats["f_evals"] == stats["fast_accepts"] + stats["full_probes"]
        assert sum(stats["dt_limiter"].values()) == stats["steps"]
        assert load_trace(tmp_path / "a").stats == stats

    def test_output_dir_from_config(self, tmp_path):
        out = tmp_path / "from_cfg"
        cfg = write_cfg(tmp_path, POINT_RUN + f"output_dir = {out}\n")
        assert main(["run", "--config", cfg]) == 0
        assert (out / "trace.csv").is_file()

    def test_event_run_exits_two(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, """\
            warp.preset = saturating
            base.kind = point
            initial.r0 = 5000.0
            flow.t_end = 2.0
            flow.record_every = 0.1
            flow.snapshot_every = 0.5
            """)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        meta = json.loads((out / "meta.json").read_text())
        assert meta["terminal"]["status"] == "event"
        assert meta["terminal"]["kind"] == "domain"
        assert 0.0 < meta["terminal"]["t"] < 2.0

    def test_failing_check_exits_one(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, POINT_RUN +
                        "check.growth_and_support.R2 = 0.9\n")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is False

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, FIELD_RUN)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        files_a, files_b = read_bytes_map(a), read_bytes_map(b)
        assert set(files_a) == set(files_b)
        for name in files_a:
            assert files_a[name] == files_b[name], name


class TestCheckCommand:
    def test_round_trip_on_stored_trace(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, FIELD_RUN)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        first = json.loads((out / "report.json").read_text())

        check_cfg = write_cfg(tmp_path, """\
            checks = growth_and_support, evolution_residuals, A_bounded
            """, name="check.cfg")
        assert main(["check", "--config", check_cfg, "--out", str(out)]) == 0
        second = json.loads((out / "report.json").read_text())
        assert [c["check_id"] for c in second["checks"]] == [
            "growth_and_support", "evolution_residuals", "A_bounded"]
        # stored phi fields round-trip at full precision, so the recomputed
        # reports agree with the in-memory ones
        for c1 in first["checks"]:
            c2 = next(c for c in second["checks"]
                      if c["check_id"] == c1["check_id"])
            assert c2["pass"] == c1["pass"]
            assert c2["margin"] == pytest.approx(c1["margin"], rel=1e-9)

    def test_loaded_trace_matches_disk(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, FIELD_RUN)
        main(["run", "--config", cfg, "--out", str(out)])
        tr = load_trace(out)
        assert tr.completed
        assert tr.base.kind == "axisphere"
        assert len(tr.snapshots) == 4
        assert tr.times[-1] == 0.3

    def test_missing_trace_exits_three(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "checks = A_bounded\n", name="check.cfg")
        assert main(["check", "--config", cfg,
                     "--out", str(tmp_path / "nothing")]) == 3
        assert "no trace" in capsys.readouterr().err

    def test_no_checks_requested_exits_three(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", write_cfg(tmp_path, POINT_RUN),
              "--out", str(out)])
        empty = write_cfg(tmp_path, "# nothing here\n", name="empty.cfg")
        assert main(["check", "--config", empty, "--out", str(out)]) == 3


class TestSweepCommand:
    SWEEP = """\
        warp.preset = euclidean
        base.kind = point
        flow.t_end = 1.0
        flow.record_every = 0.1
        flow.snapshot_every = 0.5
        sweep.initial.r0 = 1.0, 2.0
        """

    def test_subdirectories_one_per_combo(self, tmp_path):
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, self.SWEEP)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        subdirs = sorted(p.name for p in out.iterdir())
        assert subdirs == ["initial.r0=1.0", "initial.r0=2.0"]
        for sub in subdirs:
            assert (out / sub / "trace.csv").is_file()

    def test_two_axes_product(self, tmp_path):
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, self.SWEEP + "sweep.flow.t_end = 1.0, 2.0\n")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(list(out.glob("*/trace.csv"))) == 4

    def test_parallel_matches_serial(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP)
        a, b = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b),
                     "--jobs", "2"]) == 0
        files_a, files_b = read_bytes_map(a), read_bytes_map(b)
        assert set(files_a) == set(files_b)
        for name in files_a:
            assert files_a[name] == files_b[name], name

    def test_sweep_without_axes_exits_three(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_RUN)
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "sw")]) == 3


class TestPresets:
    def test_catalog_lists_known_warps(self, capsys):
        assert main(["presets"]) == 0
        text = capsys.readouterr().out
        for name in ("euclidean", "hyperbolic", "power",
                     "saturating", "schwarzschild3"):
            assert name in text
        assert "params" in text and "conditions" in text


class TestCalibrationFixture:
    def test_frozen_envelopes_match_fixture(self):
        path = Path(__file__).resolve().parent.parent / "fixtures" / "calibration.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["c_res"] == DEFAULT_C_RES
        for name, info in doc["calibration"]["identities"].items():
            assert info["frozen_c_res"] == DEFAULT_C_RES[name]
            assert info["margin"] >= 1.5, name
