"""Command-line front end tests.

Config parsing errors carry line/field context and exit code 3; identical
configs must reproduce trace.csv, snapshots and report.json byte for byte;
run/check round-trip through the on-disk formats.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from imcflow.cli import (CHECK_IDS, ConfigError, build_setup, load_trace,
                         main, parse_config, run_checks, write_outputs)
from imcflow.flow import TRACE_COLUMNS, run
from imcflow.geometry import GraphState
from imcflow.warp import eval_warp, infimum_h0, make_warp, r_at_h

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

    def test_nan_end_time(self, tmp_path, capsys):
        # NaN passed the positivity test once and "completed" at t = 0
        cfg = write_cfg(tmp_path, POINT_RUN.replace("flow.t_end = 2.0",
                                                    "flow.t_end = nan"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "t_end" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_misspelled_warp_parameter(self, tmp_path, capsys):
        # warp.M once ran with the default m = 0.5 and exited 0
        cfg = write_cfg(tmp_path, POINT_RUN.replace(
            "warp.preset = euclidean", "warp.preset = schwarzschild3\nwarp.M = 3"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "'M'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def rejected(tmp_path, capsys, key):
        """run and check exit 3 on a config that sets key, naming it and its
        line, and write nothing."""
        field = key.split(" ")[0]
        message = f"(line 8, field {field!r}): checks take no parameters"
        cfg = write_cfg(tmp_path, POINT_RUN.replace("A_bounded", "A_bounded, H_floor")
                        + key + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()
        main(["run", "--config", write_cfg(tmp_path, POINT_RUN, name="ok.cfg"),
              "--out", str(out)])
        before = read_bytes_map(out)
        assert main(["check", "--config", cfg, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert read_bytes_map(out) == before

    @pytest.mark.parametrize("key", [
        "check.H_floor.bogus = 1", "check.A_bounded.tol = 5",
        "check.asymptotics_roundness.fit_window = 4, 8",
        "check.asymptotics_obstruction.tol_osc = 5",
        "check.asymptotics_roundness.obstruction_floor = 0.1",
        "check.evolution_residuals.c_res = 2", "check.H_floor = 1"])
    def test_parameter_the_check_does_not_take(self, tmp_path, capsys, key):
        # the first once raised TypeError after the outputs were written
        # (exit 1); the second, fourth and fifth were accepted and ignored
        # (exit 0)
        self.rejected(tmp_path, capsys, key)

    @pytest.mark.parametrize("key", [
        "check.H_floor.h0 = abc", "check.H_floor.R1 = 0.5",
        "check.growth_and_support.R2 = 0.9", "check.growth_and_support.tol = 1",
        "check.evolution_residuals.which = tw_eq, omega_eq"])
    def test_override_value_the_check_cannot_take(self, tmp_path, capsys, key):
        # each once set a parameter of its check: the bracket, h0 or the
        # tolerance, each of which only weakens the theorem's tightest
        # instance, or a subset of the identities
        self.rejected(tmp_path, capsys, key)

    def test_override_of_a_check_not_requested(self, tmp_path, capsys):
        # a check.* key is an error whether or not its check is requested
        cfg = write_cfg(tmp_path, POINT_RUN + "check.H_floor.h0 = abc\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "line 8, field 'check.H_floor.h0'" in capsys.readouterr().err
        assert not out.exists()

    def test_check_key_in_a_sweep(self, tmp_path, capsys):
        # each point reads the base config's key, and exits 3 unwritten
        cfg = write_cfg(tmp_path, POINT_RUN + "check.H_floor.R1 = 0.5\n"
                        "sweep.initial.r0 = 1.0, 2.0\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("(line 8, field 'check.H_floor.R1'): checks take no "
                         "parameters") == 2
        assert not out.exists()

    def test_no_output_dir_anywhere(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_RUN)
        assert main(["run", "--config", cfg]) == 3

    @pytest.mark.parametrize("old, new, message", [
        ("warp.preset = euclidean\n", "", "field 'warp.preset'): missing required key"),
        ("base.kind = point", "base.kind = circle\nbase.resolution = 2",
         "circle needs >= 4 nodes, got 2"),
        ("initial.r0 = 1.0\n", "", "need initial.r0 or initial.phi"),
        ("base.kind = point", "base.kind = point\nbase.resolution = 3",
         "point base takes no resolution, got 3"),
        ("base.kind = point", "base.kind = circle", "circle needs a resolution"),
    ])
    def test_setup_errors(self, tmp_path, capsys, old, new, message):
        cfg = write_cfg(tmp_path, POINT_RUN.replace(old, new))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, key", [
        ("point\nbase.resolution = 1", "base.resolution"),
        ("point\nbase.d = 0\nbase.resolution = 3", "base.resolution"),
        ("circle", "base.resolution"),
        ("circle\nbase.resolution = 2", "base.resolution"),
        ("torus2\nbase.resolution = 3", "base.resolution"),
        ("point\nbase.d = 0", "base.d"),
        ("axisphere\nbase.resolution = 8\nbase.d = 3", "base.d"),
        ("sphere\nbase.resolution = 8", "base.kind"),
    ])
    def test_base_error_names_its_key(self, tmp_path, capsys, base, key):
        # every base error once named base.kind
        cfg = write_cfg(tmp_path, POINT_RUN.replace("base.kind = point",
                                                    f"base.kind = {base}"))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert f"field '{key}')" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, start, ignored", [
        ("point", "initial.phi = 0.0\ninitial.r0 = 1.0", "initial.r0"),
        ("circle\nbase.resolution = 4",
         "initial.phi = 0, 0, 0, 0\ninitial.modes = 1:0.1", "initial.modes"),
    ])
    def test_initial_phi_beside_a_key_it_overrides(self, tmp_path, capsys,
                                                   kind, start, ignored):
        # initial.phi sets the whole start, so the other key would do nothing
        cfg = write_cfg(tmp_path, POINT_RUN.replace("point", kind).replace(
            "initial.r0 = 1.0", start))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"field '{ignored}'" in err and "ignored beside initial.phi" in err
        assert not out.exists()

    def test_sweep_of_initial_phi_beside_initial_r0(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, POINT_RUN + "sweep.initial.phi = 0.0, 0.5\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("field 'initial.r0'): ignored beside initial.phi") == 2
        assert not out.exists()

    def test_no_config(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "o")]) == 3
        assert "--config is required" in capsys.readouterr().err

    def test_empty_sweep_axis(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, POINT_RUN + "sweep.flow.t_end = ,\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert "empty sweep axis" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset, r0, domain", [
        ("euclidean", "-1", "(0.0, inf)"),
        ("schwarzschild3", "3000", "(0.0, 2000.0)"),
    ])
    def test_initial_radius_outside_the_domain(self, tmp_path, capsys,
                                               preset, r0, domain):
        # the domain error once ended in a traceback (exit 1) after the run
        # directory was made
        cfg = write_cfg(tmp_path, POINT_RUN.replace(
            "euclidean", preset).replace("initial.r0 = 1.0", f"initial.r0 = {r0}"))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "field 'initial.r0'" in err and domain in err
        assert not out.exists()

    @pytest.mark.parametrize("preset, start", [
        ("hyperbolic", "initial.phi = 0.5"),       # potentials ln tanh(r/2) < 0
        ("power", "initial.phi = 1.0\nwarp.p = 2.0"),  # the pole 1 + (1-p) phi = 0
        # a valid radius whose potential 1 - 1/r rounds onto the pole
        ("power", "initial.r0 = 1e17\nwarp.p = 2.0"),
    ])
    def test_initial_potential_outside_the_domain(self, tmp_path, capsys, preset, start):
        # an initial.phi outside the domain once ran, exited 2 and wrote a
        # trace.csv with only its header
        cfg = write_cfg(tmp_path, POINT_RUN.replace("euclidean", preset).replace(
            "initial.r0 = 1.0", start))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        field = start.split(" ")[0]
        assert f"field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_potential_outside_the_domain(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, POINT_RUN.replace("euclidean", "hyperbolic").replace(
            "initial.r0 = 1.0", "sweep.initial.phi = 0.5, -1.0"))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert "potential 0.5 at node 0 outside the domain of hyperbolic" \
            in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["initial.phi=-1.0"]
        assert (out / "initial.phi=-1.0" / "report.json").is_file()

    def test_sweep_point_outside_the_domain(self, tmp_path, capsys):
        # the domain error once stopped the sweep at its first bad point
        cfg = write_cfg(tmp_path, POINT_RUN.replace(
            "initial.r0 = 1.0", "sweep.initial.r0 = -1, 1.0"))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert "radius -1.0 outside (0.0, inf)" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["initial.r0=1.0"]
        assert (out / "initial.r0=1.0" / "report.json").is_file()

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
        assert set(meta["versions"]) == {"imcflow", "numpy", "python"}

        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert [c["check_id"] for c in report["checks"]] == [
            "growth_and_support", "A_bounded"]

    def test_report_flags_are_json_booleans(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, POINT_RUN)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert '"pass": true' in text and '"c1_weak": true' in text
        report = json.loads(text)
        growth = report["checks"][0]
        assert growth["pass"] is True
        assert growth["hypothesis_status"] == {"c1_weak": True, "c1_strict": False}

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
        # a 12-node circle is too coarse for the residual envelopes
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, FIELD_RUN.replace("axisphere", "circle").replace(
            "resolution = 50", "resolution = 12"))
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is False
        assert [c["pass"] for c in report["checks"]] == [True, False]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, FIELD_RUN)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        files_a, files_b = read_bytes_map(a), read_bytes_map(b)
        assert set(files_a) == set(files_b)
        for name in files_a:
            assert files_a[name] == files_b[name], name

    def test_rerun_into_a_used_directory_leaves_only_its_own_files(self, tmp_path):
        # an earlier run's snapshots at t=0.1 and t=0.3 once stayed beside
        # the rerun's, and load_trace read all five; its report stayed too
        run_cfg = """\
            warp.preset = euclidean
            base.kind = axisphere
            base.resolution = 16
            initial.r0 = 1.0
            initial.modes = 1:0.3
            flow.t_end = 0.3
            flow.safety = 0.5
            """
        first = write_cfg(tmp_path, run_cfg + "flow.snapshot_every = 0.1\n"
                          "checks = A_bounded\n", name="first.cfg")
        second = write_cfg(tmp_path, run_cfg + "flow.snapshot_every = 0.15\n",
                           name="second.cfg")
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert main(["run", "--config", first, "--out", str(used)]) == 0
        assert (used / "report.json").is_file()
        assert main(["run", "--config", second, "--out", str(used)]) == 0
        assert main(["run", "--config", second, "--out", str(fresh)]) == 0
        assert read_bytes_map(used) == read_bytes_map(fresh)
        assert [t for t, _, _ in load_trace(used).snapshots] == [0.0, 0.15, 0.3]

    @pytest.mark.parametrize("warp, r0, checks, code", [
        ("euclidean", 1.0, "asymptotics_roundness", 0),
        ("hyperbolic", 2.0, "asymptotics_roundness, asymptotics_obstruction", 1)])
    def test_roundness_verdict_from_the_run(self, tmp_path, warp, r0, checks, code):
        # r = r0 + 0.3 cos(theta) to t = 8: the euclidean run rounds off
        # within the tolerance its own rate gives; in hyperbolic space
        # max H h grows faster than beta, and the oscillation stays up
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"""\
            warp.preset = {warp}
            base.kind = axisphere
            base.resolution = 24
            initial.r0 = {r0}
            initial.modes = 1:0.3
            flow.t_end = 8.0
            flow.dt_max = 0.01
            checks = {checks}
            """)
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
        report = {c["check_id"]: c for c in
                  json.loads((out / "report.json").read_text())["checks"]}
        roundness = report["asymptotics_roundness"]
        assert roundness["pass"] is (warp == "euclidean")
        d = roundness["details"]
        assert (d["gamma_Hh"] > d["beta_predicted"]) is (warp == "hyperbolic")
        if warp == "hyperbolic":
            assert report["asymptotics_obstruction"]["pass"] is True


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

    def test_round_trip_of_an_event_run(self, tmp_path):
        # the run loses mean convexity at t = 0.11736 (node 62) after 13
        # snapshots; A_bounded then fails on what the trace kept
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, """\
            warp.preset = euclidean
            base.kind = axisphere
            base.resolution = 64
            initial.r0 = 1.0
            initial.modes = 1:0.1
            flow.t_end = 0.2
            flow.safety = 3
            flow.dt_max = 1
            flow.record_every = 0.01
            flow.snapshot_every = 0.01
            checks = growth_and_support, H_floor, A_bounded
            """)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        wspec, base, phi0, fc, _ = build_setup(parse_config(cfg))
        trace = run(GraphState(base, wspec, phi0, 0.0), fc)
        ev = trace.terminal
        assert (ev.kind, ev.node) == ("loss_of_mean_convexity", 62)
        assert ev.t == pytest.approx(0.11736, abs=1e-5)
        assert len(trace.snapshots) == 13
        first = (out / "report.json").read_bytes()
        assert main(["check", "--config", cfg, "--out", str(out)]) == 1
        assert (out / "report.json").read_bytes() == first
        assert load_trace(out).terminal == ev

    def test_trace_values_round_trip_bit_for_bit(self, tmp_path):
        # each row of trace.csv is one %-format, and load_trace parses the
        # file with one np.array call: signed zero, the smallest subnormal,
        # the largest float and the non-finite values come back unchanged
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, POINT_RUN),
                     "--out", str(out)]) == 0
        trace = load_trace(out)
        special = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf,
                   math.nan]
        names = ("t",) + TRACE_COLUMNS
        cols = {name: np.array([special[(i + j) % len(special)]
                                for i in range(len(special))])
                for j, name in enumerate(names)}
        trace.times = cols["t"]
        trace.columns = {name: cols[name] for name in TRACE_COLUMNS}
        config_echo = json.loads((out / "meta.json").read_text())["config"]
        write_outputs(trace, tmp_path / "again", config_echo)
        loaded = load_trace(tmp_path / "again")
        assert loaded.times.tobytes() == cols["t"].tobytes()
        for name in TRACE_COLUMNS:
            assert loaded.columns[name].tobytes() == cols[name].tobytes(), name
        for (t0, s0, _), (t1, s1, _) in zip(trace.snapshots, loaded.snapshots,
                                            strict=True):
            assert t0 == t1 and s0.phi.tobytes() == s1.phi.tobytes()

    @pytest.mark.parametrize("base", ["circle", "axisphere", "torus2"])
    def test_loaded_phi_is_the_run_phi(self, tmp_path, base):
        # no checks: the coarse circle fails evolution_residuals, which is
        # beside the point here
        text = FIELD_RUN.replace("axisphere", base).replace("resolution = 50",
                                                            "resolution = 12")
        cfg = write_cfg(tmp_path, text.replace(
            "checks = growth_and_support, evolution_residuals\n", ""))
        wspec, b, phi0, fc, _ = build_setup(parse_config(cfg))
        trace = run(GraphState(b, wspec, phi0, 0.0), fc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        loaded = load_trace(tmp_path / "out")
        assert len(loaded.snapshots) == len(trace.snapshots) == 4
        for (t0, s0, _), (t1, s1, _) in zip(trace.snapshots, loaded.snapshots):
            assert t0 == t1
            assert s1.phi.shape == b.shape
            assert s0.phi.tobytes() == s1.phi.tobytes()

    @pytest.mark.parametrize("edit", ["phi", "field"])
    def test_bad_snapshot_row_raises(self, tmp_path, edit):
        out = tmp_path / "out"
        main(["run", "--config", write_cfg(tmp_path, FIELD_RUN), "--out", str(out)])
        snap = sorted(out.glob("snapshots/t=*.csv"))[1]
        rows = [r.split(",") for r in snap.read_text(encoding="utf-8").splitlines()]
        if edit == "phi":
            rows[3][rows[0].index("phi")] = "one"
        else:
            del rows[3][rows[0].index("omega")]
        snap.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_trace(out)

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


class TestUnevaluableChecks:
    """A check that cannot evaluate its trace is inapplicable: the command
    writes report.json and exits as the run and the other checks say."""

    def inapplicable(self, out, cid):
        report = json.loads((out / "report.json").read_text())
        rep = next(c for c in report["checks"] if c["check_id"] == cid)
        assert rep["pass"] is None
        return rep["notes"]

    def test_short_trace_for_asymptotics(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, """\
            warp.preset = euclidean
            base.kind = axisphere
            base.resolution = 16
            initial.r0 = 1.0
            initial.modes = 1:0.1
            flow.t_end = 0.2
            checks = asymptotics_roundness
            """)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert self.inapplicable(out, "asymptotics_roundness") == [
            "trace too short for asymptotics (t_end=0.2 < 8)"]
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0

    def test_event_at_the_start_leaves_too_few_snapshots(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, """\
            warp.preset = euclidean
            base.kind = circle
            base.resolution = 32
            initial.r0 = 1.0
            initial.modes = 2:0.6
            flow.t_end = 1.0
            checks = growth_and_support, evolution_residuals
            """)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        meta = json.loads((out / "meta.json").read_text())
        assert meta["terminal"]["kind"] == "loss_of_mean_convexity"
        assert meta["terminal"]["t"] == 0.0
        notes = self.inapplicable(out, "evolution_residuals")
        assert "need at least 3 snapshots" in notes[0]
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0

    def test_trace_with_no_records(self, tmp_path):
        # phi = -1e-308 lies inside hyperbolic's potentials, but F = 2 h' =
        # -2/tanh(phi) overflows: a numeric event at t = 0 leaves trace.csv
        # with only its header, which load_trace once failed to read
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, """\
            warp.preset = hyperbolic
            base.kind = point
            initial.phi = -1e-308
            flow.t_end = 1.0
            checks = growth_and_support, H_floor, evolution_residuals, A_bounded
            """)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert (out / "trace.csv").read_text().count("\n") == 1
        assert self.inapplicable(out, "A_bounded") == ["trace has no records"]
        first = (out / "report.json").read_bytes()
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first
        report = json.loads(first)
        assert all(c["pass"] is None for c in report["checks"])


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

    @pytest.mark.parametrize("points, jobs", [("1.0, 2.0, 3.0", 2), ("1.0, 2.0", 4)])
    def test_shares_match_serial(self, tmp_path, points, jobs):
        # three points in two shares of two and one; two points at
        # --jobs 4 make two shares of one
        cfg = write_cfg(tmp_path, self.SWEEP.replace("1.0, 2.0", points))
        a, b = tmp_path / "serial", tmp_path / "shares"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b),
                     "--jobs", str(jobs)]) == 0
        assert len(list(b.iterdir())) == len(points.split(","))
        assert read_bytes_map(a) == read_bytes_map(b)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_configuration_error_in_a_child_share(self, tmp_path, capfd, jobs):
        # at --jobs 2 the second point is the child's share
        cfg = write_cfg(tmp_path, self.SWEEP.replace("1.0, 2.0", "1.0, -1, 2.0"))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 3
        assert "radius -1.0 outside (0.0, inf)" in capfd.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["initial.r0=1.0",
                                                         "initial.r0=2.0"]
        for p in out.iterdir():
            assert (p / "meta.json").is_file()

    def test_exception_in_a_child_share(self, tmp_path, capfd, monkeypatch):
        # the child prints its traceback and exits 70; the caller runs its
        # own share, reaps the child and raises
        import imcflow.cli as cli
        run_one = cli._run_one

        def planted(task):
            if task[1].name == "initial.r0=2.0":
                raise ZeroDivisionError("planted")
            return run_one(task)

        monkeypatch.setattr(cli, "_run_one", planted)
        cfg = write_cfg(tmp_path, self.SWEEP.replace("1.0, 2.0", "1.0, 2.0, 3.0"))
        out = tmp_path / "sw"
        with pytest.raises(RuntimeError, match="status 70"):
            main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"])
        assert "ZeroDivisionError: planted" in capfd.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["initial.r0=1.0",
                                                         "initial.r0=3.0"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_output_before_the_sweep_is_written_once(self, tmp_path):
        # piped stdout is block-buffered; a child forked with the line in
        # its buffer would write it again when it flushes
        cfg = write_cfg(tmp_path, self.SWEEP.replace("1.0, 2.0", "1.0, 2.0, 3.0"))
        code = ("import sys\nfrom imcflow.cli import main\nprint('before the sweep')\n"
                f"sys.exit(main(['sweep', '--config', {cfg!r}, '--out', "
                f"{str(tmp_path / 'sw')!r}, '--jobs', '3']))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "before the sweep\n"

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

    def test_module_entry_point_from_a_checkout(self, tmp_path, capsys):
        # python -m imcflow with only the source tree on the path
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "imcflow", "presets"],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert main(["presets"]) == 0
        assert done.stdout == capsys.readouterr().out


# the curvature floor applies to schwarzschild3 and passes on this run
FLOOR_RUN = """\
warp.preset = schwarzschild3
base.kind = axisphere
base.resolution = 16
initial.r0 = 1.0
initial.modes = 1:0.1
flow.t_end = 0.1
flow.snapshot_every = 0.05
checks = H_floor
"""


class TestCurvatureFloorFromTheModule:
    """python -m imcflow in a fresh interpreter, as a user runs it: the
    H_floor verdicts that reach report.json."""

    def imcflow(self, tmp_path, *args):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-m", "imcflow", *args],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        return done.returncode

    def floor(self, tmp_path, text, *command):
        """Exit code of run (or another command) and the H_floor entry of
        the report it writes."""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = self.imcflow(tmp_path, *(command or ("run",)), "--config", cfg,
                            "--out", str(out))
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return code, report["checks"][0]

    def test_hyperbolic_circle_is_inapplicable(self, tmp_path):
        # rho = 0 and h h'' - h'^2 = -1: the strict conditions fail
        code, check = self.floor(tmp_path, FLOOR_RUN.replace(
            "schwarzschild3", "hyperbolic").replace(
            "axisphere", "circle").replace("initial.r0 = 1.0", "initial.r0 = 20"))
        assert code == 0
        assert check["pass"] is None
        assert check["hypothesis_status"]["c1_strict"] is False

    def test_schwarzschild3_passes(self, tmp_path):
        code, check = self.floor(tmp_path, FLOOR_RUN)
        assert code == 0 and check["pass"] is True

    def test_infinite_min_H_in_the_trace_does_not_pass(self, tmp_path):
        assert self.floor(tmp_path, FLOOR_RUN)[1]["pass"] is True
        trace = tmp_path / "out" / "trace.csv"
        rows = [r.split(",") for r in trace.read_text(encoding="utf-8").splitlines()]
        rows[2][rows[0].index("min_H")] = "inf"
        trace.write_text("\n".join(",".join(r) for r in rows) + "\n",
                         encoding="utf-8")
        code, check = self.floor(tmp_path, FLOOR_RUN, "check")
        assert code == 1 and check["pass"] is not True

    def test_R1_below_h_on_the_whole_domain_is_inapplicable(self, tmp_path):
        # h >= 3m = 1.5 everywhere, but omega = h Theta at t = 0 falls to
        # R1 = 1.4376 on this steep start, which also loses mean convexity
        # at t = 0 (exit 2); no radius has h = R1
        phi_lo = make_warp("schwarzschild3")._phi_domain[0]
        phi = ", ".join(repr(phi_lo + d) for d in (0.01, 1, 2, 3, 2.5, 2, 1.5, 0.5))
        code, check = self.floor(tmp_path, FLOOR_RUN.replace(
            "axisphere", "circle").replace("resolution = 16", "resolution = 8").replace(
            "initial.r0 = 1.0\ninitial.modes = 1:0.1", f"initial.phi = {phi}"))
        assert code == 2 and check["pass"] is None
        assert math.isclose(check["details"]["R1"], 1.4376, rel_tol=1e-4)
        assert "h >= 1.5" in check["notes"][-1]


SCIPY_USED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")

NUMPY_ONLY_RUN = f"""\
import sys
import numpy as np
import imcflow.cli
from imcflow import flow, geometry, manifold, warp
axisphere = manifold.make_base("axisphere", 16)
torus = manifold.make_base("torus2", 6)
point = manifold.make_base("point", d=2)
saturating = warp.make_warp("saturating", a=2.0, b=1.0, k=1.0)
for base, w, r0 in (
        (axisphere, warp.make_warp("euclidean"), 1.0),
        (axisphere, warp.make_warp("hyperbolic"), 1.0),
        (axisphere, warp.make_warp("power", p=2.0), 1.0),
        (axisphere, warp.make_warp("schwarzschild3", m=0.5), 2.0),
        (torus, warp.make_warp("schwarzschild3", m=0.5), 2.0),
        (axisphere, saturating, 1.0),
        (point, saturating, 1.0)):
    if base.kind == "point":
        r = np.array([r0])
    else:
        angle = base.theta if base.kind == "axisphere" else base.x[:, None] + base.x
        r = r0 * (1.0 + 0.1 * np.cos(angle))
    tr = flow.run(geometry.GraphState.from_radius(base, w, r),
                  flow.FlowConfig(t_end=0.01))
    assert tr.completed, tr.terminal
print(sorted(m for m in {SCIPY_USED!r} if m in sys.modules))
"""

ALL_WARPS = (("euclidean", {}),
             ("hyperbolic", {}),
             ("power", {"p": 2.0}),
             ("schwarzschild3", {"m": 0.5}),
             ("saturating", {"a": 2.0, "b": 1.0, "k": 1.0}))

ROOT_AND_INFIMUM = f"""\
import json
from imcflow import warp
print(json.dumps([[warp.r_at_h(w, 5.0), warp.infimum_h0(w, (1.0, 2.0))]
                  for w in (warp.make_warp(pid, **params)
                            for pid, params in {ALL_WARPS!r})]))
"""

# scipy made unimportable: run, then check the curvature floor, and find
# every preset's radius and h0
WITHOUT_SCIPY = f"""\
import sys
sys.modules["scipy"] = None
from pathlib import Path
from imcflow import cli, warp
cfg = Path(sys.argv[1]) / "run.cfg"
cfg.write_text({FIELD_RUN.replace("growth_and_support, evolution_residuals",
                                  "H_floor")!r})
out = str(Path(sys.argv[1]) / "out")
assert cli.main(["run", "--config", str(cfg), "--out", out]) == 0
assert cli.main(["check", "--config", str(cfg), "--out", out]) == 0
for pid, params in {ALL_WARPS!r}:
    w = warp.make_warp(pid, **params)
    warp.r_at_h(w, 5.0), warp.infimum_h0(w, (1.0, 2.0))
print(sorted(m for m, module in sys.modules.items()
             if m.startswith("scipy") and module is not None))
"""


RUN_AND_CHECK_WITHOUT_NUMPY_MA = f"""\
import sys
from pathlib import Path
from imcflow import cli
cfg = Path(sys.argv[1]) / "run.cfg"
cfg.write_text({FIELD_RUN.replace("growth_and_support, evolution_residuals",
                                  "growth_and_support, H_floor, evolution_residuals, A_bounded")!r})
out = str(Path(sys.argv[1]) / "out")
assert cli.main(["run", "--config", str(cfg), "--out", out]) == 0
assert cli.main(["check", "--config", str(cfg), "--out", out]) == 0
print("numpy.ma" in sys.modules)
"""


class TestColdStart:
    """Fresh interpreters, since this one has loaded scipy already."""

    def python(self, code, *args):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code, *args],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_runs_load_no_scipy_submodule(self):
        # the CLI, every warp preset (saturating's tables included), field
        # runs on the axisphere and the torus and point runs need numpy alone
        assert self.python(NUMPY_ONLY_RUN).strip() == "[]"

    def test_run_and_curvature_floor_check_without_scipy(self, tmp_path):
        assert self.python(WITHOUT_SCIPY, str(tmp_path)).strip() == "[]"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [c["check_id"] for c in report["checks"]] == ["H_floor"]

    def test_run_and_check_leave_numpy_ma_unloaded(self, tmp_path):
        # np.median imports numpy.ma on its first call (about 14 ms and
        # 2 MB); the checks take their medians by sorting
        assert self.python(RUN_AND_CHECK_WITHOUT_NUMPY_MA, str(tmp_path)).strip() == "False"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [c["check_id"] for c in report["checks"]] == [
            "growth_and_support", "H_floor", "evolution_residuals", "A_bounded"]

    def test_tables_and_root_finders_work_from_a_cold_start(self):
        # the same values as in this interpreter, where scipy is loaded
        cold = json.loads(self.python(ROOT_AND_INFIMUM))
        assert len(cold) == len(ALL_WARPS)
        for (pid, params), (r, inf_h0) in zip(ALL_WARPS, cold):
            w = make_warp(pid, **params)
            assert (r, inf_h0) == (r_at_h(w, 5.0), infimum_h0(w, (1.0, 2.0))), pid
            assert abs(float(eval_warp(w, r)[0]) - 5.0) < 1e-12, pid


class TestRunChecks:
    def test_unknown_id_raises_naming_the_known_ids(self):
        # raised before any check runs, so no trace is needed
        with pytest.raises(ValueError, match="'no_such_check'") as exc:
            run_checks(None, ["A_bounded", "no_such_check"])
        for cid in CHECK_IDS:
            assert cid in str(exc.value)

