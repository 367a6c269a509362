"""Config-driven command line front end.

Subcommands: run (integrate and write trace/snapshots/meta), check (evaluate
checks against a stored trace directory), sweep (cartesian product of
sweep.* keys into isolated subdirectories), presets (print the warp
catalog).  Config files are line-oriented `dotted.key = value` text with
`#` comments.

All floats are written with 17 significant digits and every reduction has a
fixed evaluation order, so identical configs produce byte-identical
trace.csv and report.json.

Exit codes: 0 run completed / all checks passed, 1 a check failed, 2 the
flow terminated with an event, 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from dataclasses import MISSING, fields
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .warp import PRESETS, WarpDomainError, make_warp, phi_domain_violation, radial_potential
from .manifold import make_base
from .geometry import GraphState, snapshot
from .flow import FlowConfig, FlowTrace, FlowEvent, run, TRACE_COLUMNS
from . import verify as _verify

__all__ = ["main", "parse_config", "ConfigError", "load_trace"]

FMT = "%.17g"

# check id -> (verify function, its arguments after the trace); the function
# is looked up when called, so a replaced module attribute takes effect
_CHECKS = {
    "growth_and_support": ("check_growth_and_support", ()),
    "H_floor": ("check_H_floor", ()),
    "asymptotics_roundness": ("check_asymptotics", ("expect_roundness",)),
    "asymptotics_obstruction": ("check_asymptotics", ("expect_obstruction",)),
    "evolution_residuals": ("evolution_residuals", ()),
    "A_bounded": ("check_A_bounded", ()),
}
CHECK_IDS = tuple(_CHECKS)


class ConfigError(Exception):
    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        prefix = f"config error ({', '.join(where)}): " if where else "config error: "
        super().__init__(prefix + message)


def parse_config(path):
    """Dotted-key config text -> ordered {key: (value_string, line_no)}."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(exc))
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=i)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not all(p.isidentifier() for p in key.split(".")):
            raise ConfigError(f"malformed key {key!r}", line=i)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=i, field=key)
        out[key] = (val, i)
    return out


def _take(cfg, key, conv, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError("missing required key", field=key)
        return default
    val, line = cfg.pop(key)
    try:
        return conv(val)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value {val!r}: {exc}", line=line, field=key)


def _parse_modes(s):
    modes = []
    if not s:
        return modes
    for part in s.split(","):
        part = part.strip()
        if not part:
            continue
        l, _, a = part.partition(":")
        modes.append((int(l), float(a)))
    return modes


def _parse_floats(s):
    return [float(x) for x in s.split(",") if x.strip()]


def _known_ids(ids):
    for x in ids:
        if x not in CHECK_IDS:
            raise ValueError(f"unknown check id {x!r} (known: {', '.join(CHECK_IDS)})")
    return ids


def _parse_ids(s):
    return _known_ids([x.strip() for x in s.split(",") if x.strip()])


def _extract_checks(cfg):
    """The requested check ids.  Every check takes its bounds from the run,
    so a check.* key is a configuration error."""
    for key, (_, line) in cfg.items():
        if key.startswith("check."):
            raise ConfigError("checks take no parameters", line=line, field=key)
    return _take(cfg, "checks", _parse_ids, default=[])


def _base_key(kind, resolution, exc):
    """The config key a make_base error is about.  make_base tests the kind,
    then the resolution; then the base tests d, where a TypeError is a d
    given to a base whose dimension is fixed."""
    if kind not in ("point", "circle", "axisphere", "torus2"):
        return "base.kind"
    if kind == "point":
        return "base.d" if resolution is None else "base.resolution"
    return "base.d" if isinstance(exc, TypeError) else "base.resolution"


def build_setup(cfg):
    """Consume config entries into (warp, base, phi0, FlowConfig, checks)."""
    cfg = dict(cfg)
    preset = _take(cfg, "warp.preset", str, required=True)
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}", field="warp.preset")
    params = {}
    for key in list(cfg):
        if key.startswith("warp."):
            name = key.split(".", 1)[1]
            params[name] = _take(cfg, key, float)
    try:
        wspec = make_warp(preset, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field="warp.*")

    kind = _take(cfg, "base.kind", str, required=True)
    resolution = _take(cfg, "base.resolution", int)
    rho = _take(cfg, "base.rho", float)
    kw = {} if rho is None else {"rho": rho}
    dim = _take(cfg, "base.d", int)
    if dim is not None:
        kw["d"] = dim
    try:
        base = make_base(kind, resolution, **kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field=_base_key(kind, resolution, exc))

    phi_lit = _take(cfg, "initial.phi", _parse_floats)
    for key in ("initial.r0", "initial.modes"):
        if phi_lit is not None and key in cfg:
            raise ConfigError("ignored beside initial.phi, which sets the whole start",
                              line=cfg[key][1], field=key)
    r0 = _take(cfg, "initial.r0", float)
    modes = _take(cfg, "initial.modes", _parse_modes, default=[])
    if phi_lit is not None:
        phi0 = np.array(phi_lit, dtype=float)
        if phi0.size != base.n_nodes:
            raise ConfigError(f"initial.phi has {phi0.size} values, base has "
                              f"{base.n_nodes} nodes", field="initial.phi")
        phi0 = phi0.reshape(base.shape)
    else:
        if r0 is None:
            raise ConfigError("need initial.r0 or initial.phi", field="initial.r0")
        if base.kind == "point":
            if modes:
                raise ConfigError("modes need an angular base", field="initial.modes")
            r = np.full(base.shape, r0)
        else:
            theta = base.theta if base.kind in ("circle", "axisphere") \
                else base.x[:, None] + 0.0 * base.x[None, :]
            r = np.full(base.shape, r0)
            for l, a in modes:
                r = r + a * np.cos(l * theta)
        try:
            phi0 = radial_potential(wspec, r)
        except WarpDomainError as exc:
            raise ConfigError(str(exc), field="initial.r0")
    node = phi_domain_violation(wspec, phi0)
    if node is not None:    # a start the flow would end at t = 0
        raise ConfigError(f"potential {float(phi0.flat[node])!r} at node {node} outside "
                          f"the domain of {preset}",
                          field="initial.r0" if phi_lit is None else "initial.phi")

    # only the flow.* keys the config sets; FlowConfig holds the defaults
    flow_kw = {}
    for f in fields(FlowConfig):
        key = "flow." + f.name
        if key in cfg or f.default is MISSING:
            conv = float if f.default is MISSING else type(f.default)
            flow_kw[f.name] = _take(cfg, key, conv, required=True)
    try:
        fc = FlowConfig(**flow_kw)
    except ValueError as exc:
        raise ConfigError(str(exc), field="flow.*")

    checks = _extract_checks(cfg)
    cfg.pop("output_dir", None)
    for key, (_, line) in cfg.items():
        if not key.startswith("sweep."):
            raise ConfigError(f"unknown key {key!r}", line=line, field=key)
    return wspec, base, phi0, fc, checks


# ---------------------------------------------------------------------------
# serialization

def _write_csv(path, names, cols):
    """A header of names, then one line per row of the 1D arrays cols,
    formatted by one FMT % tuple over their float lists."""
    fmt = ",".join([FMT] * len(cols))
    rows = zip(*(c.tolist() for c in cols))
    path.write_text("\n".join([",".join(names), *(fmt % r for r in rows)]) + "\n",
                    encoding="utf-8")


def _read_csv(path):
    """(column names, rows split into strings) of a file _write_csv wrote;
    ValueError when a row has not the header's number of fields."""
    head, _, body = path.read_text(encoding="utf-8").strip().partition("\n")
    names = head.split(",")
    rows = [line.split(",") for line in body.split("\n")] if body else []
    if any(len(row) != len(names) for row in rows):
        raise ValueError(f"{path}: a row has not the header's {len(names)} fields")
    return names, rows


def write_outputs(trace, outdir, config_echo):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "trace.csv", ("t",) + TRACE_COLUMNS,
               [trace.times] + [trace.columns[c] for c in TRACE_COLUMNS])

    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    # the directory holds this run's files alone: load_trace would read an
    # earlier run's snapshots as this run's, and its report would outlive it
    for stale in [*snapdir.glob("t=*.csv"), outdir / "report.json"]:
        stale.unlink(missing_ok=True)
    base = trace.base
    if base.kind in ("circle", "axisphere"):
        coord_name, coords = "theta", base.theta
    else:
        coord_name, coords = "index", np.arange(base.n_nodes)
    for t, state, snap in trace.snapshots:
        _write_csv(snapdir / f"t={float(t)!r}.csv",
                   (coord_name, "r", "phi", "Theta", "H", "omega"),
                   [coords, snap.r.ravel(), state.phi.ravel(),
                    snap.theta.ravel(), snap.H.ravel(), snap.omega.ravel()])

    terminal = ({"status": "completed"} if trace.completed
                else {"status": "event", **trace.terminal.as_dict()})
    meta = {
        "config": config_echo,
        "n": trace.n,
        "stats": trace.stats,
        "terminal": terminal,
        "versions": {
            "imcflow": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    (outdir / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_trace(outdir):
    """Rebuild a FlowTrace from a run directory written by write_outputs.

    Diagnostics come bit-exactly from trace.csv; snapshot geometry is
    recomputed from the stored phi fields through the same snapshot code
    the run used, so a snapshot file's phi column is the only one parsed.
    Every row of either file must have its header's number of fields.
    """
    outdir = Path(outdir)
    meta_path = outdir / "meta.json"
    trace_path = outdir / "trace.csv"
    if not meta_path.is_file() or not trace_path.is_file():
        raise ConfigError(f"no trace in {outdir} (need meta.json and trace.csv)")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    cfg = {k: (v, None) for k, v in meta["config"].items()}
    wspec, base, _, fc, _ = build_setup(cfg)

    header, rows = _read_csv(trace_path)
    data = np.array(rows, dtype=float).reshape(-1, len(header))
    times = data[:, 0]
    columns = {name: data[:, j] for j, name in enumerate(header) if j > 0}

    snaps = []
    snapdir = outdir / "snapshots"
    if snapdir.is_dir():
        entries = sorted(snapdir.glob("t=*.csv"),
                         key=lambda p: float(p.stem[2:]))
        for p in entries:
            t = float(p.stem[2:])
            # snapshot recomputes the other columns from phi: only it is parsed
            names, rows = _read_csv(p)
            j = names.index("phi")
            phi = np.array([r[j] for r in rows], dtype=float).reshape(base.shape)
            state = GraphState(base, wspec, phi, t)
            snaps.append((t, state, snapshot(state)))

    if meta["terminal"]["status"] == "completed":
        terminal = "completed"
    else:
        ev = meta["terminal"]
        terminal = FlowEvent(ev["kind"], ev["t"], ev["node"], ev["value"])
    return FlowTrace(base=base, warp=wspec, config=fc, times=times,
                     columns=columns, snapshots=snaps, terminal=terminal,
                     stats=meta.get("stats", {}))


# ---------------------------------------------------------------------------
# checks

def run_checks(trace, check_ids):
    """Reports of the checks, in the order of check_ids.  A check that
    cannot evaluate this trace (too short, too few snapshots, ended
    by an event) raises ValueError; it is reported inapplicable, with the
    error text as its note."""
    reports = []
    for cid in _known_ids(list(check_ids)):
        fn, args = _CHECKS[cid]
        try:
            report = getattr(_verify, fn)(trace, *args)
        except ValueError as exc:
            report = _verify.CheckReport(cid, {}, None, float("nan"),
                                         float("nan"), notes=[str(exc)])
        reports.append(report)
    return reports


def write_report(reports, outdir):
    doc = {"checks": [r.as_dict() for r in reports],
           "all_passed": all(r.passed is not False for r in reports)}
    path = Path(outdir) / "report.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return doc


# ---------------------------------------------------------------------------
# subcommands

def _echo(cfg):
    return {k: v for k, (v, _) in sorted(cfg.items())}


def _out_dir(cfg, outdir, what):
    """--out, else the config's output_dir; ConfigError when neither is set."""
    if outdir is None:
        outdir = cfg.get("output_dir", (None, None))[0]
    if outdir is None:
        raise ConfigError(f"no {what} directory (use --out or output_dir)")
    return outdir


def cmd_run(config_path, outdir):
    cfg = parse_config(config_path)
    return _run_one((cfg, _out_dir(cfg, outdir, "output")))


def cmd_check(config_path, outdir):
    cfg = parse_config(config_path)
    outdir = _out_dir(cfg, outdir, "trace")
    # only the check keys matter here; run keys describe the stored trace
    checks = _extract_checks(dict(cfg))
    if not checks:
        raise ConfigError("no checks requested", field="checks")
    doc = write_report(run_checks(load_trace(outdir), checks), outdir)
    return 0 if doc["all_passed"] else 1


def _sweep_label(assignment):
    return "__".join(f"{k.split('.', 1)[1]}={v}" for k, v in assignment)


def cmd_sweep(config_path, outdir, jobs):
    """Run the cartesian product of the sweep.* axes, one subdirectory per
    point; the largest exit code of the points.

    With jobs > 1 the points are split into min(jobs, points) fixed
    shares (_run_shares): this process runs the first and a forked child
    each of the others, so a share's points run in the same process on
    every sweep.
    """
    cfg = parse_config(config_path)
    outdir = _out_dir(cfg, outdir, "output")
    sweep_keys = sorted(k for k in cfg if k.startswith("sweep."))
    if not sweep_keys:
        raise ConfigError("sweep needs at least one sweep.* key")
    axes = []
    for k in sweep_keys:
        val, line = cfg.pop(k)
        vals = [v.strip() for v in val.split(",") if v.strip()]
        if not vals:
            raise ConfigError("empty sweep axis", line=line, field=k)
        axes.append([(k, v) for v in vals])

    tasks = []
    for combo in product(*axes):
        sub = dict(cfg)
        assignment = []
        for k, v in combo:
            target = k.split(".", 1)[1]
            sub[target] = (v, None)
            assignment.append((k, v))
        subdir = Path(outdir) / _sweep_label(assignment)
        tasks.append((sub, subdir))

    if jobs > 1 and len(tasks) > 1:
        return _run_shares(tasks, min(jobs, len(tasks)))
    return max(_run_one(t) for t in tasks)


def _run_shares(tasks, n):
    """The largest exit code of tasks run in n shares: this process runs
    tasks[0::n], and forked child k runs tasks[k::n] and exits with the
    largest code of its share, or 70 with its traceback on stderr when it
    raises.

    Runs are numpy-bound, so threads would serialize on the GIL; a forked
    child inherits the modules this process has loaded.  Every child is
    reaped, also when this process's share raises; a child's status
    outside 0-3 raises RuntimeError.
    """
    pids = []
    try:
        for k in range(1, n):
            # a child inherits the unwritten buffers and would write them too
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                code = 70
                try:
                    code = max(_run_one(t) for t in tasks[k::n])
                except BaseException:
                    traceback.print_exc()
                finally:
                    # the child never returns into the caller's code
                    try:
                        sys.stdout.flush()
                        sys.stderr.flush()
                    finally:
                        os._exit(code)
            pids.append(pid)
        codes = [_run_one(t) for t in tasks[0::n]]
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code in zip(pids, statuses):
        if not 0 <= code <= 3:
            raise RuntimeError(f"sweep child {pid} exited with status {code}")
    return max(codes + statuses)


def _run_one(task):
    """Run one config (entries, output directory) and its checks; exit code."""
    sub, subdir = task
    echo = _echo(sub)
    try:
        wspec, base, phi0, fc, checks = build_setup(sub)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 3
    trace = run(GraphState(base, wspec, phi0, 0.0), fc)
    write_outputs(trace, subdir, echo)
    code = 0
    if checks:
        doc = write_report(run_checks(trace, checks), subdir)
        code = 0 if doc["all_passed"] else 1
    if not trace.completed:
        code = 2
    return code


def cmd_presets():
    for name in sorted(PRESETS):
        info = PRESETS[name]
        print(f"{name}: {info['summary']}")
        print(f"  params: {info['params']}")
        print(f"  conditions: {info['conditions']}")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="imcflow",
        description="inverse mean curvature flow simulator and checker")
    parser.add_argument("command", nargs="?",
                        choices=["run", "check", "sweep", "presets"])
    parser.add_argument("--config", help="path to config file")
    parser.add_argument("--out", help="output (run/sweep) or trace (check) directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep runs")
    args = parser.parse_args(argv)

    try:
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 3
        if args.command == "presets":
            return cmd_presets()
        if not args.config:
            raise ConfigError("--config is required")
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "check":
            return cmd_check(args.config, args.out)
        return cmd_sweep(args.config, args.out, args.jobs)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
