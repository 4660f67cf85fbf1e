"""Command line front end.

Every command reads a YAML run file and writes its artifacts under
out/<command>/<hash>/ where the hash digests the effective configuration, so
reruns of the same run land in the same directory and different runs never
collide.  Result files are written atomically and deterministically; the
manifest (which records wall time) is the only file that varies between
identical reruns.

Exit codes: 0 success, 1 infeasible target or runtime failure, 2 bad usage
or configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from io import StringIO
from pathlib import Path

import numpy as np
import scipy

from . import __version__, errors, ldp, mc, sim, varsolve
from .config import SECTIONS, build_field, check_seed, load_config
from .mc import BallTarget


class _Outputs:
    """Collects artifacts for one run directory and writes the manifest last.

    Commands create it on entry, so the manifest's wall time covers the
    computation; the directory itself appears with the first artifact.  An
    --out that runs through a file fails here, before any computation.
    """

    def __init__(self, args, command, cfg, seed):
        self.effective = {"command": command, "seed": seed, "config": cfg.raw}
        digest = hashlib.sha256(
            json.dumps(self.effective, sort_keys=True).encode()).hexdigest()[:12]
        self.run_dir = Path(args.out) / command / digest
        ancestor = next(p for p in (self.run_dir, *self.run_dir.parents) if p.exists())
        if not ancestor.is_dir():
            raise errors.SelfJumpError(f"cannot write {self.run_dir}: Not a directory")
        self.names = []
        self.t0 = time.monotonic()

    def _write(self, name, text):
        path = self.run_dir / name
        try:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / (name + ".tmp")
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError as exc:
            raise errors.SelfJumpError(
                f"cannot write {path}: {exc.strerror or exc}") from exc

    def write_text(self, name, text):
        self._write(name, text)
        self.names.append(name)

    def write_json(self, name, obj):
        """Write obj as RFC 8259 JSON, which has no NaN or Infinity: they become null."""
        obj = json.loads(json.dumps(obj), parse_constant=lambda constant: None)
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
                        + "\n")

    def write_csv(self, name, writer_fn, *args):
        buf = StringIO()
        writer_fn(*args, buf)
        self.write_text(name, buf.getvalue())

    def finish(self):
        manifest = {
            "command": self.effective["command"],
            "config": self.effective["config"],
            "seed": self.effective["seed"],
            "outputs": sorted(self.names),
            "versions": {
                "selfjump": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": time.monotonic() - self.t0,
            "created": datetime.now(timezone.utc).isoformat(),
        }
        self._write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def note(self, fmt):
        stream = sys.stderr if fmt == "csv" else sys.stdout
        print(f"wrote {self.run_dir}", file=stream)


def _emit(out, fmt, primary_csv, pretty_lines):
    if fmt == "csv":
        sys.stdout.write((out.run_dir / primary_csv).read_text())
    else:
        for line in pretty_lines:
            print(line)
    out.note(fmt)


def _fmt(x):
    return repr(float(x))


def _record(result):
    """A dataclass result as a JSON-ready dict of its fields."""
    return {f.name: getattr(result, f.name) for f in fields(result)}


# -- commands ----------------------------------------------------------------


def _cmd_validate(args, cfg, seed):
    field = build_field(cfg.field)
    print("config OK")
    print(f"family: {field.family}  states: {field.d}  "
          f"edges: {len(field.support_edges())}")
    print(f"rate upper bound: {_fmt(field.rate_upper)}  "
          f"lower coefficient: {_fmt(field.rate_lower_coeff)}")
    present = [s for s in SECTIONS if s in cfg.raw]
    if present:
        print("sections: " + ", ".join(present))
    return 0


def _cmd_simulate(args, cfg, seed):
    out = _Outputs(args, "simulate", cfg, seed)
    field = build_field(cfg.field)
    sc = cfg.need("simulate")
    batch = sim.batch_simulate(field, seed=seed, **sc)
    first = batch.first_trajectory
    out.write_csv("batch.csv", sim.write_batch_csv, batch)
    out.write_csv("trajectory.csv", sim.write_trajectory_csv, first)
    results = {
        **sc,
        "mean_occupation": batch.mean_occupation.tolist(),
        "var_occupation": batch.var_occupation.tolist(),
        "mean_flux": batch.mean_flux.tolist(),
        "jumps": batch.jumps,
        "candidates": batch.candidates,
        "accept_ratio": batch.jumps / batch.candidates if batch.candidates else None,
    }
    out.write_json("results.json", results)
    out.finish()
    mean = ", ".join(_fmt(v) for v in batch.mean_occupation)
    _emit(out, args.format, "batch.csv", [
        f"{sc['n_paths']} paths to t={sc['horizon']}",
        f"mean occupation: [{mean}]",
        f"first path jumps: {first.n_jumps}",
    ])
    return 0


def _cmd_dv_rate(args, cfg, seed):
    out = _Outputs(args, "dv-rate", cfg, seed)
    field = build_field(cfg.field)
    if field.family != "constant":
        raise errors.ConfigError(
            "dv-rate applies to constant fields; use 'rate' for interacting ones",
            "field.family")
    gamma = cfg.need("target.gamma")
    flux = cfg.need("target.flux")
    value = ldp.dv_rate(field.vertices[0], gamma, flux)
    reason = ldp.flux_infeasibility(field.support, flux, gamma)
    if reason is not None:
        print(f"infeasible: {reason}", file=sys.stderr)
        return 1
    out.write_json("results.json", {"value": value, "gamma": gamma.tolist(),
                                    "flux": flux.tolist()})
    out.write_text("value.csv", "value\n" + _fmt(value) + "\n")
    out.finish()
    _emit(out, args.format, "value.csv", [_fmt(value)])
    return 0


# solve command -> (varsolve function, the target keys it takes first)
_SOLVES = {
    "rate": ("solve_rate", ("gamma", "flux")),
    "occupation-rate": ("occupation_rate", ("gamma",)),
    "current-rate": ("current_rate", ("current",)),
}


def _cmd_solve(args, cfg, seed):
    name, keys = _SOLVES[args.command]
    field = build_field(cfg.field)
    values = [cfg.need(f"target.{key}") for key in keys]
    opts = cfg.solve_options()
    out = _Outputs(args, args.command, cfg, seed)
    # looked up per run, so wrappers set on the module are seen
    result = getattr(varsolve, name)(*values, field, opts)
    if result.status == "infeasible":
        print(f"infeasible: {result.detail}", file=sys.stderr)
        return 1
    out.write_json("results.json", varsolve.rate_result_to_dict(result))
    out.write_csv("path.csv", varsolve.write_control_path_csv, result.path)
    out.write_text("value.csv", "value,status\n"
                   + _fmt(result.value) + "," + result.status + "\n")
    out.finish()
    rd = result.residuals
    _emit(out, args.format, "value.csv", [
        f"value: {_fmt(result.value)}",
        f"status: {result.status}",
        f"residuals: marginal {rd['marginal']:.2e}  stationarity "
        f"{rd['stationarity']:.2e}  flux {rd['flux']:.2e}  simplex {rd['simplex']:.2e}",
    ])
    return 0


def _cmd_fixed_point(args, cfg, seed):
    out = _Outputs(args, "fixed-point", cfg, seed)
    field = build_field(cfg.field)
    fp = dict(cfg.sections["fixed_point"])
    n_starts = fp.pop("n_starts")
    if n_starts > 1:
        results = ldp.fixed_point_multistart(field, n_starts=n_starts, seed=seed, **fp)
        payload = [{**_record(r), "pi": r.pi.tolist()} for r in results]
        out.write_json("results.json", {"fixed_points": payload})
        out.write_text("value.csv", "index," + ",".join(
            f"pi_{k+1}" for k in range(field.d)) + ",converged\n" + "".join(
            f"{i}," + ",".join(_fmt(v) for v in r.pi) + f",{int(r.converged)}\n"
            for i, r in enumerate(results)))
        lines = [f"{len(results)} distinct fixed point(s)"]
        for i, r in enumerate(results):
            pi = ", ".join(_fmt(v) for v in r.pi)
            lines.append(f"  [{i}] pi = [{pi}]  converged={r.converged} "
                         f"iterations={r.iterations}")
    else:
        r = ldp.fixed_point_pi_star(field, **fp)
        out.write_json("results.json", {**_record(r), "pi": r.pi.tolist()})
        out.write_text("value.csv", ",".join(f"pi_{k+1}" for k in range(field.d))
                       + ",converged\n" + ",".join(_fmt(v) for v in r.pi)
                       + f",{int(r.converged)}\n")
        pi = ", ".join(_fmt(v) for v in r.pi)
        lines = [f"pi = [{pi}]", f"converged: {r.converged}  "
                 f"iterations: {r.iterations}  residual: {r.residual:.2e}"]
        if not r.converged:
            lines.append("warning: not converged to tolerance; best iterate shown")
    out.finish()
    _emit(out, args.format, "value.csv", lines)
    return 0


def _cmd_mc_ldp(args, cfg, seed):
    out = _Outputs(args, "mc-ldp", cfg, seed)
    field = build_field(cfg.field)
    mcc = cfg.need("mc")
    target = BallTarget(mcc["center"], mcc["radius"])
    points = mc.decay_curve(field, mcc["x0"], target, mcc["times"], mcc["n_paths"],
                            seed=seed)
    if "rate" in mcc:
        rate, rate_source = mcc["rate"], "config"
    else:
        res = varsolve.occupation_rate(mcc["center"], field, cfg.solve_options())
        rate, rate_source = res.value, "solved at ball center"
    comparison = mc.compare_to_rate(points, rate)
    out.write_csv("decay.csv", mc.write_decay_csv, points)
    out.write_json("results.json", {
        "points": [_record(p) for p in points],
        "rate": rate,
        "rate_source": rate_source,
        "gaps": comparison.gaps,
        "trend": comparison.trend,
        "n_censored": comparison.n_censored,
        "inconclusive": comparison.inconclusive,
    })
    out.finish()
    lines = [f"{'t':>10} {'p_hat':>12} {'ci_low':>12} {'ci_high':>12} "
             f"{'censored':>9} {'-log(p)/t':>12}"]
    for p in points:
        lines.append(f"{p.t:>10.4g} {p.p_hat:>12.6g} {p.ci_low:>12.6g} "
                     f"{p.ci_high:>12.6g} {str(p.censored):>9} "
                     f"{p.neg_log_rate:>12.6g}")
    lines.append(f"reference rate: {_fmt(rate)} ({rate_source})")
    lines.append(f"trend: {comparison.trend}  censored: {comparison.n_censored}  "
                 f"inconclusive: {comparison.inconclusive}")
    _emit(out, args.format, "decay.csv", lines)
    return 0


# command -> (handler, help)
_COMMANDS = {
    "validate": (_cmd_validate, "parse and check a run file"),
    "simulate": (_cmd_simulate, "sample trajectories and occupation statistics"),
    "dv-rate": (_cmd_dv_rate, "closed-form level-2.5 rate for a constant field"),
    "rate": (_cmd_solve, "minimize the control cost at fixed occupation and flux"),
    "occupation-rate": (_cmd_solve, "minimize the control cost at fixed occupation"),
    "current-rate": (_cmd_solve, "minimize the control cost at fixed net current"),
    "fixed-point": (_cmd_fixed_point, "self-consistent stationary distribution(s)"),
    "mc-ldp": (_cmd_mc_ldp, "Monte Carlo decay curve against the variational rate"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="selfjump",
        description="Simulate self-interacting jump processes and evaluate "
                    "their large-deviation rate functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="YAML run file")
        p.add_argument("--out", default="out", help="output root (default: out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--format", choices=("csv", "pretty"), default="pretty",
                       help="stdout rendering")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            check_seed(args.seed, "--seed")
        cfg = load_config(args.config)
        seed = cfg.seed if args.seed is None else args.seed
        return _COMMANDS[args.command][0](args, cfg, seed)
    except errors.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except errors.SelfJumpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
