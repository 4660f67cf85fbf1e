"""Command line front end.

Every command reads a YAML run file.  ``validate`` checks it and prints a
summary; every other command writes its artifacts under
out/<command>/<hash>/ where the hash digests the effective configuration, so
reruns of the same run land in the same directory and different runs never
collide.  Result files are written atomically and deterministically; the
manifest (which records wall time) is the only file that varies between
identical reruns.

This is the one module that knows the file formats: the library returns
records, and ``_json``, ``_table`` and ``_trajectory_csv`` render them.  A
command is a function of (cfg, seed, field) that returns (results,
artifacts, primary, lines): the results.json object, its other artifacts as
{name: text}, the name of the CSV that --format csv streams, and the pretty
lines.  It writes and prints nothing.  ``_run`` checks --out and starts the
manifest's clock before the field is built, runs the command, writes every
artifact and then the manifest, and then prints the lines, or prints the
primary CSV's text, the bytes it wrote, and notes the run directory on
stderr.  The manifest's ``phases`` split the wall time into building the
field, the command and the writes.  A target with no finite cost raises
``_Infeasible``, which writes nothing.

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
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import chain
from pathlib import Path

# One BLAS thread unless the user sets another count: the solver's small BLAS
# calls gain nothing from more, and sampling forks workers from this
# process.  BLAS reads these as numpy loads it; the library sets nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from . import __version__, errors, ldp, mc, sim, varsolve
from .config import SECTIONS, build_field, check_seed, load_config
from .core import edge_pairs
from .mc import BallTarget


class _Infeasible(Exception):
    """The target has no finite cost; main reports the reason and exits 1."""


class _Outputs:
    """The run directory of one command; ``write`` puts the manifest last.

    Created before the field is built, so the manifest's wall time covers
    the computation; the directory itself appears with the first artifact.
    An --out that runs through a file fails here, before any computation.
    ``lap`` records the seconds since the last lap as a phase.
    """

    def __init__(self, args, cfg, seed):
        self.effective = {"command": args.command, "seed": seed, "config": cfg.raw}
        digest = hashlib.sha256(
            json.dumps(self.effective, sort_keys=True).encode()).hexdigest()[:12]
        self.run_dir = Path(args.out) / args.command / digest
        ancestor = next(p for p in (self.run_dir, *self.run_dir.parents) if p.exists())
        if not ancestor.is_dir():
            raise errors.SelfJumpError(f"cannot write {self.run_dir}: Not a directory")
        self.t0 = self._lap_start = time.monotonic()
        self.phases = {}

    def lap(self, phase):
        now = time.monotonic()
        self.phases[phase] = now - self._lap_start
        self._lap_start = now

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

    def write(self, artifacts):
        """Write each artifact (name -> text), then the manifest."""
        import scipy  # for its version only, so importing the CLI does not load it
        for name, text in artifacts.items():
            self._write(name, text)
        self.lap("write_s")
        manifest = {
            **self.effective,
            "outputs": sorted(artifacts),
            "versions": {
                "selfjump": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            "phases": self.phases,
            "wall_time_s": time.monotonic() - self.t0,
            "created": datetime.now(timezone.utc).isoformat(),
        }
        self._write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# trajectory.csv rows turned into Python objects at a time, so a long path
# is never held whole as Python objects (some 80 bytes per row)
_TRAJECTORY_SLICE = 8192


def _plain(obj):
    """json.dumps's fallback: an array or numpy scalar as its list or value,
    a dataclass as the mapping of its fields."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json(obj):
    """obj as RFC 8259 JSON, which has no NaN or Infinity: they become null."""
    obj = json.loads(json.dumps(obj, default=_plain), parse_constant=lambda constant: None)
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _table(header, rows):
    """A CSV with each cell written with str and each row ended in \\r\\n:
    the bytes of ``csv.writer``, since no number or name needs quoting.
    Floats must be Python floats, whose str is their shortest repr."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in chain([header], rows))


def _names(prefix, n):
    return [f"{prefix}{k + 1}" for k in range(n)]


def _edges(mats):
    """The edge entries of each d x d matrix in mats, in ``edge_pairs`` order."""
    rows, cols = zip(*edge_pairs(mats.shape[-1]))
    return mats[:, list(rows), list(cols)]


def _trajectory_csv(traj):
    """Rows time,from,to: ``_table``'s bytes, formatted _TRAJECTORY_SLICE
    rows at a time by one f-string, which is faster on long paths."""
    parts = ["time,from,to\r\n"]
    for lo in range(0, traj.n_jumps, _TRAJECTORY_SLICE):
        part = slice(lo, lo + _TRAJECTORY_SLICE)
        parts.append("".join(f"{t!r},{s},{d}\r\n" for t, s, d in zip(
            traj.times[part].tolist(), traj.sources[part].tolist(),
            traj.targets[part].tolist())))
    return "".join(parts)


def _fmt(x):
    return repr(float(x))


# -- commands ----------------------------------------------------------------


def _validate(cfg):
    """The pretty lines of ``validate``, which writes no run directory."""
    field = build_field(cfg.field)
    lines = ["config OK",
             f"family: {field.family}  states: {field.d}  "
             f"edges: {int(field.support.sum())}",
             f"rate upper bound: {_fmt(field.rate_upper)}  "
             f"lower coefficient: {_fmt(field.rate_lower_coeff)}"]
    present = [s for s in SECTIONS if s in cfg.raw]
    if present:
        lines.append("sections: " + ", ".join(present))
    return lines


def _cmd_simulate(cfg, seed, field):
    sc = cfg.need("simulate")
    batch = sim.batch_simulate(field, seed=seed, **sc)
    first = batch.first_trajectory
    results = {
        **sc,
        "mean_occupation": batch.mean_occupation,
        "var_occupation": batch.var_occupation,
        "mean_flux": batch.mean_flux,
        "jumps": batch.jumps,
        "candidates": batch.candidates,
        "accept_ratio": batch.jumps / batch.candidates if batch.candidates else None,
    }
    # path i's seed_index, the path index of its stream, is i
    d = field.d
    values = np.concatenate([batch.occupations, _edges(batch.fluxes)], axis=1)
    batch_csv = _table(["path", "seed_index", *_names("L_", d),
                        *_names("R_edge", d * (d - 1))],
                       ([i, i, *row] for i, row in enumerate(values.tolist())))
    artifacts = {"batch.csv": batch_csv, "trajectory.csv": _trajectory_csv(first)}
    mean = ", ".join(_fmt(v) for v in batch.mean_occupation)
    return results, artifacts, "batch.csv", [
        f"{sc['n_paths']} paths to t={sc['horizon']}",
        f"mean occupation: [{mean}]",
        f"first path jumps: {first.n_jumps}",
    ]


def _cmd_dv_rate(cfg, seed, field):
    if field.family != "constant":
        raise errors.ConfigError(
            "dv-rate applies to constant fields; use 'rate' for interacting ones",
            "field.family")
    gamma = cfg.need("target.gamma")
    flux = cfg.need("target.flux")
    value = ldp.dv_rate(field.vertices[0], gamma, flux)
    # dv_rate is inf exactly when the gate gives a reason, so the gate runs only then
    if value == float("inf"):
        raise _Infeasible(ldp.flux_infeasibility(field.support, flux, gamma))
    results = {"value": value, "gamma": gamma, "flux": flux}
    return results, {"value.csv": "value\n" + _fmt(value) + "\n"}, "value.csv", [_fmt(value)]


def _cmd_solve(name, keys, cfg, seed, field):
    """varsolve's solve ``name`` on the target ``keys``, the field and the solver options."""
    values = [cfg.need(f"target.{key}") for key in keys]
    # looked up per run, so wrappers set on the module are seen
    result = getattr(varsolve, name)(*values, field, cfg.solve_options())
    if result.status == "infeasible":
        raise _Infeasible(result.detail)
    # one row per block, the tail's ending at inf; path.csv is the control
    # path, so results.json holds every other field
    path, d = result.path, field.d
    nodes = path.grid.nodes.tolist()
    cells = np.concatenate([path.rho, _edges(path.H)], axis=1).tolist()
    path_csv = _table(["s_left", "s_right", *_names("rho_", d),
                       *_names("H_edge", d * (d - 1))],
                      ([lo, hi, *row] for lo, hi, row in
                       zip(nodes, nodes[1:] + [float("inf")], cells)))
    artifacts = {"path.csv": path_csv,
                 "value.csv": "value,status\n" + _fmt(result.value) + ","
                              + result.status + "\n"}
    results = _plain(result)
    del results["path"]
    rd = result.residuals
    return results, artifacts, "value.csv", [
        f"value: {_fmt(result.value)}",
        f"status: {result.status}",
        f"residuals: marginal {rd['marginal']:.2e}  stationarity "
        f"{rd['stationarity']:.2e}  flux {rd['flux']:.2e}  simplex {rd['simplex']:.2e}",
    ]


def _cmd_fixed_point(cfg, seed, field):
    found = ldp.fixed_point_multistart(field, seed=seed, **cfg.sections["fixed_point"])
    value = "index," + ",".join(_names("pi_", field.d)) + ",converged\n"
    lines = [f"{len(found)} distinct fixed point(s)"]
    for i, r in enumerate(found):
        pi = [_fmt(v) for v in r.pi]
        value += f"{i}," + ",".join(pi) + f",{int(r.converged)}\n"
        lines.append(f"  [{i}] pi = [{', '.join(pi)}]  converged={r.converged} "
                     f"iterations={r.iterations}  residual={r.residual:.2e}")
        if not r.converged:
            lines.append("warning: not converged to tolerance; best iterate shown")
    results = {"fixed_points": found}
    return results, {"value.csv": value}, "value.csv", lines


def _cmd_mc_ldp(cfg, seed, field):
    mcc = cfg.need("mc")
    target = BallTarget(mcc["center"], mcc["radius"])
    points = mc.decay_curve(field, mcc["x0"], target, mcc["times"], mcc["n_paths"],
                            seed=seed)
    if "rate" in mcc:
        rate, rate_source, rate_status = mcc["rate"], "config", None
    else:
        res = varsolve.occupation_rate(mcc["center"], field, cfg.solve_options())
        rate, rate_source, rate_status = res.value, "solved at ball center", res.status
    comparison = mc.compare_to_rate(points, rate)
    results = {"points": points, "rate_source": rate_source, "rate_status": rate_status,
               **_plain(comparison)}
    lines = [f"{'t':>10} {'p_hat':>12} {'ci_low':>12} {'ci_high':>12} "
             f"{'censored':>9} {'-log(p)/t':>12}"]
    for p in points:
        lines.append(f"{p.t:>10.4g} {p.p_hat:>12.6g} {p.ci_low:>12.6g} "
                     f"{p.ci_high:>12.6g} {str(p.censored):>9} "
                     f"{p.neg_log_rate:>12.6g}")
    status = "" if rate_status is None else f", status {rate_status}"
    lines.append(f"reference rate: {_fmt(rate)} ({rate_source}{status})")
    lines.append(f"trend: {comparison.trend}  censored: {comparison.n_censored}  "
                 f"inconclusive: {comparison.inconclusive}")
    decay_csv = _table(["t", "p_hat", "ci_low", "ci_high", "n", "censored", "neg_log_rate"],
                       ([p.t, p.p_hat, p.ci_low, p.ci_high, p.n, int(p.censored),
                         p.neg_log_rate] for p in points))
    return results, {"decay.csv": decay_csv}, "decay.csv", lines


def _run(args, cfg, seed):
    """Run a command into its run directory, then print its output."""
    out = _Outputs(args, cfg, seed)
    field = build_field(cfg.field)
    out.lap("build_field_s")
    results, artifacts, primary, lines = _COMMANDS[args.command][0](cfg, seed, field)
    out.lap("compute_s")
    out.write({"results.json": _json(results), **artifacts})
    if args.format == "csv":
        sys.stdout.write(artifacts[primary])
    else:
        for line in lines:
            print(line)
    print(f"wrote {out.run_dir}", file=sys.stderr if args.format == "csv" else sys.stdout)
    return 0


# command -> (handler, help); main runs validate, which writes no run directory
_COMMANDS = {
    "validate": (None, "parse and check a run file"),
    "simulate": (_cmd_simulate, "sample trajectories and occupation statistics"),
    "dv-rate": (_cmd_dv_rate, "closed-form level-2.5 rate for a constant field"),
    "rate": (partial(_cmd_solve, "solve_rate", ("gamma", "flux")),
             "minimize the control cost at fixed occupation and flux"),
    "occupation-rate": (partial(_cmd_solve, "occupation_rate", ("gamma",)),
                        "minimize the control cost at fixed occupation"),
    "current-rate": (partial(_cmd_solve, "current_rate", ("current",)),
                     "minimize the control cost at fixed net current"),
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
        if args.command == "validate":
            print("\n".join(_validate(cfg)))
            return 0
        return _run(args, cfg, cfg.seed if args.seed is None else args.seed)
    except _Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
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
