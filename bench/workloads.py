"""Benchmark workloads: run files generated from a seed, and output checks.

Each workload is one selfjump CLI command on a YAML run file that this
module writes from the workload seed.  The command is driven in-process
through ``selfjump.cli.main``; afterwards its run directory is checked
against references that do not come from the command itself.  A check
returns a list of failure messages, empty when the output is correct.

References recorded with selfjump 0.1.0, before any optimisation:

* ``REF_RATE``: ``occupation-rate`` at gamma = (0.6, 0.4) on the
  autochemotaxis field below.  Every solver seed gave the same value.
* ``MC_HITS_AT_DEFAULT``: ball hits at t = 10, 20, 40 of ``mc-decay`` at
  ``DEFAULT_SEED``, the seeded-path contract of the samplers.
* ``LONG_BATCH_SHA256``: sha256 of ``batch.csv`` of ``long-paths`` at
  ``DEFAULT_SEED``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from selfjump import core, ldp

WORKLOADS = ("mc-decay", "long-paths", "solve-interacting", "solve-constant")
DEFAULT_SEED = 7

FIELD_2 = {"family": "autochemotaxis", "q0": [[-2.0, 2.0], [1.0, -1.0]],
           "strength": 1.0}
FIELD_3 = {"family": "autochemotaxis",
           "q0": [[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]],
           "strength": 1.0}
Q_CONST = [[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]]
GAMMA_2 = [0.6, 0.4]

REF_RATE = 0.21413896849097602
MC_HITS_AT_DEFAULT = (479, 84, 3)
LONG_BATCH_SHA256 = "ee089afc9bf157c2559a82cbe93a4702fd56675fc5bad8168b496064bb1d52ba"

# Small solver settings for the self-test only; the benchmark uses defaults.
TINY_SOLVER = {"n_starts": 2}


@dataclass
class Job:
    """One CLI command: its argv (without --out) and the check of its output."""

    command: str
    argv: list
    check: Callable[[Path], list]

    def run_dir(self, out_root):
        """The single hash-addressed run directory the command wrote."""
        dirs = list((Path(out_root) / self.command).iterdir())
        if len(dirs) != 1:
            raise RuntimeError(f"expected one run directory, found {len(dirs)}")
        return dirs[0]


def _results(rd):
    return json.loads((rd / "results.json").read_text())


# -- checks -------------------------------------------------------------------


def check_mc_decay(rd, ref_rate, expected_hits=None):
    """Hit counts (when given), no censoring before the last time, and the
    decay -log(p)/t at the last time within a factor 2 of ref_rate.

    The last time is allowed to be censored: at t = 40 about 3.6 of 10,000
    paths hit on average, so zero hits is a correct outcome at a few
    percent of seeds.  The CLI then reports the detection floor
    -log(1/n)/t, which the factor-2 test still covers.
    """
    points = _results(rd)["points"]
    fails = []
    hits = tuple(int(round(p["p_hat"] * p["n"])) for p in points)
    if expected_hits is not None and hits != tuple(expected_hits):
        fails.append(f"hits {hits} != seeded-path reference {tuple(expected_hits)}")
    for p in points[:-1]:
        if p["censored"]:
            fails.append(f"censored at t={p['t']}")
    last = points[-1]["neg_log_rate"]
    if not 0.5 * ref_rate <= last <= 2.0 * ref_rate:
        fails.append(f"-log(p)/t = {last!r} at t={points[-1]['t']} not within "
                     f"a factor 2 of rate {ref_rate!r}")
    return fails


def _batch_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    d = sum(1 for h in header if h.startswith("L_"))
    occ = np.array([[float(v) for v in r[2:2 + d]] for r in body])
    flux = np.zeros((len(body), d, d))
    pairs = core.edge_pairs(d)
    for k, r in enumerate(body):
        for (i, j), v in zip(pairs, r[2 + d:]):
            flux[k, i, j] = float(v)
    return occ, flux


def check_long_paths(rd, pi_star, horizon, expected_sha=None):
    """batch.csv digest (when given), mean occupation within 0.05 l1 of
    pi_star, per-path flux balance within 1/horizon, and trajectory.csv
    holding exactly the jumps that batch.csv records for path 0."""
    fails = []
    batch = rd / "batch.csv"
    if expected_sha is not None:
        digest = hashlib.sha256(batch.read_bytes()).hexdigest()
        if digest != expected_sha:
            fails.append(f"batch.csv sha256 {digest} != seeded-path reference")
    occ, flux = _batch_rows(batch)
    gap = float(np.abs(occ.mean(axis=0) - np.asarray(pi_star)).sum())
    if gap > 0.05:
        fails.append(f"mean occupation {gap:.4f} l1 from pi* (limit 0.05)")
    imbalance = np.abs(flux.sum(axis=2) - flux.sum(axis=1)).max()
    if imbalance > (1.0 + 1e-9) / horizon:
        fails.append(f"flux imbalance {float(imbalance)!r} exceeds 1/t = {1.0 / horizon!r}")
    with open(rd / "trajectory.csv") as fh:
        n_rows = sum(1 for _ in fh) - 1
    jumps0 = int(round(flux[0].sum() * horizon))
    if n_rows != jumps0:
        fails.append(f"trajectory.csv has {n_rows} jumps, batch path 0 has {jumps0}")
    return fails


def check_interacting(rd, ref_value):
    """Status converged and value no more than 2% above ref_value."""
    res = _results(rd)
    fails = []
    if res["status"] != "converged":
        fails.append(f"status {res['status']!r}")
    if not res["value"] <= 1.02 * ref_value:
        fails.append(f"value {res['value']!r} more than 2% above {ref_value!r}")
    return fails


def check_constant(rd, ref_value):
    """Status converged and value within max(2%, 5e-3) of ref_value."""
    res = _results(rd)
    fails = []
    if res["status"] != "converged":
        fails.append(f"status {res['status']!r}")
    tol = max(0.02 * ref_value, 5e-3)
    if not abs(res["value"] - ref_value) <= tol:
        fails.append(f"value {res['value']!r} not within {tol:.3g} of "
                     f"closed form {ref_value!r}")
    return fails


# -- inputs -------------------------------------------------------------------


def constant_target(seed):
    """A balanced interior (gamma, flux) for Q_CONST drawn from the seed.

    The controlled rates H are Q_CONST with each edge scaled by a lognormal
    factor; gamma is H's stationary law and flux = gamma(x) H(x, y), so the
    flux is balanced and both are strictly positive.
    """
    q = np.array(Q_CONST)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    h = q * np.exp(0.5 * rng.standard_normal(q.shape))
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(h, -h.sum(axis=1))
    gamma = ldp.stationary_distribution(h)
    flux = gamma[:, None] * h
    np.fill_diagonal(flux, 0.0)
    return gamma, flux


def long_paths_pi_star():
    """Self-consistent equilibrium of the long-paths field (the LLN limit)."""
    field = core.RateField.autochemotaxis(np.array(FIELD_3["q0"]),
                                          strength=FIELD_3["strength"])
    return ldp.fixed_point_pi_star(field).pi


def _job(command, workdir, doc, check):
    """Write doc as the run file and pass it with the same --seed it holds."""
    path = Path(workdir) / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return Job(command, [command, "--config", str(path), "--seed", str(doc["seed"])],
               check)


def make_job(workload, seed, workdir, tiny=False):
    """Write the workload's run file for this seed into workdir; return its Job.

    ``tiny`` shrinks the sizes for the self-test; the exact seeded-path
    references then do not apply and are left out.
    """
    seed = int(seed)
    exact = not tiny and seed == DEFAULT_SEED
    if workload == "mc-decay":
        times = [2.5, 5.0, 10.0] if tiny else [10.0, 20.0, 40.0]
        doc = {"field": FIELD_2, "seed": seed,
               "mc": {"x0": 1, "times": times, "n_paths": 2000 if tiny else 10000,
                      "center": GAMMA_2, "radius": 0.1, "rate": REF_RATE}}
        hits = MC_HITS_AT_DEFAULT if exact else None
        return _job("mc-ldp", workdir, doc,
                    lambda rd: check_mc_decay(rd, REF_RATE, hits))
    if workload == "long-paths":
        horizon = 5000.0 if tiny else 40000.0
        doc = {"field": FIELD_3, "seed": seed,
               "simulate": {"x0": 1, "horizon": horizon,
                            "n_paths": 4 if tiny else 16}}
        pi_star = long_paths_pi_star()
        sha = LONG_BATCH_SHA256 if exact else None
        return _job("simulate", workdir, doc,
                    lambda rd: check_long_paths(rd, pi_star, horizon, sha))
    solver = {"solver": TINY_SOLVER} if tiny else {}
    if workload == "solve-interacting":
        doc = {"field": FIELD_2, "seed": seed, "target": {"gamma": GAMMA_2}, **solver}
        return _job("occupation-rate", workdir, doc,
                    lambda rd: check_interacting(rd, REF_RATE))
    if workload == "solve-constant":
        gamma, flux = constant_target(seed)
        doc = {"field": {"family": "constant", "q0": Q_CONST}, "seed": seed,
               "target": {"gamma": gamma.tolist(), "flux": flux.tolist()}, **solver}
        ref = ldp.dv_rate(np.array(Q_CONST), gamma, flux)
        return _job("rate", workdir, doc, lambda rd: check_constant(rd, ref))
    raise ValueError(f"unknown workload {workload!r}")
