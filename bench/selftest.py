"""Self-test of the benchmark itself.

Runs every workload once at a tiny size through the real CLI, then shows
that each output check passes on that output with the right reference and
fails when handed a wrong reference (or, for checks without a reference, a
doctored copy of the output).  Also checks that the tracer restores every
hook and fails loudly when a hook point is gone.  From the repository root:

    python3 bench/selftest.py

Prints one line per case and exits 1 if any case went the wrong way.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from run import SRC, TMP_ROOT

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from selfjump import cli, ldp, varsolve  # noqa: E402

import tracing  # noqa: E402
import workloads as w  # noqa: E402

SEED = w.DEFAULT_SEED
results = []


def expect(label, fails, should_fail, needle=""):
    ok = bool(fails) == should_fail and (not should_fail or any(needle in f for f in fails))
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {fails if fails else 'passes'}")


def tiny_run(workload, tmp, tracer=None):
    workdir = Path(tmp) / workload
    workdir.mkdir()
    job = w.make_job(workload, SEED, workdir, tiny=True)
    out = workdir / "out"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = tracer.call(0, cli.main, job.argv + ["--out", str(out)]) if tracer \
            else cli.main(job.argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{workload}: tiny run exited {rc}")
    return job, job.run_dir(out)


def doctored(rd, tmp, name, edit):
    """Copy of run directory rd with file ``name`` rewritten by edit(text)."""
    copy = Path(tempfile.mkdtemp(dir=tmp)) / rd.name
    shutil.copytree(rd, copy)
    (copy / name).write_text(edit((copy / name).read_text()))
    return copy


def censor_first(text):
    res = json.loads(text)
    res["points"][0]["censored"] = True
    return json.dumps(res)


def main():
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=TMP_ROOT)
    try:
        job, rd = tiny_run("mc-decay", tmp)
        expect("mc-decay right references", job.check(rd), False)
        hits = tuple(int(round(p["p_hat"] * p["n"]))
                     for p in json.loads((rd / "results.json").read_text())["points"])
        expect("mc-decay wrong hit counts",
               w.check_mc_decay(rd, w.REF_RATE, (hits[0] + 1,) + hits[1:]), True, "hits")
        expect("mc-decay wrong rate", w.check_mc_decay(rd, 10 * w.REF_RATE), True, "-log(p)/t")
        expect("mc-decay censored early point",
               w.check_mc_decay(doctored(rd, tmp, "results.json", censor_first), w.REF_RATE),
               True, "censored")

        job, rd = tiny_run("long-paths", tmp)
        horizon = 5000.0
        pi_star = w.long_paths_pi_star()
        expect("long-paths right references", job.check(rd), False)
        expect("long-paths wrong digest",
               w.check_long_paths(rd, pi_star, horizon, "0" * 64), True, "sha256")
        expect("long-paths wrong pi*",
               w.check_long_paths(rd, [1.0, 0.0, 0.0], horizon),
               True, "pi*")
        expect("long-paths wrong horizon for flux balance",
               w.check_long_paths(rd, pi_star, 1000 * horizon), True, "flux imbalance")
        expect("long-paths truncated trajectory.csv",
               w.check_long_paths(doctored(rd, tmp, "trajectory.csv",
                                           lambda t: t[:t.rstrip().rfind("\n") + 1]),
                                  pi_star, horizon), True, "trajectory.csv")

        job, rd = tiny_run("solve-interacting", tmp)
        expect("solve-interacting right reference", job.check(rd), False)
        expect("solve-interacting wrong reference",
               w.check_interacting(rd, 0.5 * w.REF_RATE), True, "2% above")
        not_converged = doctored(rd, tmp, "results.json",
                                 lambda t: t.replace('"converged"', '"max_iter"'))
        expect("solve-interacting not converged",
               w.check_interacting(not_converged, w.REF_RATE), True, "status")

        tracer = tracing.Tracer()
        originals = (varsolve.minimize, varsolve.fixed_point_pi_star, cli.load_config)
        with tracer.installed():
            job, rd = tiny_run("solve-constant", tmp, tracer)
        restored = originals == (varsolve.minimize, varsolve.fixed_point_pi_star,
                                 cli.load_config)
        expect("tracer restores hooks", [] if restored else ["hook left installed"], False)
        m = tracer.op_metrics(0, json.loads((rd / "results.json").read_text())["best_start"])
        expect("tracer counts solver starts",
               [] if m["varsolve.starts"] == w.TINY_SOLVER["n_starts"] and m["varsolve.nfev"] > 0
               else [f"starts {m['varsolve.starts']}, nfev {m['varsolve.nfev']}"], False)
        gamma, flux = w.constant_target(SEED)
        ref = ldp.dv_rate(np.array(w.Q_CONST), gamma, flux)
        expect("solve-constant right reference", job.check(rd), False)
        expect("solve-constant wrong reference", w.check_constant(rd, 1.5 * ref), True,
               "closed form")

        saved = varsolve.minimize
        del varsolve.minimize
        try:
            with tracing.Tracer().installed():
                pass
            fails = []
        except tracing.HookMissing as exc:
            fails = [f"HookMissing: {exc}"]
        finally:
            varsolve.minimize = saved
        expect("tracer fails loudly on a missing hook", fails, True, "minimize")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
