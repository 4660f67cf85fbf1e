"""selfjump benchmark: wall time of the CLI, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload mc-decay --seed 7 --seconds 20 --trace 0

Workloads (see workloads.py): ``mc-decay`` (mc-ldp, 10,000 short paths and
30,000 ball-hit tests), ``long-paths`` (simulate, 16 paths to t = 40,000),
``solve-interacting`` (occupation-rate on the self-interacting d = 2 field)
and ``solve-constant`` (rate on a constant d = 3 field, checked against the
level-2.5 closed form).  All run in one process and one thread.

The run file is generated from ``--seed`` and the command is driven
in-process through ``selfjump.cli.main``, once per operation, each into a
fresh output directory, until ``--seconds`` have passed.  Every operation's
output is checked; an operation fails on a nonzero exit, an exception or a
failed check.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time to
import ``selfjump.cli`` in a fresh interpreter), ``wall_s`` (median wall
time of one command) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (medians over operations), plus the tracing overhead; it
writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the machine, the versions, the seed and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
TRACE_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "sim.paths": "count", "sim.path_us.p50": "us", "sim.path_us.p90": "us",
    "sim.jumps": "count", "sim.us_per_jump": "us",
    "sim.redundant_paths": "count", "sim.candidates_computed": "count",
    "sim.accept_ratio_computed": "ratio", "sim.readout_s": "s",
    "sim.readout_calls": "count", "sim.self_s": "s", "mc.hit_s": "s",
    "mc.hit_calls": "count", "mc.self_s": "s", "cli.self_s": "s",
    "cli.bytes_written": "B", "config.load_s": "s", "config.build_field_s": "s",
    "ldp.fixed_point_s": "s",
    "varsolve.minimize_calls": "count", "varsolve.starts": "count",
    "varsolve.nfev": "count", "varsolve.nit": "count", "varsolve.objective_s": "s",
    "varsolve.objective_us": "us", "varsolve.lbfgsb_self_s": "s",
    "varsolve.self_s": "s", "varsolve.nfev_best_start": "count",
    "varsolve.useful_eval_share": "ratio", "trace.spans": "count",
    "trace.wall_s_untraced": "s", "trace.wall_s_traced": "s",
    "trace.overhead_s": "s",
}


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _environment(seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": model, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed}


def measure_setup():
    """Median seconds to import selfjump.cli in a fresh interpreter.

    One discarded import first writes the bytecode caches.
    """
    code = ("import time; t0 = time.perf_counter(); import selfjump.cli; "
            "print(repr(time.perf_counter() - t0))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        if k:
            times.append(float(out.stdout))
    return statistics.median(times)


def _bytes_under(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def run_op(cli, job, out_root, tracer=None, op=None):
    """One CLI command into a fresh out_root, which is removed afterwards.

    Returns (seconds, failure messages, bytes written, winning solver start).
    """
    argv = job.argv + ["--out", str(out_root)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            rc = tracer.call(op, cli.main, argv) if tracer else cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a crash
            rc = f"exception {exc!r}"
        dt = perf_counter() - t0
    fails, best = [], None
    if rc != 0:
        fails = [f"exit {rc}: {sink.getvalue()[-300:]!r}"]
    else:
        try:
            rd = job.run_dir(out_root)
            fails = job.check(rd)
            best = json.loads((rd / "results.json").read_text()).get("best_start")
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            fails = [f"output unreadable: {exc!r}"]
    written = _bytes_under(out_root)
    shutil.rmtree(out_root, ignore_errors=True)
    return dt, fails, written, best


def run_workload(cli, job, tmp, seconds, tracer=None):
    """Run commands until ``seconds`` pass; with a tracer every second one is traced.

    Another command starts only while the elapsed time plus half a typical
    command stays under ``seconds``; a traced run makes at least one of each.
    """
    plain, traced, layer, failures = [], [], [], []
    t_start = perf_counter()
    for k in itertools.count():
        traced_op = tracer is not None and k % 2 == 1
        with tracer.installed() if traced_op else contextlib.nullcontext():
            dt, fails, written, best = run_op(cli, job, Path(tmp) / f"op{k}",
                                              tracer if traced_op else None, k)
        if traced_op:
            m = tracer.op_metrics(k, best)
            m["cli.bytes_written"] = written
            layer.append(m)
            traced.append(dt)
        else:
            plain.append(dt)
        failures.append(fails)
        print(f"op {k}: {dt:.4f} s {'traced ' if traced_op else ''}"
              f"{'FAILED ' + '; '.join(fails) if fails else 'ok'}")
        elapsed = perf_counter() - t_start
        if (tracer is None or traced) and \
                elapsed + 0.5 * statistics.median(plain + traced) >= seconds:
            return plain, traced, layer, failures


# Self times that partition a traced command's wall time.
ACCOUNTED = ("cli.self_s", "config.load_s", "config.build_field_s", "sim.self_s",
             "mc.self_s", "varsolve.self_s", "varsolve.lbfgsb_self_s", "ldp.fixed_point_s")


def layer_metrics(tracer, plain, traced, layer):
    """Per-layer metrics: medians over traced commands, plus tracing overhead.

    median_low keeps each value one that a command produced, so counts stay
    whole numbers.
    """
    metrics = {name: statistics.median_low(m[name] for m in layer) for name in layer[0]}
    samples = tracer.sample_us()
    metrics["sim.path_us.p50"] = statistics.median(samples) if samples else 0.0
    metrics["sim.path_us.p90"] = (statistics.quantiles(samples, n=10)[-1]
                                  if len(samples) > 1 else metrics["sim.path_us.p50"])
    metrics["trace.wall_s_untraced"] = statistics.median(plain)
    metrics["trace.wall_s_traced"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s_traced"]
                                   - metrics["trace.wall_s_untraced"])
    accounted = statistics.median(sum(m[n] for n in ACCOUNTED) for m in layer)
    print(f"sim.path_us over {len(samples)} sampler calls; {len(traced)} traced and "
          f"{len(plain)} untraced commands; layer self times sum to {accounted:.4f} s, "
          f"untraced wall_s {metrics['trace.wall_s_untraced']:.4f} s")
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "selfjump" / "cli.py").is_file():
        return _fail(f"no selfjump sources under {SRC}; run from a full checkout")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    from selfjump import cli
    if Path(cli.__file__).resolve().parent != (SRC / "selfjump").resolve():
        return _fail(f"imported selfjump from {cli.__file__}, not {SRC}")
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    setup_s = None if args.trace else measure_setup()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        job = workloads.make_job(args.workload, args.seed, tmp)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, layer, failures = run_workload(cli, job, tmp, args.seconds, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    print(json.dumps({"env": _environment(args.seed), "workload": args.workload}))
    print(f"fail_share {failed / attempted!r} share ({failed} failed of "
          f"{attempted} commands)")
    if args.trace:
        metrics = layer_metrics(tracer, plain, traced, layer)
        units = PER_LAYER_UNITS
        TRACE_ROOT.mkdir(exist_ok=True)
        spans = TRACE_ROOT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        print(f"{len(tracer.names)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {"setup_s": setup_s, "wall_s": statistics.median(plain),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        print(f"wall_s is the median of {len(plain)} commands (min {min(plain):.4f} s, "
              f"max {max(plain):.4f} s); setup_s the median of {SETUP_REPEATS} imports")
        if args.workload.startswith("solve-"):
            print(f"solve_s.{args.workload[len('solve-'):]} {metrics['wall_s']!r} s "
                  f"(wall_s of this workload)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
