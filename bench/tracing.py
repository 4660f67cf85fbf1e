"""Outside-in tracing of selfjump's layer boundaries.

The package is not changed: while a traced command runs, this module
replaces the functions through which one selfjump module calls the next
with wrappers that record a span (name, start, end, parent) and a few
counts, and puts every original back afterwards.  The hook points are

* cli -> config: ``cli.load_config``, ``cli.build_field``
* cli -> sim, mc, varsolve: ``sim.batch_simulate``, ``mc.decay_curve``,
  ``varsolve.occupation_rate``, ``varsolve.solve_rate``
* sim dispatch: every sampler in ``sim._SAMPLERS`` (shared by
  ``batch_simulate``, ``mc.decay_curve`` and ``cli simulate``)
* read-outs: ``sim.Trajectory.occupation_at`` and ``flux_at``
* mc hit test: ``mc.BallTarget.hit``
* varsolve -> scipy: ``varsolve.minimize`` and the objective handed to it
* varsolve -> ldp: ``varsolve.fixed_point_pi_star``

A hook point that no longer exists raises ``HookMissing`` instead of
silently reporting zeros.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from selfjump import cli, mc, sim, varsolve

# Layer of each span name; a layer's self time is the sum over its spans of
# duration minus the time covered by their direct children.
LAYERS = {
    "cli.main": "cli",
    "config.load": "config",
    "config.build_field": "config",
    "sim.batch": "sim",
    "sim.sample": "sim",
    "sim.readout": "sim",
    "mc.decay_curve": "mc",
    "mc.hit": "mc",
    "varsolve.solve": "varsolve",
    "varsolve.objective": "varsolve",
    "varsolve.minimize": "lbfgsb",
    "ldp.fixed_point": "ldp",
}


class HookMissing(RuntimeError):
    """A function the tracer wraps is no longer where the tracer expects it."""


@dataclass
class _OpCounts:
    """Counts for one traced command."""

    sampler_calls: int = 0
    path_keys: set = field(default_factory=set)
    jumps: int = 0
    candidates: float = 0.0
    # one (new_start, nfev, nit) per minimize call, in call order
    minimize: list = field(default_factory=list)
    prev_x: object = None


class Tracer:
    """Spans and counts of traced commands; ``op`` ids group the spans."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.ops = [], [], [], [], []
        self.counts = {}
        self._stack = [-1]
        self._op = None

    # -- spans ----------------------------------------------------------------

    def _enter(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _exit(self, i):
        self.ends[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(i)
        return wrapper

    def _wrap_sampler(self, fn):
        @functools.wraps(fn)
        def wrapper(field_, x0, horizon, seed, *args, **kwargs):
            i = self._enter("sim.sample")
            try:
                traj = fn(field_, x0, horizon, seed, *args, **kwargs)
            finally:
                self._exit(i)
            c = self.counts[self._op]
            c.sampler_calls += 1
            index = kwargs.get("path_index", args[0] if args else 0)
            c.path_keys.add((int(seed), int(index)))
            c.jumps += traj.n_jumps
            c.candidates += (field_.d - 1) * field_.rate_upper * float(horizon)
            return traj
        return wrapper

    def _wrap_minimize(self, fn):
        # A new multistart start begins when x0 is not the previous call's res.x.
        @functools.wraps(fn)
        def wrapper(fun, x0, *args, **kwargs):
            c = self.counts[self._op]
            new_start = c.prev_x is None or not np.array_equal(x0, c.prev_x)
            i = self._enter("varsolve.minimize")
            try:
                res = fn(self._wrap("varsolve.objective", fun), x0, *args, **kwargs)
            finally:
                self._exit(i)
            c.minimize.append((new_start, int(res.nfev), int(res.nit)))
            c.prev_x = np.array(res.x, copy=True)
            return res
        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _hooks(self):
        """(owner, attribute or key, wrapper factory) for every hook point."""
        hooks = [
            (cli, "load_config", lambda f: self._wrap("config.load", f)),
            (cli, "build_field", lambda f: self._wrap("config.build_field", f)),
            (sim, "batch_simulate", lambda f: self._wrap("sim.batch", f)),
            (mc, "decay_curve", lambda f: self._wrap("mc.decay_curve", f)),
            (varsolve, "occupation_rate", lambda f: self._wrap("varsolve.solve", f)),
            (varsolve, "solve_rate", lambda f: self._wrap("varsolve.solve", f)),
            (sim.Trajectory, "occupation_at", lambda f: self._wrap("sim.readout", f)),
            (sim.Trajectory, "flux_at", lambda f: self._wrap("sim.readout", f)),
            (mc.BallTarget, "hit", lambda f: self._wrap("mc.hit", f)),
            (varsolve, "minimize", self._wrap_minimize),
            (varsolve, "fixed_point_pi_star", lambda f: self._wrap("ldp.fixed_point", f)),
        ]
        samplers = getattr(sim, "_SAMPLERS", None)
        if not isinstance(samplers, dict) or not samplers:
            raise HookMissing("sim._SAMPLERS is gone or empty")
        hooks += [(samplers, key, self._wrap_sampler) for key in samplers]
        return hooks

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook point for the duration of the block, then restore."""
        saved = []
        try:
            for owner, key, make in self._hooks():
                if isinstance(owner, dict):
                    original = owner[key]
                    owner[key] = make(original)
                else:
                    original = getattr(owner, key, None)
                    if not callable(original):
                        raise HookMissing(f"{getattr(owner, '__name__', owner)}.{key} is gone")
                    setattr(owner, key, make(original))
                saved.append((owner, key, original))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def call(self, op, fn, *args):
        """Run fn(*args) as command ``op`` under a root span named cli.main."""
        self._op = op
        self.counts[op] = _OpCounts()
        try:
            return self._wrap("cli.main", fn)(*args)
        finally:
            self._op = None

    # -- read-out -------------------------------------------------------------

    def _op_spans(self, op):
        idx = [i for i, o in enumerate(self.ops) if o == op]
        dur = {i: self.ends[i] - self.starts[i] for i in idx}
        child = dict.fromkeys(idx, 0.0)
        for i in idx:
            p = self.parents[i]
            if p in child:
                child[p] += dur[i]
        return idx, dur, child

    def sample_us(self):
        """Durations of every traced sampler call, in microseconds."""
        return [1e6 * (self.ends[i] - self.starts[i])
                for i, name in enumerate(self.names) if name == "sim.sample"]

    def op_metrics(self, op, best_start):
        """Per-layer metrics of one traced command.

        ``best_start`` is the winning start index the command reported
        (results.json), or None when it ran no solver.
        """
        idx, dur, child = self._op_spans(op)
        total = {}
        calls = {}
        self_s = dict.fromkeys(set(LAYERS.values()), 0.0)
        for i in idx:
            name = self.names[i]
            total[name] = total.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[LAYERS[name]] += dur[i] - child[i]
        c = self.counts[op]
        starts = []
        for new_start, nfev, _ in c.minimize:
            if new_start:
                starts.append(0)
            starts[-1] += nfev
        nfev = sum(starts)
        best = (starts[best_start]
                if best_start is not None and 0 <= best_start < len(starts) else 0)
        n_obj = calls.get("varsolve.objective", 0)
        return {
            "sim.paths": c.sampler_calls,
            "sim.jumps": c.jumps,
            "sim.us_per_jump": (1e6 * total.get("sim.sample", 0.0) / c.jumps
                                if c.jumps else 0.0),
            "sim.redundant_paths": c.sampler_calls - len(c.path_keys),
            "sim.candidates_computed": c.candidates,
            "sim.accept_ratio_computed": c.jumps / c.candidates if c.candidates else 0.0,
            "sim.readout_s": total.get("sim.readout", 0.0),
            "sim.readout_calls": calls.get("sim.readout", 0),
            "sim.self_s": self_s["sim"],
            "mc.hit_s": total.get("mc.hit", 0.0),
            "mc.hit_calls": calls.get("mc.hit", 0),
            "mc.self_s": self_s["mc"],
            "cli.self_s": self_s["cli"],
            "config.load_s": total.get("config.load", 0.0),
            "config.build_field_s": total.get("config.build_field", 0.0),
            "ldp.fixed_point_s": total.get("ldp.fixed_point", 0.0),
            "varsolve.minimize_calls": len(c.minimize),
            "varsolve.starts": len(starts),
            "varsolve.nfev": nfev,
            "varsolve.nit": sum(nit for _, _, nit in c.minimize),
            "varsolve.objective_s": total.get("varsolve.objective", 0.0),
            "varsolve.objective_us": (1e6 * total.get("varsolve.objective", 0.0) / n_obj
                                      if n_obj else 0.0),
            "varsolve.lbfgsb_self_s": self_s["lbfgsb"],
            "varsolve.self_s": self_s["varsolve"],
            "varsolve.nfev_best_start": best,
            "varsolve.useful_eval_share": best / nfev if nfev else 0.0,
            "trace.spans": len(idx),
        }

    def write(self, path):
        """Write every span as gzip CSV: op,id,parent,name,start_s,end_s."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("op,id,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.ops[i]},{i},{self.parents[i]},{name},"
                         f"{self.starts[i] - t0!r},{self.ends[i] - t0!r}\n")
