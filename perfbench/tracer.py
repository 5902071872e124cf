"""Spans and counters around the public functions of each sbenflow module.

``Tracer.install()`` replaces every traced function under every name it is
reachable by in the loaded ``sbenflow`` modules (``sben.solve_k``,
``checks.solve_k``, ``oracle.leray_project`` ... are all the same function
object), and patches the traced methods on their classes.  ``uninstall()``
puts the originals back.  The program itself is not changed.

Each wrapped call records a span: name, start, end, parent span and the run id
of the CLI command it belongs to (every ``cli.main`` call starts a new run).
Spans are kept in memory in flat arrays and written out by ``write``.  The
self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from sbenflow.solvers import SolverConvergenceError

# module -> {public function: span name}.  Several functions may share a span
# name; that layer's numbers are then the sum over them.  Only functions that a
# per-layer metric reads are wrapped: a span also takes its time out of its
# parent's self time.
FUNCTIONS = {
    "cli": {"main": "cli"},
    "config": {"load_config": "config.load"},
    "solvers": {"conjugate_gradient": "solvers.cg"},
    "dissipation": {"solve_k": "dissipation.solve_k", "apply_k": "dissipation.apply_k",
                    "phi": "dissipation.phi"},
    "sben": {"leray_project": "sben.leray",
             # the public assemble_pi_* and the minimizers' own evaluations
             # all go through _assemble
             "_assemble": "sben.assemble",
             "gradient_pi": "sben.gradient",
             "multiplier_pressures": "sben.pressures",
             "_recover_pressures": "sben.pressures",
             # no metric of its own: it counts the minimizer's iterations
             "minimize": "sben.minimize", "minimize_compressible": "sben.minimize"},
    "oracle": {"step_incompressible": "oracle.step", "step_compressible": "oracle.step"},
    "fields": {name: "fields" for name in (
        "grad_scalar", "grad_vector", "div_vector", "div_tensor", "curl", "laplacian",
        "laplacian_scalar", "sym_grad", "advect", "div_outer")},
    "fieldio": {**{name: "fieldio.save" for name in (
                    "save_path_archive", "save_vector", "save_scalar", "save_grid")},
                **{name: "fieldio.load" for name in (
                    "load_path_archive", "load_vector", "load_scalar", "load_grid")}},
    "gravitation": {name: "gravitation" for name in (
        "eval_gravity", "eval_coriolis_vector", "gravitation_force")},
}

# (module, class) -> {method: span name}
METHODS = {
    ("sben", "Path"): {"with_velocities": "sben.with_velocities"},
    ("balance", "FluidState"): {"__post_init__": "balance.states"},
    ("balance", "BarotropicPowerEos"): {name: "balance.eos" for name in (
        "pressure", "internal_energy", "sound_speed")},
    ("gravitation", "Gravitation"): {name: "gravitation" for name in (
        "phi", "vector_potential", "dA_dt", "dphi_dt", "grad_phi", "grad_A",
        "gravity", "coriolis_vector")},
}

# counters kept beside the span counts
MATVECS = "solvers.cg.matvecs"
CG_FAILURES = "solvers.cg.failures"
LERAY_SHORTCUTS = "sben.leray.shortcuts"
BYTES_WRITTEN = "fieldio.bytes_written"
BYTES_READ = "fieldio.bytes_read"
ITERATIONS = "sben.minimize.iterations"


def _sbenflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sbenflow" or name.startswith("sbenflow."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in order of entry
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.run = 0
        self._stack: list[list] = []   # [span index, name id, start, child time]
        self._undo: list[tuple] = []

    # --- spans ------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int):
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_run.append(self.run)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, nid, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        index, nid, start, child = frame
        self._stack.pop()
        duration = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        name = self.names[nid]
        self.counts[name] += 1
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        hook = {"solvers.cg": self._cg, "sben.leray": self._leray,
                "fieldio.save": self._saved, "fieldio.load": self._loaded,
                "sben.minimize": self._minimized}.get(name)
        starts_run = name == "cli"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_run:
                self.run += 1
            frame = self._enter(nid)
            try:
                if hook is not None:
                    return hook(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    # --- counters at the same boundaries ----------------------------------------

    def _cg(self, fn, args, kwargs):
        apply_a = args[0]

        def counted(x):
            self.counts[MATVECS] += 1
            return apply_a(x)

        try:
            return fn(counted, *args[1:], **kwargs)
        except SolverConvergenceError:
            self.counts[CG_FAILURES] += 1
            raise

    def _leray(self, fn, args, kwargs):
        solves = self.counts["solvers.cg"]
        out = fn(*args, **kwargs)
        # no CG call below this one: the "already divergence-free" shortcut
        if self.counts["solvers.cg"] == solves:
            self.counts[LERAY_SHORTCUTS] += 1
        return out

    def _saved(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        if os.path.isfile(args[0]):
            self.counts[BYTES_WRITTEN] += os.path.getsize(args[0])
        return out

    def _loaded(self, fn, args, kwargs):
        if os.path.isfile(args[0]):
            self.counts[BYTES_READ] += os.path.getsize(args[0])
        return fn(*args, **kwargs)

    def _minimized(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.counts[ITERATIONS] += result.report.iterations
        return result

    # --- installing ----------------------------------------------------------------

    def install(self):
        modules = _sbenflow_modules()
        by_name = {m.__name__: m for m in modules}
        for short, table in FUNCTIONS.items():
            home = by_name[f"sbenflow.{short}"]
            for fn_name, span in table.items():
                original = getattr(home, fn_name)
                traced = self._wrap(original, span)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._undo.append((module, attr, original))
        for (short, cls_name), table in METHODS.items():
            cls = getattr(by_name[f"sbenflow.{short}"], cls_name)
            for meth, span in table.items():
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, span))
                self._undo.append((cls, meth, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results --------------------------------------------------------------------

    def reset(self):
        """Drop the recorded numbers, keep the spans for ``write``."""
        self.counts.clear()
        self.self_time.clear()

    def write(self, path: str):
        """All spans as one compressed numpy archive: per-span name id, parent
        index (-1 for a root), run id, start and end in seconds."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            run=np.frombuffer(self.span_run, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
