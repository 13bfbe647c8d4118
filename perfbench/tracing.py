"""Wrappers around crdi's public functions, installed from outside the package.

A function is wrapped at every module binding that holds it: patching only
the defining module would miss callers that bound the function by import
(``crdi.sge`` holds its own ``eps_theta``, ``crdi.sampler`` its own
``ddim_step`` and so on). Two wrappers exist:

* ``StageTimer`` wraps the pipeline stages where ``run_experiment`` calls
  them. It costs a few timestamps per pass, stays on in untraced runs and
  feeds the end-to-end stage rates and the failure accounting.
* ``Tracer`` wraps every traced function and keeps one span per call in
  memory: name, phase, thread, span id, parent span id, start, end, self
  time and the call's work counters. One span stack is kept per thread,
  because ``sweep`` runs its cells on pool threads.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import os
import sys
import threading
import time
import types

import numpy as np

# (defining module, function, metric key). Several functions may share a key,
# as the save and load halves of one file format do.
TRACED = [
    ("crdi.numerics", "mlp_forward", "numerics.mlp_forward"),
    ("crdi.numerics", "mlp_backward", "numerics.mlp_backward"),
    ("crdi.numerics", "adam_step", "numerics.adam_step"),
    ("crdi.numerics", "gaussian", "numerics.gaussian"),
    ("crdi.schedules", "segment_for", "schedules.segment_for"),
    ("crdi.schedules", "gamma", "schedules.gamma"),
    ("crdi.diffusion", "eps_theta", "diffusion.eps_theta"),
    ("crdi.diffusion", "time_features", "diffusion.time_features"),
    ("crdi.diffusion", "ddim_step", "diffusion.ddim_step"),
    ("crdi.diffusion", "noise_to", "diffusion.noise_to"),
    ("crdi.diffusion", "train_source", "diffusion.train_source"),
    ("crdi.diffusion", "save_checkpoint", "diffusion.checkpoint"),
    ("crdi.diffusion", "load_checkpoint", "diffusion.checkpoint"),
    ("crdi.sge", "sge_loss", "sge.sge_loss"),
    ("crdi.sge", "guided_noise", "sge.guided_noise"),
    ("crdi.sge", "fit_sge", "sge.fit_sge"),
    ("crdi.sge", "save_sge", "sge.io"),
    ("crdi.sge", "load_sge", "sge.io"),
    ("crdi.sampler", "generate", "sampler.generate"),
    ("crdi.sampler", "reconstruct", "sampler.reconstruct"),
    ("crdi.sampler", "perturb_guidance", "sampler.perturb_guidance"),
    ("crdi.metrics", "ssim", "metrics.ssim"),
    ("crdi.metrics", "mc_ssim", "metrics.mc_ssim"),
    ("crdi.metrics", "intra_diversity", "metrics.intra_diversity"),
    ("crdi.metrics", "frechet", "metrics.frechet"),
    ("crdi.workbench.experiment", "run_experiment", "workbench.run_experiment"),
    ("crdi.workbench.experiment", "prepare_source_model", "workbench.prepare_source_model"),
    ("crdi.workbench.experiment", "evaluate", "workbench.evaluate"),
    ("crdi.workbench.experiment", "sweep", "workbench.sweep"),
    ("crdi.workbench.domains", "synth_domain", "workbench.synth_domain"),
    ("crdi.workbench.tensor_io", "write_tensor", "workbench.tensor_io"),
    ("crdi.workbench.tensor_io", "read_tensor", "workbench.tensor_io"),
    ("crdi.workbench.tensor_io", "write_grid", "workbench.tensor_io"),
]

MODULES = ["numerics", "schedules", "diffusion", "sge", "sampler", "metrics",
           "workbench"]

# Pipeline stages as run_experiment calls them. "source" is the train-or-load
# stage; train_source is timed on its own for the training rate.
STAGES = {"prepare_source_model": "source", "train_source": "train",
          "fit_sge": "fit", "generate": "generate", "evaluate": "evaluate"}
STAGE_MODULE = "crdi.workbench.experiment"


def _innermost(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def _crdi_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "crdi" or name.startswith("crdi."))]


class _Patch:
    """Replaces module bindings and puts the previous values back."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def undo(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


class StageTimer:
    """Times the stage calls of run_experiment and counts their failures.

    Each record is (stage, start, end, ok). Records are appended from pool
    threads too; list.append is atomic under the interpreter lock.
    """

    def __init__(self):
        self.records = []
        self._patch = _Patch()

    def install(self):
        module = sys.modules[STAGE_MODULE]
        for attr, stage in STAGES.items():
            self._patch.set(module, attr, self._wrap(getattr(module, attr), stage))

    def uninstall(self):
        self._patch.undo()

    def _wrap(self, fn, stage):
        records = self.records

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                records.append((stage, t0, time.perf_counter(), ok))
        return timed

    def take(self):
        """Records since the last take."""
        out = list(self.records)
        del self.records[:len(out)]
        return out


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _mlp_flop(args) -> float:
    widths = args[0].widths
    return 2.0 * _rows(args[1]) * sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def _file_bytes(args) -> int:
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


def _train_key(args) -> str:
    """Identity of a source-training job: the dataset and everything that
    seeds or sizes the run. Equal keys train bit-identical models."""
    net, schedule, dataset, config, stream = args[:5]
    h = hashlib.sha256(np.ascontiguousarray(dataset).tobytes())
    h.update(repr((net.backbone.widths, schedule.T, config.steps, config.batch,
                   config.lr, stream.seed, stream.purpose_tag)).encode())
    return h.hexdigest()


# Work counters taken from a call's arguments: (rows, flop, bytes, tag).
# "flop" is computed from the call shapes (matrix products only); the
# backward pass recomputes the forward products and adds two per layer.
MEASURE = {
    "mlp_forward": lambda a: (_rows(a[1]), _mlp_flop(a), 0, None),
    "mlp_backward": lambda a: (_rows(a[1]), 3.0 * _mlp_flop(a), 0, None),
    "eps_theta": lambda a: (_rows(a[1]), 0.0, 0, None),
    "train_source": lambda a: (0, 0.0, 0, _train_key(a)),
    "save_checkpoint": lambda a: (0, 0.0, _file_bytes(a), None),
    "load_checkpoint": lambda a: (0, 0.0, _file_bytes(a), None),
    "save_sge": lambda a: (0, 0.0, _file_bytes(a), None),
    "load_sge": lambda a: (0, 0.0, _file_bytes(a), None),
    "write_tensor": lambda a: (0, 0.0, _file_bytes(a), None),
    "read_tensor": lambda a: (0, 0.0, _file_bytes(a), None),
    "write_grid": lambda a: (0, 0.0, _file_bytes(a), None),
}

# Span tuple fields.
KEY, PHASE, THREAD, SID, PARENT, START, END, SELF, OK, ROWS, FLOP, NBYTES, TAG = range(13)


class Tracer:
    """Span recorder for the traced functions; spans stay in memory."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patch = _Patch()

    def install(self):
        targets = {}
        for module_name, attr, key in TRACED:
            fn = getattr(sys.modules[module_name], attr)
            targets[_innermost(fn)] = (attr, key)
        wrappers = {}
        for module in _crdi_modules():
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                hit = targets.get(_innermost(value))
                if hit is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, *hit)
                self._patch.set(module, attr, wrappers[id(value)])

    def uninstall(self):
        self._patch.undo()

    def _wrap(self, fn, attr, key):
        spans = self.spans
        local = self._local
        ids = self._ids
        measure = MEASURE.get(attr)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                rows, flop, nbytes, tag = measure(args) if measure else (0, 0.0, 0, None)
                spans.append((key, tracer.phase, threading.get_ident(), sid, parent,
                              t0, t1, dur - frame[1], ok, rows, flop, nbytes, tag))
        return traced

    def write(self, path):
        """Columnar dump of every span, written once at the end of a run."""
        keys = sorted({s[KEY] for s in self.spans})
        phases = sorted({s[PHASE] for s in self.spans})
        kid = {k: i for i, k in enumerate(keys)}
        pid = {p: i for i, p in enumerate(phases)}
        col = lambda i, dt: np.array([s[i] for s in self.spans], dtype=dt)
        np.savez_compressed(
            path, names=np.array(keys), phases=np.array(phases),
            name=np.array([kid[s[KEY]] for s in self.spans], dtype=np.int32),
            phase=np.array([pid[s[PHASE]] for s in self.spans], dtype=np.int8),
            thread=col(THREAD, np.int64), span_id=col(SID, np.int64),
            parent_id=col(PARENT, np.int64), start=col(START, np.float64),
            end=col(END, np.float64), self_s=col(SELF, np.float64),
            ok=col(OK, np.bool_), rows=col(ROWS, np.int64),
            flop=col(FLOP, np.float64), nbytes=col(NBYTES, np.int64))
