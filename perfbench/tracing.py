"""Spans around the package's public functions, recorded from outside.

The tracer replaces each traced function on every ``timbrediff`` module
that binds it (the defining module and each ``from .x import y`` copy), so
calls go through a wrapper that records a span and then returns or raises
exactly what the original did.  Spans stay in memory until the run writes
them out.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

# Layers are named <module>.<function>.  cli.main is the root span of each
# stage run in-process; its self time is the CLI's own glue.
LAYERS = (
    "cli.main",
    "frontend.load_wav",
    "frontend.resample",
    "frontend.stft_power",
    "frontend.band_envelopes",
    "timbre.compute_timbre_vector",
    "timbre.read_timbre_csv",
    "embeddings.spectral_features",
    "embeddings.distances_to",
    "embeddings.import_embeddings",
    "detector.knn",
    "detector.score_clip",
    "detector.global_baseline_score",
    "store.load_model",
    "store.save_model",
    "dataset.generate_ground_truth",
    "evaluation.build_report",
    "synth.generate_dataset",
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# What a span notes about its call, for the counts that need more than a
# call count: which clip was decoded, and how many rows a distance scanned.
_NOTES = {
    "frontend.load_wav": lambda a, kw: str(_first_arg(a, kw, "path")),
    "embeddings.distances_to": lambda a, kw: list(np.shape(_first_arg(a, kw, "matrix"))),
}


@dataclass
class Span:
    span_id: int
    parent: object          # span_id of the enclosing span, or None
    stage: str
    name: str
    start: float
    end: float
    error: bool = False
    note: object = None


class Tracer:
    """Records one span per traced call; single-threaded."""

    def __init__(self):
        self.spans = []
        self.stage = ""
        self._open = []

    def wrap(self, name, fn):
        note_fn = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._open[-1] if self._open else None,
                        self.stage, name, 0.0, 0.0)
            if note_fn is not None:
                span.note = note_fn(args, kwargs)
            self.spans.append(span)
            self._open.append(span.span_id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of each traced function; restore on exit."""
        import timbrediff.cli  # noqa: F401  (loads every package module)

        wrappers = {}
        for layer in LAYERS:
            module, func = layer.rsplit(".", 1)
            original = getattr(sys.modules[f"timbrediff.{module}"], func)
            wrappers[id(original)] = (original, self.wrap(layer, original))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "timbrediff" and not mod_name.startswith("timbrediff."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans) -> dict:
    """span_id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children[span.span_id]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = (span.end - span.start) - covered
    return out


def layer_metrics(spans, timed_stages) -> dict:
    """Per-layer calls, self_s, errors and share, plus the extra counts.

    calls, self_s and errors sum over every traced stage, set-up included.
    share is the layer's self time over the traced time of the timed
    stages; the per-clip ratios count the timed stages only.
    """
    selfs = self_times(spans)
    timed = set(timed_stages)
    stats = {layer: {"calls": 0, "self_s": 0.0, "errors": 0, "timed_self_s": 0.0}
             for layer in LAYERS}
    timed_total = 0.0
    clips = set()
    timed_calls = defaultdict(int)
    rows = 0
    row_bytes = 0
    for span in spans:
        st = stats[span.name]
        st["calls"] += 1
        st["self_s"] += selfs[span.span_id]
        st["errors"] += int(span.error)
        if span.name == "embeddings.distances_to":
            n_rows, dim = span.note
            rows += n_rows
            row_bytes += n_rows * dim * 8
        if span.stage in timed:
            st["timed_self_s"] += selfs[span.span_id]
            timed_calls[span.name] += 1
            if span.parent is None:
                timed_total += span.end - span.start
            if span.name == "frontend.load_wav":
                clips.add(span.note)

    metrics = {}
    for layer, st in stats.items():
        metrics[f"{layer}.calls"] = (st["calls"], "count")
        metrics[f"{layer}.self_s"] = (st["self_s"], "s")
        metrics[f"{layer}.errors"] = (st["errors"], "count")
        metrics[f"{layer}.share"] = (st["timed_self_s"] / timed_total if timed_total else 0.0, "1")
    n_clips = max(len(clips), 1)
    metrics["frontend.load_wav.calls_per_clip"] = (
        timed_calls["frontend.load_wav"] / n_clips, "1")
    metrics["timbre.compute_timbre_vector.calls_per_clip"] = (
        timed_calls["timbre.compute_timbre_vector"] / n_clips, "1")
    metrics["embeddings.distances_to.rows_scanned"] = (rows, "count")
    metrics["embeddings.distances_to.bytes_computed"] = (row_bytes, "B")
    return metrics
