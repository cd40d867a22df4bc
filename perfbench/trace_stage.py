"""Run one actiontubes CLI stage with its layers traced.

Usage: python3 perfbench/trace_stage.py TRACE_JSON STAGE [CLI ARGS...]

The stage runs exactly as ``actiontubes STAGE ...`` would, except that
calls into the layer modules' public functions pass through wrappers
installed from here; nothing under ``src/`` is changed.  Calls made
once per stage, per video or per tube are *spans*: their time is
accumulated by name, and a span's self time excludes the spans it
encloses.  The hot primitives (``iou``, ``st_iou``, ``match_ratio``,
``nms``, ``fisher_vector``, ``score_tube``) run up to millions of times
a stage, so they are only *counted*.  Totals, not individual spans, are
kept, so memory stays bounded whatever the input size.  On exit the
totals are written to TRACE_JSON and the CLI's exit code is returned.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from actiontubes import (cli, evaluation, footprint, formats, fusion,  # noqa: E402
                         geometry, scoring, synth, temporal, tracker)

# formats functions that only other formats functions call; wrapping them
# would move the parsing time of e.g. read_tubes into "other".
_FORMATS_LEAVES = {"read_records", "write_records", "read_arrays",
                   "write_arrays"}
_FORMATS_GROUPS = ("matches", "flow", "tubes")


class Tracer:
    """Self time and call counts per span name, plus plain counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}    # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []        # [name, child seconds]

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                totals = self.spans.setdefault(name, [0, 0.0])
                totals[0] += 1
                totals[1] += elapsed - frame[1]
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def counter(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def inside(self, names) -> bool:
        return any(name in names for name, _ in self._stack)

    def to_json(self) -> dict:
        return {"spans": {name: {"calls": calls, "self_s": self_s}
                          for name, (calls, self_s) in self.spans.items()},
                "counts": self.counts}


def _rebind(original, wrapper) -> None:
    """Point every module-level name bound to ``original`` at ``wrapper``.

    Callers bind primitives under their own names (``scoring.st_iou``,
    ``tracker.iou``, ``pipeline.late_fuse``), so patching only the
    defining module would miss most calls.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "actiontubes"
                                  or name.startswith("actiontubes.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    add = tracer.add

    writes = {f"formats.{group}_write"
              for group in (*_FORMATS_GROUPS, "other")}

    def wrote(args, _result):
        # a nested formats write is counted once, by its outermost caller
        if not tracer.inside(writes):
            add("formats.bytes_written", os.path.getsize(args[0]))

    for attr in sorted(vars(formats)):
        fn = getattr(formats, attr)
        kind, _, what = attr.partition("_")
        if kind not in ("read", "write") or attr in _FORMATS_LEAVES \
                or not callable(fn):
            continue
        group = what if what in _FORMATS_GROUPS else "other"
        observe = wrote if kind == "write" else None
        _rebind(fn, tracer.span(f"formats.{group}_{kind}", fn, observe))

    def ratio(prefix):
        def observe(args, result):
            add(prefix + "_in", len(args[0]))
            add(prefix + "_out", len(result))
        return observe

    _rebind(synth.generate, tracer.span("synth.generate", synth.generate))
    synth.SyntheticMatcher.match = tracer.span(
        "synth.match", synth.SyntheticMatcher.match)
    for method in ("clip_features", "feature_grid"):
        setattr(synth.SyntheticFeaturizer, method, tracer.span(
            "synth.features", getattr(synth.SyntheticFeaturizer, method)))
    _rebind(footprint.fit_gmm,
            tracer.span("footprint.fit_gmm", footprint.fit_gmm))
    _rebind(footprint.aggregate_cells,
            tracer.span("footprint.aggregate_cells",
                        footprint.aggregate_cells))
    _rebind(footprint.fisher_vector,
            tracer.counter("footprint.fisher_vector", footprint.fisher_vector))
    _rebind(footprint.prune_drifted,
            tracer.span("footprint.prune_drifted", footprint.prune_drifted,
                        ratio("footprint.prune_drifted")))

    _rebind(fusion.late_fuse,
            tracer.span("fusion.fuse", fusion.late_fuse))
    _rebind(fusion.merge_early_late,
            tracer.span("fusion.fuse", fusion.merge_early_late))
    _rebind(fusion.saliency_prune,
            tracer.span("fusion.saliency_prune", fusion.saliency_prune,
                        ratio("fusion.saliency_prune")))

    _rebind(geometry.iou, tracer.counter("geometry.iou", geometry.iou))
    _rebind(geometry.nms, tracer.counter("geometry.nms", geometry.nms))

    def overlap(_args, result):
        if result > 0:
            add("geometry.st_iou_nonzero")

    _rebind(geometry.st_iou,
            tracer.counter("geometry.st_iou", geometry.st_iou, overlap))

    def tubes_out(_args, result):
        add("tracker.tubes_out", len(result))

    _rebind(tracker.match_ratio,
            tracer.counter("tracker.match_ratio", tracker.match_ratio))
    _rebind(tracker.build_tubes,
            tracer.span("tracker.build_tubes", tracker.build_tubes,
                        tubes_out))
    _rebind(tracker.build_tubes_neighborhood,
            tracer.span("tracker.neighborhood",
                        tracker.build_tubes_neighborhood, tubes_out))

    def clips(_args, result):
        add("scoring.clips_scored", len(result))

    _rebind(scoring.score_clips,
            tracer.span("scoring.score_clips", scoring.score_clips, clips))
    _rebind(scoring.score_tube,
            tracer.counter("scoring.score_tube", scoring.score_tube))
    _rebind(scoring.prune_overlapped,
            tracer.span("scoring.prune_overlapped", scoring.prune_overlapped,
                        ratio("scoring.prune_overlapped")))

    def localized(_args, result):
        add("temporal.localize_in")
        if result is not None:
            add("temporal.localize_out")

    _rebind(temporal.localize,
            tracer.span("temporal.localize", temporal.localize, localized))

    _rebind(evaluation.evaluate,
            tracer.span("evaluation.evaluate", evaluation.evaluate))
    _rebind(evaluation.match_and_label,
            tracer.span("evaluation.match_and_label",
                        evaluation.match_and_label))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    stage = tracer.span("pipeline.stage", cli.main)
    code = stage(cli_args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
