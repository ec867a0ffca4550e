"""In-memory spans around the calls retrans's modules make into each other.

The wrappers replace module attributes (``retrans.pipeline.biased_beam_search``
and so on), which is where one module looks up a function of another, or
of itself, at call time.  They are installed only for a traced operation
and removed afterwards, so untraced runs execute the program untouched.

A span records its name, start, end and parent; every span of one
benchmark operation (``op.simulate``, ``op.evaluate``, ``op.sweep``) shares
that operation's root.  A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# (module, attribute, span name).  The same function reached through two
# modules' bindings shares one span name.
BINDINGS = (
    ("pipeline", "run_simulation", "pipeline.run_simulation"),
    ("pipeline", "step", "pipeline.step"),
    ("pipeline", "split_sentences", "pipeline.split_sentences"),
    ("pipeline", "biased_beam_search", "decoder"),
    ("pipeline", "append_event", "eventlog.append_event"),
    ("eventlog", "save_event_log", "eventlog.save_event_log"),
    ("eventlog", "load_event_log", "eventlog.load_event_log"),
    ("metrics", "evaluate_all", "metrics.evaluate_all"),
    ("metrics", "evaluate_quality", "metrics.evaluate_quality"),
    ("metrics", "token_lags", "metrics.token_lags"),
    ("metrics", "finalization", "metrics.finalization"),
    ("metrics", "correspondence", "metrics.correspondence"),
    ("metrics", "normalized_erasure", "metrics.normalized_erasure"),
    ("metrics", "erasure", "metrics.erasure"),
    ("metrics", "bleu_corpus", "metrics.bleu_corpus"),
    ("metrics", "mwer_segment", "align.mwer_segment"),
    ("metrics", "split_by_boundaries", "align.split_by_boundaries"),
    ("metrics", "save_report", "metrics.save_report"),
    ("cli", "sweep", "cli.sweep"),
    ("cli", "run_simulation", "pipeline.run_simulation"),
    ("cli", "token_lags", "metrics.token_lags"),
    ("cli", "erasure", "metrics.erasure"),
    ("cli", "bleu_corpus", "metrics.bleu_corpus"),
    ("cli", "mwer_segment", "align.mwer_segment"),
    ("cli", "split_by_boundaries", "align.split_by_boundaries"),
    ("cli", "pareto_subset", "cli.pareto_subset"),
    ("cli", "save_sweep_rows", "cli.save_sweep_rows"),
)


def _count_decoder(args: tuple, result: tuple) -> dict[str, int]:
    # biased_beam_search(model, source, source_complete, config)
    previous = tuple(args[3].previous_translation)
    return {
        "src_tokens": len(args[1]),
        "with_previous": 1 if previous else 0,
        # The previous unmasked output survived as a prefix: the from-scratch
        # retranslation only appended to what the viewer already had.
        "unchanged": 1 if previous and tuple(result[: len(previous)]) == previous else 0,
    }


def _count_split(args: tuple, result: object) -> dict[str, int]:
    return {"tokens": len(args[0])}


def _count_mwer(args: tuple, result: object) -> dict[str, int]:
    hyp, refs = args[0], args[1]
    return {"cells": len(hyp) * sum(len(ref) for ref in refs)}


_COUNTERS: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "decoder": _count_decoder,
    "pipeline.split_sentences": _count_split,
    "align.mwer_segment": _count_mwer,
}


class Tracer:
    """Spans and counts of one traced operation or more, kept in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, root index]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str, str], int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, values: dict[str, int]) -> None:
        root = self.spans[self._stack[0]][0] if self._stack else ""
        for key, value in values.items():
            self.counts[(root, name, key)] += value

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(name, counter(args, result))
            return result

        return traced

    def totals(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (root operation name, span name): calls, seconds, self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _, root) in enumerate(self.spans):
            entry = out[(self.spans[root][0], name)]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered[index]
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent if parent >= 0 else None, "op": root,
                    "name": name, "start": start - origin, "end": end - origin,
                }) + "\n")


@contextmanager
def installed(tracer: Tracer, program) -> Iterator[None]:
    """Wrap every binding in ``BINDINGS`` for the duration of the block."""
    saved = []
    try:
        for module_name, attribute, name in BINDINGS:
            module = getattr(program, module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(name, original))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


# Session operations feed the unprefixed metrics; the sweep operation feeds
# the ``sweep.``-prefixed ones, so each number belongs to one user path.
SESSION_ROOTS = ("op.simulate", "op.evaluate")
SWEEP_ROOTS = ("op.sweep",)

_LAYER_METRICS = {
    # metric: (root operations, span, statistic or counter)
    "decoder.calls": (SESSION_ROOTS, "decoder", "calls"),
    "decoder.src_tokens": (SESSION_ROOTS, "decoder", "src_tokens"),
    "decoder.s": (SESSION_ROOTS, "decoder", "s"),
    "pipeline.step.calls": (SESSION_ROOTS, "pipeline.step", "calls"),
    "pipeline.step.self_s": (SESSION_ROOTS, "pipeline.step", "self_s"),
    "pipeline.split_sentences.tokens": (SESSION_ROOTS, "pipeline.split_sentences", "tokens"),
    "pipeline.split_sentences.s": (SESSION_ROOTS, "pipeline.split_sentences", "s"),
    "eventlog.append_event.s": (SESSION_ROOTS, "eventlog.append_event", "s"),
    "eventlog.save_event_log.s": (SESSION_ROOTS, "eventlog.save_event_log", "s"),
    "eventlog.load_event_log.s": (SESSION_ROOTS, "eventlog.load_event_log", "s"),
    "align.mwer_segment.calls": (SESSION_ROOTS, "align.mwer_segment", "calls"),
    "align.mwer_segment.cells": (SESSION_ROOTS, "align.mwer_segment", "cells"),
    "align.mwer_segment.s": (SESSION_ROOTS, "align.mwer_segment", "s"),
    "metrics.erasure.s": (SESSION_ROOTS, "metrics.erasure", "s"),
    "metrics.finalization.s": (SESSION_ROOTS, "metrics.finalization", "s"),
    "metrics.token_lags.self_s": (SESSION_ROOTS, "metrics.token_lags", "self_s"),
    "metrics.bleu_corpus.s": (SESSION_ROOTS, "metrics.bleu_corpus", "s"),
    "op.simulate.s": (("op.simulate",), "op.simulate", "s"),
    "op.evaluate.s": (("op.evaluate",), "op.evaluate", "s"),
    "op.sweep.s": (SWEEP_ROOTS, "op.sweep", "s"),
    "cli.sweep.self_s": (SWEEP_ROOTS, "cli.sweep", "self_s"),
    "sweep.decoder.calls": (SWEEP_ROOTS, "decoder", "calls"),
    "sweep.decoder.s": (SWEEP_ROOTS, "decoder", "s"),
    "sweep.pipeline.step.self_s": (SWEEP_ROOTS, "pipeline.step", "self_s"),
    "sweep.align.mwer_segment.calls": (SWEEP_ROOTS, "align.mwer_segment", "calls"),
    "sweep.align.mwer_segment.s": (SWEEP_ROOTS, "align.mwer_segment", "s"),
    "sweep.metrics.bleu_corpus.s": (SWEEP_ROOTS, "metrics.bleu_corpus", "s"),
}

# Log-log slope of session time, half size against full size.
SLOPE_SPANS = {
    "pipeline.step.slope": ("pipeline.step", "self_s"),
    "eventlog.append_event.slope": ("eventlog.append_event", "s"),
    "align.mwer_segment.slope": ("align.mwer_segment", "s"),
    "decoder.slope": ("decoder", "s"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of the operations ``tracer`` recorded."""
    totals = tracer.totals()
    out = {}
    for metric, (ops, span, stat) in _LAYER_METRICS.items():
        if stat in ("calls", "s", "self_s"):
            out[metric] = sum(totals[(op, span)][stat] for op in ops if (op, span) in totals)
        else:
            out[metric] = sum(tracer.counts.get((op, span, stat), 0) for op in ops)
    previous = sum(tracer.counts.get((op, "decoder", "with_previous"), 0) for op in SESSION_ROOTS)
    unchanged = sum(tracer.counts.get((op, "decoder", "unchanged"), 0) for op in SESSION_ROOTS)
    out["decoder.unchanged_ratio"] = unchanged / previous if previous else 0.0
    return out


def session_seconds(tracer: Tracer) -> dict[str, float]:
    """Session-operation time of each span in ``SLOPE_SPANS``."""
    totals = tracer.totals()
    return {
        metric: sum(totals[(op, span)][stat] for op in SESSION_ROOTS if (op, span) in totals)
        for metric, (span, stat) in SLOPE_SPANS.items()
    }


def slope(full: float, half: float, full_size: int, half_size: int) -> float:
    return math.log(full / half) / math.log(full_size / half_size)
