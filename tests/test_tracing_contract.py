"""The traced benchmark runs must see every layer they time.

``perfbench/tracing.py`` wraps module attributes, so a refactor that calls
a function some other way than through its binding hides that layer from
the traced runs: its span reads zero calls, and ``tracing.slope`` then
divides by zero.  These tests read ``perfbench/tracing.py`` and
``BENCHMARK.json``, changing neither, install the ``BINDINGS`` around toy
runs of the benchmark's operations, and check that each timed span was
entered and each per-layer metric the spans give reads something.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import retrans
import retrans.cli  # noqa: F401  (BINDINGS wraps names on the cli module)
from retrans.decoder import DecoderConfig

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_session_enters_every_timed_span(toy_model, toy_documents):
    tracing = _load_tracing()
    _, transcript, reference = toy_documents[0]
    config = DecoderConfig(beam_size=2, bias_weight=0.5, mask_length=1)
    bound = [(getattr(retrans, module), attribute) for module, attribute, _ in tracing.BINDINGS]
    originals = [getattr(module, attribute) for module, attribute in bound]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, retrans):
        with tracer.span("op.simulate"):
            log = retrans.pipeline.run_simulation(transcript, toy_model, config)
        with tracer.span("op.evaluate"):
            retrans.metrics.evaluate_all(log, reference, mode="segment")
    totals = tracer.totals()
    for span in ("pipeline.step", "eventlog.append_event", "decoder"):
        assert totals[("op.simulate", span)]["calls"] > 0, span
    for span, _ in tracing.SLOPE_SPANS.values():
        assert sum(totals[(op, span)]["calls"] for op in tracing.SESSION_ROOTS if (op, span) in totals) > 0, span
    metrics = tracing.layer_metrics(tracer)
    assert metrics["decoder.calls"] == totals[("op.simulate", "decoder")]["calls"]
    assert metrics["pipeline.step.calls"] == len(transcript)
    assert [getattr(module, attribute) for module, attribute in bound] == originals


# Spans that today's code no longer enters, so they read zero on every
# workload (ROADMAP items 1 and 13 retire or rebind them).
_STALE = (
    "metrics.bleu_corpus.s",
    "metrics.erasure.s",
    "metrics.finalization.s",
    "metrics.token_lags.self_s",
    "sweep.metrics.bleu_corpus.s",
    "sweep.pipeline.step.self_s",
)


def test_every_traced_layer_metric_of_the_benchmark_reads_nonzero(tmp_path, toy_model, toy_documents):
    """A toy run of each benchmark operation, called as ``perfbench/run.py``
    calls it, gives every per-layer metric ``BENCHMARK.json`` declares, and
    only the stale ones read zero: a refactor that silences a span fails
    here."""
    tracing = _load_tracing()
    declared = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    config = DecoderConfig(beam_size=2, bias_weight=0.5, mask_length=1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, retrans):
        with tracer.span("op.simulate"):
            for name, transcript, _ in toy_documents:
                log = retrans.pipeline.run_simulation(transcript, toy_model, config, 1, 0.0)
                retrans.eventlog.save_event_log(log, tmp_path / name)
        with tracer.span("op.evaluate"):
            for name, _, reference in toy_documents:
                log = retrans.eventlog.load_event_log(tmp_path / name)
                retrans.metrics.evaluate_all(log, reference, mode="segment")
        with tracer.span("op.sweep"):
            retrans.cli.sweep(toy_model, toy_documents, [0.0, 0.5], [0, 2], 2)
    metrics = tracing.layer_metrics(tracer)
    # perfbench/run.py computes these itself, from two traced sizes or from
    # traced against untraced time.
    computed = [name for name in declared if name.endswith(".slope") or name == "trace.overhead_ratio"]
    assert len(computed) == 5
    assert sorted(metrics) == sorted(set(declared) - set(computed))
    assert sorted(name for name, value in metrics.items() if value <= 0) == sorted(_STALE)
