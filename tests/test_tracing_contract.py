"""The traced benchmark runs must see every layer they time.

``perfbench/tracing.py`` wraps module attributes, so a refactor that calls
a function some other way than through its binding hides that layer from
the traced runs: its span reads zero calls, and ``tracing.slope`` then
divides by zero.  This test reads ``perfbench/tracing.py``, changing
nothing there, installs its ``BINDINGS`` around one toy session and its
evaluation, and checks that each timed span was entered.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import retrans
import retrans.cli  # noqa: F401  (BINDINGS wraps names on the cli module)
from retrans.decoder import DecoderConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
