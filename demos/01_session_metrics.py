"""
Scoring a tiny re-translation session
=====================================

A session is just the list of (time, source so far, output so far)
snapshots a viewer would have seen.  This one revises itself once:
"may be" becomes "may slow", which deletes three displayed tokens
("be ovarian cancer") before writing the correction.  One call,
``evaluate_all``, scores it against a timed reference: quality (BLEU),
stability (erasure) and latency (lag).
"""

from retrans import (
    Event,
    EventLog,
    ReferenceDocument,
    ReferenceSegment,
    TimedToken,
    evaluate_all,
)

log = EventLog(
    (
        Event(2.0, "Neue Arzneimittel könnten", "New Medicines"),
        Event(3.5, "Neue Arzneimittel könnten Eierstockkrebs", "New Medicines may be ovarian cancer"),
        Event(4.2, "Neue Arzneimittel könnten Eierstockkrebs verlangsamen", "New Medicines may slow ovarian cancer"),
    )
)

for event in log:
    print(f"t={event.time:<4}  {event.output_text!r}")
print()

# The reference gives the translation to score against and the time each
# source word was spoken.
document = ReferenceDocument(
    (
        ReferenceSegment(
            (
                TimedToken("Neue", 1.0),
                TimedToken("Arzneimittel", 1.6),
                TimedToken("könnten", 2.2),
                TimedToken("Eierstockkrebs", 3.3),
                TimedToken("verlangsamen", 4.0),
            ),
            "New medicines may slow ovarian cancer",
        ),
    )
)
report = evaluate_all(log, document)

print("tokens erased per event:", list(report.per_event_erasure))
print("normalized erasure:     ", report.normalized_erasure)
print("(erased tokens per final token: 3 erased over 6 final tokens)")
print()

# A token's lag is how long after its source was spoken it reached the
# screen for good: the time of the event from which it never changed again,
# minus the time its aligned source position was spoken.
print(f"BLEU            {report.bleu:.2f}   (case-sensitive: 'Medicines' never matches 'medicines')")
print(f"translation lag {report.translation_lag:.3f}s   (the mean of the per-token lags)")
print(f"per-token lags  {[round(lag, 3) for lag in report.per_token_lag]}")
print("('New Medicines' was final from t=2.0 and 'may' from t=3.5; the last three")
print(" tokens only settled once the correction landed at t=4.2)")
