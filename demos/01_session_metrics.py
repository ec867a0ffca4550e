"""
Scoring a tiny re-translation session
=====================================

A session is just the list of (time, source so far, output so far)
snapshots a viewer would have seen.  This one revises itself once:
"may be" becomes "may slow", which deletes three displayed tokens
("be ovarian cancer") before writing the correction.
"""

from retrans import (
    Event,
    EventLog,
    ReferenceDocument,
    ReferenceSegment,
    TimedToken,
    evaluate_all,
)
from retrans.metrics import erasure, finalization, normalized_erasure

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

print("tokens erased per event:", erasure(log))
print("normalized erasure:     ", normalized_erasure(log))

# finalization gives, per final token, the 1-based event it settled at
print("finalization times:     ", [log.events[i - 1].time for i in finalization(log)])
print("(the first two output tokens were stable from the start; everything")
print(" after them only settled once the correction landed)")
print()

# against a reference we also get quality and latency
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
print(f"BLEU            {report.bleu:.2f}   (case-sensitive: 'Medicines' never matches 'medicines')")
print(f"translation lag {report.translation_lag:.3f}s")
print(f"per-token lags  {[round(lag, 3) for lag in report.per_token_lag]}")
