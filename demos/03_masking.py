"""
Masking the unstable tail
=========================

Most flicker lives in the last word or two of a growing translation:
that is where the next source token can still flip a decision.  Holding
back the trailing k tokens while the sentence is incomplete trades a
little latency for a steadier display.

Here "medikamente" first reads as "drugs"; the continuation "könnten"
flips it to "medicines".  With k=0 the flip is visible, with k=2 the
word is never shown until it has settled.
"""

from pathlib import Path

from retrans import DecoderConfig, TimedToken, load_table_model
from retrans.pipeline import SessionState, step

model = load_table_model(Path(__file__).resolve().parents[1] / "data" / "toy" / "model.tsv")
words = ["die", "medikamente", "könnten", "helfen."]

for k in (0, 2):
    print(f"--- mask k={k} ---")
    config = DecoderConfig(beam_size=2, mask_length=k)
    state = SessionState()
    for position, word in enumerate(words):
        state, event = step(state, [TimedToken(word, 0.5 * position)], model, config)
        print(f"  heard {word!r:16} display: {event.output_text!r}")
    print()
