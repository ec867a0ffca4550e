"""Holding on to what was already shown.

The decoder can interpolate its next-token distribution with a one-hot
distribution over the previous translation.  While the hypothesis still
follows that old translation, weight beta is moved onto the old token;
the moment it diverges, decoding continues unbiased.
"""

from pathlib import Path

from retrans import DecoderConfig, load_table_model
from retrans.decoder import biased_beam_search

model = load_table_model(Path(__file__).resolve().parents[1] / "data" / "minimal_model.tsv")

# on the prefix "a" the best translation is Y
first = biased_beam_search(model, ["a"], False, DecoderConfig(beam_size=2))
print("after 'a'   :", " ".join(first))

# once "b" arrives the model prefers to rewrite Y as X W, erasing Y
plain = biased_beam_search(model, ["a", "b"], False, DecoderConfig(beam_size=2))
print("after 'a b' :", " ".join(plain), "(unbiased: the viewer sees Y vanish)")

for beta in (0.0, 0.6, 1.0):
    config = DecoderConfig(beam_size=2, bias_weight=beta, previous_translation=first)
    tokens = biased_beam_search(model, ["a", "b"], False, config)
    kept = "keeps" if tokens[: len(first)] == first else "drops"
    print(f"beta={beta:<3} :", " ".join(tokens), f"({kept} the old prefix)")

print()
print("at beta=0.6 the boosted old token outweighs the model's preference,")
print("so the displayed text only grows; beta=1 forces the old prefix outright.")
