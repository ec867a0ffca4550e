from __future__ import annotations

import math
import random
import re
from types import MappingProxyType
from typing import ClassVar

import pytest
from hypothesis import given, settings, strategies as st

import decoder_oracle
from retrans import (
    DecoderConfig,
    EOS_TOKEN,
    TableModel,
    TimedToken,
    load_table_model,
    pipeline,
    run_simulation,
    save_event_log,
    tokenize,
)
from retrans.decoder import ANY_CONTEXT, END_OF_SOURCE, BeamMemo, _biased_step, biased_beam_search
from retrans.pipeline import SessionState, TimedTranscript, display_texts, step

from conftest import DATA_DIR


# ---------------------------------------------------------------------------
# Table lookup


def test_next_distribution_context_cases(two_word_model):
    m = two_word_model
    assert m.next_distribution(["a"], False, ()) == {"Y": 1.0}
    assert m.next_distribution(["a", "b"], False, ()) == {"X": 1.0}
    assert m.next_distribution(["a", "b"], False, ("X",)) == {"W": 1.0}
    assert m.next_distribution(["a", "b"], True, ("X",)) == {"Z": 1.0}
    assert m.next_distribution(["a", "b"], True, ("X", "Z")) == {EOS_TOKEN: 1.0}
    assert m.next_distribution(["a", "b"], True, ("X", "Z", "Q")) == {EOS_TOKEN: 1.0}


def test_next_distribution_falls_back_to_any_context(two_word_model):
    # context "q" is unlisted for "a", so the wildcard entry answers
    assert two_word_model.next_distribution(["a", "q"], False, ()) == {"Y": 1.0}


def test_unknown_word_translates_to_itself(two_word_model):
    assert two_word_model.next_distribution(["q", "b"], False, ()) == {"q": 1.0}


def test_table_model_requires_wildcard_fallback():
    with pytest.raises(ValueError):
        TableModel({("a", "b"): {"X": 1.0}})
    with pytest.raises(ValueError):
        TableModel({("a", END_OF_SOURCE): {"X": 1.0}})


def test_table_model_checks_distributions():
    with pytest.raises(ValueError):
        TableModel({("a", ANY_CONTEXT): {"X": 0.5, "Y": 0.4}})
    with pytest.raises(ValueError):
        TableModel({("a", ANY_CONTEXT): {"X": 1.5, "Y": -0.5}})
    with pytest.raises(ValueError):
        TableModel({("a", ANY_CONTEXT): {}})


_BAD_ROWS = [
    ("a", ANY_CONTEXT, "X", 1.0000005, r"must be in \(0, 1\]"),
    ("a", ANY_CONTEXT, "", 1.0, "non-empty and whitespace-free"),
    ("b", ANY_CONTEXT, "X Y", 1.0, "non-empty and whitespace-free"),
    ("", ANY_CONTEXT, "Z", 1.0, "non-empty and whitespace-free"),
    ("a b", ANY_CONTEXT, "Z", 1.0, "non-empty and whitespace-free"),
    ("a", "", "X", 1.0, "non-empty and whitespace-free"),
    ("a", "b\u00a0c", "X", 1.0, "non-empty and whitespace-free"),  # a no-break space splits too
]


@pytest.mark.parametrize("word, context, target, prob, message", _BAD_ROWS)
def test_loader_and_constructor_reject_the_same_rows(tmp_path, word, context, target, prob, message):
    # The row is alone under its key, so the row itself is at fault.
    entries = {(word, ANY_CONTEXT): {"X": 1.0}, (word, context): {target: prob}}
    with pytest.raises(ValueError, match=re.escape(f"({word!r}, {context!r})") + ".*" + message):
        TableModel(entries)
    path = tmp_path / "model.tsv"
    path.write_text(f"{word}\t{context}\t{target}\t{prob!r}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: ") + ".*" + message):
        load_table_model(path)


def replaced_table_check(entries) -> str | None:
    """What TableModel raised for these entries, each word with a ∗ entry
    and every probability valid, when it split each token alone; None when
    it accepted them."""
    for (word, ctx), dist in entries.items():
        if any(token.split() != [token] for token in (word, ctx, *dist)):
            return f"({word!r}, {ctx!r}): every token must be non-empty and whitespace-free"
    return None


_ONE_TOKEN = ["x", ANY_CONTEXT, END_OF_SOURCE]
# Half the draws are one token, so that whole tables pass too.
_CHECKED_TOKENS = st.one_of(st.sampled_from(_ONE_TOKEN), st.sampled_from(["", " ", "\u3000", "a b", "a\u2028b", *_ONE_TOKEN]))


@settings(max_examples=400, deadline=None)
@given(
    st.dictionaries(
        st.tuples(_CHECKED_TOKENS, _CHECKED_TOKENS),
        st.lists(_CHECKED_TOKENS, min_size=1, max_size=3, unique=True),
        min_size=1,
        max_size=4,
    )
)
def test_table_model_rejects_the_tokens_the_per_token_rule_rejects(drawn):
    entries = {(word, ANY_CONTEXT): {"x": 1.0} for word, _ in drawn}
    entries.update({key: dict.fromkeys(targets, 1 / len(targets)) for key, targets in drawn.items()})
    expected = replaced_table_check(entries)
    if expected is None:
        TableModel(entries)
    else:
        with pytest.raises(ValueError) as excinfo:
            TableModel(entries)
        assert str(excinfo.value) == expected


def test_table_model_rejects_nan_probabilities():
    nan = float("nan")
    with pytest.raises(ValueError, match="sums to nan"):
        TableModel({("a", ANY_CONTEXT): {"X": nan}})
    with pytest.raises(ValueError, match="sums to nan"):
        TableModel({("a", ANY_CONTEXT): {"X": 0.5, "Y": nan, "Z": 0.5}})


# ---------------------------------------------------------------------------
# Table file format


def test_load_minimal_model_file(two_word_model):
    loaded = load_table_model(DATA_DIR / "minimal_model.tsv")
    assert dict(loaded.entries) == dict(two_word_model.entries)


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text("# comment\n\na\t∗\tX\t1.0\n", encoding="utf-8")
    model = load_table_model(path)
    assert model.next_distribution(["a"], False, ()) == {"X": 1.0}


def test_a_source_word_starting_with_hash_reads_as_a_comment_in_a_file(tmp_path):
    model = TableModel({("#a", ANY_CONTEXT): {"X": 1.0}})
    assert model.next_distribution(["#a"], False, ()) == {"X": 1.0}
    path = tmp_path / "model.tsv"
    path.write_text("#a\t∗\tX\t1.0\n", encoding="utf-8")
    assert dict(load_table_model(path).entries) == {}


def test_load_empty_file_gives_identity_model(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text("", encoding="utf-8")
    model = load_table_model(path)
    assert model.next_distribution(["wort"], False, ()) == {"wort": 1.0}


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text("a\t∗\tX\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_table_model(path)
    path.write_text("a\t∗\tX\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_table_model(path)
    path.write_text("a\t∗\tX\t0.5\na\t∗\tX\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_table_model(path)
    path.write_text("a\tb\tX\t1.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_table_model(path)
    path.write_text("a\t∗\tX\t0.6\na\t∗\tY\t0.6\n", encoding="utf-8")
    with pytest.raises(ValueError, match="sums"):
        load_table_model(path)


# ---------------------------------------------------------------------------
# Bias arithmetic


def test_biased_step_boosts_target():
    step = _biased_step({"A": 0.6, "B": 0.4}, "A", 0.5)
    assert step == {"A": pytest.approx(0.8), "B": pytest.approx(0.2)}


def test_biased_step_extends_support():
    step = _biased_step({"A": 1.0}, "C", 0.25)
    assert step["C"] == pytest.approx(0.25)
    assert step["A"] == pytest.approx(0.75)


@given(
    st.dictionaries(st.sampled_from("ABCD"), st.floats(0.01, 1.0), min_size=1, max_size=4),
    st.sampled_from("ABCDE"),
    st.floats(0.0, 1.0),
)
def test_biased_step_stays_a_distribution(raw, target, weight):
    total = sum(raw.values())
    dist = {token: p / total for token, p in raw.items()}
    step = _biased_step(dist, target, weight)
    assert math.fsum(step.values()) == pytest.approx(1.0)
    assert all(p >= 0.0 for p in step.values())


# ---------------------------------------------------------------------------
# Search behaviour


def test_empty_source_translates_to_empty_output(two_word_model, greedy_config):
    assert biased_beam_search(two_word_model, [], True, greedy_config) == ()


def test_plain_search_on_two_word_model(two_word_model):
    config = DecoderConfig(beam_size=2)
    assert biased_beam_search(two_word_model, ["a"], False, config) == ("Y",)
    assert biased_beam_search(two_word_model, ["a", "b"], False, config) == ("X", "W")
    assert biased_beam_search(two_word_model, ["a", "b"], True, config) == ("X", "Z")


def test_full_bias_replays_previous_translation(two_word_model):
    config = DecoderConfig(beam_size=2, bias_weight=1.0, previous_translation=("Y",))
    assert biased_beam_search(two_word_model, ["a", "b"], True, config) == ("Y", "Z")


def test_score_ties_prefer_previous_translation():
    model = TableModel({("w", ANY_CONTEXT): {"A": 0.5, "B": 0.5}})
    config = DecoderConfig(beam_size=2, previous_translation=("B",))
    assert biased_beam_search(model, ["w"], False, config) == ("B",)


def test_score_ties_fall_back_to_lexicographic():
    model = TableModel({("w", ANY_CONTEXT): {"B": 0.5, "A": 0.5}})
    config = DecoderConfig(beam_size=2)
    assert biased_beam_search(model, ["w"], False, config) == ("A",)


class _LoopingModel:
    """Never emits EOS; forces the length cutoff."""

    def next_distribution(self, source, source_complete, prefix):
        return {"la": 1.0}


def test_unfinished_fallback_at_length_cutoff():
    config = DecoderConfig(beam_size=2)
    assert biased_beam_search(_LoopingModel(), ["x"], True, config) == ("la",) * 7


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(beam_size=0)
    with pytest.raises(ValueError):
        DecoderConfig(bias_weight=1.5)
    with pytest.raises(ValueError):
        DecoderConfig(mask_length=-1)


# ---------------------------------------------------------------------------
# Oracles: an independent plain beam search, and exhaustive enumeration of
# biased scores.  Both share the model object; what is being compared is the
# search itself.


def plain_beam_search(model, source, source_complete, beam_size, max_len=None):
    if not source:
        return ()
    if max_len is None:
        max_len = 2 * len(source) + 5
    rank = lambda item: (-item[1], item[0], not item[2])
    beams = [((), 0.0, False)]
    while not all(finished or len(tokens) >= max_len for tokens, _, finished in beams):
        candidates = []
        for tokens, score, finished in beams:
            if finished or len(tokens) >= max_len:
                candidates.append((tokens, score, finished))
                continue
            for token, prob in model.next_distribution(source, source_complete, tokens).items():
                if prob <= 0.0:
                    continue
                if token == EOS_TOKEN:
                    candidates.append((tokens, score + math.log(prob), True))
                else:
                    candidates.append((tokens + (token,), score + math.log(prob), False))
        candidates.sort(key=rank)
        beams = candidates[:beam_size]
    finished = [item for item in beams if item[2]]
    return min(finished or beams, key=rank)[0]


def enumerate_biased_best(model, source, source_complete, previous, weight, length_guard=12):
    """Score every reachable finished sequence by accumulated log
    probability of the mixed distributions; pick the winner by the search's
    tie rules."""
    results = []

    def extend(tokens, score, following):
        assert len(tokens) <= length_guard
        dist = model.next_distribution(source, source_complete, tokens)
        position = len(tokens)
        if weight > 0.0 and following and position < len(previous):
            step = {token: (1.0 - weight) * p for token, p in dist.items()}
            step[previous[position]] = step.get(previous[position], 0.0) + weight
        else:
            step = dist
        for token, prob in step.items():
            if prob <= 0.0:
                continue
            new_score = score + math.log(prob)
            if token == EOS_TOKEN:
                results.append((tokens, new_score, following))
            else:
                extend(
                    tokens + (token,),
                    new_score,
                    following and position < len(previous) and token == previous[position],
                )

    extend((), 0.0, True)
    return min(results, key=lambda item: (-item[1], not item[2], item[0]))


def random_table_model(rng: random.Random) -> TableModel:
    source_words = [f"s{i}" for i in range(rng.randint(1, 3))]
    targets = [f"t{i}" for i in range(rng.randint(2, 4))]
    entries = {}
    for word in source_words:
        if rng.random() < 0.15:
            continue  # leave the word unknown: identity translation path
        contexts = {ANY_CONTEXT}
        if rng.random() < 0.6:
            contexts.add(END_OF_SOURCE)
        for other in source_words:
            if rng.random() < 0.4:
                contexts.add(other)
        for context in contexts:
            support = rng.sample(targets, rng.randint(1, len(targets)))
            weights = [rng.random() + 0.05 for _ in support]
            total = sum(weights)
            entries[(word, context)] = {
                target: weight / total for target, weight in zip(support, weights)
            }
    return TableModel(entries)


def random_source(rng: random.Random, length: int) -> list[str]:
    pool = [f"s{i}" for i in range(3)] + ["u9"]  # u9 is never in any table
    return [rng.choice(pool) for _ in range(length)]


def test_zero_bias_equals_plain_beam_search_on_random_models():
    rng = random.Random(991)
    for _ in range(120):
        model = random_table_model(rng)
        source = random_source(rng, rng.randint(0, 4))
        source_complete = rng.random() < 0.5
        beam_size = rng.randint(1, 5)
        config = DecoderConfig(beam_size=beam_size)
        assert biased_beam_search(model, source, source_complete, config) == plain_beam_search(
            model, source, source_complete, beam_size
        )


def test_full_bias_always_keeps_previous_prefix_on_random_models():
    rng = random.Random(424)
    for _ in range(120):
        model = random_table_model(rng)
        source = random_source(rng, rng.randint(1, 4))
        previous = tuple(f"t{rng.randint(0, 3)}" for _ in range(rng.randint(0, len(source))))
        config = DecoderConfig(beam_size=rng.randint(1, 4), bias_weight=1.0, previous_translation=previous)
        result = biased_beam_search(model, source, rng.random() < 0.5, config)
        assert result[: len(previous)] == previous


def test_wide_beam_matches_exhaustive_enumeration_on_short_sources():
    rng = random.Random(2718)
    for _ in range(120):
        model = random_table_model(rng)
        source = random_source(rng, rng.randint(1, 2))
        source_complete = rng.random() < 0.5
        weight = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
        previous = tuple(f"t{rng.randint(0, 3)}" for _ in range(rng.randint(0, 3)))
        config = DecoderConfig(
            beam_size=10_000, bias_weight=weight, previous_translation=previous
        )
        result = biased_beam_search(model, source, source_complete, config)
        best_tokens, best_score, _ = enumerate_biased_best(
            model, source, source_complete, previous, weight
        )
        assert result == best_tokens, (model, source, source_complete, weight, previous)
        assert best_score <= 0.0 + 1e-12


# ---------------------------------------------------------------------------
# Differential tests: the tuple-keyed search against the object-per-candidate
# search it replaced (decoder_oracle.py), and against itself on the same
# distributions listed in another order.  Outputs must be equal, exact score
# ties included.


def uniform_table_model(rng: random.Random) -> TableModel:
    """Every distribution uniform over 2 or 3 targets, listed in random
    order, so many hypotheses tie exactly on score and the following flag
    and the token order decide."""
    words = ("s0", "s1", "s2")
    entries = {}
    for word in words:
        for context in (ANY_CONTEXT, END_OF_SOURCE, *rng.sample(words, rng.randint(0, 2))):
            support = rng.sample(["t0", "t1", "t2", "t3"], rng.randint(2, 3))
            entries[(word, context)] = {target: 1.0 / len(support) for target in support}
    return TableModel(entries)


class _ZeroMassModel:
    """Gives one or two of each source word's four targets, EOS among the
    candidates, probability 0.0; the search skips them unless the bias
    lifts one."""

    def __init__(self, rng: random.Random):
        self.table = {}
        for word in ("s0", "s1", "s2", "u9"):
            support = rng.sample(["t0", "t1", "t2", "t3", EOS_TOKEN], 4)
            zeros = rng.randint(1, 2)
            weights = [0.0] * zeros + [rng.random() + 0.05 for _ in support[zeros:]]
            total = sum(weights)
            self.table[word] = {target: w / total for target, w in zip(support, weights)}

    def next_distribution(self, source, source_complete, prefix):
        if len(prefix) >= len(source):
            return {EOS_TOKEN: 1.0}
        return dict(self.table[source[len(prefix)]])


def _previous_translation(rng: random.Random, kind: str, source_length: int) -> tuple[str, ...]:
    pool = ["t0", "t1", "t2", "t3"]
    if kind == "empty":
        return ()
    if kind == "longer":
        length = source_length + rng.randint(1, 3)
    else:
        length = rng.randint(1, source_length + 1)
    if kind == "foreign":
        # Outside the model's support, but for u9 where a table model
        # translates the unknown word to itself.
        pool += ["zz", "u9", EOS_TOKEN]
    return tuple(rng.choice(pool) for _ in range(length))


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    model_kind=st.sampled_from(["table", "uniform", "zero_mass", "looping"]),
    previous_kind=st.sampled_from(["empty", "random", "longer", "foreign"]),
    beam_size=st.integers(min_value=1, max_value=6),
    weight=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    source_complete=st.booleans(),
)
def test_search_matches_the_replaced_search(
    seed, model_kind, previous_kind, beam_size, weight, source_complete
):
    rng = random.Random(seed)
    model = {
        "table": random_table_model,
        "uniform": uniform_table_model,
        "zero_mass": _ZeroMassModel,
        "looping": lambda _: _LoopingModel(),
    }[model_kind](rng)
    source = random_source(rng, rng.randint(0, 5))
    previous = _previous_translation(rng, previous_kind, len(source))
    config = DecoderConfig(beam_size=beam_size, bias_weight=weight, previous_translation=previous)
    expected = decoder_oracle.biased_beam_search(model, source, source_complete, config)
    assert biased_beam_search(model, source, source_complete, config) == expected
    if isinstance(model, TableModel):
        # The search ranks whole hypotheses, so the order in which a
        # distribution lists its targets decides no tie.
        shuffled = TableModel(
            {key: dict(rng.sample(list(dist.items()), len(dist))) for key, dist in model.entries.items()}
        )
        assert biased_beam_search(shuffled, source, source_complete, config) == expected


def test_simulation_log_matches_the_replaced_search(tmp_path, monkeypatch, toy_model, toy_talk):
    config = DecoderConfig(beam_size=4, bias_weight=0.5, mask_length=2)
    save_event_log(run_simulation(toy_talk, toy_model, config), tmp_path / "new.jsonl")
    oracle_calls = []

    def oracle(model, source, source_complete, config, *, memo):
        # The oracle searches from scratch: the memo is the resumed path's.
        oracle_calls.append(source)
        return decoder_oracle.biased_beam_search(model, source, source_complete, config)

    monkeypatch.setattr(pipeline, "biased_beam_search", oracle)
    save_event_log(run_simulation(toy_talk, toy_model, config), tmp_path / "old.jsonl")
    assert len(oracle_calls) >= len(toy_talk)  # every step decoded through the oracle
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# The resumed search: every search of a session, resumed from the live
# sentence's memo, against the from-scratch search it replaced.

_SESSION_WORDS = ("a", "b", "c", "u", "a.", "b?")  # u is never in a table
_SESSION_CONTEXTS = (END_OF_SOURCE, "a", "b", "c", "a.")
# Uniform pairs tie exactly; EOS_TOKEN ends a translation early.
_SESSION_TARGETS = ("X", "Y", "Z", "W.", EOS_TOKEN)
_SESSION_DISTRIBUTIONS = ((1.0,), (0.5, 0.5), (0.75, 0.25), (0.25, 0.25, 0.5))


@st.composite
def session_table_models(draw):
    entries = {}
    for word in draw(st.lists(st.sampled_from([word for word in _SESSION_WORDS if word != "u"]), unique=True)):
        extra = draw(st.lists(st.sampled_from(_SESSION_CONTEXTS), max_size=3, unique=True))
        for context in [ANY_CONTEXT, *extra]:
            probs = draw(st.sampled_from(_SESSION_DISTRIBUTIONS))
            targets = draw(
                st.lists(st.sampled_from(_SESSION_TARGETS), min_size=len(probs), max_size=len(probs), unique=True)
            )
            entries[(word, context)] = dict(zip(targets, probs))
    return TableModel(entries)


_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=300, deadline=None)
@given(
    model=session_table_models(),
    words=st.lists(st.sampled_from(_SESSION_WORDS), min_size=1, max_size=16),
    chunk_size=st.integers(min_value=1, max_value=3),
    beam_size=st.integers(min_value=1, max_value=4),
    bias_weight=_WEIGHTS,
    detours=st.lists(
        st.tuples(
            st.one_of(st.none(), st.tuples(st.integers(min_value=1, max_value=4), _WEIGHTS)),
            st.lists(st.sampled_from(_SESSION_WORDS), max_size=3),
            st.booleans(),
        ),
        max_size=16,
    ),
)
def test_every_resumed_search_of_a_session_matches_the_replaced_search(
    model, words, chunk_size, beam_size, bias_weight, detours
):
    """At every step of a session, each search that ``advance`` resumes from
    the live sentence's memo returns what the from-scratch oracle returns
    for the same inputs.  A detour first advances the same state, under the
    current or another beam size and weight, by the step's feed or by other
    words, and discards the result (so the memo holds another search's
    rounds); with its flag set, the detour's config is used from then on."""
    config = DecoderConfig(beam_size=beam_size, bias_weight=bias_weight)
    searches = []

    def checked_search(model, source, source_complete, config, *, memo):
        result = biased_beam_search(model, source, source_complete, config, memo=memo)
        assert result == decoder_oracle.biased_beam_search(model, source, source_complete, config)
        searches.append(source)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "biased_beam_search", checked_search)
        state = SessionState()
        for index, start in enumerate(range(0, len(words), chunk_size)):
            feed = [TimedToken(word, float(start)) for word in words[start:start + chunk_size]]
            if index < len(detours):
                settings_, other_words, switch = detours[index]
                detour = config if settings_ is None else DecoderConfig(*settings_)
                other_feed = [TimedToken(word, float(start)) for word in other_words] or feed
                pipeline.advance(state, other_feed, model, detour)
                config = detour if switch else config
            state = pipeline.advance(state, feed, model, config)
    assert searches


@settings(max_examples=300, deadline=None)
@given(
    model=session_table_models(),
    source_stem=st.lists(st.sampled_from(_SESSION_WORDS[:4]), max_size=6),
    previous_stem=st.lists(st.sampled_from(_SESSION_TARGETS), max_size=6),
    searches=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.lists(st.sampled_from(_SESSION_WORDS[:4]), max_size=2),
            st.booleans(),
            st.integers(min_value=0, max_value=6),
            st.lists(st.sampled_from(_SESSION_TARGETS), max_size=2),
            st.sampled_from([(2, 0.5), (1, 0.0), (4, 1.0)]),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_searches_sharing_one_memo_match_the_replaced_search(model, source_stem, previous_stem, searches):
    """Any run of searches through one memo returns what each search from
    scratch returns: the memo keeps only the rounds whose inputs are
    unchanged.  Each search takes a prefix of one source and of one previous
    translation and appends a few tokens, so successive searches share long
    prefixes, differ in completeness, or switch beam size and weight."""
    memo = BeamMemo()
    for source_cut, source_tail, source_complete, previous_cut, previous_tail, (beam, weight) in searches:
        source = source_stem[:source_cut] + source_tail
        previous = tuple(previous_stem[:previous_cut] + previous_tail)
        config = DecoderConfig(beam_size=beam, bias_weight=weight, previous_translation=previous)
        expected = decoder_oracle.biased_beam_search(model, source, source_complete, config)
        assert biased_beam_search(model, source, source_complete, config, memo=memo) == expected


class _BoundReadingModel:
    """Reads at target position ``n`` all that its ``source_lookahead`` L
    allows and nothing more: the words before ``n + L + 1`` while
    ``n + L + 1 <= len(source)``, else the whole source and its
    completeness.  Each distinct read draws its own distribution from the
    model's seed, so a change to anything it reads may change what it
    serves.  Past the end of the source only EOS remains."""

    source_lookahead: ClassVar[int] = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.served: dict[tuple, dict[str, float]] = {}

    def next_distribution(self, source, source_complete, prefix):
        n = len(prefix)
        bound = n + self.source_lookahead + 1
        if bound <= len(source):
            read = (n, tuple(source[:bound]))
        elif n <= len(source):
            read = (n, tuple(source), source_complete)
        else:
            return {EOS_TOKEN: 1.0}
        dist = self.served.get(read)
        if dist is None:
            rng = random.Random(f"{self.seed}:{read}")
            probs = rng.choice(_SESSION_DISTRIBUTIONS)
            dist = self.served[read] = dict(zip(rng.sample(_SESSION_TARGETS, len(probs)), probs))
        return dist


_BOUND_READING_MODELS = tuple(
    type(f"Lookahead{lookahead}Model", (_BoundReadingModel,), {"source_lookahead": lookahead})
    for lookahead in range(4)
)


@settings(max_examples=300, deadline=None)
@given(
    model_class=st.sampled_from(_BOUND_READING_MODELS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    words=st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=8),
    previous_stem=st.lists(st.sampled_from(_SESSION_TARGETS), max_size=8),
    searches=st.lists(
        st.tuples(
            st.integers(min_value=-1, max_value=2),
            st.booleans(),
            st.integers(min_value=0, max_value=8),
            st.sampled_from([(2, 0.5), (1, 0.0), (3, 1.0), (4, 0.25)]),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_searches_by_a_model_that_reads_up_to_its_lookahead_bound_match_the_replaced_search(
    model_class, seed, words, previous_stem, searches
):
    """The look-ahead contract is exact at its bound: for models that read
    everything ``n + L + 1 <= len(source)`` allows (L = 0 to 3), a run of
    searches through one memo, over a source that grows, shrinks or stays
    while its completeness flips and the beam size and weight switch,
    returns what each search from scratch returns."""
    model = model_class(seed)
    memo = BeamMemo()
    length = 1
    for growth, source_complete, previous_cut, (beam, weight) in searches:
        length = min(max(length + growth, 1), len(words))
        source = words[:length]
        config = DecoderConfig(beam_size=beam, bias_weight=weight, previous_translation=tuple(previous_stem[:previous_cut]))
        expected = decoder_oracle.biased_beam_search(model, source, source_complete, config)
        assert biased_beam_search(model, source, source_complete, config, memo=memo) == expected


_RUN_ON = (
    "das blatt papier war teuer der zug gewinnt nicht heute die medikamente waren teuer das "
    "gericht schmeckt heute gut neue medikamente könnten heute helfen die forscher sind sehr gut anna"
).split()


@pytest.mark.parametrize("bias_weight, calls", [(1.0, 89), (0.5, 101)])
def test_a_growing_sentence_costs_a_few_distributions_per_word(monkeypatch, toy_model, bias_weight, calls):
    """Feeding a 30-word sentence one word at a time asks the table for a
    number of distributions linear in the words.  At step t >= 2 the source
    gained word t, which round t - 2 reads as its context, and the bias
    target gained the token that step t - 1 added; so the search resumes at
    round t - 2 and runs rounds t - 2, t - 1 and t (the end-of-sentence
    round), one distribution each: 2 + 3 * 29 = 89 at weight 1, which keeps
    every earlier token.  At weight 0.5 a few revisions of the bias target
    send the search back further (12 more).  The search from round 0 that
    asked once per hypothesis took 500 and 1530: quadratic."""
    asked = []
    serve = TableModel.next_distribution

    def counting(self, source, source_complete, prefix):
        asked.append(len(prefix))
        return serve(self, source, source_complete, prefix)

    monkeypatch.setattr(TableModel, "next_distribution", counting)
    transcript = TimedTranscript(tuple(TimedToken(word, float(i)) for i, word in enumerate(_RUN_ON)))
    run_simulation(transcript, toy_model, DecoderConfig(beam_size=4, bias_weight=bias_weight))
    assert len(_RUN_ON) == 30
    assert len(asked) == calls


@pytest.mark.parametrize(
    "serve", [lambda dist: dict(sorted(dist.items())), MappingProxyType], ids=["sorted", "read_only"]
)
def test_simulation_log_is_independent_of_the_served_mapping(tmp_path, toy_model, toy_talk, serve):
    # Targets in sorted order instead of file order give the same log, and
    # read-only mappings show that the search never writes to one.
    config = DecoderConfig(beam_size=4, bias_weight=0.5, mask_length=2)
    served = TableModel({key: serve(dist) for key, dist in toy_model.entries.items()})
    save_event_log(run_simulation(toy_talk, toy_model, config), tmp_path / "plain.jsonl")
    save_event_log(run_simulation(toy_talk, served, config), tmp_path / "served.jsonl")
    assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "served.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# Masking


def test_mask_holds_back_tail_while_source_incomplete():
    live = SessionState(previous_unmasked=("u", "v", "w"))
    assert display_texts(live, (2, 0, 5)) == ["u", "u v w", ""]
    after_frozen = SessionState(frozen_text="F. ", previous_unmasked=("u", "v", "w"))
    assert display_texts(after_frozen, (2, 0, 5)) == ["F. u", "F. u v w", "F."]


def test_mask_is_inert_once_source_complete():
    # Only the live sentence is masked: step freezes a completed sentence in
    # full, whatever the mask length.
    identity, config = TableModel({}), DecoderConfig(beam_size=2, mask_length=2)
    _, live = step(SessionState(), [TimedToken(w, 0.0) for w in ("u", "v", "w")], identity, config)
    _, done = step(SessionState(), [TimedToken(w, 0.0) for w in ("u", "v", "w.")], identity, config)
    assert (live.output_text, done.output_text) == ("u", "u v w.")


def test_mask_rejects_negative_length():
    with pytest.raises(ValueError, match=r"^mask_length must be >= 0, got -1$"):
        display_texts(SessionState(previous_unmasked=("u",)), (1, -1))


@given(
    st.lists(st.sampled_from("uvw"), max_size=10),
    st.lists(st.integers(min_value=0, max_value=12), max_size=4),
    st.sampled_from(["", "F. ", "F. G! "]),
)
def test_mask_is_a_prefix_of_expected_length(tokens, mask_lengths, frozen_text):
    state = SessionState(frozen_text=frozen_text, previous_unmasked=tuple(tokens))
    shown = display_texts(state, mask_lengths)
    assert len(shown) == len(mask_lengths)
    frozen = tokenize(frozen_text)
    for mask_length, display in zip(mask_lengths, shown):
        masked = tokenize(display)[len(frozen):]
        assert masked == tokens[: len(masked)]
        assert len(masked) == max(0, len(tokens) - mask_length)
        assert display == " ".join(frozen + masked)
