"""Seeded inputs for the benchmark's three workloads, built from data/toy/.

A workload is a list of documents.  A document is a list of reference
segments, each holding timed source words and a reference translation; the
document's transcript is its segments' source words in order, so a
reference always covers exactly the words the session replays.  The same
(workload, seed, size) always gives the same bytes, and every seed gives
the same amount of work: seeds only change which sentences sit where.

- ``talk``: the six toy documents concatenated in a fresh seeded order per
  round, 6 rounds (666 words of ~5-word sentences), one long session.
- ``runon``: the same stream over 4 rounds (444 words) with sentence-final
  punctuation stripped except at about every 49th word, so the live
  sentence is long and every step retranslates it from scratch.
- ``sweep``: the 22 toy sentences shuffled and dealt into six documents,
  swept over a 5x5 grid of bias weights and mask lengths.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("talk", "runon", "sweep")
SIZES = ("full", "half", "smoke", "smoke-half")

# Rounds of the toy corpus (talk, runon) or toy sentences (sweep) per size;
# a half size halves these, which is what the traced slopes compare against.
_SCALE = {
    "talk": {"full": 6, "smoke": 2},
    "runon": {"full": 4, "smoke": 2},
    "sweep": {"full": 22, "smoke": 6},
}
_SWEEP_DOCUMENTS = {"full": 6, "smoke": 3}
_SWEEP_GRID = {
    "full": ((0.0, 0.25, 0.5, 0.75, 1.0), (0, 1, 2, 3, 5)),
    "smoke": ((0.0, 0.5), (0, 2)),
}
_PAUSE = 1.0  # seconds of silence between concatenated toy documents
_STEP = 0.5  # seconds between words of a regrouped sweep document
_RUNON_SPACING = 49  # words between the sentence ends runon keeps
_SENTENCE_FINAL = ".!?"


@dataclass(frozen=True)
class Segment:
    words: tuple[tuple[str, float], ...]  # (word, time in seconds)
    reference: str


@dataclass(frozen=True)
class Document:
    name: str  # file name, e.g. "talk.jsonl"
    segments: tuple[Segment, ...]

    def words(self) -> list[tuple[str, float]]:
        return [word for segment in self.segments for word in segment.words]


@dataclass(frozen=True)
class Workload:
    """Generated documents plus the settings the three user paths run with:
    ``simulate``/``evaluate`` use (beta, k, beam); ``sweep`` grids over
    ``betas`` x ``ks`` with the same beam."""

    name: str
    seed: int
    size: str
    documents: tuple[Document, ...]
    beta: float
    k: int
    beam: int
    betas: tuple[float, ...]
    ks: tuple[int, ...]

    def source_tokens(self) -> int:
        return sum(len(doc.words()) for doc in self.documents)


def load_toy(toy_dir: Path) -> list[Document]:
    """The toy corpus's references, checked against its transcripts."""
    documents = []
    for path in sorted((toy_dir / "references").glob("*.jsonl")):
        segments = tuple(
            Segment(
                tuple((item["w"], float(item["time"])) for item in record["src"]),
                record["ref"],
            )
            for record in _read_jsonl(path)
        )
        documents.append(Document(path.name, segments))
        transcript = [(r["w"], float(r["time"])) for r in _read_jsonl(toy_dir / "transcripts" / path.name)]
        if transcript != documents[-1].words():
            raise ValueError(f"{path}: source tokens differ from the toy transcript")
    if len(documents) != 6:
        raise ValueError(f"{toy_dir}: expected the six toy documents, found {len(documents)}")
    return documents


def build(name: str, seed: int, size: str, toy: list[Document]) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    base = "smoke" if size.startswith("smoke") else "full"
    scale = _SCALE[name][base] // (2 if size.endswith("half") else 1)
    rng = random.Random(f"{name}:{seed}")
    if name == "talk":
        docs = (Document("talk.jsonl", _concatenate(toy, scale, rng)),)
        return Workload(name, seed, size, docs, 0.0, 0, 4, (0.0,), (0,))
    if name == "runon":
        docs = (Document("runon.jsonl", _run_on(_concatenate(toy, scale, rng))),)
        return Workload(name, seed, size, docs, 0.5, 2, 4, (0.5,), (2,))
    betas, ks = _SWEEP_GRID[base]
    docs = _regroup(toy, scale, _SWEEP_DOCUMENTS[base], rng)
    return Workload(name, seed, size, docs, 0.5, 2, 4, betas, ks)


def _concatenate(toy: list[Document], rounds: int, rng: random.Random) -> tuple[Segment, ...]:
    """``rounds`` passes over the toy documents, each in a fresh seeded
    order, shifted in time so each document starts a pause after the last."""
    segments: list[Segment] = []
    end = 0.0
    for _ in range(rounds):
        order = list(toy)
        rng.shuffle(order)
        for doc in order:
            shift = end + _PAUSE - doc.segments[0].words[0][1]
            for seg in doc.segments:
                segments.append(Segment(tuple((w, t + shift) for w, t in seg.words), seg.reference))
            end = segments[-1].words[-1][1]
    return tuple(segments)


def _run_on(segments: tuple[Segment, ...]) -> tuple[Segment, ...]:
    """Strip sentence-final punctuation except at the sentence ends nearest
    to every ``_RUNON_SPACING``-th word and at the very end, so the stream
    reads as long unpunctuated sentences of nearly equal length."""
    ends = []
    total = 0
    for seg in segments:
        total += len(seg.words)
        ends.append(total)
    chunks = max(1, round(total / _RUNON_SPACING))
    keep = {len(segments) - 1}
    for i in range(1, chunks):
        target = total * i / chunks
        keep.add(min(range(len(ends)), key=lambda j: abs(ends[j] - target)))
    stripped = []
    for index, seg in enumerate(segments):
        word, time = seg.words[-1]
        bare = word.rstrip(_SENTENCE_FINAL)
        if index not in keep and bare:
            seg = Segment(seg.words[:-1] + ((bare, time),), seg.reference)
        stripped.append(seg)
    return tuple(stripped)


def _regroup(toy: list[Document], count: int, documents: int, rng: random.Random) -> tuple[Document, ...]:
    """Deal ``count`` shuffled toy sentences round-robin into ``documents``
    documents, each retimed to one word per ``_STEP`` seconds."""
    sentences = [seg for doc in toy for seg in doc.segments]
    rng.shuffle(sentences)
    dealt: list[list[Segment]] = [[] for _ in range(documents)]
    for index, seg in enumerate(sentences[:count]):
        dealt[index % documents].append(seg)
    out = []
    for number, segs in enumerate(dealt):
        time = 0.0
        retimed = []
        for seg in segs:
            words = []
            for word, _ in seg.words:
                time += _STEP
                words.append((word, time))
            retimed.append(Segment(tuple(words), seg.reference))
        out.append(Document(f"doc{number}.jsonl", tuple(retimed)))
    return tuple(out)


def write(workload: Workload, directory: Path) -> None:
    """Write ``transcripts/<doc>`` and ``references/<doc>`` under
    ``directory``, then read both back and check that every reference's
    source tokens equal its transcript."""
    for sub in ("transcripts", "references"):
        (directory / sub).mkdir(parents=True, exist_ok=True)
    for doc in workload.documents:
        with open(directory / "transcripts" / doc.name, "w", encoding="utf-8", newline="\n") as handle:
            for word, time in doc.words():
                handle.write(_word_json(word, time) + "\n")
        with open(directory / "references" / doc.name, "w", encoding="utf-8", newline="\n") as handle:
            for seg in doc.segments:
                src = ", ".join(_word_json(word, time) for word, time in seg.words)
                handle.write('{"src": [%s], "ref": %s}\n' % (src, json.dumps(seg.reference, ensure_ascii=False)))
    for doc in workload.documents:
        transcript = [(r["w"], r["time"]) for r in _read_jsonl(directory / "transcripts" / doc.name)]
        source = [
            (item["w"], item["time"])
            for record in _read_jsonl(directory / "references" / doc.name)
            for item in record["src"]
        ]
        if transcript != source or not transcript:
            raise ValueError(f"{doc.name}: reference source tokens differ from the transcript")


def _word_json(word: str, time: float) -> str:
    return '{"w": %s, "time": %r}' % (json.dumps(word, ensure_ascii=False), time)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
