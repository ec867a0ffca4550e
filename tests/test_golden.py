"""Pinned bytes of the scoring outputs on the toy corpus.

The SHA-256s below were recorded before `mwer_segment`'s cut recovery took
bit-vector steps and BLEU counted n-grams through `zip`.  Any change to
segmentation, BLEU, lag or erasure that moves a single byte of a report or
a sweep row fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from retrans.cli import main

from conftest import TOY_DIR

DOCUMENTS = ("games", "health", "kitchen", "market", "news", "travel")

REPORTS = {
    "games": "edcec58be114faed986d3eaefb8d96eeb3a8d0d178111ebdd7d5c374a45931aa",
    "health": "41d757f358e11dc5b92d4313bae22b5abe2fb70e064e8cad477db7ad74a2f4f3",
    "kitchen": "514817b48225b532ac8b72fdff68de343252b7ce28ac3267a4a8e51455aa3adf",
    "market": "e599d663e8b79df1f47a29f710d153d7db2fb642123d8584d06d63777869838e",
    "news": "79c0e1313f945f38481183f509a88bc66e635d6135cb5f9099f429ade0007abf",
    "travel": "a8d1b64c1617f46f9d1ec1a0906c9255363270efb0123003cfcd80709d2942f8",
}

SWEEP = {
    "rows.csv": "fe01f34eba22dd6abfec6bc108be58d96cf34d6a0c3ea86786727c9ad1c08dd6",
    "rows.pareto.csv": "4953b6eff917ddc592160a1f572474e23a7000f96af01ed9ee07f361ff4f3e09",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", DOCUMENTS)
def test_evaluate_report_bytes_are_pinned(tmp_path, name):
    events = tmp_path / f"{name}.events.jsonl"
    report = tmp_path / f"{name}.report.json"
    transcript = TOY_DIR / "transcripts" / f"{name}.jsonl"
    reference = TOY_DIR / "references" / f"{name}.jsonl"
    simulate = ["simulate", "--model", str(TOY_DIR / "model.tsv"), "--transcript", str(transcript)]
    assert main([*simulate, "--beta", "0.5", "--k", "2", "--beam", "4", "--out", str(events)]) == 0
    assert main(["evaluate", "--events", str(events), "--reference", str(reference), "--out", str(report)]) == 0
    assert sha256(report) == REPORTS[name]


def test_sweep_rows_bytes_are_pinned(tmp_path):
    code = main(
        [
            "sweep",
            "--model", str(TOY_DIR / "model.tsv"),
            "--transcripts", str(TOY_DIR / "transcripts"),
            "--references", str(TOY_DIR / "references"),
            "--betas", "0,0.5",
            "--ks", "0,2",
            "--beam", "4",
            "--out", str(tmp_path / "rows.csv"),
        ]
    )
    assert code == 0
    assert {name: sha256(tmp_path / name) for name in SWEEP} == SWEEP
