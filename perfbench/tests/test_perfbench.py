"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOY = workloads.load_toy(ROOT / "data" / "toy")
LISTED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed_and_references_cover_transcripts(name, tmp_path):
    first = workloads.build(name, 3, "full", TOY)
    assert first == workloads.build(name, 3, "full", TOY)
    other = workloads.build(name, 4, "full", TOY)
    assert other != first
    # Seeds move sentences around but keep the amount of work.
    assert other.source_tokens() == first.source_tokens()
    workloads.write(first, tmp_path / "a")
    workloads.write(workloads.build(name, 3, "full", TOY), tmp_path / "b")
    for path in (tmp_path / "a").rglob("*.jsonl"):
        assert path.read_bytes() == (tmp_path / "b" / path.relative_to(tmp_path / "a")).read_bytes()


def test_sizes():
    assert workloads.build("talk", 0, "full", TOY).source_tokens() == 666
    assert workloads.build("talk", 0, "half", TOY).source_tokens() == 333
    assert workloads.build("runon", 0, "full", TOY).source_tokens() == 444
    sweep = workloads.build("sweep", 0, "full", TOY)
    assert len(sweep.documents) == 6 and sweep.source_tokens() == 111
    assert len(sweep.betas) * len(sweep.ks) == 25


def test_runon_keeps_a_sentence_end_about_every_49_words():
    workload = workloads.build("runon", 5, "full", TOY)
    words = [word for word, _ in workload.documents[0].words()]
    ends = [i for i, word in enumerate(words) if word.endswith(".")]
    assert ends[-1] == len(words) - 1
    gaps = [b - a for a, b in zip([-1] + ends, ends)]
    assert all(40 <= gap <= 60 for gap in gaps), gaps
    # The reference segments keep the toy sentence borders.
    assert len(workload.documents[0].segments) == 88


def test_recorded_digests_cover_the_default_and_held_out_seed():
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for size in ("full", "smoke"):
            for seed in run.RECORDED_SEEDS:
                names = run.output_names(workloads.build(name, seed, size, TOY))
                assert set(digests[name][size][str(seed)]) == {n for group in names.values() for n in group}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_prints_every_listed_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    listed = LISTED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    # Seed 0 has digests recorded from the command line: the outputs match them.
    assert "checked against recorded digests" in proc.stderr


def _loaded_bench(tmp_path: Path, name: str, seed: int) -> run.Bench:
    bench = run.Bench(run.load_program(ROOT), workloads.build(name, seed, "smoke", TOY), tmp_path)
    assert bench.run("setup") is not None
    return bench


def test_a_changed_output_counts_as_failed(tmp_path):
    bench = _loaded_bench(tmp_path / "recorded", "talk", 0)
    bench.recorded = dict(bench.recorded, **{"events/talk.jsonl": "0" * 64})
    assert bench.run("simulate") is None and bench.failed == 1

    bench = _loaded_bench(tmp_path / "unrecorded", "talk", 5)
    assert bench.recorded is None
    assert bench.run("simulate") is not None
    bench.seen["events/talk.jsonl"] = "0" * 64
    assert bench.run("simulate") is None and bench.failed == 1


def test_sweep_row_is_cross_checked_against_the_reports(tmp_path):
    bench = _loaded_bench(tmp_path, "runon", 5)
    assert bench.run("simulate") is not None and bench.run("evaluate") is not None
    path = tmp_path / "out" / "reports" / "runon.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["lags"][0] += 1.0
    path.write_text(json.dumps(report), encoding="utf-8")
    assert bench.run("sweep") is None and bench.failed == 1


def test_calibration_scales_by_the_loop_mean():
    cal = calibration.Calibration()
    cal.run_for(0.0)
    assert len(cal.samples) == 1
    cal.run_for(0.02)
    assert cal.scale() == pytest.approx(calibration.NOMINAL_S * len(cal.samples) / sum(cal.samples))
    assert calibration.loop() == calibration.loop()


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("op.simulate"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
    totals = tracer.totals()
    outer, inner = totals[("op.simulate", "outer")], totals[("op.simulate", "inner")]
    assert inner["s"] >= 0.01
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"], abs=1e-9)
    assert inner["self_s"] == inner["s"]


def test_wrappers_count_and_are_removed_afterwards(tmp_path):
    bench = _loaded_bench(tmp_path, "talk", 0)
    program = bench.p
    originals = {(m, a): getattr(getattr(program, m), a) for m, a, _ in tracing.BINDINGS}
    tracer = tracing.Tracer()
    assert bench.run("simulate", tracer) is not None and bench.run("evaluate", tracer) is not None
    assert all(getattr(getattr(program, m), a) is fn for (m, a), fn in originals.items())
    metrics = tracing.layer_metrics(tracer)
    words = bench.workload.source_tokens()
    assert metrics["decoder.calls"] == words == metrics["pipeline.step.calls"]
    assert metrics["pipeline.split_sentences.tokens"] == words * (words + 1) // 2
    assert metrics["align.mwer_segment.calls"] == 2


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "talk", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
