"""Benchmark of retrans's three user paths: simulate, evaluate and sweep.

    python3 perfbench/run.py --workload talk --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from data/toy/ and --seed (see workloads.py),
loads them, and repeats the three paths until --seconds have passed:

- simulate: run_simulation + save_event_log for each document
- evaluate: load_event_log + evaluate_all + save_report for each document
- sweep:    cli.sweep over the workload's grid + the rows and Pareto CSVs

After every operation a fixed calibration loop runs for a quarter of the
operation's time (calibration.py).  Each path, set-up included (three per
repetition), reports its mean time scaled to the nominal machine speed:
times NOMINAL_S over the loop's mean time in the same run.

Every output is checked: its SHA-256 digest must equal the one recorded in
digests.json (taken from the ``retrans`` command line on the same inputs)
for the default and the held-out seed, and be the same on every repetition
for any other seed; structural checks and a cross-check of the sweep row
against the evaluated reports run on every seed.  An operation that raises
or fails a check counts as failed and ends the measurement.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports per-layer metrics from the traced ones (see
tracing.py), plus slopes against a half-size pass.  --smoke shrinks every
workload so that a run takes seconds.  Details go to stderr; the last line
of stdout is one JSON object with keys correct, attempted, failed, metrics.
Exits 0 when every check passed, 1 when one failed, 2 when there is no
retrans checkout to run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads
from calibration import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
RECORDED_SEEDS = (0, 7919)  # the default seed and one held out while writing the benchmark
OPS = ("simulate", "evaluate", "sweep")
SESSION_OPS = ("simulate", "evaluate")
HASH_SEED = "0"
SETUP_REPEATS = 3  # per repetition, so set-up samples spread over the run like the others
CALIBRATION_SHARE = 0.25  # calibration loop time after each operation, as a share of its time


class NoProgram(Exception):
    """The checkout lacks the program or its data."""


def load_program(root: Path):
    """Import ``retrans`` from ``root/src``, never from anywhere else."""
    package = root / "src" / "retrans"
    for needed in (package / "__init__.py", root / "data" / "toy" / "model.tsv", root / "BENCHMARK.json"):
        if not needed.is_file():
            raise NoProgram(f"{needed} not found: run from the root of a retrans checkout")
    sys.path.insert(0, str(root / "src"))
    import retrans

    if Path(retrans.__file__).resolve().parent != package.resolve():
        raise NoProgram(f"imported retrans from {retrans.__file__}, not from {package}")
    return retrans


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_names(workload: workloads.Workload) -> dict[str, list[str]]:
    """Output files of each operation, relative to the output directory."""
    return {
        "simulate": [f"events/{doc.name}" for doc in workload.documents],
        "evaluate": [f"reports/{Path(doc.name).stem}.json" for doc in workload.documents],
        "sweep": ["sweep/rows.csv", "sweep/rows.pareto.csv"],
    }


def recorded_digests(name: str, size: str, seed: int) -> dict[str, str] | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {}).get(size, {}).get(str(seed))


class Bench:
    """One generated workload, loaded, with its three timed user paths and
    the checks on their outputs."""

    def __init__(self, program, workload: workloads.Workload, directory: Path) -> None:
        self.p = program
        self.workload = workload
        self.inputs = directory / "inputs"
        self.out = directory / "out"
        self.model_path = ROOT / "data" / "toy" / "model.tsv"
        workloads.write(workload, self.inputs)
        for sub in ("events", "reports", "sweep"):
            (self.out / sub).mkdir(parents=True, exist_ok=True)
        self.names = output_names(workload)
        self.recorded = recorded_digests(workload.name, workload.size, workload.seed)
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.model = None
        self.documents: list = []

    # -- the timed operations ------------------------------------------------

    def setup(self) -> None:
        p = self.p
        self.model = p.decoder.load_table_model(self.model_path)
        self.documents = [
            (
                doc.name,
                p.pipeline.load_transcript(self.inputs / "transcripts" / doc.name),
                p.metrics.load_reference_document(self.inputs / "references" / doc.name),
            )
            for doc in sorted(self.workload.documents, key=lambda d: d.name)
        ]

    def simulate(self) -> None:
        p = self.p
        w = self.workload
        config = p.decoder.DecoderConfig(beam_size=w.beam, bias_weight=w.beta, mask_length=w.k)
        for name, transcript, _ in self.documents:
            log = p.pipeline.run_simulation(transcript, self.model, config, 1, 0.0)
            p.eventlog.save_event_log(log, self.out / "events" / name)

    def evaluate(self) -> None:
        p = self.p
        for name, _, reference in self.documents:
            log = p.eventlog.load_event_log(self.out / "events" / name)
            report = p.metrics.evaluate_all(log, reference, mode="segment")
            p.metrics.save_report(report, self.out / "reports" / f"{Path(name).stem}.json")

    def sweep(self) -> None:
        p = self.p
        w = self.workload
        rows = p.cli.sweep(self.model, self.documents, list(w.betas), list(w.ks), w.beam)
        out = self.out / "sweep" / "rows.csv"
        p.cli.save_sweep_rows(rows, out)
        p.cli.save_sweep_rows(p.cli.pareto_subset(rows, None), out.with_suffix(".pareto.csv"))

    def run(self, op: str, tracer: tracing.Tracer | None = None) -> float | None:
        """Run one operation and check its outputs.  Returns its wall time,
        or None when it raised or failed a check (counted as failed)."""
        gc.collect()
        self.attempted += 1
        wrappers = tracing.installed(tracer, self.p) if tracer else nullcontext()
        try:
            with wrappers:
                start = time.perf_counter()
                with tracer.span("op." + op) if tracer else nullcontext():
                    getattr(self, op)()
                elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = self.check(op) if op != "setup" else []
        for problem in problems:
            print(f"check failed: {self.workload.name} {op}: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return elapsed

    # -- output checks -------------------------------------------------------

    def check(self, op: str) -> list[str]:
        problems = []
        first = not any(name in self.seen for name in self.names[op])
        for name in self.names[op]:
            digest = sha256(self.out / name)
            if self.recorded is not None:
                want = self.recorded.get(name)
                if want is None:
                    problems.append(f"{name}: no recorded digest")
            else:
                want = self.seen.get(name)
            if want is not None and digest != want:
                problems.append(f"{name}: sha256 {digest[:16]}... differs from {want[:16]}...")
            self.seen.setdefault(name, digest)
        if first:
            problems += getattr(self, f"_check_{op}")()
        return problems

    def _events(self, doc: workloads.Document) -> list[str]:
        return (self.out / "events" / doc.name).read_text(encoding="utf-8").splitlines()

    def _report(self, doc: workloads.Document) -> dict:
        return json.loads((self.out / "reports" / f"{Path(doc.name).stem}.json").read_text(encoding="utf-8"))

    def _check_simulate(self) -> list[str]:
        problems = []
        for doc in self.workload.documents:
            lines = self._events(doc)
            last = json.loads(lines[-1]) if lines else {}
            words = doc.words()
            if (
                last.get("src") != " ".join(word for word, _ in words)
                or last.get("t") != words[-1][1]
                or not last.get("out", "").split()
            ):
                problems.append(f"events/{doc.name}: the last event does not show the whole transcript")
        return problems

    def _check_evaluate(self) -> list[str]:
        problems = []
        for doc in self.workload.documents:
            lines = self._events(doc)
            final_len = len(json.loads(lines[-1])["out"].split())
            report = self._report(doc)
            lags, erased = report["lags"], report["erasure"]
            if not (
                set(report) == {"bleu", "tl", "ne", "erasure", "lags"}
                and len(lags) == final_len
                and len(erased) == len(lines)
                and 0.0 <= report["bleu"] <= 100.0
                and all(math.isfinite(x) for x in lags)
                and report["tl"] == math.fsum(lags) / final_len
                and report["ne"] == sum(erased) / final_len
            ):
                problems.append(f"reports/{Path(doc.name).stem}.json: inconsistent with its event log")
        return problems

    def _check_sweep(self) -> list[str]:
        w = self.workload
        rows = (self.out / "sweep" / "rows.csv").read_text(encoding="utf-8").splitlines()
        pareto = (self.out / "sweep" / "rows.pareto.csv").read_text(encoding="utf-8").splitlines()
        problems = []
        if rows[:1] != ["beta,k,bleu,tl,ne"] or len(rows) != 1 + len(w.betas) * len(w.ks):
            problems.append("sweep/rows.csv: wrong header or row count")
        if pareto[:1] != rows[:1] or not set(pareto[1:]) <= set(rows[1:]) or len(pareto) < 2:
            problems.append("sweep/rows.pareto.csv: not a non-empty subset of the rows")
        # The sweep's own simulate/evaluate plumbing must agree exactly with
        # the reports the evaluate path wrote for the same setting.
        base = [row for row in rows[1:] if row.split(",")[:2] == [repr(w.beta), str(w.k)]]
        reports = [self._report(doc) for doc in w.documents]
        lags = [lag for report in reports for lag in report["lags"]]
        erased = sum(sum(report["erasure"]) for report in reports)
        if len(base) != 1:
            problems.append("sweep/rows.csv: no single row for the workload's own setting")
        else:
            _, _, bleu, tl, ne = (float(field) for field in base[0].split(","))
            if tl != math.fsum(lags) / len(lags) or ne != erased / len(lags):
                problems.append("sweep/rows.csv: lag or erasure differs from the evaluated reports")
            if len(reports) == 1 and bleu != reports[0]["bleu"]:
                problems.append("sweep/rows.csv: BLEU differs from the evaluated report")
        return problems

    def summary(self) -> list[str]:
        lines = []
        for doc in self.workload.documents:
            report = self._report(doc)
            lines.append(
                f"  {doc.name}: {len(doc.words())} words, BLEU {report['bleu']:.2f}, "
                f"TL {report['tl']:.3f} s, NE {report['ne']:.3f}"
            )
        source = "recorded digests" if self.recorded is not None else "no recorded digests; repeat-identical"
        lines.append(f"  outputs checked against {source}: {self.failed} failed of {self.attempted}")
        return lines


def describe(samples: list[float]) -> str:
    """Fastest, median, mean and the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    text = f"fastest {ordered[0]:.6g}, median {statistics.median(ordered):.6g}, mean {statistics.fmean(ordered):.6g} (n={len(ordered)}"
    if len(ordered) > 10:
        text += f", p{100 * (len(ordered) - 10) // len(ordered)} {ordered[-11]:.6g}"
    return text + ")"


def time_left(deadline: float, repetitions: list[float]) -> bool:
    """Whether another repetition would end nearer the deadline than the
    last one did, so a run lasts about --seconds whatever a repetition costs."""
    return time.perf_counter() + statistics.median(repetitions) / 2 < deadline


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    samples: dict[str, list[float]] = {op: [] for op in ("setup", *OPS)}
    calibration = Calibration()
    peak_kib = 0
    repetitions: list[float] = []
    deadline = time.perf_counter() + seconds
    while not bench.failed:
        start = time.perf_counter()
        for op in ("setup",) * SETUP_REPEATS + OPS:
            elapsed = bench.run(op)
            if elapsed is None:
                break
            samples[op].append(elapsed)
            calibration.run_for(CALIBRATION_SHARE * elapsed)
        # The peak of the first repetition: what one pass over the three
        # paths needs, independent of how many repetitions fit the run.
        peak_kib = peak_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        repetitions.append(time.perf_counter() - start)
        if not time_left(deadline, repetitions):
            break
    for op, values in samples.items():
        if values:
            print(f"  {op}_s: {describe(values)}", file=sys.stderr)
    if not calibration.samples:  # the first operation failed
        return {}
    print(f"  calibration loop: {calibration.describe()}", file=sys.stderr)
    # Each time is the mean repetition, scaled to the nominal machine speed
    # by the calibration loop (see calibration.py and README.md, "Noise").
    scale = calibration.scale()
    metrics = {f"{op}_s": statistics.fmean(values) * scale for op, values in samples.items() if values}
    if samples["simulate"]:
        metrics["event_log_mb"] = sum(
            (bench.out / name).stat().st_size for name in bench.names["simulate"]
        ) / 1e6
    if samples["sweep"]:
        metrics["peak_rss_mb"] = peak_kib * 1024 / 1e6
    return metrics


def measure_traced(bench: Bench, half: Bench, seconds: float, spans_path: Path) -> dict[str, float]:
    """Alternate an untraced repetition, a traced one and a traced half-size
    session, so that all three see the same machine conditions."""
    if bench.run("setup") is None or half.run("setup") is None:
        return {}
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    full_sessions: list[dict[str, float]] = []
    half_sessions: list[dict[str, float]] = []
    repetitions: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        walls = [bench.run(op) for op in OPS if not bench.failed]
        tracer = tracing.Tracer()
        traced_walls = [bench.run(op, tracer) for op in OPS if not bench.failed]
        half_tracer = tracing.Tracer()
        for op in SESSION_OPS:
            if not half.failed:
                half.run(op, half_tracer)
        if bench.failed or half.failed:
            return {}
        untraced.append(sum(walls))
        traced.append(sum(traced_walls))
        layers.append(tracing.layer_metrics(tracer))
        full_sessions.append(tracing.session_seconds(tracer))
        half_sessions.append(tracing.session_seconds(half_tracer))
        repetitions.append(time.perf_counter() - start)
        if not time_left(deadline, repetitions):
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    print(f"  spans of the last traced repetition: {spans_path}", file=sys.stderr)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    full_size, half_size = bench.workload.source_tokens(), half.workload.source_tokens()
    for name in tracing.SLOPE_SPANS:
        metrics[name] = tracing.slope(
            statistics.median(s[name] for s in full_sessions),
            statistics.median(s[name] for s in half_sessions),
            full_size,
            half_size,
        )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    print(f"  untraced repetition: {describe(untraced)} s; traced: {describe(traced)} s", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g}", file=sys.stderr)
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Pin string hashing, and with it dict and set layouts and the
        # memory peak, so that runs repeat; exec keeps the same process.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    try:
        program = load_program(ROOT)
        toy = workloads.load_toy(ROOT / "data" / "toy")
    except (NoProgram, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = listed["per_layer" if args.trace else "end_to_end"]
    size = "smoke" if args.smoke else "full"
    print(f"retrans benchmark: workload {args.workload}, seed {args.seed}, {size} size", file=sys.stderr)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        bench = Bench(program, workloads.build(args.workload, args.seed, size, toy), workdir / "full")
        if args.trace:
            half_size = "smoke-half" if args.smoke else "half"
            half = Bench(program, workloads.build(args.workload, args.seed, half_size, toy), workdir / "half")
            spans = ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = measure_traced(bench, half, args.seconds, spans)
            attempted, failed = bench.attempted + half.attempted, bench.failed + half.failed
        else:
            metrics = measure(bench, args.seconds)
            attempted, failed = bench.attempted, bench.failed
        if bench.seen.keys() >= set(bench.names["evaluate"]):
            print("\n".join(bench.summary()), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = failed == 0 and all(m["name"] in metrics for m in listed)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
