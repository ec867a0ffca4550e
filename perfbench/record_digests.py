"""Record the SHA-256 digests that run.py checks every output against.

    python3 perfbench/record_digests.py

For each workload, at full and smoke size, and for each seed in
``run.RECORDED_SEEDS``, this generates the inputs, runs the ``retrans``
command line on them in a child process (``simulate`` and ``evaluate`` per
document, then ``sweep``), and writes the digests of the files it produced
to digests.json.  The benchmark's own outputs must match them byte for
byte.  Record again only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def _cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    subprocess.run([sys.executable, "-m", "retrans", *args], check=True, env=env)


def record(workload: workloads.Workload, directory: Path) -> dict[str, str]:
    inputs, out = directory / "inputs", directory / "out"
    workloads.write(workload, inputs)
    for sub in ("events", "reports", "sweep"):
        (out / sub).mkdir(parents=True)
    model = str(run.ROOT / "data" / "toy" / "model.tsv")
    names = run.output_names(workload)
    for doc, events, report in zip(workload.documents, names["simulate"], names["evaluate"]):
        _cli("simulate", "--model", model, "--transcript", str(inputs / "transcripts" / doc.name),
             "--beta", repr(workload.beta), "--k", str(workload.k), "--beam", str(workload.beam),
             "--out", str(out / events))
        _cli("evaluate", "--events", str(out / events), "--reference", str(inputs / "references" / doc.name),
             "--out", str(out / report))
    _cli("sweep", "--model", model, "--transcripts", str(inputs / "transcripts"),
         "--references", str(inputs / "references"), "--betas", ",".join(map(repr, workload.betas)),
         "--ks", ",".join(map(str, workload.ks)), "--beam", str(workload.beam),
         "--out", str(out / "sweep" / "rows.csv"))
    return {name: run.sha256(out / name) for group in names.values() for name in group}


def main() -> None:
    toy = workloads.load_toy(run.ROOT / "data" / "toy")
    digests: dict = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=run.ROOT) as tmp:
        for name in workloads.WORKLOADS:
            for size in ("full", "smoke"):
                for seed in run.RECORDED_SEEDS:
                    workload = workloads.build(name, seed, size, toy)
                    digests.setdefault(name, {}).setdefault(size, {})[str(seed)] = record(
                        workload, Path(tmp) / f"{name}-{size}-{seed}"
                    )
                    print(f"recorded {name} {size} seed {seed}", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
