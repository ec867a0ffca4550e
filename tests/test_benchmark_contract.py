"""The names the benchmark in ``perfbench/`` reaches must stay on the package.

``perfbench/tracing.py`` wraps the module attributes in its ``BINDINGS``
table, and ``perfbench/run.py`` calls the library through ``p.<module>.<name>``.
Renaming or deleting one of those names breaks the benchmark, not the
program, so this test reads both files, changing neither, and checks every
name resolves.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolves(module: str, attribute: str) -> bool:
    return hasattr(importlib.import_module(f"retrans.{module}"), attribute)


def test_every_traced_binding_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BINDINGS
    missing = [(module, attribute) for module, attribute, _ in tracing.BINDINGS if not _resolves(module, attribute)]
    assert missing == []


def test_every_library_call_of_the_benchmark_resolves():
    calls = set(re.findall(r"\bp\.(\w+)\.(\w+)", (PERFBENCH / "run.py").read_text(encoding="utf-8")))
    assert calls
    assert sorted(call for call in calls if not _resolves(*call)) == []
