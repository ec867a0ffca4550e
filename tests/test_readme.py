"""The README's quick tour runs as written, and the names it imports are the
package's documented surface."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import retrans

ROOT = Path(__file__).resolve().parents[1]


def quick_tour() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme[readme.index("## Quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_the_quick_tour_runs_on_the_toy_data(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the tour names data/toy/ relative to the repository
    namespace: dict = {}
    exec(compile(quick_tour(), "README.md", "exec"), namespace)
    report = namespace["report"]
    assert capsys.readouterr().out == f"{report.bleu} {report.translation_lag} {report.normalized_erasure}\n"
    assert report == retrans.evaluate_all(namespace["log"], namespace["reference"])


def test_the_quick_tour_imports_only_exported_names():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(quick_tour()))
        if isinstance(node, ast.ImportFrom) and node.module == "retrans"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in retrans.__all__] == []


def test_the_export_list_is_sorted_unique_and_resolves():
    assert retrans.__all__ == sorted(set(retrans.__all__))
    assert [name for name in retrans.__all__ if not hasattr(retrans, name)] == []
