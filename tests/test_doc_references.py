"""Every repo path the prose docs mention must exist in the checkout.

Deleting or renaming a bench, tool or result file without updating
README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` fails here, so
retired files cannot live on in the documentation.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

DOCS = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
DOCS += sorted((REPO / "docs").glob("*.md"))

#: Repo-relative paths of committed source, tool, bench and doc files.
_PATH = re.compile(
    r"(?<![\w./-])"
    r"(?:benchmarks|tools|bench_results|perfbench|examples|src/repro|tests|docs)"
    r"/[\w./-]*\.(?:py|txt|json|md)\b"
)


def referenced_paths(text: str) -> list[str]:
    return sorted(set(_PATH.findall(text)))


def test_pattern_finds_paths():
    text = (
        "run `benchmarks/bench_micro_core.py`, see docs/serving.md and "
        "bench_results/*.txt; not https://x.org/docs/a.md"
    )
    assert referenced_paths(text) == [
        "benchmarks/bench_micro_core.py",
        "docs/serving.md",
    ]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_referenced_paths_exist(doc):
    missing = [
        path
        for path in referenced_paths(doc.read_text(encoding="utf-8"))
        if not (REPO / path).exists()
    ]
    assert not missing, f"{doc.name} names missing files: {missing}"


def op_table_names(text: str) -> list[str]:
    """Every backticked name in the first column of the markdown
    tables whose first header cell is ``op``."""
    names: list[str] = []
    in_op_table = False
    for line in text.splitlines():
        if not line.startswith("|"):
            in_op_table = False
            continue
        first = line.strip().strip("|").split("|")[0].strip()
        if first == "op":
            in_op_table = True
        elif in_op_table:
            names += re.findall(r"`([^`]+)`", first)
    return names


def test_op_table_pattern():
    text = (
        "| op | result |\n|----|----|\n| `ping`, `x` | `pong` |\n\n"
        "| flag | meaning |\n|---|---|\n| `--y` | z |\n"
    )
    assert op_table_names(text) == ["ping", "x"]


def test_serving_op_tables_name_only_wire_ops():
    from repro.service.protocol import KNOWN_OPS

    names = op_table_names(
        (REPO / "docs" / "serving.md").read_text(encoding="utf-8")
    )
    assert "neighbors" in names
    assert [name for name in names if name not in KNOWN_OPS] == []
