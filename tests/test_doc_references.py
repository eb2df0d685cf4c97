"""Every repo path and ``repro.*`` name the prose docs mention must
exist in the checkout.

Deleting or renaming a bench, tool, result file, module or function
without updating README.md, DESIGN.md, EXPERIMENTS.md and
``docs/*.md`` fails here, so retired code cannot live on in the
documentation.
"""

import importlib
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


#: A backticked dotted ``repro.*`` name, optionally called with args.
_NAME = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")


def referenced_names(text: str) -> list[str]:
    return sorted(set(_NAME.findall(text)))


def resolves(name: str) -> bool:
    """Whether ``name`` is an importable module or an attribute chain
    hanging off the longest importable prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_name_pattern_and_resolution():
    text = (
        "`repro.core.reference`, `repro.obs.metrics.counter_total(reg)`, "
        "`repro.cluster.topology.ClusterSpec.owner`, `python -m repro`, "
        "`repro.nope.module`, `repro.core.reference.nope`"
    )
    names = referenced_names(text)
    assert names == [
        "repro.cluster.topology.ClusterSpec.owner",
        "repro.core.reference",
        "repro.core.reference.nope",
        "repro.nope.module",
        "repro.obs.metrics.counter_total",
    ]
    assert [name for name in names if not resolves(name)] == [
        "repro.core.reference.nope",
        "repro.nope.module",
    ]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_referenced_names_resolve(doc):
    stale = [
        name
        for name in referenced_names(doc.read_text(encoding="utf-8"))
        if not resolves(name)
    ]
    assert not stale, f"{doc.name} names missing modules/attributes: {stale}"
