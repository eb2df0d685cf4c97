"""Scaled-down synthetic analogs of the paper's datasets (Table 2).

The paper evaluates on 18 public graphs from SNAP, LAW and Network
Repository, from 53K edges (Caida) to 1.03B edges (IT-2004).  Those
are not redistributable here and are far beyond what a pure-Python
interpreter can summarize in bounded time (repro band 3), so each
dataset is replaced by a seeded generator chosen to match its *type*
and average degree from Table 2, at a few-hundred-to-few-thousand
node scale.

The registry preserves the paper's grouping:

* ``SMALL_DATASETS`` — CA..DB, the graphs Greedy can process (Fig. 4/6);
* ``LARGE_DATASETS`` — AM..IT, the graphs where Greedy times out
  (Fig. 5/7).

Each entry records the paper's true statistics alongside the analog's
generator so that benchmark output can show both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.graph.graph import Graph

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "SMALL_DATASETS",
    "LARGE_DATASETS",
    "MEDIUM_DATASETS",
    "load_dataset",
    "dataset_codes",
]


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset of Table 2 and its synthetic stand-in."""

    code: str
    name: str
    kind: str
    paper_n: int
    paper_m: int
    paper_davg: float
    small: bool
    make: Callable[[], Graph] = field(repr=False)

    def load(self) -> Graph:
        """Generate the analog graph (deterministic per spec)."""
        return self.make()


def _generators():
    """:mod:`repro.graph.generators`, loaded when a dataset is first
    built: the NumPy-backed generators stay out of a process that only
    reads the registry (``repro serve`` lists its codes)."""
    from repro.graph import generators

    return generators


def _social(n: int, m_attach: int, seed: int) -> Callable[[], Graph]:
    return lambda: _generators().barabasi_albert(n, m_attach, seed=seed)


def _community(
    n: int, communities: int, p_in: float, p_out: float, seed: int
) -> Callable[[], Graph]:
    return lambda: _generators().planted_partition(
        n, communities, p_in, p_out, seed=seed
    )


def _internet(n: int, exponent: float, seed: int) -> Callable[[], Graph]:
    return lambda: _generators().configuration_power_law(
        n, exponent=exponent, d_min=2, seed=seed
    )


def _collab(
    cliques: int,
    clique_size: int,
    stars: int,
    star_size: int,
    seed: int,
    noise: int = 0,
) -> Callable[[], Graph]:
    return lambda: _generators().cliques_and_stars(
        cliques, clique_size, stars, star_size, noise_edges=noise, seed=seed
    )


def _webt(
    n: int,
    templates: int,
    hubs: int,
    template_size: int,
    mutation: float,
    seed: int,
) -> Callable[[], Graph]:
    return lambda: _generators().templated_web(
        n, templates, hubs, template_size, mutation=mutation, seed=seed
    )


def _copying(
    n: int, out_degree: int, mutation: float, seed: int
) -> Callable[[], Graph]:
    return lambda: _generators().copying_model(
        n, out_degree, mutation=mutation, seed=seed
    )


# Analog parameters are chosen so d_avg lands near the paper's value
# for each dataset while n stays interpreter-friendly.  Seeds are fixed
# so every run of the benchmark suite sees identical graphs.
_SPECS: list[DatasetSpec] = [
    # ---- small graphs (Greedy-feasible; Figures 4 and 6) ----
    DatasetSpec(
        "CA", "Caida", "Internet", 26_475, 53_381, 4.0, True,
        _internet(400, 2.6, seed=11),
    ),
    DatasetSpec(
        "EN", "Email-Enron", "E-Mail", 36_692, 183_831, 10.0, True,
        _community(360, 24, 0.55, 0.010, seed=12),
    ),
    DatasetSpec(
        "BK", "Brightkite", "Geo-Social", 58_228, 214_078, 7.4, True,
        _social(420, 4, seed=13),
    ),
    DatasetSpec(
        "EA", "Email-Eu-All", "E-Mail", 265_009, 364_481, 2.8, True,
        _community(520, 40, 0.42, 0.003, seed=14),
    ),
    DatasetSpec(
        "SL", "Slashdot-0922", "Social", 82_168, 504_230, 12.3, True,
        _social(400, 6, seed=15),
    ),
    DatasetSpec(
        "DB", "DBLP", "Co-author", 317_080, 1_049_866, 6.6, True,
        _webt(460, 30, 60, 3, 0.18, seed=16),
    ),
    # ---- large graphs (Greedy-infeasible; Figures 5 and 7) ----
    DatasetSpec(
        "AM", "Amazon0601", "Co-purchase", 403_394, 2_443_408, 12.1, False,
        _copying(2_000, 6, 0.02, seed=21),
    ),
    DatasetSpec(
        "CN", "CNR-2000", "Web", 325_557, 2_738_969, 16.8, False,
        _webt(1_500, 40, 120, 8, 0.04, seed=22),
    ),
    DatasetSpec(
        "YT", "Youtube", "Social", 1_134_890, 2_987_624, 5.3, False,
        _copying(2_400, 3, 0.06, seed=23),
    ),
    DatasetSpec(
        "SK", "Skitter", "Internet", 1_696_415, 11_095_298, 13.1, False,
        _webt(2_400, 80, 160, 6, 0.20, seed=24),
    ),
    DatasetSpec(
        "IN", "IN-2004", "Web", 1_382_867, 13_591_473, 19.7, False,
        _webt(1_800, 40, 140, 10, 0.03, seed=25),
    ),
    DatasetSpec(
        "EU", "EU-2005", "Web", 862_664, 16_138_468, 37.4, False,
        _webt(1_200, 40, 100, 18, 0.06, seed=26),
    ),
    DatasetSpec(
        "ES", "Eswiki-2013", "Web", 970_327, 21_184_931, 43.7, False,
        _copying(1_000, 22, 0.10, seed=27),
    ),
    DatasetSpec(
        "LJ", "LiveJournal", "Social", 3_997_962, 34_681_189, 17.3, False,
        _copying(3_000, 9, 0.10, seed=28),
    ),
    DatasetSpec(
        "HO", "Hollywood-2011", "Collaboration", 1_985_306, 114_492_816,
        115.3, False,
        _collab(10, 56, 10, 24, seed=29, noise=14_000),
    ),
    DatasetSpec(
        "IC", "Indochina-2004", "Web", 7_414_758, 150_984_819, 40.7, False,
        _webt(3_000, 50, 200, 20, 0.02, seed=30),
    ),
    DatasetSpec(
        "UK", "UK-2005", "Web", 39_454_463, 783_027_125, 39.7, False,
        _webt(3_300, 60, 220, 20, 0.02, seed=31),
    ),
    DatasetSpec(
        "IT", "IT-2004", "Web", 41_290_648, 1_027_474_947, 49.8, False,
        _webt(6_500, 80, 300, 25, 0.02, seed=32),
    ),
]

DATASETS: dict[str, DatasetSpec] = {spec.code: spec for spec in _SPECS}
SMALL_DATASETS: list[str] = [s.code for s in _SPECS if s.small]
LARGE_DATASETS: list[str] = [s.code for s in _SPECS if not s.small]
# The parameter-analysis figures (11-16) use a medium subset in the
# paper (YT, SK, IN, LJ, IC, HO); we keep the same codes.
MEDIUM_DATASETS: list[str] = ["YT", "SK", "IN", "LJ", "IC", "HO"]


def dataset_codes() -> list[str]:
    """All dataset codes in Table 2 order."""
    return [spec.code for spec in _SPECS]


def load_dataset(code: str) -> Graph:
    """Generate the synthetic analog for a Table 2 dataset code."""
    try:
        spec = DATASETS[code.upper()]
    except KeyError:
        known = ", ".join(dataset_codes())
        raise KeyError(f"unknown dataset {code!r}; known codes: {known}")
    return spec.load()
