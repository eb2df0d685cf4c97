"""Summarization algorithms: the paper's Mags / Mags-DM and all baselines."""

from repro.algorithms.base import (
    PhaseTimer,
    SummaryResult,
    Summarizer,
)
from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.ldme import LDMESummarizer
from repro.algorithms.mags import MagsSummarizer
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.algorithms.randomized import RandomizedSummarizer
from repro.algorithms.slugger import SluggerSummarizer
from repro.algorithms.sweg import SWeGSummarizer

__all__ = [
    "PhaseTimer",
    "SummaryResult",
    "Summarizer",
    "GreedySummarizer",
    "LDMESummarizer",
    "MagsSummarizer",
    "MagsDMSummarizer",
    "RandomizedSummarizer",
    "SluggerSummarizer",
    "SWeGSummarizer",
]
