"""Summarization algorithms: the paper's Mags / Mags-DM and all baselines."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.base": ["PhaseTimer", "SummaryResult", "Summarizer"],
    "repro.algorithms.greedy": ["GreedySummarizer"],
    "repro.algorithms.ldme": ["LDMESummarizer"],
    "repro.algorithms.mags": ["MagsSummarizer"],
    "repro.algorithms.mags_dm": ["MagsDMSummarizer"],
    "repro.algorithms.randomized": ["RandomizedSummarizer"],
    "repro.algorithms.slugger": ["SluggerSummarizer"],
    "repro.algorithms.sweg": ["SWeGSummarizer"],
})

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
