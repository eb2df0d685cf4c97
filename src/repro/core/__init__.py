"""Core cost calculus: partition, costs, saving, MinHash, encoding."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.costs": [
        "pair_cost",
        "potential_edges",
        "potential_self_edges",
        "self_cost",
        "use_superedge",
    ],
    "repro.core.encoding": ["Representation", "encode"],
    "repro.core.lossy": ["LossyResult", "make_lossy", "neighborhood_errors"],
    "repro.core.minhash": [
        "MinHashSignatures",
        "exact_jaccard",
        "node_signatures",
        "super_jaccard",
    ],
    "repro.core.serialization": [
        "FormatError",
        "load_representation",
        "save_representation",
    ],
    "repro.core.supernodes": ["SuperNodePartition"],
    "repro.core.thresholds": [
        "omega", "omega_schedule", "theta", "theta_schedule",
    ],
    "repro.core.verify": ["LosslessnessError", "verify_lossless"],
})

__all__ = [
    "pair_cost",
    "potential_edges",
    "potential_self_edges",
    "self_cost",
    "use_superedge",
    "Representation",
    "encode",
    "LossyResult",
    "make_lossy",
    "neighborhood_errors",
    "FormatError",
    "load_representation",
    "save_representation",
    "MinHashSignatures",
    "exact_jaccard",
    "node_signatures",
    "super_jaccard",
    "SuperNodePartition",
    "omega",
    "omega_schedule",
    "theta",
    "theta_schedule",
    "LosslessnessError",
    "verify_lossless",
]
