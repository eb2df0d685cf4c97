"""Cluster topology: the JSON spec every cluster process agrees on.

A topology is a small, committed-to-disk description of a sharded
serving deployment — the docker-compose/k8s analogue for this repo's
subprocess world:

```json
{
  "version": 1,
  "shards": 2,
  "replicas": 2,
  "seed": 0,
  "n": 1200,
  "router": {"host": "127.0.0.1", "port": 7400},
  "instances": [
    {"shard": 0, "replica": 0, "host": "127.0.0.1", "port": 7401},
    {"shard": 0, "replica": 1, "host": "127.0.0.1", "port": 7402},
    {"shard": 1, "replica": 0, "host": "127.0.0.1", "port": 7403},
    {"shard": 1, "replica": 1, "host": "127.0.0.1", "port": 7404}
  ],
  "artifacts": {"0": "shard-0.summary.txt.gz", "1": "shard-1.summary.txt.gz"},
  "failover": {"breaker_threshold": 2, "breaker_reset_s": 5.0}
}
```

The node -> shard map is *not* stored: it is the seeded keyed hash
:func:`shard_for_node` applied to ``(shards, seed)``, so the router
(and any smart client) can place ids it has never seen, in any
process, without a lookup table.

``artifacts`` paths are relative to the topology file's directory
(absolute paths are kept as-is), so a planned cluster directory can
be moved or shipped as a unit.  ``n`` is recorded at plan time so the
router can reject out-of-range nodes without a network hop; a spec
without artifacts/``n`` (a *template*, e.g. the committed
``examples/cluster_topology.json``) is valid input for
``repro cluster plan``, which fills them in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.durability.replication import ACKS_MODES

__all__ = [
    "TopologyError",
    "InstanceSpec",
    "ClusterSpec",
    "default_spec",
    "load_topology",
    "save_topology",
    "shard_for_node",
]

#: The (single) topology format version this module reads and writes.
TOPOLOGY_VERSION = 1

#: Failover defaults: consecutive transport failures before a replica
#: is ejected, and seconds before the ejected replica gets a probe.
DEFAULT_BREAKER_THRESHOLD = 2
DEFAULT_BREAKER_RESET_S = 5.0

_MASK64 = (1 << 64) - 1


def shard_for_node(node: int, shards: int, seed: int = 0) -> int:
    """Owning shard of ``node`` under the seeded keyed hash.

    A splitmix64-style scramble of ``(node, seed)``, reduced mod
    ``shards``.  It needs no :class:`~repro.graph.graph.Graph` in
    hand, so a query router can map ids it has never seen, and it is
    independent of ``PYTHONHASHSEED`` (no use of Python's randomised
    ``hash``), so every process — sharder, shard server, router,
    client — agrees on the same map for the same ``(shards, seed)``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if node < 0:
        raise ValueError(f"node must be >= 0, got {node}")
    x = (node + seed * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) % shards


class TopologyError(ValueError):
    """A structurally invalid cluster spec."""


@dataclass(frozen=True)
class InstanceSpec:
    """One shard-serving process: ``(shard, replica)`` at ``host:port``."""

    shard: int
    replica: int
    host: str
    port: int

    @property
    def label(self) -> str:
        """Stable human/metrics label, e.g. ``shard0/r1``."""
        return f"shard{self.shard}/r{self.replica}"

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)


@dataclass
class ClusterSpec:
    """A validated cluster topology.

    ``artifacts`` maps shard id to the summary artifact path (relative
    paths are resolved against :attr:`base_dir` by
    :meth:`artifact_path`); it may be empty for a template spec.
    """

    shards: int
    replicas: int
    seed: int
    router_host: str
    router_port: int
    instances: list[InstanceSpec]
    artifacts: dict[int, str] = field(default_factory=dict)
    n: int | None = None
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    breaker_reset_s: float = DEFAULT_BREAKER_RESET_S
    #: Replication acknowledgement mode for mutable replicated shards
    #: (``replicas > 1`` with durable ingest): ``"quorum"`` — a write
    #: is acked only once a majority of the replica set holds it;
    #: ``"leader"`` — the primary's WAL alone acks (faster, loses the
    #: tail if the primary dies before shipping).  Ignored by
    #: read-only and single-replica deployments.
    acks: str = "quorum"
    base_dir: Path | None = None

    def __post_init__(self):
        if self.shards < 1:
            raise TopologyError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 1:
            raise TopologyError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.acks not in ACKS_MODES:
            raise TopologyError(
                f"acks must be {' or '.join(map(repr, ACKS_MODES))}, "
                f"got {self.acks!r}"
            )
        if self.breaker_threshold < 1:
            raise TopologyError("breaker_threshold must be >= 1")
        if self.breaker_reset_s < 0:
            raise TopologyError("breaker_reset_s must be >= 0")
        if self.n is not None and self.n < 0:
            raise TopologyError(f"n must be >= 0, got {self.n}")
        want = {
            (s, r)
            for s in range(self.shards)
            for r in range(self.replicas)
        }
        got = {(i.shard, i.replica) for i in self.instances}
        if len(got) != len(self.instances):
            raise TopologyError("duplicate (shard, replica) instance")
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            raise TopologyError(
                f"instances must cover every (shard, replica) pair "
                f"exactly once; missing={missing}, unexpected={extra}"
            )
        addresses = [i.address for i in self.instances] + [
            (self.router_host, self.router_port)
        ]
        if len(set(addresses)) != len(addresses):
            raise TopologyError(
                "instance/router host:port addresses must be distinct"
            )
        for shard in self.artifacts:
            if not 0 <= shard < self.shards:
                raise TopologyError(
                    f"artifact for unknown shard {shard} "
                    f"(topology has {self.shards})"
                )

    # -- the consistent-hash map ----------------------------------------
    def owner(self, node: int) -> int:
        """The shard that owns ``node`` (seeded keyed hash)."""
        return shard_for_node(node, self.shards, self.seed)

    def instances_for(self, shard: int) -> list[InstanceSpec]:
        """Replicas of ``shard``, in replica order."""
        return sorted(
            (i for i in self.instances if i.shard == shard),
            key=lambda i: i.replica,
        )

    def artifact_path(self, shard: int) -> Path:
        """Absolute artifact path for ``shard``."""
        try:
            raw = self.artifacts[shard]
        except KeyError:
            raise TopologyError(
                f"topology has no artifact for shard {shard}; "
                "run 'repro cluster plan' first"
            ) from None
        path = Path(raw)
        if not path.is_absolute() and self.base_dir is not None:
            path = self.base_dir / path
        return path

    @property
    def router_address(self) -> tuple[str, int]:
        return (self.router_host, self.router_port)

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": TOPOLOGY_VERSION,
            "shards": self.shards,
            "replicas": self.replicas,
            "seed": self.seed,
            "n": self.n,
            "router": {"host": self.router_host, "port": self.router_port},
            "instances": [
                {
                    "shard": i.shard,
                    "replica": i.replica,
                    "host": i.host,
                    "port": i.port,
                }
                for i in sorted(
                    self.instances, key=lambda i: (i.shard, i.replica)
                )
            ],
            "artifacts": {
                str(shard): path
                for shard, path in sorted(self.artifacts.items())
            },
            "failover": {
                "breaker_threshold": self.breaker_threshold,
                "breaker_reset_s": self.breaker_reset_s,
            },
            "acks": self.acks,
        }


def _require(data: dict, key: str, kind, where: str):
    value = data.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TopologyError(
            f"{where}: field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def spec_from_dict(data: dict, base_dir: Path | None = None) -> ClusterSpec:
    """Build a validated :class:`ClusterSpec` from parsed JSON."""
    if not isinstance(data, dict):
        raise TopologyError("topology must be a JSON object")
    version = data.get("version", TOPOLOGY_VERSION)
    if version != TOPOLOGY_VERSION:
        raise TopologyError(
            f"topology version {version!r} is not supported "
            f"(this build reads v{TOPOLOGY_VERSION})"
        )
    router = _require(data, "router", dict, "topology")
    raw_instances = _require(data, "instances", list, "topology")
    instances = []
    for index, entry in enumerate(raw_instances):
        if not isinstance(entry, dict):
            raise TopologyError(f"instance #{index} is not a JSON object")
        where = f"instance #{index}"
        instances.append(
            InstanceSpec(
                shard=_require(entry, "shard", int, where),
                replica=_require(entry, "replica", int, where),
                host=_require(entry, "host", str, where),
                port=_require(entry, "port", int, where),
            )
        )
    raw_artifacts = data.get("artifacts") or {}
    if not isinstance(raw_artifacts, dict):
        raise TopologyError("'artifacts' must be an object")
    artifacts: dict[int, str] = {}
    for key, value in raw_artifacts.items():
        try:
            shard = int(key)
        except (TypeError, ValueError):
            raise TopologyError(
                f"artifact key {key!r} is not a shard id"
            ) from None
        if not isinstance(value, str):
            raise TopologyError(f"artifact path for shard {key} must be str")
        artifacts[shard] = value
    failover = data.get("failover") or {}
    if not isinstance(failover, dict):
        raise TopologyError("'failover' must be an object")
    n = data.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool)):
        raise TopologyError("'n' must be an integer (or null)")
    acks = data.get("acks", "quorum")
    if not isinstance(acks, str):
        raise TopologyError("'acks' must be a string")
    return ClusterSpec(
        shards=_require(data, "shards", int, "topology"),
        replicas=_require(data, "replicas", int, "topology"),
        seed=_require(data, "seed", int, "topology"),
        router_host=_require(router, "host", str, "router"),
        router_port=_require(router, "port", int, "router"),
        instances=instances,
        artifacts=artifacts,
        n=n,
        breaker_threshold=failover.get(
            "breaker_threshold", DEFAULT_BREAKER_THRESHOLD
        ),
        breaker_reset_s=failover.get(
            "breaker_reset_s", DEFAULT_BREAKER_RESET_S
        ),
        acks=acks,
        base_dir=base_dir,
    )


def load_topology(path: str | Path) -> ClusterSpec:
    """Read and validate a topology JSON file.

    Relative artifact paths resolve against the file's directory.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TopologyError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return spec_from_dict(data, base_dir=path.resolve().parent)
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from None


def save_topology(path: str | Path, spec: ClusterSpec) -> None:
    """Write ``spec`` as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(spec.to_dict(), indent=2) + "\n")


def default_spec(
    shards: int,
    replicas: int,
    *,
    seed: int = 0,
    host: str = "127.0.0.1",
    base_port: int = 7400,
    n: int | None = None,
    acks: str = "quorum",
) -> ClusterSpec:
    """A single-host topology on consecutive ports.

    The router takes ``base_port``; instances take the ports after it,
    shard-major (``shard0/r0``, ``shard0/r1``, ``shard1/r0``, ...).
    """
    instances = [
        InstanceSpec(
            shard=s,
            replica=r,
            host=host,
            port=base_port + 1 + s * replicas + r,
        )
        for s in range(shards)
        for r in range(replicas)
    ]
    return ClusterSpec(
        shards=shards,
        replicas=replicas,
        seed=seed,
        router_host=host,
        router_port=base_port,
        instances=instances,
        n=n,
        acks=acks,
    )
