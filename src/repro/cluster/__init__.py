"""Sharded serving: topology, sharder, query router, failover.

The cluster layer scales :mod:`repro.service` horizontally.  A graph
is sliced into per-shard summary artifacts (:mod:`.sharder`), each
served by one or more plain :class:`~repro.service.server.
SummaryQueryServer` instances, and a :class:`~repro.cluster.router.
RouterEngine` fronts them all speaking the *same* wire protocol —
clients cannot tell a router from a single server.  Node ownership is
the seeded keyed hash :func:`repro.cluster.topology.shard_for_node`;
replica failover wraps every instance in the resilience layer's
circuit breaker and retry policy.

See ``docs/serving.md`` ("Cluster") for the topology file format,
routing semantics, and failover states.
"""

from repro.cluster.manager import (
    ClusterManager,
    InstanceProcess,
    LocalCluster,
    probe_topology,
    start_local_cluster,
)
from repro.cluster.router import RouterEngine, ShardDownError
from repro.cluster.sharder import PlanReport, plan_cluster, shard_graph
from repro.cluster.topology import (
    ClusterSpec,
    InstanceSpec,
    TopologyError,
    default_spec,
    load_topology,
    save_topology,
    spec_from_dict,
)

__all__ = [
    "ClusterManager",
    "ClusterSpec",
    "InstanceProcess",
    "InstanceSpec",
    "LocalCluster",
    "PlanReport",
    "RouterEngine",
    "ShardDownError",
    "TopologyError",
    "default_spec",
    "load_topology",
    "plan_cluster",
    "probe_topology",
    "save_topology",
    "shard_graph",
    "spec_from_dict",
    "start_local_cluster",
]
