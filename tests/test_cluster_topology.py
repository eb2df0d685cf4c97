"""Tests for the cluster topology spec and its JSON round trip."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.cluster.topology import (
    ClusterSpec,
    InstanceSpec,
    TopologyError,
    default_spec,
    load_topology,
    save_topology,
    shard_for_node,
    spec_from_dict,
)


def make_spec(**overrides):
    base = dict(
        shards=2,
        replicas=2,
        seed=0,
        router_host="127.0.0.1",
        router_port=7400,
        instances=[
            InstanceSpec(s, r, "127.0.0.1", 7401 + s * 2 + r)
            for s in range(2)
            for r in range(2)
        ],
    )
    base.update(overrides)
    return ClusterSpec(**base)


class TestSpecValidation:
    def test_valid_spec_builds(self):
        spec = make_spec()
        assert spec.shards == 2
        assert len(spec.instances) == 4

    def test_missing_replica_rejected(self):
        with pytest.raises(TopologyError, match="missing"):
            make_spec(
                instances=[
                    InstanceSpec(0, 0, "127.0.0.1", 7401),
                    InstanceSpec(0, 1, "127.0.0.1", 7402),
                    InstanceSpec(1, 0, "127.0.0.1", 7403),
                ]
            )

    def test_duplicate_pair_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            make_spec(
                instances=[
                    InstanceSpec(0, 0, "127.0.0.1", 7401),
                    InstanceSpec(0, 0, "127.0.0.1", 7402),
                    InstanceSpec(0, 1, "127.0.0.1", 7403),
                    InstanceSpec(1, 0, "127.0.0.1", 7404),
                    InstanceSpec(1, 1, "127.0.0.1", 7405),
                ]
            )

    def test_colliding_addresses_rejected(self):
        with pytest.raises(TopologyError, match="distinct"):
            make_spec(router_port=7401)

    def test_bad_counts_rejected(self):
        with pytest.raises(TopologyError):
            default_spec(0, 1)
        with pytest.raises(TopologyError):
            default_spec(1, 0)

    def test_artifact_for_unknown_shard_rejected(self):
        with pytest.raises(TopologyError, match="unknown shard"):
            make_spec(artifacts={5: "shard-5.summary.txt.gz"})

    def test_instance_label_and_address(self):
        inst = InstanceSpec(1, 0, "127.0.0.1", 7403)
        assert inst.label == "shard1/r0"
        assert inst.address == ("127.0.0.1", 7403)


class TestOwnerMap:
    def test_owner_is_shard_for_node(self):
        spec = make_spec(seed=7)
        for node in range(200):
            assert spec.owner(node) == shard_for_node(node, 2, 7)

    def test_instances_for_sorted_by_replica(self):
        spec = make_spec()
        replicas = spec.instances_for(1)
        assert [i.replica for i in replicas] == [0, 1]
        assert all(i.shard == 1 for i in replicas)


class TestShardForNode:
    """The standalone keyed node->shard map the cluster router uses."""

    def test_pinned_map(self):
        """Planned topologies do not store the map, so a change here
        would serve every existing plan from the wrong shard."""
        assert [shard_for_node(u, 5, seed=9) for u in range(24)] == [
            4, 0, 4, 2, 4, 0, 2, 0, 0, 2, 0, 0,
            1, 3, 1, 0, 0, 0, 3, 4, 2, 4, 2, 2,
        ]

    def test_no_graph_needed(self):
        # Placeable ids the process has never seen in any Graph.
        assert 0 <= shard_for_node(10**12, 7, seed=5) < 7

    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            shard_for_node(0, 0)
        with pytest.raises(ValueError, match="node"):
            shard_for_node(-1, 4)

    def test_independent_of_pythonhashseed(self):
        """The map must agree across processes with different (and
        randomized) PYTHONHASHSEED — it keys splitmix64, not hash()."""
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "from repro.cluster.topology import shard_for_node;"
            "print([shard_for_node(u, 5, seed=9) for u in range(64)])"
        )
        outputs = set()
        for hash_seed in ("0", "1", "random"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(
                [src_dir, env.get("PYTHONPATH", "")]
            ).rstrip(os.pathsep)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1

    def test_roughly_balanced_over_large_range(self):
        counts = [0] * 8
        for u in range(4096):
            counts[shard_for_node(u, 8, seed=0)] += 1
        assert max(counts) < 1.35 * (4096 / 8)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = make_spec(
            artifacts={0: "shard-0.summary.txt.gz", 1: "s1.txt"},
            n=1200,
            breaker_threshold=3,
            breaker_reset_s=1.5,
        )
        path = tmp_path / "topology.json"
        save_topology(path, spec)
        loaded = load_topology(path)
        assert loaded.shards == spec.shards
        assert loaded.replicas == spec.replicas
        assert loaded.seed == spec.seed
        assert loaded.n == 1200
        assert loaded.breaker_threshold == 3
        assert loaded.breaker_reset_s == 1.5
        assert loaded.instances == spec.instances
        assert loaded.artifacts == spec.artifacts
        assert loaded.base_dir == tmp_path.resolve()

    def test_relative_artifacts_resolve_against_file_dir(self, tmp_path):
        spec = make_spec(artifacts={0: "a.txt", 1: "/abs/b.txt"})
        path = tmp_path / "topology.json"
        save_topology(path, spec)
        loaded = load_topology(path)
        assert loaded.artifact_path(0) == tmp_path.resolve() / "a.txt"
        assert str(loaded.artifact_path(1)) == "/abs/b.txt"

    def test_missing_artifact_raises(self):
        spec = make_spec()
        with pytest.raises(TopologyError, match="no artifact"):
            spec.artifact_path(0)

    def test_template_spec_omits_n(self, tmp_path):
        spec = default_spec(2, 1)
        path = tmp_path / "topology.json"
        save_topology(path, spec)
        assert load_topology(path).n is None

    def test_unsupported_version_rejected(self, tmp_path):
        spec = make_spec()
        data = spec.to_dict()
        data["version"] = 99
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TopologyError, match="version"):
            load_topology(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "topology.json"
        path.write_text("{nope")
        with pytest.raises(TopologyError, match="invalid JSON"):
            load_topology(path)

    @pytest.mark.parametrize("field", ["shards", "router", "instances"])
    def test_missing_required_field_rejected(self, field):
        data = make_spec().to_dict()
        del data[field]
        with pytest.raises(TopologyError, match=field):
            spec_from_dict(data)

    def test_bool_fields_rejected(self):
        data = make_spec().to_dict()
        data["shards"] = True
        with pytest.raises(TopologyError, match="shards"):
            spec_from_dict(data)


class TestDefaultSpec:
    def test_ports_are_shard_major_after_router(self):
        spec = default_spec(2, 2, base_port=7400)
        assert spec.router_address == ("127.0.0.1", 7400)
        ports = {
            i.label: i.port
            for i in spec.instances
        }
        assert ports == {
            "shard0/r0": 7401,
            "shard0/r1": 7402,
            "shard1/r0": 7403,
            "shard1/r1": 7404,
        }
