"""Tests for the deterministic fault-injection framework."""

from pathlib import Path

import pytest

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedConnectionDrop,
    InjectedFault,
    active_injector,
    set_injector,
    use_injector,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("site", "explode")

    def test_negative_after_rejected(self):
        with pytest.raises(ValueError, match="after"):
            FaultSpec("site", "crash_before", after=-1)

    def test_zero_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec("site", "crash_before", times=0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("site", "drop", probability=1.5)

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            assert FaultSpec("site", kind).kind == kind


class TestFaultPlan:
    def test_builders(self):
        plan = (
            FaultPlan()
            .crash("a")
            .delay("c", 0.5)
            .drop("d")
            .corrupt("e")
        )
        assert [s.kind for s in plan.specs] == [
            "crash_before", "delay", "drop", "corrupt",
        ]


class TestFiring:
    def test_crash_before_fires_once(self):
        injector = FaultInjector(FaultPlan().crash("w"))
        with pytest.raises(InjectedFault) as excinfo:
            injector.before("w")
        assert excinfo.value.site == "w"
        injector.before("w")  # spent: second hit passes
        assert injector.fired_count("w") == 1
        assert injector.hits("w") == 2

    def test_after_parameter_spares_early_hits(self):
        injector = FaultInjector(FaultPlan().crash("w", after=2))
        injector.before("w")
        injector.before("w")
        with pytest.raises(InjectedFault):
            injector.before("w")

    def test_drop_raises_connection_error(self):
        injector = FaultInjector(FaultPlan().drop("conn"))
        with pytest.raises(InjectedConnectionDrop) as excinfo:
            injector.before("conn")
        assert isinstance(excinfo.value, ConnectionError)

    def test_delay_uses_injected_sleep(self):
        sleeps: list[float] = []
        injector = FaultInjector(
            FaultPlan().delay("s", 0.25), sleep=sleeps.append
        )
        injector.before("s")
        assert sleeps == [0.25]

    def test_unmatched_site_is_untouched(self):
        injector = FaultInjector(FaultPlan().crash("a"))
        injector.before("b")
        assert injector.fired_count() == 0


class TestCorrupt:
    def test_corrupt_changes_payload_deterministically(self):
        data = bytes(range(256)) * 4
        out1 = FaultInjector(FaultPlan().corrupt("c"), seed=3).corrupt(
            "c", data
        )
        out2 = FaultInjector(FaultPlan().corrupt("c"), seed=3).corrupt(
            "c", data
        )
        assert out1 != data
        assert len(out1) == len(data)
        assert out1 == out2

    def test_corrupt_passthrough_when_unarmed(self):
        injector = FaultInjector(FaultPlan())
        data = b"payload"
        assert injector.corrupt("c", data) == data


class TestDeterminism:
    def test_probabilistic_drops_replay_under_seed(self):
        def run(seed: int) -> list[int]:
            plan = FaultPlan().drop("p", times=1000, probability=0.5)
            injector = FaultInjector(plan, seed=seed)
            fired = []
            for i in range(50):
                try:
                    injector.before("p")
                except ConnectionError:
                    fired.append(i)
            return fired

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_fired_log_records_order(self):
        plan = FaultPlan().delay("a", 0.0).crash("b")
        injector = FaultInjector(plan, sleep=lambda s: None)
        injector.before("a")
        with pytest.raises(InjectedFault):
            injector.before("b")
        assert injector.fired == [("a", "delay"), ("b", "crash_before")]


class TestGlobalInjector:
    def test_default_is_none(self):
        assert active_injector() is None

    def test_use_injector_scopes_and_restores(self):
        injector = FaultInjector(FaultPlan())
        with use_injector(injector) as active:
            assert active is injector
            assert active_injector() is injector
        assert active_injector() is None

    def test_set_injector_explicit(self):
        injector = FaultInjector(FaultPlan())
        set_injector(injector)
        try:
            assert active_injector() is injector
        finally:
            set_injector(None)
        assert active_injector() is None

    def test_faults_counted_in_obs_registry(self):
        from repro.obs.metrics import get_registry

        counter = get_registry().counter(
            "repro_resilience_faults_injected_total",
            site="metrics-site", kind="crash_before",
        )
        before = counter.value
        injector = FaultInjector(FaultPlan().crash("metrics-site"))
        with pytest.raises(InjectedFault):
            injector.before("metrics-site")
        assert counter.value == before + 1


def test_algorithm_modules_have_no_resilience_imports():
    """The algorithm layer reaches fault injection only through the
    ``sys.modules`` gate in ``active_fault_injector`` — no module in
    ``repro.algorithms`` may import ``repro.resilience``, so the hot
    loops stay uninstrumented when injection is off.  This is a
    source-level check on the algorithms subpackage itself."""
    algorithms_dir = Path(SRC) / "repro" / "algorithms"
    offenders = [
        source.name
        for source in sorted(algorithms_dir.glob("*.py"))
        if "from repro.resilience" in source.read_text()
        or "import repro.resilience" in source.read_text()
    ]
    assert offenders == []


def test_gate_resolves_injector_without_algorithm_imports():
    """``active_fault_injector`` must see the global injector installed
    via :func:`use_injector` — and fall back to ``None`` the moment it
    is cleared — purely through ``sys.modules``."""
    from repro.algorithms.base import active_fault_injector

    injector = FaultInjector(FaultPlan())
    with use_injector(injector):
        assert active_fault_injector() is injector
    assert active_fault_injector() is None
