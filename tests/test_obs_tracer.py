"""Tests for repro.obs.tracer: spans, nesting, export round-trips."""

import threading

import pytest

from repro import obs
from repro.obs.tracer import NULL_SPAN


@pytest.fixture(autouse=True)
def restore_global_tracer():
    yield
    obs.stop_tracing()


class TestSpanNesting:
    def test_children_attach_to_enclosing_span(self):
        tracer = obs.Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        records = {r["name"]: r for r in tracer.records()}
        assert records["root"]["parent"] is None
        assert records["child"]["parent"] == root.span_id
        assert records["grandchild"]["parent"] == child.span_id
        assert grandchild.span_id != child.span_id

    def test_siblings_share_parent(self):
        tracer = obs.Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {r["name"]: r for r in tracer.records()}
        assert by_name["a"]["parent"] == by_name["b"]["parent"]
        assert by_name["a"]["parent"] == by_name["root"]["span"]

    def test_explicit_parent_across_threads(self):
        tracer = obs.Tracer()
        with tracer.span("root") as root:
            def worker():
                span = tracer.start_span("thread-child", parent=root)
                tracer.end_span(span)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {r["name"]: r for r in tracer.records()}
        assert by_name["thread-child"]["parent"] == by_name["root"]["span"]

    def test_exception_sets_error_attr(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "ValueError"

    def test_single_trace_id(self):
        tracer = obs.Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert len({r["trace"] for r in tracer.records()}) == 1


class TestSpanData:
    def test_attrs_counters_events(self):
        tracer = obs.Tracer()
        with tracer.span("work", algorithm="Mags") as span:
            span.set(n=100)
            span.inc("merges", 3)
            span.inc("merges", 2)
            span.event("iteration", t=1)
        (record,) = tracer.records()
        assert record["attrs"]["algorithm"] == "Mags"
        assert record["attrs"]["n"] == 100
        assert record["counters"]["merges"] == 5
        (event,) = record["events"]
        assert event["name"] == "iteration"
        assert event["attrs"] == {"t": 1}
        assert event["at_s"] >= 0.0
        assert record["wall_s"] >= 0.0
        assert record["cpu_s"] >= 0.0

    def test_current_span_helpers(self):
        tracer = obs.Tracer()
        with tracer.span("outer"):
            tracer.inc("ticks")
            tracer.event("hello", x=1)
        (record,) = tracer.records()
        assert record["counters"]["ticks"] == 1
        assert record["events"][0]["name"] == "hello"
        # Outside any span both helpers are no-ops.
        tracer.inc("ticks")
        tracer.event("dropped")

    def test_max_spans_cap(self):
        tracer = obs.Tracer(max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 3
        assert tracer.dropped == 2

    def test_clear(self):
        tracer = obs.Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.records() == []


class TestGlobalTracer:
    def test_default_is_null(self):
        assert obs.get_tracer() is obs.NULL_TRACER
        assert not obs.get_tracer().enabled

    def test_use_tracer_restores(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            assert obs.get_tracer() is tracer
        assert obs.get_tracer() is obs.NULL_TRACER

    def test_start_stop_tracing(self):
        tracer = obs.start_tracing()
        assert obs.get_tracer() is tracer
        assert obs.stop_tracing() is tracer
        assert obs.get_tracer() is obs.NULL_TRACER

    def test_null_tracer_is_inert(self):
        null = obs.NULL_TRACER
        span = null.start_span("x", anything=1)
        assert span is NULL_SPAN
        assert span.set(a=1) is span
        span.inc("c")
        span.event("e")
        null.end_span(span)
        with null.span("y") as inner:
            assert inner is NULL_SPAN
        assert null.current() is None
        assert null.records() == []
        assert len(null) == 0


class TestExport:
    def test_jsonl_round_trip_and_schema(self, tmp_path):
        tracer = obs.Tracer()
        with tracer.span("root", n=10) as span:
            span.inc("merges", 2)
            with tracer.span("phase:merge", phase="merge"):
                pass
        records = tracer.records()
        path = tmp_path / "trace.jsonl"
        obs.write_trace_jsonl(records, path)
        loaded = obs.read_trace_jsonl(path)
        assert loaded == records
        assert obs.validate_trace(loaded) == []

    def test_gzip_round_trip(self, tmp_path):
        tracer = obs.Tracer()
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.jsonl.gz"
        obs.write_trace_jsonl(tracer.records(), path)
        assert obs.read_trace_jsonl(path) == tracer.records()

    def test_render_tree_indents_children(self):
        tracer = obs.Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        text = obs.render_trace_tree(tracer.records())
        lines = text.splitlines()
        assert lines[0].startswith("- root")
        assert lines[1].startswith("  - child")

    def test_validate_catches_broken_parent(self):
        tracer = obs.Tracer()
        with tracer.span("root"):
            pass
        (record,) = tracer.records()
        record = dict(record, parent="missing-id")
        errors = obs.validate_trace([record])
        assert any("parent" in e for e in errors)

    def test_validate_record_rejects_bad_types(self):
        errors = obs.validate_record({"v": "one"})
        assert errors
        assert obs.validate_record([]) == ["record: not a JSON object"]
        tracer = obs.Tracer()
        with tracer.span("root"):
            pass
        (record,) = tracer.records()
        assert obs.validate_record(record) == []
        # v1 is no longer accepted, even with every v2 field present.
        assert obs.validate_record(dict(record, v=1)) == [
            f"record: schema version 1, expected {obs.SCHEMA_VERSION}"
        ]
        # pid and instance are required fields.
        for field in ("pid", "instance"):
            stripped = {k: v for k, v in record.items() if k != field}
            assert obs.validate_record(stripped) == [
                f"record: missing field {field!r}"
            ]
