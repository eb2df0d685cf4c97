"""Mutable query engine: the ``ingest`` op behind the query service.

Extends :class:`~repro.service.engine.QueryEngine` over a
:class:`~repro.dynamic.summary.DynamicGraphSummary` so a live server
accepts streamed edge insertions/deletions while continuing to answer
reads.  The contract, end to end:

**Durability** — an accepted batch is appended (and fsynced, policy
permitting) to the :class:`~repro.durability.wal.WriteAheadLog`
*before* it is applied; the acknowledgement therefore implies the
mutation survives ``kill -9`` (see docs/resilience.md).

**Read consistency** — every mutation batch commits atomically under
one state lock and bumps a monotonically increasing ``epoch``; every
successful response echoes the epoch it was served at, and the LRU
cache is invalidated per dirty node (an edge toggle only changes the
neighbor sets of its two endpoints), not wholesale.  While crash
recovery is still replaying the WAL tail, reads are answered from the
partially-replayed state flagged ``"degraded": true`` — the
established degraded-mode convention — instead of being refused.

**Idempotence** — each ingest names a client ``stream`` and a
per-stream ``seq``.  The server remembers the last sequence (plus the
batch content and its result) per stream: a repeat of the last ``seq``
with the *same* mutations returns the cached result marked
``"duplicate": true`` without re-applying (the client retry path
resends the *original* sequence number after a transport error), a
repeat with *different* mutations is a structured ``bad_request``
(dedup identity is sequence + content, so a reused sequence number can
never silently swallow a new batch), and a rewound sequence is a
structured ``bad_request``.

**Backpressure** — at most ``max_inflight`` ingest requests may be
past admission at once, and an optional
:class:`~repro.resilience.guard.ResourceBudget` (memory ceiling) can
park ingest entirely; both reject with a structured ``overloaded``
error rather than a dropped connection.  Note the budget's memory
trip is sticky by design: once RSS crossed the ceiling, ingest stays
parked until restart.

**Atomicity of a batch** — the batch is validated against the live
state (plus its own earlier mutations) before the WAL append, so a
logged batch always applies cleanly; a rejected batch changes
nothing.  A ``dry_run`` ingest stops after that validation — nothing
is logged, applied, or remembered — which is the prepare half of the
cluster router's two-phase fan-out: every involved shard validates
its sub-batch first, and only when all accept does the commit round
run (see :meth:`repro.cluster.router.RouterEngine._ingest`).

**One apply path** — the state is a pure
:class:`~repro.durability.state.EngineState`; primary commit, recovery
replay, and follower apply all go through ``_apply_locked``, which
logs the record, applies it with ``EngineState.apply``, and does the
serving bookkeeping (caches, metrics, replication).
"""

from __future__ import annotations

import math
import threading

from repro.durability.replication import (
    FIRST_TERM,
    REPLICATION_ROLES,
    FrameRejected,
    ReplicaView,
    ReplicationManager,
    admit_frame,
)
from repro.durability.state import (
    EngineState,
    check_endpoints,
    merge_budget,
)
from repro.durability.wal import ResummarizeRecord, TermRecord, WalRecord
from repro.dynamic.summary import DynamicGraphSummary
from repro.service.engine import OPS, QueryEngine, QueryError

__all__ = ["MutableQueryEngine", "parse_mutations"]


def parse_mutations(mutations, n: int) -> list:
    """A schema-checked batch as ``(sign, u, v)`` tuples, refusing
    the first mutation that fails
    :func:`~repro.durability.state.check_endpoints`, in batch order
    (the router checks a batch with it before splitting it, so both
    answer with the same error)."""
    try:
        check_endpoints(mutations, n)
    except ValueError as exc:
        raise QueryError("bad_request", str(exc)) from None
    return [(sign, u, v) for sign, u, v in mutations]


def _stop(replicator) -> None:
    """Stop a retired shipper; callers hold no engine lock, since its
    thread may be waiting on one."""
    if replicator is not None and not replicator.stopped:
        replicator.stop()


class MutableQueryEngine(QueryEngine):
    """A :class:`QueryEngine` whose summary accepts live mutations.

    Parameters
    ----------
    dynamic:
        The corrections-overlay summary to serve and mutate.
    wal:
        Optional :class:`~repro.durability.wal.WriteAheadLog`; without
        one, mutations are volatile (tests, benchmarks) but the full
        ingest contract minus durability still holds.
    budget:
        Optional armed :class:`~repro.resilience.guard.ResourceBudget`
        consulted at ingest admission.
    max_inflight:
        Bound on concurrently admitted ingest requests (0 disables
        the bound).
    dedup_capacity:
        Bound on remembered dedup streams.  Every client instance
        mints a fresh stream id, so an unbounded map (and every
        checkpoint carrying it) would grow forever on a long-lived
        server; least-recently-*committed* streams are evicted beyond
        this cap (0 disables the bound), counted under
        ``repro_ingest_dedup_evictions_total``.  Recency advances only
        on commit — never on a duplicate-read hit — so eviction order
        is a pure function of the WAL and replay stays deterministic.
    """

    #: Replication role, changed only by :meth:`_transition`.  An
    #: unreplicated engine is a "primary" with term 0 and no manager.
    role = "primary"

    def __init__(
        self,
        dynamic: DynamicGraphSummary,
        *,
        wal=None,
        budget=None,
        max_inflight: int = 64,
        dedup_capacity: int = 4096,
        **kwargs,
    ):
        self._init_serving(**kwargs)
        self.ops = OPS + ("ingest", "replicate", "repl_status")
        self._wal = wal
        self._budget = budget
        self._max_inflight = max_inflight
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: The summary, epoch, LSN, term, and dedup map.  The dedup
        #: mutation tuple is the fingerprint: a replay of the last seq
        #: must carry the same batch to count as a duplicate.
        self.state = EngineState(
            dynamic,
            applied_lsn=wal.last_lsn if wal is not None else 0,
            dedup_capacity=dedup_capacity,
        )
        #: True while crash recovery replays the WAL tail.
        self.replaying = False
        #: ``representation`` of the current state; every apply and
        #: restore drops it.
        self._rep_snapshot = None
        self._replicator = None
        #: Acks mode and follower ``connect`` a primary ships with.
        self.acks = "quorum"
        self.connect = None
        self._checkpoint_store = None

    @property
    def epoch(self) -> int:
        """Bumped once per committed batch or maintenance pass; echoed
        on every successful response."""
        return self.state.epoch

    @property
    def applied_lsn(self) -> int:
        """LSN of the newest applied WAL record."""
        return self.state.applied_lsn

    @property
    def term(self) -> int:
        """Highest replication term this replica has observed."""
        return self.state.term

    @property
    def summary(self) -> DynamicGraphSummary:
        """The live overlay every read goes through."""
        return self.state.dynamic

    @property
    def representation(self):
        """A consistent snapshot of the live state, cached per epoch
        (PageRank builds and ``verify_against`` read it; per-request
        paths use the overlay directly)."""
        with self._state_lock:
            if self._rep_snapshot is None:
                self._rep_snapshot = self.state.dynamic.to_representation()
            return self._rep_snapshot

    def _finalize(self, response: dict) -> dict:
        response["epoch"] = self.epoch
        if self.replaying and not response.get("degraded"):
            response["degraded"] = True
            self.metrics.degraded(response.get("op") or "unknown")
        return response

    # -- dispatch --------------------------------------------------------
    def _dispatch(self, op, request, deadline, degraded_sink=None):
        if op == "ingest":
            return self.ingest(
                request["stream"],
                request["seq"],
                request["mutations"],
                dry_run=request.get("dry_run", False),
            )
        if op == "replicate":
            return self.apply_replicated(
                request["term"],
                after_lsn=request.get("after_lsn"),
                frames=request.get("frames"),
                snapshot=request.get("snapshot"),
                promote=request.get("promote", False),
                followers=request.get("followers"),
                acks=request.get("acks"),
            )
        if op == "repl_status":
            return self.repl_status()
        if op == "telemetry":
            self._telemetry_gauges()
        return super()._dispatch(op, request, deadline, degraded_sink)

    # -- the ingest op ---------------------------------------------------
    def ingest(self, stream, seq, mutations, *, dry_run=False) -> dict:
        """Validate against the live state, log, apply, and acknowledge
        one mutation batch whose shape
        :func:`~repro.service.protocol.validate_request` checked.

        Returns ``{"applied", "lsn"}`` plus ``"duplicate": true`` for
        a deduplicated retry; the surrounding response carries the
        post-commit ``epoch``.  With ``dry_run`` the batch is only
        validated — ``{"validated": <count>}`` comes back, no WAL
        append, no state change, no dedup entry — except that a
        duplicate of the last acknowledged (seq, batch) still answers
        from the dedup cache, so a prepare round over an
        already-applied sub-batch reports acceptance rather than
        failing validation against the post-apply state.  Raises
        :class:`QueryError` with kind ``overloaded`` (backpressure,
        replay in progress) or ``bad_request`` (an endpoint out of
        range, a self-loop, an inapplicable batch, a rewound sequence,
        or a reused sequence carrying different mutations).
        """
        self._admit()
        try:
            if self.replaying:
                raise QueryError(
                    "overloaded",
                    "recovery replay in progress; retry shortly",
                )
            if self.role != "primary":
                self._count("not_primary")
                raise QueryError(
                    "not_primary",
                    f"replica is a follower (term {self.term}); "
                    "ingest goes to the shard's primary",
                )
            parsed = parse_mutations(mutations, self.state.dynamic.n)
            with self._state_lock:
                result = None
                last = self.state.dedup.get(stream)
                if last is not None:
                    last_seq, last_batch, last_result = last
                    if seq == last_seq:
                        if tuple(parsed) != last_batch:
                            self._count("seq_reused")
                            raise QueryError(
                                "bad_request",
                                f"stream {stream!r} sequence {seq} reused "
                                "with different mutations; a retry must "
                                "resend the original batch",
                            )
                        self.metrics.registry.counter(
                            "repro_ingest_duplicates_total"
                        ).inc()
                        result = {**last_result, "duplicate": True}
                    elif seq < last_seq:
                        self._count("rewound")
                        raise QueryError(
                            "bad_request",
                            f"stream {stream!r} sequence rewound: got "
                            f"{seq}, last acknowledged {last_seq}",
                        )
                if result is None:
                    # Validated against the live state before the WAL
                    # append, so the log never holds an inapplicable
                    # record and a rejected batch is a no-op; the
                    # lookups made here are the ones the apply flips.
                    # (parse_mutations checked the endpoints.)
                    try:
                        states = self.state.lookups(parsed)
                    except ValueError as exc:
                        raise QueryError("bad_request", str(exc)) from None
                    if dry_run:
                        return {"validated": len(parsed)}
                    record = WalRecord(
                        lsn=self._next_lsn(), stream=stream, seq=seq,
                        mutations=tuple(parsed),
                    )
                    result = dict(self._apply_locked(record, states).result)
            # Outside the state lock: make the batch replication-
            # durable before acknowledging.  A duplicate re-awaits the
            # quorum too — its original ack already implied one, and a
            # retry that raced a promotion must get the same guarantee.
            if self._replicator is not None and "lsn" in result:
                self._replicator.publish(result["lsn"])
            return result
        finally:
            self._release()

    def replay_record(self, record) -> bool:
        """Re-apply one WAL record during recovery through the one
        apply path; returns whether it was applied (records at or
        below the checkpoint LSN are skipped, a gap raises)."""
        with self._state_lock:
            return self._apply_locked(record) is not None

    def restore(self, state: EngineState) -> None:
        """Adopt a loaded state (startup recovery, snapshot install)
        and drop every cache derived from the old one.  The dedup
        capacity is this engine's configuration, not checkpointed
        state, so it carries over."""
        with self._state_lock:
            state.dedup_capacity = self.state.dedup_capacity
            self.state = state
            self._pagerank_scores = None
            self._rep_snapshot = None
            self._cache = type(self._cache)(self._cache.capacity)

    # -- replication -----------------------------------------------------
    def configure_replication(
        self,
        *,
        role: str = "primary",
        followers=(),
        acks: str = "quorum",
        connect=None,
        store=None,
    ) -> None:
        """Wire this engine into a replicated shard.

        ``role`` is the replica's *configured* starting role; the live
        role moves with promotions and fencing.  ``followers`` is the
        primary's list of ``(host, port)`` sibling replicas.  ``store``
        is the local checkpoint store — required for crash-safe
        snapshot installs on a durable follower.  ``connect`` opens
        the shipper's follower connections (``None``: sockets; see
        :class:`~repro.durability.replication.ReplicationManager`).
        """
        if role not in REPLICATION_ROLES:
            raise ValueError(
                f"unknown replication role {role!r}; "
                f"choose from {', '.join(REPLICATION_ROLES)}"
            )
        self._checkpoint_store = store
        self.acks = acks
        self.connect = connect
        with self._state_lock:
            retired = self._transition(role, followers=followers, count=False)
            if role == "primary" and self.term == 0:
                # A recovered term (checkpoint/WAL) is kept as-is.
                self._apply_locked(
                    TermRecord(lsn=self._next_lsn(), term=FIRST_TERM)
                )
        _stop(retired)

    def _transition(self, role=None, *, term=None, followers=(), count=True):
        """The one place role, replicator, and any term not carried by
        a log record change; caller holds the state lock.  A new role
        retires the replicator (returned, for the caller to stop off
        the lock); a primary with ``followers`` starts a fresh one.
        ``count`` is false for a configured, not an elected, role."""
        retired = None
        if term is not None:
            self.state.term = max(self.state.term, term)
        if role is not None:
            retired, self._replicator = self._replicator, None
            self.role = role
            if role == "primary" and followers:
                self._replicator = ReplicationManager(
                    self,
                    [(host, int(port)) for host, port in followers],
                    acks=self.acks,
                    wal=self._wal,
                    connect=self.connect,
                    registry=self.metrics.registry,
                ).start()
            if count:
                self.metrics.registry.counter(
                    "repro_replication_role_changes_total", role=role
                ).inc()
        registry = self.metrics.registry
        registry.gauge("repro_replication_term").set(self.term)
        registry.gauge("repro_replication_role").set(
            1 if self.role == "primary" else 0
        )
        return retired

    def snapshot_state(self) -> dict:
        """One consistent checkpoint cut (the replication snapshot)."""
        with self._state_lock:
            return self.state.to_state()

    def step_down(self) -> None:
        """Demote to follower: a follower fenced this primary's
        frame, so a higher term exists."""
        with self._state_lock:
            retired = self._transition("follower")
        _stop(retired)

    def apply_replicated(
        self,
        term,
        *,
        after_lsn=None,
        frames=None,
        snapshot=None,
        promote=False,
        followers=None,
        acks=None,
    ) -> dict:
        """Carry out :func:`~repro.durability.replication.admit_frame`'s
        verdict on one ``replicate`` frame.  A promotion stamps its
        term and ships to ``followers``; a ``snapshot`` replaces state
        and log; the records in ``frames`` are logged and applied in
        LSN order through the apply path live ingest uses, which keeps
        follower state and log byte-identical to the primary's."""
        retired = None
        try:
            with self._state_lock:
                try:
                    role, records = admit_frame(
                        self._view(), term, after_lsn=after_lsn,
                        frames=frames, snapshot=snapshot, promote=promote,
                    )
                except FrameRejected as exc:
                    if exc.role is not None:
                        retired = self._transition(exc.role, term=term)
                    if exc.kind == "fenced" and not promote:
                        self.metrics.registry.counter(
                            "repro_replication_fenced_total"
                        ).inc()
                    raise QueryError(exc.kind, str(exc)) from None
                if promote and acks:
                    self.acks = acks
                if role is not None:
                    retired = self._transition(
                        role, term=term, followers=followers or ()
                    )
                if promote:
                    # The term record rides the replication stream
                    # like any committed record, so follower logs stay
                    # byte-identical.
                    self._apply_locked(
                        TermRecord(lsn=self._next_lsn(), term=term)
                    )
                    applied = 0
                elif snapshot is not None:
                    self._install_snapshot_locked(snapshot, term)
                    applied = 1
                else:
                    applied = sum(
                        self._apply_locked(record) is not None
                        for record in records
                    )
                self._transition(term=term)
                return self._repl_ack(applied=applied)
        finally:
            _stop(retired)

    def _view(self) -> ReplicaView:
        """What the replication rules read of this replica; caller
        holds the state lock."""
        return ReplicaView(
            self.role, self.term, self.durable_lsn(), self.applied_lsn,
            self.replaying,
        )

    def durable_lsn(self) -> int:
        """The local durable high-water mark (the primary's cursor)."""
        if self._wal is not None:
            return self._wal.last_lsn
        return self.state.applied_lsn

    def _repl_ack(self, *, applied: int) -> dict:
        """Caller holds the state lock."""
        return {
            "applied": applied,
            "last_lsn": self.durable_lsn(),
            "applied_lsn": self.applied_lsn,
            "term": self.term,
            "role": self.role,
        }

    def _install_snapshot_locked(self, snapshot, term: int) -> None:
        """Replace the whole local state with the primary's checkpoint
        cut at ``term`` (loaded through :meth:`EngineState.from_state`,
        so a bad version or malformed state is a ``bad_request`` that
        changes nothing); caller holds the state lock.

        The local WAL is wiped (`reset`) — across a term change or a
        compaction gap nothing in it can be trusted — and the
        checkpoint is persisted *before* further records are accepted,
        so a crash right after the install recovers at the snapshot,
        not at a stale pre-divergence checkpoint.
        """
        try:
            state = EngineState.from_state(
                snapshot,
                summarizer_factory=self.state.dynamic.summarizer_factory,
            )
        except ValueError as exc:
            raise QueryError("bad_request", f"malformed snapshot: {exc}")
        self.restore(state)
        self._transition(term=term)
        store = self._checkpoint_store
        if store is not None:
            # Checkpoints past the snapshot were cut from this node's
            # own (divergent) history; left in place, a restart would
            # recover from them instead of the snapshot.
            for step in store.steps():
                if step > state.applied_lsn:
                    store.path_for(step).unlink(missing_ok=True)
        if self._wal is not None:
            self._wal.reset(state.applied_lsn, term=state.term)
        if store is not None:
            store.save(state.to_state(), step=state.applied_lsn)
        self.metrics.registry.counter(
            "repro_replication_snapshots_installed_total"
        ).inc()

    def repl_status(self) -> dict:
        """The ``repl_status`` op: role, term, durable and applied
        high-water marks, plus per-follower cursors on a primary."""
        with self._state_lock:
            status = {**self._view()._asdict(), "epoch": self.epoch}
            replicator = self._replicator
        if replicator is not None:
            status.update(replicator.status())
        return status

    def stop_replication(self) -> None:
        """Shutdown hook: stop the shipper thread, if any."""
        replicator, self._replicator = self._replicator, None
        _stop(replicator)

    def _telemetry_gauges(self) -> None:
        """Set the gauges only ``telemetry`` reports — the served
        summary's dirt and compactness (the paper's (|E|+|C|)/m), and
        each follower's lag on a primary — so no request pays for
        them.  ``repro_summary_relative_size`` is absent while the
        ratio is not finite."""
        registry = self.metrics.registry
        with self._state_lock:
            dyn = self.state.dynamic
            dirty = dyn.dirty_supernodes()
            cost, base_cost, ratio = dyn.cost, dyn.base_cost, dyn.relative_size
            replicator = self._replicator
        registry.gauge("repro_maintenance_dirty_supernodes").set(len(dirty))
        registry.gauge("repro_maintenance_dirty_corrections").set(
            sum(dirty.values())
        )
        registry.gauge("repro_summary_cost").set(cost)
        registry.gauge("repro_summary_base_cost").set(base_cost)
        if math.isfinite(ratio):
            registry.gauge("repro_summary_relative_size").set(ratio)
        else:
            registry.remove("repro_summary_relative_size")
        if replicator is not None:
            for follower in replicator.status()["followers"]:
                registry.gauge(
                    "repro_replication_lag_lsns", follower=follower["label"]
                ).set(follower["lag"])

    # -- background maintenance ------------------------------------------
    def maintenance_pass(
        self,
        *,
        max_supernodes: int = 64,
        max_merges: int | None = None,
        min_dirty: int = 1,
    ) -> dict:
        """One budgeted compactness-maintenance pass.

        Mirrors the ``pagerank_score`` build-then-check pattern: the
        dirtiest neighborhoods are selected and re-encoded on an
        epoch-consistent snapshot *outside* the state lock, then the
        pass commits under the lock only if the epoch is unchanged —
        as a ``resummarize`` record through the same apply path as a
        mutation batch, carrying the prebuilt structure, so crash
        recovery and followers replay it deterministically.  Returns
        an outcome dict (``outcome`` is ``idle``, ``committed``,
        ``abandoned``, or ``skipped``).
        """
        from repro.dynamic.maintenance import select_targets

        if self.replaying:
            return {"outcome": "skipped", "reason": "replaying"}
        if self.role != "primary":
            # Followers receive committed passes as resummarize
            # records in the replication stream; running their own
            # would fork the log.
            return {"outcome": "skipped", "reason": "follower"}
        with self._state_lock:
            built_at = self.epoch
            dirty = self.state.dynamic.dirty_supernodes()
            rep = self.representation
            factory = self.state.dynamic.summarizer_factory
        targets = select_targets(
            dirty, rep,
            max_supernodes=max_supernodes, min_dirty=min_dirty,
        )
        if not targets:
            self._count_pass("idle")
            return {"outcome": "idle", "dirty_supernodes": len(dirty)}

        # The expensive re-encode runs on a scratch overlay built from
        # the snapshot; adopting its result under an unchanged epoch
        # is identical to having run the recorded pass in place.
        scratch = DynamicGraphSummary.from_representation(
            rep, summarizer_factory=factory, dirtiness=dirty
        )
        processed = scratch.resummarize_local(
            targets=targets, budget=merge_budget(max_merges)
        )
        built = (
            scratch.to_representation(),
            scratch.dirty_supernodes(),
            processed,
        )

        with self._state_lock:
            if self.epoch != built_at:
                self._count_pass("abandoned")
                return {
                    "outcome": "abandoned",
                    "targets": len(targets),
                    "epoch": self.epoch,
                }
            record = ResummarizeRecord(
                lsn=self._next_lsn(), targets=tuple(targets),
                max_merges=max_merges,
            )
            cost_before = self.state.dynamic.cost
            self._apply_locked(record, built)
            outcome = {
                "outcome": "committed",
                "targets": len(targets),
                "processed": processed,
                "cost_before": cost_before,
                "cost_after": built[0].cost,
                "lsn": record.lsn,
                "epoch": self.epoch,
            }
        # Maintenance commits carry no client acknowledgement, so they
        # ship in the background rather than awaiting a quorum.
        if self._replicator is not None:
            self._replicator.notify()
        return outcome

    def _count_pass(self, outcome: str) -> None:
        self.metrics.registry.counter(
            "repro_maintenance_passes_total", outcome=outcome
        ).inc()

    # -- internals -------------------------------------------------------
    def _admit(self) -> None:
        if self._budget is not None:
            reason = self._budget.exhausted()
            if reason is not None:
                self._count("budget")
                raise QueryError(
                    "overloaded",
                    f"ingest parked: resource budget exhausted ({reason})",
                )
        if self._max_inflight > 0:
            with self._inflight_lock:
                if self._inflight >= self._max_inflight:
                    self._count("overloaded")
                    raise QueryError(
                        "overloaded",
                        f"ingest queue full ({self._max_inflight} "
                        "in flight); back off and retry",
                    )
                self._inflight += 1

    def _release(self) -> None:
        if self._max_inflight > 0:
            with self._inflight_lock:
                self._inflight -= 1

    def _next_lsn(self) -> int:
        """LSN of the next record this primary originates.  It is past
        both the state and the local log, so a log ahead of the state
        surfaces as a gap instead of being silently overwritten."""
        last = self._wal.last_lsn if self._wal is not None else 0
        return max(self.state.applied_lsn, last) + 1

    def _apply_locked(self, record, built=None):
        """The one way a WAL record reaches the live state — primary
        commit, recovery replay, and follower apply alike; caller
        holds the state lock.

        A record past the local log's end is appended (and fsynced,
        policy permitting) first, in one WAL lock round; then
        :meth:`EngineState.apply` applies it — with ``built``, the live
        path's :meth:`EngineState.lookups` or prebuilt maintenance
        structure — and this wrapper invalidates the caches it touched,
        counts it, and hands it to the replicator.  Returns the
        :class:`~repro.durability.state.Applied`, or ``None`` for an
        already-applied record.
        """
        state = self.state
        # Checked before the append, so a gap never reaches the log.
        if not state.check_lsn(record.lsn):
            return None
        if self._wal is not None:
            self._wal.append_new(record)
        term = state.term
        applied = state.apply(record, built)
        self._cache.invalidate_many(applied.touched)
        self._pagerank_scores = None
        self._rep_snapshot = None
        registry = self.metrics.registry
        if applied.result is not None:
            self.metrics.ingest_applied(applied.result["applied"])
            if applied.evicted:
                registry.counter(
                    "repro_ingest_dedup_evictions_total"
                ).inc(applied.evicted)
        elif applied.processed is not None:
            self._count_pass("committed")
            registry.counter("repro_maintenance_supernodes_total").inc(
                applied.processed
            )
        if state.term != term:
            self._transition()  # a logged term record: refresh gauges
        if self._replicator is not None:
            self._replicator.record_committed(record)
        return applied

    def _count(self, reason: str) -> None:
        self.metrics.registry.counter(
            "repro_ingest_rejected_total", reason=reason
        ).inc()
