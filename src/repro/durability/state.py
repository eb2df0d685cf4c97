"""The mutable engine's state machine: one way to apply a log record.

:class:`EngineState` is everything a WAL record changes and a
checkpoint carries — the dynamic summary, the read ``epoch``, the
``applied_lsn`` cursor, the replication ``term``, and the per-stream
dedup map — with no locks, metrics, caches, WAL, or sockets.  Live
commit, crash-recovery replay, and follower apply all go through
:meth:`EngineState.apply`; recovery and replication snapshot install
both load through :meth:`EngineState.from_state`.  So "replay ==
replication == live commit, bit for bit" is a property of one
function, not of several kept in step by hand.

:meth:`~EngineState.apply` accepts exactly the next LSN: a record at
or below ``applied_lsn`` is already reflected (``None`` comes back),
and one past ``applied_lsn + 1`` raises :class:`ValueError` naming the
missing range, so a gap in a recovered log or a replication stream
fails loudly instead of silently dropping acknowledged batches.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.encoding import Representation
from repro.durability.wal import ResummarizeRecord, TermRecord
from repro.dynamic.summary import DynamicGraphSummary

__all__ = [
    "Applied",
    "EngineState",
    "STATE_VERSION",
    "check_endpoints",
    "check_lsn",
    "merge_budget",
    "representation_to_state",
    "state_to_representation",
]

#: Version of the checkpoint / replication-snapshot state dict.  Only
#: v4 loads: ``[stream, seq, mutations, result]`` dedup rows in
#: commit-recency order, per-super-node dirtiness counters, and the
#: replication ``term``.
STATE_VERSION = 4


def check_lsn(applied_lsn: int, lsn: int) -> bool:
    """Whether ``lsn`` is the next record after ``applied_lsn``:
    ``False`` when it is already applied; raises :class:`ValueError`
    naming the missing range when records before it are absent."""
    if lsn <= applied_lsn:
        return False
    first = applied_lsn + 1
    if lsn != first:
        missing = (
            f"record {first} is" if lsn == first + 1
            else f"records {first}-{lsn - 1} are"
        )
        raise ValueError(
            f"log gap: next lsn is {first} but got {lsn}; "
            f"{missing} missing"
        )
    return True


def check_endpoints(mutations, n: int) -> None:
    """Raise :class:`ValueError` naming the first mutation that does
    not join two distinct nodes of ``[0, n)``, and its bad endpoint.
    The one copy of this rule: the live path runs it once, on arrival
    (:func:`~repro.service.ingest.parse_mutations`, which the router
    shares), and :meth:`EngineState.check` on every other record."""
    for index, (_, u, v) in enumerate(mutations):
        if not (0 <= u < n and 0 <= v < n):
            node = v if 0 <= u < n else u
            raise ValueError(
                f"mutation #{index}: node {node} out of range [0, {n})"
            )
        if u == v:
            raise ValueError(f"mutation #{index} is a self-loop ({u}, {v})")


def representation_to_state(rep: Representation) -> dict:
    """A JSON-clean snapshot (sorted lists, no integer dict keys —
    JSON would silently stringify those)."""
    return {
        "n": rep.n,
        "m": rep.m,
        "supernodes": [
            [sid, list(members)]
            for sid, members in sorted(rep.supernodes.items())
        ],
        "summary_edges": sorted(list(e) for e in rep.summary_edges),
        "additions": sorted(list(e) for e in rep.additions),
        "removals": sorted(list(e) for e in rep.removals),
    }


def state_to_representation(state: dict) -> Representation:
    supernodes = {
        int(sid): [int(x) for x in members]
        for sid, members in state["supernodes"]
    }
    node_to_supernode = {
        node: sid for sid, members in supernodes.items() for node in members
    }
    return Representation(
        n=int(state["n"]),
        m=int(state["m"]),
        supernodes=supernodes,
        node_to_supernode=node_to_supernode,
        summary_edges={(int(u), int(v)) for u, v in state["summary_edges"]},
        additions={(int(u), int(v)) for u, v in state["additions"]},
        removals={(int(u), int(v)) for u, v in state["removals"]},
    )


def merge_budget(max_merges):
    """The deterministic merge cap a maintenance pass runs under."""
    if max_merges is None:
        return None
    from repro.resilience.guard import ResourceBudget

    return ResourceBudget(max_merges=max_merges)


@dataclass(slots=True)
class Applied:
    """What one applied record changed, for the serving wrapper."""

    #: Nodes whose neighbor sets may have changed (cache invalidation).
    touched: Iterable[int] = ()
    #: An ingest record's ``{"applied", "lsn"}`` acknowledgement.
    result: dict | None = None
    #: Dedup rows evicted past the capacity.
    evicted: int = 0
    #: A maintenance record's super-nodes processed (``None`` for
    #: any other record).
    processed: int | None = None


class EngineState:
    """The pure state machine behind
    :class:`~repro.service.ingest.MutableQueryEngine`.

    ``dedup`` maps stream id -> ``(last seq, its mutation tuple, its
    result dict)`` in commit-recency order (oldest first).  Streams
    beyond ``dedup_capacity`` (0 = unbounded) are evicted oldest first
    on commit; recency advances only on commit, so eviction order is a
    pure function of the log.
    """

    def __init__(
        self,
        dynamic: DynamicGraphSummary,
        *,
        epoch: int = 0,
        applied_lsn: int = 0,
        term: int = 0,
        dedup=(),
        dedup_capacity: int = 4096,
    ):
        self.dynamic = dynamic
        self.epoch = epoch
        self.applied_lsn = applied_lsn
        self.term = term
        self.dedup: OrderedDict[
            str, tuple[int, tuple[tuple[str, int, int], ...], dict]
        ] = OrderedDict(dedup)
        self.dedup_capacity = dedup_capacity

    # -- the one apply path ----------------------------------------------
    def check_lsn(self, lsn: int) -> bool:
        """:func:`check_lsn` against this state's ``applied_lsn``."""
        return check_lsn(self.applied_lsn, lsn)

    def check(self, mutations) -> list[tuple[bool, bool]]:
        """:func:`check_endpoints`, then :meth:`lookups`, in the live
        path's order, so a replayed or shipped batch is refused with
        the error the live path would answer."""
        check_endpoints(mutations, self.dynamic.n)
        return self.lookups(mutations)

    def lookups(self, mutations) -> list[tuple[bool, bool]]:
        """Validate an ingest batch whose endpoints passed
        :func:`check_endpoints` against this state and return each
        mutation's :meth:`~repro.dynamic.summary.DynamicGraphSummary.lookup`.

        Each insert must name an absent edge and each delete a present
        one, counting the batch's own earlier mutations.  Raises
        :class:`ValueError` naming the first mutation that fails,
        having changed nothing.  One lookup per distinct edge decides
        both whether it exists and which correction :meth:`apply`
        flips, so the live path calls this before the WAL append and
        hands the result to :meth:`apply`; replay and follower apply
        get :meth:`check` from :meth:`apply`.
        """
        lookup = self.dynamic.lookup
        # Edges the batch already flipped -> their lookup after it.
        flipped: dict[tuple[int, int], tuple[bool, bool]] = {}
        states = []
        for index, (sign, u, v) in enumerate(mutations):
            key = (u, v) if u < v else (v, u)
            state = flipped.get(key) or lookup(u, v)
            covered, corrected = state
            if (covered != corrected) == (sign == "+"):
                raise ValueError(
                    f"mutation #{index}: edge ({u}, {v}) "
                    + ("already exists" if sign == "+" else "does not exist")
                )
            states.append(state)
            flipped[key] = (covered, not corrected)
        return states

    def apply(self, record, built=None) -> Applied | None:
        """Apply one WAL record; ``None`` when it is already applied.

        An ingest record is validated by :meth:`check` — unless the
        live path passes the lookups it already made as ``built`` —
        so a corrupt-yet-checksum-valid record raises
        :class:`ValueError` before it changes anything.  A
        :class:`~repro.durability.wal.ResummarizeRecord` re-runs the
        recorded maintenance pass in place (a pure function of this
        state, the targets, and the merge cap), unless the live path
        passes the structure it already built off-lock as ``built =
        (representation, dirtiness, processed)``.
        """
        if not self.check_lsn(record.lsn):
            return None
        if isinstance(record, TermRecord):
            # No epoch bump: leadership changes no answer.
            self.term = max(self.term, record.term)
            self.applied_lsn = record.lsn
            return Applied()
        if isinstance(record, ResummarizeRecord):
            return self._resummarize(record, built)
        return self._ingest(record, built)

    def _ingest(self, record, states) -> Applied:
        mutations = record.mutations
        if states is None:
            states = self.check(mutations)
        self.dynamic.toggle_batch(mutations, states)
        self.epoch += 1
        self.applied_lsn = record.lsn
        result = {"applied": len(mutations), "lsn": record.lsn}
        dedup = self.dedup
        dedup[record.stream] = (record.seq, mutations, result)
        dedup.move_to_end(record.stream)
        evicted = 0
        while 0 < self.dedup_capacity < len(dedup):
            dedup.popitem(last=False)
            evicted += 1
        touched = [node for _, u, v in mutations for node in (u, v)]
        return Applied(touched, result=result, evicted=evicted)

    def _resummarize(self, record, built) -> Applied:
        dyn = self.dynamic
        touched = {
            node for sid in record.targets for node in dyn.members(sid)
        }
        old_corrections = dyn.corrections()
        if built is None:
            processed = dyn.resummarize_local(
                targets=record.targets,
                budget=merge_budget(record.max_merges),
            )
        else:
            rep, dirtiness, processed = built
            dyn.adopt(rep, dirtiness)
        for edge in dyn.corrections() ^ old_corrections:
            touched.update(edge)
        self.epoch += 1
        self.applied_lsn = record.lsn
        return Applied(touched, processed=processed)

    # -- checkpoint state ------------------------------------------------
    def to_state(self) -> dict:
        """The JSON-safe checkpoint / replication-snapshot cut."""
        dyn = self.dynamic
        return {
            "v": STATE_VERSION,
            "representation": representation_to_state(
                dyn.to_representation()
            ),
            "base_cost": dyn.base_cost,
            "epoch": self.epoch,
            "applied_lsn": self.applied_lsn,
            "term": self.term,
            # Commit-recency order (oldest first), NOT sorted: the row
            # order is the LRU eviction order and must round-trip.
            "dedup": [
                [stream, seq, [list(item) for item in batch], dict(result)]
                for stream, (seq, batch, result) in self.dedup.items()
            ],
            "dirty": sorted(
                [sid, count]
                for sid, count in dyn.dirty_supernodes().items()
            ),
        }

    @classmethod
    def from_state(
        cls,
        state,
        *,
        summarizer_factory=None,
    ) -> "EngineState":
        """Load a :meth:`to_state` dict; raises :class:`ValueError` on
        any other version or a malformed state."""
        version = state.get("v") if isinstance(state, dict) else None
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported ingest checkpoint version {version!r} "
                f"(expected {STATE_VERSION})"
            )
        try:
            dedup = {
                str(stream): (
                    int(seq),
                    tuple((str(op), int(u), int(v)) for op, u, v in batch),
                    dict(result),
                )
                for stream, seq, batch, result in state["dedup"]
            }
            dirtiness = {int(sid): int(count) for sid, count in state["dirty"]}
            dynamic = DynamicGraphSummary.from_representation(
                state_to_representation(state["representation"]),
                summarizer_factory=summarizer_factory,
                base_cost=int(state["base_cost"]),
                dirtiness=dirtiness,
            )
            return cls(
                dynamic,
                epoch=int(state["epoch"]),
                applied_lsn=int(state["applied_lsn"]),
                term=int(state["term"]),
                dedup=dedup,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed ingest checkpoint state: {exc!r}"
            ) from exc
