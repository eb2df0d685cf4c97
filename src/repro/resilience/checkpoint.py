"""Durable, corruption-detected checkpoints for long runs.

A Mags/Mags-DM run on a paper-scale graph is hours of work; a killed
process should not restart from iteration 1.  :class:`CheckpointStore`
persists small JSON state snapshots with the three properties a
recovery path needs:

* **atomic** — the payload is written to a temp file in the same
  directory and ``os.replace``'d into place, so a crash mid-write
  leaves either the previous checkpoint or none, never a half-file;
* **versioned** — files are ``ckpt-<step>.json`` and the store keeps
  the newest ``keep`` of them, so one bad snapshot does not erase
  history;
* **corruption-detected** — every file embeds a SHA-256 checksum over
  its state payload; :meth:`CheckpointStore.load` raises
  :class:`CheckpointCorrupt` on mismatch and
  :meth:`CheckpointStore.latest` transparently falls back to the
  newest *intact* checkpoint (counting the skip in the
  :mod:`repro.obs` registry).

The format is deliberately the same plain-JSON-per-file shape the
rest of the repo uses: ``{"v": 1, "step": ..., "checksum": ...,
"state": {...}}`` with the checksum computed over the canonical
(sorted-keys, compact) encoding of ``state``.

Fault-injection site: ``checkpoint:write`` — a scheduled ``corrupt``
fault flips bytes in the payload before it hits disk, which is how
the tests produce realistic torn checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "CheckpointError",
    "CheckpointCorrupt",
]

FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^ckpt-(\d{8})\.json$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be read or written."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file failed its checksum or failed to parse."""


@dataclass(frozen=True)
class Checkpoint:
    """One loaded snapshot."""

    step: int
    state: dict
    path: Path


def _canonical(state: dict) -> bytes:
    return json.dumps(
        state, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _checksum(state: dict) -> str:
    return hashlib.sha256(_canonical(state)).hexdigest()


class CheckpointStore:
    """Versioned checkpoint directory.

    Parameters
    ----------
    directory:
        Created on first save if missing.
    keep:
        Newest snapshots retained; older ones are pruned after each
        successful save.
    """

    def __init__(self, directory: str | Path, keep: int = 3):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = keep

    # -- paths -----------------------------------------------------------
    def path_for(self, step: int) -> Path:
        if step < 0:
            raise ValueError("step must be >= 0")
        return self.directory / f"ckpt-{step:08d}.json"

    def steps(self) -> list[int]:
        """All stored step numbers, ascending (corrupt files included —
        corruption is only detectable on read)."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _NAME_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    # -- write -----------------------------------------------------------
    def save(self, state: dict, step: int) -> Path:
        """Atomically persist ``state`` as the checkpoint for ``step``."""
        from repro.resilience.faults import active_injector

        path = self.path_for(step)
        self.directory.mkdir(parents=True, exist_ok=True)
        record = {
            "v": FORMAT_VERSION,
            "step": step,
            "checksum": _checksum(state),
            "state": state,
        }
        payload = (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        injector = active_injector()
        if injector is not None:
            payload = injector.corrupt("checkpoint:write", payload)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".ckpt-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(payload)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._record("saved")
        self._prune()
        return path

    def _prune(self) -> None:
        steps = self.steps()
        for step in steps[: max(0, len(steps) - self.keep)]:
            try:
                self.path_for(step).unlink()
            except OSError:
                pass

    # -- read ------------------------------------------------------------
    def load(self, step: int) -> Checkpoint:
        """Load and verify one checkpoint; raises
        :class:`CheckpointCorrupt` on any integrity failure."""
        path = self.path_for(step)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read {path}: {exc}") from exc
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointCorrupt(
                f"{path} is not valid checkpoint JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or record.get("v") != FORMAT_VERSION:
            raise CheckpointCorrupt(
                f"{path} has unsupported checkpoint version "
                f"{record.get('v') if isinstance(record, dict) else '?'!r}"
            )
        state = record.get("state")
        if not isinstance(state, dict):
            raise CheckpointCorrupt(f"{path} carries no state object")
        if record.get("checksum") != _checksum(state):
            raise CheckpointCorrupt(f"{path} failed its checksum")
        if record.get("step") != step:
            raise CheckpointCorrupt(
                f"{path} claims step {record.get('step')!r}, "
                f"expected {step}"
            )
        return Checkpoint(step=step, state=state, path=path)

    def latest(self) -> Checkpoint | None:
        """The newest *intact* checkpoint, or ``None``.

        Corrupt files are skipped (and counted under
        ``repro_resilience_checkpoints_total{event="corrupt_skipped"}``)
        so recovery degrades to the last good snapshot instead of
        failing outright.
        """
        for step in reversed(self.steps()):
            try:
                checkpoint = self.load(step)
            except CheckpointCorrupt:
                self._record("corrupt_skipped")
                continue
            self._record("loaded")
            return checkpoint
        return None

    def _record(self, event: str) -> None:
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "repro_resilience_checkpoints_total", event=event
        ).inc()
