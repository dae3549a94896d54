"""The one result store: content-addressed records plus single-flight dedup.

:class:`ResultStore` maps :func:`repro.service.keys.cache_key` content
addresses to ``RunRecord.to_json()`` payloads through two tiers:

* the on-disk cache (``<cache_dir>/<key>.json``), the only place in the
  package that reads or writes record files.  Both the batch
  :class:`~repro.experiments.runner.SweepRunner` and the service go through
  it, so a result simulated by either is a hit for both and the two can
  never skew; and
* a bounded in-memory LRU over it (the O(1) hot path a repeated
  paper-study config hits).  The service sizes it with ``memory_capacity``
  and keeps payloads alone.  The sweep runner takes the default capacity
  and looks records up with :meth:`ResultStore.get_record`, so its entries
  also keep the decoded :class:`~repro.experiments.results.RunRecord`: one
  runner reads and decodes each entry at most once, however many of its
  sweeps ask for it.

Reads are tolerant: an entry that cannot be opened, is not JSON, or does
not decode as a :class:`~repro.experiments.results.RunRecord` is a miss and
is unlinked, so the next run re-simulates it.  Writes are atomic: each goes
to a unique temporary file beside the target and is renamed over it, so
concurrent writers of one key leave one whole entry and no temporary files.

:class:`SingleFlight` is the companion in-flight index: the first submitter
of a key becomes the *leader* whose job simulates; everyone arriving while
it is in flight joins the leader's job and awaits the same future, so N
identical concurrent submissions cost exactly one simulation and all
waiters receive the identical (bit-for-bit, same object) payload.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.experiments.results import RunRecord
    from repro.service.job import Job


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR``, else ``.cache/sweeps`` at the repository root."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / ".cache" / "sweeps"


def write_json_atomic(path: Path, payload) -> None:
    """Write ``payload`` as JSON to ``path`` via a unique temporary file.

    ``os.replace`` is atomic, so a reader sees the old file or the new one,
    never a mix, and two writers racing on one path cannot interleave.
    The text is encoded in one ``json.dumps`` call with default options:
    ``json.dump`` always runs the pure-Python encoder, ``dumps`` uses the C
    one as long as there is no ``indent``, and both produce the same bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


#: Entries the memory tier holds unless told otherwise.
MEMORY_CAPACITY = 1024


class ResultStore:
    """Two-tier (memory LRU over disk) content-addressed record store."""

    def __init__(
        self,
        cache_dir: Path | None = None,
        use_disk: bool = True,
        memory_capacity: int = MEMORY_CAPACITY,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.use_disk = use_disk
        self.memory_capacity = memory_capacity
        #: key -> (payload, its decoded record).  The record stays ``None``
        #: until :meth:`get_record` decodes it or a ``put`` passes it, so
        #: payload reads (the service's) keep payloads alone.
        self._memory: OrderedDict[str, tuple[dict, RunRecord | None]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._memory)

    def path(self, key: str) -> Path:
        """Where the record for ``key`` lives on disk."""
        return self.cache_dir / f"{key}.json"

    # ------------------------------------------------------------------ lookup

    def load(self, key: str) -> tuple[dict, RunRecord] | None:
        """Read one entry from disk as ``(payload, record)``, or ``None``.

        Any unreadable entry is unlinked and reported as a miss.
        """
        if not self.use_disk:
            return None
        # Deferred: repro.experiments imports the runner, which imports
        # this module.
        from repro.experiments.results import RunRecord

        path = self.path(key)
        try:
            with path.open() as handle:
                payload = json.load(handle)
            return payload, RunRecord.from_json(payload)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # Truncated, not JSON, or not a record: never poison a result.
            path.unlink(missing_ok=True)
            return None

    def get(self, key: str) -> dict | None:
        """The stored record payload for ``key`` (memory, then disk)."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            return entry[0]
        loaded = self.load(key)
        if loaded is None:
            return None
        self._remember(key, loaded[0], None)
        return loaded[0]

    def get_record(self, key: str) -> RunRecord | None:
        """The decoded record for ``key`` (memory, then disk).

        The memory tier keeps the record beside its payload, so a repeat
        lookup neither reads nor decodes.  Callers share the returned
        record and must not mutate it.
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            payload, record = entry
            if record is None:
                from repro.experiments.results import RunRecord

                record = RunRecord.from_json(payload)
                self._memory[key] = (payload, record)
            return record
        loaded = self.load(key)
        if loaded is None:
            return None
        self._remember(key, *loaded)
        return loaded[1]

    # ------------------------------------------------------------------- store

    def put(
        self, key: str, payload: dict, record: RunRecord | None = None
    ) -> None:
        """Store one record payload under its content address; ``record``,
        its decoded form, is kept in memory for :meth:`get_record`."""
        self._remember(key, payload, record)
        if self.use_disk:
            write_json_atomic(self.path(key), payload)

    def _remember(
        self, key: str, payload: dict, record: RunRecord | None
    ) -> None:
        if self.memory_capacity <= 0:
            return
        self._memory[key] = (payload, record)
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_capacity:
            self._memory.popitem(last=False)


class SingleFlight:
    """In-flight jobs by key; duplicates coalesce onto the leader's job.

    All methods run on the service's event loop, so check-then-act
    sequences here are atomic with respect to other submissions.
    """

    def __init__(self) -> None:
        self._inflight: dict[str, Job] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def leader_job(self, key: str) -> Job | None:
        """The in-flight job a duplicate submission should join, if any."""
        return self._inflight.get(key)

    def start(self, key: str, job: Job) -> None:
        assert key not in self._inflight, f"key {key} already in flight"
        self._inflight[key] = job

    def finish(self, key: str) -> None:
        """Retire a flight (after its future resolved and the store was
        updated); later submissions hit the store instead."""
        self._inflight.pop(key, None)

    def keys(self) -> list[str]:
        return sorted(self._inflight)
