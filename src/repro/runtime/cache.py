"""Content-addressed on-disk stores: the mechanics and the result cache.

:class:`EnvelopeStore` is the one implementation of an on-disk,
content-addressed store.  Two stores are built on it: the
:class:`ResultCache` here (one simulation's ``SimStats`` per entry) and
the sampling subsystem's :class:`~repro.sampling.checkpoint.CheckpointStore`
(functional checkpoints and sampling plans).  A store subclass names its
envelope schema and payload field and says how to deserialise a payload;
everything below is shared.  Key *derivation* lives entirely in
:mod:`repro.runtime.keys`; this module only stores and audits envelopes
under those names.

Layout: ``<root>/<first-2-hex>/<key>.json`` — two-level sharding keeps
directory listings small on big sweeps.  Writes go to a temporary file
in the same directory followed by an atomic rename, so concurrent
worker processes (or concurrent sessions) never observe a torn entry.
Walks (``info``/``verify``/``clear``) visit only a store's own shard
directories and its quarantine, so a store nested under another's root
(the checkpoint store lives at ``<cache root>/checkpoints/``) is never
audited as the outer store's entries.

Integrity (DESIGN.md §8): each entry is an envelope
``{"schema": N, "sha256": <digest>, <field>: {...}}`` where the digest
covers the canonical JSON of the payload.  Reads re-verify the
checksum; an unparsable, checksum-failing or undeserialisable file is
*quarantined* (moved under ``<root>/quarantine/``) so a bad disk or torn
write can never silently feed a wrong number into a figure, and the
original bytes survive for inspection.  An entry with a different
``schema`` is a plain miss — valid data from another version, not
corruption.  ``repro cache verify`` (:meth:`EnvelopeStore.verify`)
audits a whole store on demand.

Provenance: when the writer knows the :class:`~repro.runtime.spec.RunSpec`
that produced a result, :meth:`ResultCache.put` records ``spec.to_dict()``
in the envelope.  The spec is *descriptive* — it is excluded from the
integrity checksum (older entries without it stay valid) and never
consulted on reads; ``cache verify`` reports how many entries carry it.

Accounting: each result cache tallies hits, misses and (for the serving
layer) coalesced requests in memory; :meth:`ResultCache.flush_counters`
merges them into ``<root>/counters.json`` so ``repro cache info`` can
report lifetime effectiveness across processes.  The counters are
best-effort operational numbers — results never depend on them.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache root (default ``$XDG_CACHE_HOME/repro-sim``
  or ``~/.cache/repro-sim``).
* ``REPRO_CACHE=0`` — disable reads and writes entirely.
* ``REPRO_FAULTS`` — when a fault plan is active the cache disables
  itself: perturbed runs must never poison (or be served from) the
  clean-result store.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Tuple)

from ..uarch import SimStats
from .keys import CACHE_SCHEMA, stats_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spec import RunSpec

#: subdirectory (under a store's root) where corrupt entries are parked
QUARANTINE_DIR = "quarantine"

#: file (directly under the cache root) holding the lifetime hit/miss/
#: coalesce tallies
COUNTERS_FILE = "counters.json"

#: the counter names persisted in ``COUNTERS_FILE``
COUNTER_KEYS = ("hits", "misses", "coalesced")

_HEX = frozenset("0123456789abcdef")


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "repro-sim")


def cache_enabled() -> bool:
    if os.environ.get("REPRO_FAULTS"):
        return False
    return os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "off", "no")


class CacheEntryError(ValueError):
    """An entry exists but cannot be trusted (corrupt / checksum fail)."""


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temporary file and
    an atomic rename; raises ``OSError`` (leaving no temporary behind)."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class EnvelopeStore:
    """Sharded, checksummed, quarantining on-disk store of JSON payloads.

    Subclasses set :attr:`SCHEMA`, :attr:`FIELD` and :attr:`NAME` and
    implement :meth:`_load`.  Cheap to construct; the root directory is
    only created on the first write.
    """

    #: envelope schema written by (and required of a current entry of)
    #: this store
    SCHEMA: int
    #: envelope field holding the checksummed payload
    FIELD: str
    #: what the store calls its entries in error reasons
    NAME: str

    def __init__(self, root: str, enabled: Optional[bool] = None):
        self.root = root
        self.enabled = cache_enabled() if enabled is None else enabled
        #: entries moved aside by this instance (key paths, for reporting)
        self.quarantined: List[str] = []

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry under ``<root>/quarantine/`` (best effort)."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            self.quarantined.append(path)
        except OSError:
            pass

    # -- entries ---------------------------------------------------------
    def _decode(self, text: str) -> Optional[dict]:
        """Parse + verify one envelope; None on another schema.

        Raises :class:`CacheEntryError` on anything untrustworthy: junk
        bytes, a missing envelope field, or a checksum mismatch.
        """
        try:
            envelope = json.loads(text)
        except ValueError as exc:
            raise CacheEntryError(f"unparsable JSON: {exc}") from None
        if not isinstance(envelope, dict) or self.FIELD not in envelope \
                or "sha256" not in envelope or "schema" not in envelope:
            raise CacheEntryError(f"not a {self.NAME} envelope")
        if envelope["schema"] != self.SCHEMA:
            return None  # another version's valid data: a miss, not corruption
        if stats_digest(envelope[self.FIELD]) != envelope["sha256"]:
            raise CacheEntryError("checksum mismatch")
        return envelope

    def _load(self, envelope: dict) -> Any:
        """The deserialised payload of a verified envelope; None for an
        entry kind this version does not read.  Raises ``ValueError``
        when the payload cannot be trusted."""
        raise NotImplementedError

    def _read(self, key: str) -> Any:
        """The entry under ``key``, or None.

        A miss is silent (absent, another schema or kind); a corrupt
        entry is quarantined so it is never consulted again and the
        evidence survives.
        """
        path = self.path_for(key)
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError:
            return None
        try:
            envelope = self._decode(text)
            return None if envelope is None else self._load(envelope)
        except ValueError:
            self._quarantine(path)
            return None

    def _write(self, key: str, payload: dict, **extra: object) -> None:
        """Store ``payload`` under ``key``; ``extra`` envelope fields are
        descriptive (outside the checksum).  A read-only or full store
        never fails the caller."""
        envelope: Dict[str, object] = {
            "schema": self.SCHEMA,
            "sha256": stats_digest(payload),
            self.FIELD: payload, **extra}
        try:
            atomic_write(self.path_for(key),
                         json.dumps(envelope, separators=(",", ":")))
        except OSError:
            pass

    # -- auditing (repro cache info|verify|clear) ------------------------
    def _files(self) -> Iterator[Tuple[str, bool]]:
        """``(path, quarantined)`` for every file in this store's shard
        directories and its quarantine — nothing else under the root."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        for name in names:
            parked = name == QUARANTINE_DIR
            if not parked and not (len(name) == 2 and set(name) <= _HEX):
                continue
            dirpath = os.path.join(self.root, name)
            try:
                files = sorted(os.listdir(dirpath))
            except OSError:
                continue
            for fname in files:
                yield os.path.join(dirpath, fname), parked

    def info(self) -> Dict[str, object]:
        """Entry count, footprint and quarantine count."""
        entries = size = quarantined = 0
        for path, parked in self._files():
            if not path.endswith(".json"):
                continue
            if parked:
                quarantined += 1
                continue
            entries += 1
            try:
                size += os.path.getsize(path)
            except OSError:
                pass
        return {"root": self.root, "enabled": self.enabled,
                "entries": entries, "bytes": size,
                "quarantined": quarantined}

    def verify(self, quarantine: bool = True) -> Dict[str, object]:
        """Audit every entry: parse, checksum, deserialise.

        Returns counters plus the list of bad paths; with ``quarantine``
        (the default) bad entries are moved aside like a failing read
        would.  Other-schema entries (and entry kinds this version does
        not read) count as ``stale`` and are left in place.
        ``with_spec`` counts the valid entries carrying run-spec
        provenance in their envelope.  ``quarantined`` is the total
        parked under ``<root>/quarantine/`` *after* this audit — newly
        moved entries plus anything quarantined earlier — which is what
        ``repro cache verify --strict`` gates on.
        """
        ok = stale = with_spec = parked = 0
        bad: List[Tuple[str, str]] = []
        for path, in_quarantine in self._files():
            if not path.endswith(".json"):
                continue
            if in_quarantine:
                parked += 1
                continue
            try:
                with open(path) as fh:
                    envelope = self._decode(fh.read())
                if envelope is None or self._load(envelope) is None:
                    stale += 1
                    continue
                ok += 1
                with_spec += "spec" in envelope
            except (OSError, ValueError) as exc:
                bad.append((path, str(exc)))
        if quarantine:
            for path, _reason in bad:
                self._quarantine(path)
        return {"root": self.root, "ok": ok, "stale": stale,
                "with_spec": with_spec, "corrupt": len(bad),
                "quarantined": parked + len(bad),
                "bad": [{"path": p, "reason": r} for p, r in bad]}

    def clear(self) -> int:
        """Delete every entry (quarantined ones and stray temporaries
        too); returns the number of files removed."""
        removed = 0
        for path, _parked in self._files():
            if path.endswith((".json", ".tmp")):
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed


class ResultCache(EnvelopeStore):
    """On-disk ``SimStats`` store with atomic writes and checksummed reads."""

    SCHEMA = CACHE_SCHEMA
    FIELD = "stats"
    NAME = "cache"

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None):
        super().__init__(root or default_cache_dir(), enabled)
        #: in-memory tallies since the last :meth:`flush_counters`
        self.hits = 0
        self.misses = 0
        self.coalesced = 0

    def _load(self, envelope: dict) -> SimStats:
        try:
            return SimStats.from_dict(envelope["stats"])
        except (ValueError, TypeError, KeyError) as exc:
            raise CacheEntryError(
                f"stats payload does not deserialise: {exc}") from None

    def get(self, key: str) -> Optional[SimStats]:
        """The cached stats for ``key``, or None (absent, disabled,
        another schema, or corrupt — quarantined)."""
        if not self.enabled:
            return None
        result = self._read(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, stats: SimStats,
            spec: Optional["RunSpec"] = None) -> None:
        """Store ``stats`` under ``key`` (write-to-temp + atomic rename).

        When the producing :class:`RunSpec` is known it is recorded in
        the envelope for provenance — outside the integrity checksum,
        so spec-less entries from older writers verify unchanged.
        """
        if not self.enabled:
            return
        if spec is None:
            self._write(key, stats.to_dict())
        else:
            self._write(key, stats.to_dict(), spec=spec.to_dict())

    # -- accounting ------------------------------------------------------
    def note_coalesced(self, n: int = 1) -> None:
        """Record ``n`` coalesced requests (the serving layer's fan-in)."""
        self.coalesced += n

    def _counters_path(self) -> str:
        return os.path.join(self.root, COUNTERS_FILE)

    def load_counters(self) -> Dict[str, int]:
        """The persisted lifetime tallies (zeros when absent/unreadable)."""
        try:
            with open(self._counters_path()) as fh:
                data = json.load(fh)
            if isinstance(data, dict):
                return {k: int(data.get(k, 0)) for k in COUNTER_KEYS}
        except (OSError, ValueError, TypeError):
            pass
        return {k: 0 for k in COUNTER_KEYS}

    def flush_counters(self) -> Dict[str, int]:
        """Merge the in-memory tallies into ``<root>/counters.json``.

        Best-effort operational accounting, not results: the merge is a
        read-add-rename, so two processes flushing at the same instant
        can drop a few increments — never corrupt the file.  Returns the
        merged totals; a disabled cache flushes nothing.
        """
        pending = {"hits": self.hits, "misses": self.misses,
                   "coalesced": self.coalesced}
        totals = self.load_counters()
        for k, v in pending.items():
            totals[k] += v
        if not self.enabled or not any(pending.values()):
            return totals
        try:
            atomic_write(self._counters_path(), json.dumps(totals))
        except OSError:
            return totals  # keep the tallies; retry on the next flush
        self.hits = self.misses = self.coalesced = 0
        return totals

    def info(self) -> Dict[str, object]:
        """Entries, footprint and lifetime tallies (``cache info``).

        The hit/miss/coalesce numbers are the persisted totals plus any
        tallies this instance has not flushed yet.
        """
        counters = self.load_counters()
        counters["hits"] += self.hits
        counters["misses"] += self.misses
        counters["coalesced"] += self.coalesced
        return {**super().info(), **counters}

    def clear(self) -> int:
        """Delete every cache entry (and reset the lifetime tallies);
        returns the number of entries removed."""
        removed = super().clear()
        try:
            os.unlink(self._counters_path())
        except OSError:
            pass
        self.hits = self.misses = self.coalesced = 0
        return removed
