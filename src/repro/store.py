"""Crash-safe content-addressed result store with a resumable sweep journal.

The evaluation pipeline is deterministic in content: a chart's runtime
observation is a pure function of its render fingerprint, the behavior
registry and the seed, and its evaluation report is a pure function of
those plus the analyzer settings.  This module turns that determinism into
durability -- a :class:`ResultStore` maps content keys (sha256 over the
canonical inputs, see :func:`store_key`) to verified on-disk entries, so a
crashed or interrupted sweep loses nothing that already completed and a
warm store turns a full sweep into a read-mostly pass.

Three contracts, in order of importance:

**Crash safety.**  Every publish goes through write-to-temp (same
directory), flush, fsync, then an atomic ``os.replace`` -- a reader can
never observe a partial entry, no matter where a writer dies.  The helpers
:func:`atomic_write_bytes` / :func:`atomic_write_text` expose the same
discipline for other files (the benchmark baseline uses it).

**Verified reads.**  An entry is a one-line JSON header (magic, schema
version, kind, payload sha256, payload size) followed by a pickle payload.
Every read re-hashes the payload and checks the header; corruption or
schema skew is *detected, counted in* :meth:`ResultStore.stats`, *evicted,
and recomputed by the caller* -- the same degrade-gracefully contract the
render cache established.  A store failure (read or write) is never fatal
to the computation it serves.

**Concurrent-writer safety.**  Content addressing makes writes idempotent:
two processes producing the same key produce byte-equivalent values, and
``os.replace`` makes the last rename win atomically.  The read path takes
no locks.

:class:`SweepJournal` adds per-sweep bookkeeping: an append-only
``journal.jsonl`` whose header pins the sweep identity (catalogue +
settings + schema) plus a monotonically increasing *epoch* -- every fresh
or rotated sweep advances it, a resume continues it -- and whose per-chart
records -- each sealed with its own sha256, so a torn tail line is
dropped, not trusted -- record completion for ``repro sweep --resume``.
:meth:`SweepJournal.begin` parses the existing journal once and keeps its
live (last-wins) record per chart key and its epoch as the sweep's prior
state; the durable sweep compares each chart against that record to say
why it was recomputed, which is how a delta round over a store
(:mod:`repro.experiments.delta`) reports what it did.

Fault injection: :data:`repro.faults.STORE_READ` fires at the top of every
lookup (``corrupt`` kinds damage the entry first -- truncation, bit-flip or
version skew per :func:`repro.faults.corruption_mode`);
:data:`repro.faults.STORE_WRITE` fires between the temp-file fsync and the
rename, so a ``kill`` fault is a genuine mid-write crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Iterator

from . import faults

#: Entry-format constants.  ``SCHEMA_VERSION`` governs compatibility: a
#: header whose schema differs from the reader's is *version skew* -- the
#: entry is evicted and recomputed (and ``tools/store_gc.py`` prunes them).
MAGIC = "repro-store"
SCHEMA_VERSION = 1

#: Well-known entry kinds (recorded in the header, checked on read).
KIND_OBSERVATION = "observation"
KIND_RESULT = "result"

_ENTRY_SUFFIX = ".entry"
_TMP_MARKER = ".tmp"


def store_key(kind: str, *parts: object) -> str:
    """Derive the content key (sha256 hex) for an entry.

    ``parts`` must be canonical primitives -- strings, ints, bools, ``None``
    and nested tuples thereof -- whose ``repr`` is deterministic across
    processes and platforms (the same discipline
    :func:`repro.helm.values.canonical_values` guarantees).  The key
    deliberately excludes the schema version: version skew must be
    *detectable* at read time via the header, not silently keyed away.
    """
    material = repr((MAGIC, kind, parts))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _fsync_directory(path: Path) -> None:
    """Best-effort fsync of a directory so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp file + fsync + rename.

    The temp file lives in the target directory (``os.replace`` must not
    cross filesystems) and is fsynced before the rename, so a crash at any
    point leaves either the old content or the new -- never a torn file.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + _TMP_MARKER)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(target.parent)


def atomic_write_text(path: Path | str, text: str, encoding: str = "utf-8") -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


def _entry_header(kind: str, payload: bytes, schema: int) -> bytes:
    header = {
        "magic": MAGIC,
        "schema": schema,
        "kind": kind,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "size": len(payload),
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def _parse_entry(blob: bytes, kind: str | None, schema: int) -> tuple[bytes | None, str | None]:
    """Split an entry blob into its payload, or name the defect.

    Returns ``(payload, None)`` for a healthy entry and ``(None, reason)``
    otherwise, with ``reason`` one of ``header`` / ``magic`` / ``schema`` /
    ``kind`` / ``size`` / ``digest``.  ``schema`` is the only reason counted
    as version skew rather than corruption.
    """
    newline = blob.find(b"\n")
    if newline < 0:
        return None, "header"
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None, "header"
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        return None, "magic"
    if header.get("schema") != schema:
        return None, "schema"
    if kind is not None and header.get("kind") != kind:
        return None, "kind"
    payload = blob[newline + 1 :]
    if header.get("size") != len(payload):
        return None, "size"
    if header.get("sha256") != hashlib.sha256(payload).hexdigest():
        return None, "digest"
    return payload, None


def _corrupt_entry_file(path: Path, mode: str) -> None:
    """Damage an on-disk entry per the requested chaos corruption mode."""
    try:
        blob = path.read_bytes()
    except OSError:
        return
    if mode == faults.CORRUPT_TRUNCATE:
        path.write_bytes(blob[: max(len(blob) // 2, 1)])
    elif mode == faults.CORRUPT_BITFLIP:
        newline = blob.find(b"\n")
        index = newline + 1 + max((len(blob) - newline - 1) // 2, 0)
        index = min(index, len(blob) - 1)
        damaged = bytearray(blob)
        damaged[index] ^= 0x01
        path.write_bytes(bytes(damaged))
    elif mode == faults.CORRUPT_VERSION:
        newline = blob.find(b"\n")
        if newline < 0:
            return
        try:
            header = json.loads(blob[:newline].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return
        header["schema"] = int(header.get("schema", 0)) + 1
        skewed = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path.write_bytes(skewed + b"\n" + blob[newline + 1 :])


class ResultStore:
    """Content-addressed on-disk store of pickled evaluation artifacts.

    Entries live under ``root`` sharded by key prefix
    (``root/<key[:2]>/<key>.entry``).  :meth:`read` verifies every entry
    against its header (magic, schema version, kind, sha256, size) and
    unpickles only verified payloads; a defective entry is counted, evicted
    and reported as a miss so the caller recomputes and republishes.
    :meth:`write` is crash-safe (temp + fsync + atomic rename) and *never
    raises* -- a failed publish is counted in :meth:`stats` and the
    computation proceeds unstored.

    Instances are cheap and process-local; the on-disk format is the shared
    contract.  Counters are per-instance (pool workers each see their own).
    """

    def __init__(self, root: Path | str, schema_version: int = SCHEMA_VERSION) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_failures = 0
        self.read_errors = 0
        self.corruptions = 0
        self.version_skew = 0
        self.evictions = 0

    def entry_path(self, key: str) -> Path:
        """The on-disk location of ``key`` (exists or not)."""
        return self.root / key[:2] / (key + _ENTRY_SUFFIX)

    def read(self, key: str, kind: str | None = None) -> Any:
        """Return the verified value stored under ``key``, or ``None``.

        ``None`` covers every non-success uniformly -- absent entry,
        unreadable file, corruption, version skew, kind mismatch -- because
        the caller's move is always the same: recompute, then
        :meth:`write`.  Defective entries are evicted so the next sweep
        does not pay the verification failure again; the distinction
        between miss, corruption and skew is kept in :meth:`stats`.
        """
        path = self.entry_path(key)
        try:
            faults.fault_point(faults.STORE_READ)
            if not path.exists():
                with self._lock:
                    self.misses += 1
                return None
            mode = faults.corruption_mode(faults.STORE_READ)
            if mode is not None:
                _corrupt_entry_file(path, mode)
            blob = path.read_bytes()
        except (faults.InjectedFault, OSError):
            with self._lock:
                self.read_errors += 1
            return None
        payload, reason = _parse_entry(blob, kind, self.schema_version)
        if reason is not None:
            self._evict(path, reason)
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._evict(path, "payload")
            return None
        with self._lock:
            self.hits += 1
        return value

    def write(self, key: str, value: Any, kind: str) -> bool:
        """Publish ``value`` under ``key``; return True on success.

        Serialization, the temp write, the fsync and the rename are all
        inside the failure guard: any exception (including an injected
        ``store.write`` fault) abandons the publish, counts a write
        failure, cleans up the temp file best-effort and returns False.
        The store must never turn a successful computation into a failure.
        """
        path = self.entry_path(key)
        tmp_name: str | None = None
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            blob = _entry_header(kind, payload, self.schema_version) + payload
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + _TMP_MARKER)
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            # Mid-write crash site: the temp file is durable, the entry is
            # not yet visible.  A ``kill`` fault here dies exactly like a
            # power cut between fsync and rename.
            faults.fault_point(faults.STORE_WRITE)
            os.replace(tmp_name, path)
            tmp_name = None
            _fsync_directory(path.parent)
        except Exception:
            with self._lock:
                self.write_failures += 1
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return False
        with self._lock:
            self.writes += 1
        return True

    def _evict(self, path: Path, reason: str) -> None:
        with self._lock:
            if reason == "schema":
                self.version_skew += 1
            else:
                self.corruptions += 1
            self.evictions += 1
        try:
            path.unlink()
        except OSError:
            pass

    def entries(self) -> Iterator[Path]:
        """Yield every entry file currently visible in the store."""
        yield from sorted(self.root.glob(f"*/*{_ENTRY_SUFFIX}"))

    def verify_all(self) -> dict[str, int]:
        """Scan every entry; report healthy/defective counts without evicting.

        Used by tests and ``tools/store_gc.py`` to prove no torn entry is
        ever visible: a store that only ever saw crash-safe writes scans
        clean no matter how many writers died.
        """
        healthy = 0
        defects: dict[str, int] = {}
        for path in self.entries():
            try:
                blob = path.read_bytes()
            except OSError:
                defects["unreadable"] = defects.get("unreadable", 0) + 1
                continue
            _, reason = _parse_entry(blob, None, self.schema_version)
            if reason is None:
                healthy += 1
            else:
                defects[reason] = defects.get(reason, 0) + 1
        return {"healthy": healthy, "defective": sum(defects.values()), **defects}

    def stats(self) -> dict[str, int]:
        """Counter snapshot: hits, misses, writes, failures, defects, evictions."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "write_failures": self.write_failures,
                "read_errors": self.read_errors,
                "corruptions": self.corruptions,
                "version_skew": self.version_skew,
                "evictions": self.evictions,
            }


def _seal_record(record: dict[str, Any]) -> str:
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    return json.dumps({"rec": record, "sha": digest}, sort_keys=True, separators=(",", ":")) + "\n"


def _unseal_line(line: str) -> dict[str, Any] | None:
    try:
        wrapper = json.loads(line)
        record = wrapper["rec"]
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if wrapper["sha"] != hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]:
            return None
    except (ValueError, KeyError, TypeError):
        return None
    return record if isinstance(record, dict) else None


class SweepJournal:
    """Append-only per-sweep completion log next to a :class:`ResultStore`.

    The journal is ``journal.jsonl`` in the store root.  Line one is a
    header record pinning the *sweep identity* -- a digest over the ordered
    catalogue result keys -- so a resume against a different catalogue or
    settings is detected, not silently honored.  Each subsequent line
    records one chart's completion (key, status, attempts, source), sealed
    with its own sha256 so a torn tail (the writer died mid-append) is
    dropped rather than trusted.  Appends are single ``os.write`` calls on
    an ``O_APPEND`` descriptor followed by fsync, so concurrent sweeps
    interleave whole records.
    """

    FILENAME = "journal.jsonl"
    #: The one *expected* rotation reason: a fresh (non-resume) sweep
    #: deliberately supersedes any prior journal.  :func:`store_hint`
    #: treats every other reason as degradation worth a hint.
    ROTATED_FRESH = "superseded by a fresh sweep"
    #: A resume whose sweep identity moved: the catalogue or settings
    #: changed, so the stale journal is set aside and the epoch advances.
    ROTATED_IDENTITY = "journal identity mismatch (catalogue or settings changed)"

    def __init__(self, root: Path | str, identity: str) -> None:
        self.root = Path(root)
        self.identity = identity
        self.path = self.root / self.FILENAME
        self.rotated_reason: str | None = None
        self.dropped_lines = 0
        #: The sweep epoch this journal is writing under: 0 until
        #: :meth:`begin`, then the prior header's epoch + 1 for a fresh or
        #: rotated sweep, or the prior epoch unchanged for a valid resume.
        self.epoch = 0
        #: The journal as :meth:`begin` found it: the live (last-wins)
        #: record per chart key and the header's epoch (0 if none).
        self.prior: dict[str, dict[str, Any]] = {}
        self.prior_epoch = 0
        self._fd: int | None = None
        self._lock = threading.Lock()

    def begin(self, resume: bool) -> dict[str, dict[str, Any]]:
        """Open the journal; return prior completions when resuming.

        A fresh sweep (``resume=False``) rotates any existing journal aside
        (``journal.jsonl.prev``).  A resume validates the header identity
        first: a mismatch (different catalogue, settings or schema) rotates
        the stale journal and starts clean -- :attr:`rotated_reason` records
        why, so the CLI can surface one hint instead of a traceback.

        Either way :attr:`epoch` is settled here: it continues the prior
        header's epoch on a valid resume and advances it by one otherwise,
        so every generation of results a store has seen is totally ordered.
        The parsed journal stays on :attr:`prior` / :attr:`prior_epoch`,
        rotated or not.
        """
        completed: dict[str, dict[str, Any]] = {}
        if self.path.exists():
            header, self.prior, self.dropped_lines = _parse_journal(self.path)
            self.prior_epoch = _header_epoch(header)
            if not resume:
                self._rotate(self.ROTATED_FRESH)
            elif header is None:
                self._rotate("journal header unreadable")
            elif header.get("identity") != self.identity:
                self._rotate(self.ROTATED_IDENTITY)
            else:
                completed = self.prior
        self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        if os.fstat(self._fd).st_size == 0:
            self.epoch = self.prior_epoch + 1
            self._append(
                {
                    "type": "header",
                    "identity": self.identity,
                    "schema": SCHEMA_VERSION,
                    "epoch": self.epoch,
                }
            )
        else:
            self.epoch = self.prior_epoch or 1
        return completed

    def record(
        self,
        chart: str,
        status: str,
        result_key: str = "",
        attempts: int = 1,
        source: str = "computed",
    ) -> None:
        """Append one sealed per-chart completion record and fsync it."""
        self._append(
            {
                "type": "chart",
                "chart": chart,
                "status": status,
                "result": result_key,
                "attempts": attempts,
                "source": source,
            }
        )

    def close(self) -> None:
        """Release the journal descriptor (records already durable)."""
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None

    def _append(self, record: dict[str, Any]) -> None:
        if self._fd is None:
            return
        line = _seal_record(record).encode("utf-8")
        with self._lock:
            try:
                os.write(self._fd, line)
                os.fsync(self._fd)
            except OSError:
                pass

    def _rotate(self, reason: str) -> None:
        self.rotated_reason = reason
        try:
            os.replace(self.path, self.path.with_name(self.FILENAME + ".prev"))
        except OSError:
            pass


def _parse_journal(path: Path) -> tuple[dict[str, Any] | None, dict[str, dict[str, Any]], int]:
    """Parse one journal file into (header, live chart records, dropped lines).

    Chart records are *last-wins* by chart key: a chart recorded several
    times across resumed sweeps keeps exactly one live record -- the
    superseded-entry semantics both readers (resume, and the durable
    sweep's recompute reasons) share.
    """
    header: dict[str, Any] | None = None
    records: dict[str, dict[str, Any]] = {}
    dropped = 0
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError:
        return None, {}, 0
    for index, line in enumerate(lines):
        record = _unseal_line(line)
        if record is None:
            dropped += 1
            continue
        if record.get("type") == "header" and index == 0:
            header = record
        elif record.get("type") == "chart" and isinstance(record.get("chart"), str):
            records[record["chart"]] = record
    return header, records, dropped


def _header_epoch(header: dict[str, Any] | None) -> int:
    """The epoch a journal header carries (0 for absent or pre-epoch headers)."""
    if not isinstance(header, dict):
        return 0
    try:
        return max(int(header.get("epoch", 0)), 0)
    except (TypeError, ValueError):
        return 0


def store_hint(stats: dict[str, int], root: Path | str, rotated: str | None = None) -> str | None:
    """One actionable-message-style hint line for a degraded store, or None.

    Mirrors :func:`repro.cluster.errors.actionable_message` formatting so
    CLI output stays uniform: a one-line diagnosis plus an indented hint.
    Returned only when the sweep actually degraded (corruption, version
    skew, read/write errors or an *unexpected* journal rotation -- the
    deliberate :attr:`SweepJournal.ROTATED_FRESH` supersede is not a
    problem); a healthy store stays silent.
    """
    problems = []
    if stats.get("corruptions"):
        problems.append(f"{stats['corruptions']} corrupt entr{'y' if stats['corruptions'] == 1 else 'ies'}")
    if stats.get("version_skew"):
        problems.append(f"{stats['version_skew']} version-skewed entr{'y' if stats['version_skew'] == 1 else 'ies'}")
    if stats.get("read_errors"):
        problems.append(f"{stats['read_errors']} unreadable entr{'y' if stats['read_errors'] == 1 else 'ies'}")
    if stats.get("write_failures"):
        problems.append(f"{stats['write_failures']} failed write{'s' if stats['write_failures'] != 1 else ''}")
    if rotated and rotated != SweepJournal.ROTATED_FRESH:
        problems.append(f"journal rotated ({rotated})")
    if not problems:
        return None
    return (
        f"StoreIntegrity: {', '.join(problems)} at {root}; affected charts were recomputed\n"
        f"  hint: results are unaffected; run 'python tools/store_gc.py {root} --apply' to prune stale entries"
    )
