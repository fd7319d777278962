"""Content-keyed on-disk cache for experiment results.

Every evaluation artifact in this reproduction is a deterministic
function of (experiment id, parameters, the simulator's source code).
The cache exploits that: :func:`result_key` hashes exactly those three
inputs, and :class:`ResultCache` maps the key to a pickled payload on
disk.  A second ``run_all`` invocation with unchanged inputs replays
every table from the cache in milliseconds; editing *any* file under
``src/repro`` changes the code fingerprint and invalidates everything
it could have influenced.

Keying rules:

* **experiment id** — the registry name ("fig08", "power-sweep", ...);
* **parameters** — a flat JSON-serialisable dict (seed, scale, ...),
  hashed order-independently;
* **code fingerprint** — SHA-256 over the contents of every ``*.py``
  file in the installed ``repro`` package (cached per process).

On disk an entry lives in one of two layouts, and one reader serves
both: single-job writers (the service, ``run_all``, scalar stragglers)
publish one ``<key>.pkl`` file per :meth:`ResultCache.put`, while a
campaign shard publishes all its payloads at once as one **pack**
(:meth:`ResultCache.put_many`) under ``packs/``.

The cache directory defaults to ``.repro-cache`` under the current
working directory and can be pointed elsewhere with the
``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"
#: Bump to invalidate every existing cache entry on format changes.
#: v2: payloads became (stdout, telemetry snapshot | None) tuples.
#: v3: on-disk entries gained a magic + SHA-256 checksum header so any
#: byte-level corruption is a detected (quarantined) miss, never a
#: wrong hit.
CACHE_FORMAT_VERSION = 3

#: On-disk entry layout: MAGIC, then the SHA-256 digest of the body,
#: then the pickled body.  ``get`` recomputes the digest before
#: unpickling — a flipped bit anywhere in the body fails closed instead
#: of deserialising garbage (pickle happily "succeeds" on many
#: corruptions).
CACHE_MAGIC = b"RPC3"
_DIGEST_SIZE = hashlib.sha256().digest_size

#: Subdirectory holding packs.  Kept apart from the per-key files so a
#: reader's pack index goes stale only when a pack is published or
#: removed, never on a per-key write.
PACK_DIR = "packs"
#: Pack layout: PACK_MAGIC, the SHA-256 of the index, the index length
#: (8-byte big-endian), the index, then the entry bodies back to back.
#: The index is the JSON list ``[[key, offset, length, sha256-hex],
#: ...]`` sorted by key, offsets counted from the first body; each body
#: is the exact pickle a ``<key>.pkl`` entry holds.  A pack is named by
#: its index digest, which covers every body through the entry digests,
#: so equal contents always publish equal files.
PACK_MAGIC = b"RPK1"
_PACK_HEADER = struct.Struct(f">{len(PACK_MAGIC)}s{_DIGEST_SIZE}sQ")
#: Per-pack index as held in memory: key -> (absolute offset, length,
#: SHA-256 of the body).
_PackIndex = Dict[str, Tuple[int, int, bytes]]


def default_cache_dir() -> Path:
    """The configured cache directory (not created until first write)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(DEFAULT_CACHE_DIR)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 fingerprint of the installed ``repro`` package sources.

    Hashes (relative path, content) for every ``*.py`` file, sorted by
    path, so the fingerprint is stable across filesystems and invariant
    to mtime churn but changes whenever any simulator code changes.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def result_key(
    experiment_id: str,
    params: Dict[str, Any],
    fingerprint: Optional[str] = None,
    spec_hash: Optional[str] = None,
    fault_hash: Optional[str] = None,
    trace_hash: Optional[str] = None,
) -> str:
    """Stable hash of (experiment id, parameters, spec hash, code fingerprint).

    *fingerprint* defaults to :func:`code_fingerprint`; tests inject
    synthetic values to exercise invalidation without editing sources.
    *spec_hash* is the canonical hash of the experiment's declared
    scenario specs (:func:`repro.spec.spec_hash`): editing one
    experiment's scenario parameters changes only that experiment's
    keys.  *fault_hash* is the canonical hash of an injected fault
    schedule (:func:`repro.faults.fault_schedule_hash`): a faulted run
    produces different results, so it must never share a key with the
    clean run.  *trace_hash* is the content digest of any recorded
    environment traces the scenario replays
    (:func:`repro.spec.scenario_trace_hash`): a spec that pins a trace
    *file* hashes the same whatever path it lives at, replays of
    identical content hit, and re-recording the file's bytes misses.
    All three are omitted from the payload when ``None`` so unaffected
    experiments keep their existing keys byte for byte.
    """
    body: Dict[str, Any] = {
        "version": CACHE_FORMAT_VERSION,
        "experiment": experiment_id,
        "params": params,
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    if spec_hash is not None:
        body["spec"] = spec_hash
    if fault_hash is not None:
        body["faults"] = fault_hash
    if trace_hash is not None:
        body["trace"] = trace_hash
    payload = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _decode(body: bytes, digest: bytes) -> Tuple[bool, Any]:
    """``(True, payload)`` if *body* matches *digest* and unpickles."""
    if hashlib.sha256(body).digest() != digest:
        return False, None
    try:
        return True, pickle.loads(body)
    except Exception:
        # Checksum passed but the pickle no longer decodes (e.g. classes
        # renamed since the entry was written).
        return False, None


def _parse_pack(raw: bytes) -> Optional[_PackIndex]:
    """The index of pack bytes *raw*, or ``None`` if any check fails.

    Every byte is covered: the magic is compared, the index by its
    digest, each body by its entry digest, and the bodies must tile the
    rest of the file exactly, so a truncated, padded, shifted or
    bit-flipped pack never yields an index.
    """
    if len(raw) < _PACK_HEADER.size:
        return None
    magic, digest, index_length = _PACK_HEADER.unpack_from(raw)
    base = _PACK_HEADER.size + index_length
    index_bytes = raw[_PACK_HEADER.size : base]
    if magic != PACK_MAGIC or hashlib.sha256(index_bytes).digest() != digest:
        return None
    index: _PackIndex = {}
    end = base
    try:
        for key, offset, length, entry_hex in json.loads(index_bytes):
            entry_digest = bytes.fromhex(entry_hex)
            if base + offset != end or (
                hashlib.sha256(raw[end : end + length]).digest() != entry_digest
            ):
                return None
            index[str(key)] = (end, length, entry_digest)
            end += length
    except (TypeError, ValueError):
        return None
    return index if end == len(raw) else None


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries whose on-disk payload failed to unpickle (each also
    #: counts as a miss).
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


@dataclass
class ResultCache:
    """Pickle-on-disk key/value store for experiment payloads.

    Payloads must be picklable; the experiment layer stores
    (captured stdout, headline values) tuples.  Writes are atomic
    (temp file + rename) so a crashed run never leaves a truncated
    entry behind.
    """

    root: Path = field(default_factory=default_cache_dir)
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional telemetry sink; corrupt payloads bump the
    #: ``cache.corrupt_entries`` counter on it.
    telemetry: Optional[Any] = None
    #: Verified pack indexes by pack file name; each packed key's
    #: ``(pack name, offset, length, digest)``; and the ``packs/`` mtime
    #: both were read at.
    _packs: Dict[str, _PackIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _packed: Dict[str, Tuple[str, int, int, bytes]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _packs_mtime: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    @property
    def _pack_root(self) -> Path:
        return self.root / PACK_DIR

    def get(self, key: str) -> Optional[Any]:
        """The stored payload, or ``None`` on miss/corruption.

        The ``<key>.pkl`` file is read first; without one, the key is
        looked up in the packs.  A present-but-unreadable entry is
        treated as a miss: it is counted, reported via the
        ``cache.corrupt_entries`` telemetry counter, and removed so the
        re-computed result can replace it — for a pack, the whole pack
        goes.  "Unreadable" is decided by checksums, not by whether
        pickle happens to raise: a truncated write, a flipped bit, a
        wrong-magic or pre-v3 entry all fail a digest check before any
        byte is deserialised, so corruption can never surface as a
        wrong hit.
        """
        if not self.enabled:
            self.stats.misses += 1
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return self._get_packed(key)
        header_len = len(CACHE_MAGIC) + _DIGEST_SIZE
        intact, payload = (
            _decode(raw[header_len:], raw[len(CACHE_MAGIC) : header_len])
            if raw.startswith(CACHE_MAGIC) and len(raw) >= header_len
            else (False, None)
        )
        if not intact:
            self.stats.misses += 1
            self._quarantine(path)
            return None
        self.stats.hits += 1
        return payload

    def _get_packed(self, key: str) -> Optional[Any]:
        """The payload a pack holds under *key*, or ``None``."""
        self._refresh_packs()
        entry = self._packed.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        name, offset, length, digest = entry
        path = self._pack_root / name
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                body = handle.read(length)
        except OSError:
            # Removed since the scan; the next refresh forgets it.
            self.stats.misses += 1
            return None
        intact, payload = _decode(body, digest)
        if not intact:
            # Unlinking the pack changes ``packs/``, so the next lookup
            # re-reads the directory and forgets it.
            self.stats.misses += 1
            self._quarantine(path)
            return None
        self.stats.hits += 1
        return payload

    def _refresh_packs(self) -> None:
        """Re-read the pack directory if it changed since the last look.

        Packs are immutable and named by content, so an index already
        verified is kept; only new packs are read, and each one is
        checked end to end before any of its keys can be served.  A pack
        failing a check is quarantined.
        """
        try:
            mtime: Optional[int] = self._pack_root.stat().st_mtime_ns
        except OSError:
            mtime = None
        if mtime == self._packs_mtime:
            return
        self._packs_mtime = mtime
        packs: Dict[str, _PackIndex] = {}
        for path in sorted(self._pack_root.glob("*.pack")):
            index = self._packs.get(path.name)
            if index is None:
                try:
                    index = _parse_pack(path.read_bytes())
                except OSError:
                    continue
                if index is None:
                    self._quarantine(path)
                    continue
            packs[path.name] = index
        self._packs = packs
        self._packed = {
            key: (name, *entry)
            for name, index in packs.items()
            for key, entry in index.items()
        }

    def _quarantine(self, path: Path) -> None:
        """Count, report and remove one corrupt entry file or pack."""
        self.stats.corrupt += 1
        from repro.observability.telemetry import resolve_telemetry

        telemetry = resolve_telemetry(self.telemetry)
        if telemetry.enabled:
            telemetry.inc("cache.corrupt_entries")
        try:
            path.unlink()
        except OSError:
            pass

    def _publish(self, path: Path, chunks: Sequence[bytes]) -> None:
        """Write *chunks* to *path* atomically, per writer.

        Each call stages into its own unique temp file before the
        rename.  A shared temp name (the old ``<key>.tmp``) let two
        concurrent writers of the same entry race — one could rename the
        file the other was still filling, publishing a truncated entry.
        With a unique temp per writer the rename always publishes a fully
        written file (last writer wins, both contents being identical by
        construction), and a worker killed mid-write leaves only an
        orphan temp, never a partial entry.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            prefix=f"{path.stem}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                for chunk in chunks:
                    tmp.write(chunk)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def put(self, key: str, payload: Any) -> None:
        """Store *payload* under *key* as one ``<key>.pkl`` file (no-op
        when disabled)."""
        if not self.enabled:
            return
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._publish(
            self._path(key), (CACHE_MAGIC, hashlib.sha256(body).digest(), body)
        )
        self.stats.stores += 1

    def put_many(self, items: Iterable[Tuple[str, Any]]) -> None:
        """Store every ``(key, payload)`` of *items* as one pack.

        One file and one rename for the lot, where :meth:`put` pays a
        temp file and a rename per entry; a campaign shard publishes its
        payloads this way the moment it completes.  No-op when disabled
        or when *items* is empty; a repeated key keeps its last payload.
        """
        if not self.enabled:
            return
        bodies = {
            key: pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            for key, payload in items
        }
        if not bodies:
            return
        keys = sorted(bodies)
        entries = []
        offset = 0
        for key in keys:
            body = bodies[key]
            entries.append(
                [key, offset, len(body), hashlib.sha256(body).hexdigest()]
            )
            offset += len(body)
        index = json.dumps(entries, separators=(",", ":")).encode()
        digest = hashlib.sha256(index).digest()
        self._publish(
            self._pack_root / f"{digest.hex()}.pack",
            (
                _PACK_HEADER.pack(PACK_MAGIC, digest, len(index)),
                index,
                *(bodies[key] for key in keys),
            ),
        )
        self.stats.stores += len(bodies)

    def clear(self) -> int:
        """Delete every cache entry, in both layouts; returns how many
        entries were removed."""
        removed = len(self)
        for path in (*self.root.glob("*.pkl"), *self._pack_root.glob("*.pack")):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletes
                pass
        return removed

    def __len__(self) -> int:
        """Distinct keys stored, in ``<key>.pkl`` files and in packs."""
        if not self.root.is_dir():
            return 0
        self._refresh_packs()
        files = {path.stem for path in self.root.glob("*.pkl")}
        return len(files | self._packed.keys())
