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

On disk every entry lives in a **pack** under ``packs/``: a campaign
shard publishes all its payloads at once (:meth:`ResultCache.put_many`),
and a single-job writer (the service, ``run_all``, scalar stragglers)
publishes a one-entry pack (:meth:`ResultCache.put`).  The newest write
of a key wins: publishing a pack removes every other pack that holds
one of its keys under a different payload.

The cache directory defaults to ``.repro-cache`` under the current
working directory and can be pointed elsewhere with the
``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import struct
import tempfile
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"
#: Bump to invalidate every existing cache entry on format changes.
#: v2: payloads became (stdout, telemetry snapshot | None) tuples.
#: v3: on-disk entries gained SHA-256 checksums so any byte-level
#: corruption is a detected (quarantined) miss, never a wrong hit.
CACHE_FORMAT_VERSION = 3

#: Subdirectory holding packs; a reader's pack index goes stale only
#: when a pack is published or removed.
PACK_DIR = "packs"
#: Pack layout: PACK_MAGIC, the SHA-256 of the index, the index length
#: (8-byte big-endian), the index, then the entry bodies back to back.
#: The index is the JSON list ``[[key, offset, length, sha256-hex],
#: ...]`` sorted by key, offsets counted from the first body; each body
#: is one pickled payload.  ``get`` recomputes an entry's digest before
#: unpickling it, so a flipped bit fails closed instead of deserialising
#: garbage (pickle happily "succeeds" on many corruptions).  A pack is
#: named by its index digest, which covers every body through the entry
#: digests, so equal contents always publish equal files.
PACK_MAGIC = b"RPK1"
_PACK_HEADER = struct.Struct(f">{len(PACK_MAGIC)}s{hashlib.sha256().digest_size}sQ")
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
    prefix, suffix = _key_frame(
        experiment_id,
        fingerprint if fingerprint is not None else code_fingerprint(),
        spec_hash,
        fault_hash,
        trace_hash,
    )
    return hashlib.sha256(
        (prefix + _KEY_ENCODER.encode(params) + suffix).encode()
    ).hexdigest()


#: The encoder ``json.dumps(..., sort_keys=True, default=str)`` builds
#: per call, built once: keys encode *params* with it.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


@lru_cache(maxsize=4096)
def _key_frame(
    experiment_id: str,
    code: str,
    spec_hash: Optional[str],
    fault_hash: Optional[str],
    trace_hash: Optional[str],
) -> Tuple[str, str]:
    """The encoded key body around its ``params`` value.

    A key hashes ``json.dumps(body, sort_keys=True, default=str)`` of
    ``{"version", "experiment", "params", "code"}`` plus whichever of
    ``spec``/``faults``/``trace`` are set; only ``params`` varies from
    job to job, so the text before and after it is encoded once per
    frame.  The split is unambiguous: every other value is a string,
    whose encoding escapes its quotes.
    """
    body: Dict[str, Any] = {
        "version": CACHE_FORMAT_VERSION,
        "experiment": experiment_id,
        "params": None,
        "code": code,
    }
    if spec_hash is not None:
        body["spec"] = spec_hash
    if fault_hash is not None:
        body["faults"] = fault_hash
    if trace_hash is not None:
        body["trace"] = trace_hash
    prefix, _, suffix = _KEY_ENCODER.encode(body).partition('"params": null')
    return prefix + '"params": ', suffix


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


def atomic_publish(path: Path, chunks: Sequence[bytes]) -> None:
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
            tmp.writelines(chunks)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


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
        return asdict(self)


@dataclass
class ResultCache:
    """Pickle-on-disk key/value store for experiment payloads, in packs.

    Payloads must be picklable; the experiment layer stores
    (captured stdout, headline values) tuples.  Every write publishes
    one pack, staged in a temp file and renamed into place, so a crashed
    run never leaves a truncated entry behind.
    """

    root: Path = field(default_factory=default_cache_dir)
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional telemetry sink; corrupt payloads bump the
    #: ``cache.corrupt_entries`` counter on it.
    telemetry: Optional[Any] = None
    #: Verified pack indexes by pack file name, in the order first seen;
    #: each packed key's ``(pack name, offset, length, digest)``, from
    #: the last pack seen that holds it; and the ``packs/`` mtime both
    #: were read at.
    _packs: Dict[str, _PackIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _packed: Dict[str, Tuple[str, int, int, bytes]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _packs_mtime: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def _pack_root(self) -> Path:
        return self.root / PACK_DIR

    def get(self, key: str, *, refresh: bool = True) -> Optional[Any]:
        """The stored payload, or ``None`` on miss/corruption.

        A lookup first refreshes the pack index if ``packs/`` changed
        (one ``stat``; only packs not seen before are read), unless
        *refresh* is false: :meth:`get_many` looks at the directory once
        for its whole batch and then reads each key here, so every
        lookup, alone or in a batch, is one ``get``.  Then one dict
        probe, and for a hit one read of its entry and a check of its
        digest.  A present-but-unreadable entry is treated as a miss: it
        is counted, reported via the ``cache.corrupt_entries`` telemetry
        counter, and its whole pack is removed so the re-computed result
        can replace it.  "Unreadable" is decided by checksums, not by
        whether pickle happens to raise, so corruption can never surface
        as a wrong hit.  A pack quarantined or found gone leaves the
        index at once, so the rest of a batch reads the packs that are
        left; any other error opening or reading an entry costs only
        that lookup.
        """
        if not self.enabled:
            self.stats.misses += 1
            return None
        if refresh:
            self._refresh_packs()
        entry = self._packed.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        name, offset, length, digest = entry
        path = self._pack_root / name
        try:
            with path.open("rb") as handle:
                handle.seek(offset)
                body = handle.read(length)
        except FileNotFoundError:
            # Removed since the scan.
            self.stats.misses += 1
            self._forget(name)
            return None
        except OSError:
            self.stats.misses += 1
            return None
        try:
            if hashlib.sha256(body).digest() != digest:
                raise ValueError("entry digest mismatch")
            payload = pickle.loads(body)
        except Exception:
            # A failed digest, or a body that passed it but no longer
            # unpickles (e.g. classes renamed since it was written).
            self.stats.misses += 1
            self._quarantine(path)
            self._forget(name)
            return None
        self.stats.hits += 1
        return payload

    def get_many(self, keys: Iterable[str]) -> List[Optional[Any]]:
        """:meth:`get` of each key after one look at ``packs/``: a batch
        of cold misses on an unchanged directory costs one ``stat`` and
        opens nothing."""
        keys = list(keys)
        if self.enabled:
            self._refresh_packs()
        return [self.get(key, refresh=False) for key in keys]

    def _refresh_packs(self, force: bool = False) -> None:
        """Index the packs published since the last look, if ``packs/``
        changed (always list it, when *force* is set).

        Packs are immutable and named by content, so an index already
        verified is kept; only new packs are read, and each one is
        checked end to end before any of its keys can be served.  A pack
        failing a check is quarantined.  The key index grows by the new
        packs' entries and is rebuilt only when a pack it holds has
        disappeared.
        """
        try:
            mtime: Optional[int] = self._pack_root.stat().st_mtime_ns
        except OSError:
            mtime = None
        if mtime == self._packs_mtime and not force:
            return
        self._packs_mtime = mtime
        try:
            # ``os.listdir`` plus a suffix test: ``Path.glob`` costs about
            # ten times as much per entry.
            names = {
                name for name in os.listdir(self._pack_root) if name.endswith(".pack")
            }
        except OSError:
            names = set()
        if not names.issuperset(self._packs):
            self._packs = {
                name: index for name, index in self._packs.items() if name in names
            }
            self._reindex()
        # New packs in name order, so readers that first see the same
        # packs in one look index them alike.
        for name in sorted(names.difference(self._packs)):
            path = self._pack_root / name
            try:
                index = _parse_pack(path.read_bytes())
            except OSError:
                continue
            if index is None:
                self._quarantine(path)
                continue
            self._add_pack(name, index)

    def _add_pack(self, name: str, index: _PackIndex) -> None:
        """Index pack *name* after every pack already indexed: the last
        pack seen holding a key serves it."""
        self._packs[name] = index
        self._packed.update((key, (name, *entry)) for key, entry in index.items())

    def _reindex(self) -> None:
        """Rebuild the key index from ``_packs``, in first-seen order."""
        self._packed = {
            key: (name, *entry)
            for name, index in self._packs.items()
            for key, entry in index.items()
        }

    def _forget(self, name: str) -> None:
        """Drop pack *name*, which is gone or quarantined, from the index."""
        if self._packs.pop(name, None) is not None:
            self._reindex()

    def _quarantine(self, path: Path) -> None:
        """Count, report and remove one corrupt pack."""
        self.stats.corrupt += 1
        from repro.observability.telemetry import resolve_telemetry

        telemetry = resolve_telemetry(self.telemetry)
        if telemetry.enabled:
            telemetry.inc("cache.corrupt_entries")
        with contextlib.suppress(OSError):
            path.unlink()

    def put(self, key: str, payload: Any) -> None:
        """Store *payload* under *key* as a one-entry pack (no-op when
        disabled)."""
        self.put_many(((key, payload),))

    def put_many(self, items: Iterable[Tuple[str, Any]]) -> None:
        """Store every ``(key, payload)`` of *items* as one pack.

        One file and one rename for the lot; a campaign shard publishes
        its payloads this way the moment it completes.  No-op when
        disabled or when *items* is empty; a repeated key keeps its last
        payload.

        The newest write of a key wins: once the pack is published,
        every other pack that holds one of its keys under a different
        payload is removed, so its other keys become misses and
        recompute (fail-closed, never a wrong hit).
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
        digests = [hashlib.sha256(bodies[key]).digest() for key in keys]
        entries = []
        offset = 0
        for key, entry_digest in zip(keys, digests):
            length = len(bodies[key])
            entries.append([key, offset, length, entry_digest.hex()])
            offset += length
        index = json.dumps(entries, separators=(",", ":")).encode()
        digest = hashlib.sha256(index).digest()
        name = f"{digest.hex()}.pack"
        atomic_publish(
            self._pack_root / name,
            (
                _PACK_HEADER.pack(PACK_MAGIC, digest, len(index)),
                index,
                *(bodies[key] for key in keys),
            ),
        )
        self.stats.stores += len(bodies)
        # Index the new pack from what was just written instead of
        # reading it back, then list ``packs/`` for the packs it
        # supersedes.
        base = _PACK_HEADER.size + len(index)
        published = {
            key: (base + start, length, entry_digest)
            for (key, start, length, _), entry_digest in zip(entries, digests)
        }
        if name not in self._packs:
            self._add_pack(name, published)
        self._refresh_packs(force=True)
        keys_written = published.keys()
        stale = [
            other
            for other, held in self._packs.items()
            if other != name
            and not held.keys().isdisjoint(keys_written)
            and any(
                held[key][2] != published[key][2]
                for key in held.keys() & keys_written
            )
        ]
        for other in stale:
            (self._pack_root / other).unlink(missing_ok=True)
            del self._packs[other]
        if stale:
            self._reindex()

    def clear(self) -> int:
        """Delete every pack; returns how many keys were removed.

        Leftover ``<key>.pkl`` files of an older cache layout are
        unlinked too (never read), so ``--clear-cache`` empties it.
        """
        removed = len(self)
        packs = [self._pack_root / name for name in self._packs]
        for path in (*self.root.glob("*.pkl"), *packs):
            path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        """Distinct keys stored."""
        self._refresh_packs()
        return len(self._packed)
