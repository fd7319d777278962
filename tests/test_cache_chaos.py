"""Cache corruption soak: every mangled entry is a quarantined miss.

The on-disk format (packs: magic + SHA-256 checksums over the index and
every pickle body) must turn *any* byte-level damage — truncation, bit
flips, garbage prepends, even a zeroed file — into a counted, removed,
recomputable miss.  The two failure modes this guards against:

* an exception escaping ``get`` (corruption crashing a suite run);
* a *wrong hit* — pickle often deserialises flipped bytes "successfully"
  into different data, which without the checksum would silently replace
  an experiment's results.
"""

import collections
import hashlib
import pickle
import random
from pathlib import Path

import pytest

from repro.experiments.cache import PACK_DIR, PACK_MAGIC, ResultCache


def _payload(tag):
    return (f"experiment output {tag}\n", {"metrics": {}, "events": [], "dropped": 0})


def _entry_path(cache, key):
    """The one-entry pack ``put`` published for *key*."""
    (path,) = (
        path
        for path in (cache.root / PACK_DIR).glob("*.pack")
        if key.encode() in path.read_bytes()
    )
    return path


def _corrupt(raw, rng):
    """One random corruption: truncate, bit-flip, prepend, or zero."""
    mode = rng.randrange(4)
    if mode == 0 and len(raw) > 1:  # truncate anywhere, including mid-header
        return raw[: rng.randrange(len(raw))]
    if mode == 1:  # flip a single bit anywhere
        index = rng.randrange(len(raw))
        flipped = raw[index] ^ (1 << rng.randrange(8))
        return raw[:index] + bytes([flipped]) + raw[index + 1 :]
    if mode == 2:  # shift the whole entry (magic survives a prefix check)
        return raw[:4] + b"\x00" + raw[4:]
    return b"\x00" * len(raw)  # zeroed file


@pytest.mark.parametrize("trial_seed", range(5))
def test_soak_random_corruption_is_always_a_quarantined_miss(
    tmp_cache, fault_seed, trial_seed
):
    rng = random.Random(fault_seed * 1000 + trial_seed)
    for round_index in range(40):
        key = f"{'0' * 60}{round_index:04d}"
        tmp_cache.put(key, _payload(round_index))
        path = _entry_path(tmp_cache, key)
        raw = path.read_bytes()
        path.write_bytes(_corrupt(raw, rng))

        corrupt_before = tmp_cache.stats.corrupt
        # The writer indexed the pack as it published it, and still
        # checks the body it reads: the exact payload or a miss.
        assert tmp_cache.get(key) in (_payload(round_index), None)
        fresh = ResultCache(root=tmp_cache.root)
        result = fresh.get(key)  # must not raise

        # Never a wrong hit: either a clean payload (impossible after
        # corruption) or None — and None must be the *quarantined* kind.
        assert result is None
        assert tmp_cache.stats.corrupt - corrupt_before + fresh.stats.corrupt == 1
        assert not path.exists(), "corrupt entry must be removed"

        # The slot is immediately reusable.
        tmp_cache.put(key, _payload(round_index))
        assert tmp_cache.get(key) == _payload(round_index)


def test_intact_entries_round_trip(tmp_cache):
    tmp_cache.put("a" * 64, _payload("x"))
    assert tmp_cache.get("a" * 64) == _payload("x")
    assert tmp_cache.stats.corrupt == 0


def test_entries_carry_magic_and_checksum(tmp_cache):
    tmp_cache.put("b" * 64, _payload("y"))
    path = _entry_path(tmp_cache, "b" * 64)
    raw = path.read_bytes()
    assert raw.startswith(PACK_MAGIC)
    assert len(raw) > len(PACK_MAGIC) + 32
    # Content-named: the header's index digest is the file name.
    assert raw[len(PACK_MAGIC) : len(PACK_MAGIC) + 32].hex() == path.stem
    assert not list(tmp_cache.root.glob("*.pkl"))


def test_leftover_pkl_entry_is_never_read(tmp_cache):
    """A ``<key>.pkl`` file of the old per-key layout, framed or not, is
    not an entry: ``get`` misses without reading or quarantining it,
    ``len`` does not count it, and ``clear`` removes it."""
    body = pickle.dumps(_payload("legacy"))
    tmp_cache.root.mkdir(parents=True, exist_ok=True)
    leftovers = {
        "c" * 64: body,
        "d" * 64: b"RPC3" + hashlib.sha256(body).digest() + body,
    }
    for key, raw in leftovers.items():
        (tmp_cache.root / f"{key}.pkl").write_bytes(raw)
    assert [tmp_cache.get(key) for key in leftovers] == [None, None]
    assert tmp_cache.stats.corrupt == 0
    assert len(tmp_cache) == 0
    assert all((tmp_cache.root / f"{key}.pkl").exists() for key in leftovers)
    assert tmp_cache.clear() == 0
    assert not list(tmp_cache.root.glob("*.pkl"))


# ---------------------------------------------------------------------------
# Write atomicity: each put stages into its own unique temp file, so
# concurrent same-key writers can never publish a truncated entry (the
# old shared `<key>.tmp` name let one writer rename the half-written
# file of another) and a writer killed mid-write never leaves damage.
# ---------------------------------------------------------------------------


def test_concurrent_same_key_writers_never_publish_a_torn_entry(tmp_cache):
    import threading

    key = "e" * 64
    payload = _payload("big " * 4096)  # large body widens the race window
    stop = threading.Event()
    errors = []

    def writer():
        try:
            while not stop.is_set():
                tmp_cache.put(key, payload)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        # Read continuously while four writers hammer the same slot.
        for _ in range(300):
            result = tmp_cache.get(key)
            assert result is None or result == _payload("big " * 4096)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors
    assert tmp_cache.stats.corrupt == 0
    assert tmp_cache.get(key) == payload


def test_each_writer_stages_into_a_unique_temp(tmp_cache, monkeypatch):
    """Two interleaved writers must never share a staging path — the
    exact regression that produced torn entries under the pool."""
    import repro.experiments.cache as cache_mod

    staged = []
    real_mkstemp = cache_mod.tempfile.mkstemp

    def spy(*args, **kwargs):
        handle, name = real_mkstemp(*args, **kwargs)
        staged.append(name)
        return handle, name

    monkeypatch.setattr(cache_mod.tempfile, "mkstemp", spy)
    key = "f" * 64
    tmp_cache.put(key, _payload("one"))
    tmp_cache.put(key, _payload("two"))
    assert len(staged) == 2 and staged[0] != staged[1]
    assert tmp_cache.get(key) == _payload("two")


def test_failed_publish_cleans_its_temp_and_keeps_the_old_entry(
    tmp_cache, monkeypatch
):
    import os as os_mod

    import repro.experiments.cache as cache_mod

    key = "a1" * 32
    tmp_cache.put(key, _payload("original"))

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache_mod.os, "replace", boom)
    with pytest.raises(OSError, match="disk full"):
        tmp_cache.put(key, _payload("replacement"))
    monkeypatch.setattr(cache_mod.os, "replace", os_mod.replace)

    # The old entry is untouched and no staging litter remains.
    assert tmp_cache.get(key) == _payload("original")
    assert not list(tmp_cache.root.glob("*.tmp"))


def test_successful_puts_leave_no_temp_litter(tmp_cache):
    for index in range(8):
        tmp_cache.put(f"{'9' * 60}{index:04d}", _payload(index))
    assert not list(tmp_cache.root.glob("*.tmp"))


def test_corruption_reports_telemetry(tmp_cache):
    from repro.observability.telemetry import Telemetry

    telemetry = Telemetry()
    key = "d" * 64
    tmp_cache.put(key, _payload("z"))
    path = _entry_path(tmp_cache, key)
    path.write_bytes(b"\xff" + path.read_bytes()[1:])
    reader = ResultCache(root=tmp_cache.root, telemetry=telemetry)
    assert reader.get(key) is None
    snapshot = telemetry.snapshot()["metrics"]
    assert snapshot["cache.corrupt_entries"]["value"] == 1.0


# ---------------------------------------------------------------------------
# Packs: one checksummed file per campaign shard (``put_many``).  Any
# damage quarantines the whole pack, so every key in it becomes a miss.
# ---------------------------------------------------------------------------


def _pack_items(tag, count=6):
    return [
        (f"{tag:0>60}{index:04d}", _payload(f"{tag}/{index}"))
        for index in range(count)
    ]


def _only_pack(cache):
    (path,) = (cache.root / PACK_DIR).glob("*.pack")
    return path


def _shadowed_pack(cache):
    """Publish a pack of keys 1-5, then one of keys 0-5 with the same
    payloads: the second serves every key, the first shadows keys 1-5.
    Returns the items and the second pack's path."""
    items = _pack_items("s")
    cache.put_many(items[1:])
    cache.put_many(items)
    name = cache._packed[items[0][0]][0]
    return items, cache.root / PACK_DIR / name


def test_batch_after_a_quarantine_falls_back_to_a_shadowed_pack(tmp_cache):
    """A lookup batch that quarantines a pack serves that pack's other
    keys from any intact pack holding them, as one lookup per key does."""
    items, path = _shadowed_pack(tmp_cache)
    _, offset, _, _ = tmp_cache._packed[items[0][0]]
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))
    keys = [key for key, _ in items]
    assert tmp_cache.get_many(keys) == [None, *(value for _, value in items[1:])]
    assert not path.exists()
    assert (tmp_cache.stats.hits, tmp_cache.stats.misses) == (5, 1)
    assert tmp_cache.stats.corrupt == 1


def test_batch_forgets_a_pack_removed_behind_an_unchanged_mtime(tmp_cache):
    """A pack removed after the batch's look (here, behind a directory
    mtime that did not move) is a miss once, then forgotten: the rest of
    the batch reads the intact pack that also holds its keys."""
    import os

    items, path = _shadowed_pack(tmp_cache)
    assert tmp_cache.get("0" * 64) is None  # the look that indexed both
    pack_root = tmp_cache.root / PACK_DIR
    mtime = pack_root.stat().st_mtime_ns
    path.unlink()
    os.utime(pack_root, ns=(mtime, mtime))
    keys = [key for key, _ in items]
    assert tmp_cache.get_many(keys) == [None, *(value for _, value in items[1:])]
    assert tmp_cache.stats.corrupt == 0


def test_an_unreadable_entry_costs_one_miss_and_keeps_its_pack(
    tmp_cache, monkeypatch
):
    """An ``open`` that fails for a reason other than a missing file (here
    a ``PermissionError`` on one lookup) is one miss: the pack stays
    indexed and on disk, and its other keys still hit."""
    items = _pack_items("p")
    tmp_cache.put_many(items)
    keys = [key for key, _ in items]
    (pack,) = (tmp_cache.root / PACK_DIR).glob("*.pack")
    real_open = Path.open
    failures = []

    def open_once(self, *args, **kwargs):
        if self == pack and not failures:
            failures.append(self)
            raise PermissionError(13, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_once)
    assert tmp_cache.get_many(keys) == [None, *(value for _, value in items[1:])]
    assert failures == [pack] and pack.exists()
    assert tmp_cache.get(keys[0]) == items[0][1]
    assert (tmp_cache.stats.hits, tmp_cache.stats.misses) == (len(items), 1)
    assert tmp_cache.stats.corrupt == 0


@pytest.mark.parametrize("trial_seed", range(5))
def test_soak_damaged_pack_quarantines_every_key(
    tmp_cache, fault_seed, trial_seed
):
    rng = random.Random(fault_seed * 1000 + 500 + trial_seed)
    for round_index in range(20):
        items = _pack_items(round_index)
        tmp_cache.put_many(items)
        warm = ResultCache(root=tmp_cache.root)
        assert warm.get(items[0][0]) == items[0][1]  # indexes the pack
        path = _only_pack(tmp_cache)
        path.write_bytes(_corrupt(path.read_bytes(), rng))

        # A reader that indexed the pack before the damage still checks
        # every entry it reads: the exact payload or a miss, nothing else
        # (a damaged entry quarantines the pack on the spot).
        for key, payload in items:
            assert warm.get(key) in (payload, None)

        fresh = ResultCache(root=tmp_cache.root)
        assert [fresh.get(key) for key, _ in items] == [None] * len(items)
        assert warm.stats.corrupt + fresh.stats.corrupt == 1
        assert fresh.stats.misses == len(items)
        assert not path.exists(), "a damaged pack must be removed"

        # Recomputed results republish a readable pack.
        tmp_cache.put_many(items)
        reread = ResultCache(root=tmp_cache.root)
        assert [reread.get(key) for key, _ in items] == [p for _, p in items]
        assert reread.stats.corrupt == 0
        _only_pack(tmp_cache).unlink()


def test_padded_pack_is_quarantined_and_reported(tmp_cache):
    from repro.observability.telemetry import Telemetry

    items = _pack_items("t")
    tmp_cache.put_many(items)
    path = _only_pack(tmp_cache)
    path.write_bytes(path.read_bytes() + b"\x00")  # intact entries, padded
    telemetry = Telemetry()
    reader = ResultCache(root=tmp_cache.root, telemetry=telemetry)
    assert [reader.get(key) for key, _ in items] == [None] * len(items)
    snapshot = telemetry.snapshot()["metrics"]
    assert snapshot["cache.corrupt_entries"]["value"] == 1.0


def test_pack_layout_is_content_named_and_deterministic(tmp_cache, tmp_path):
    items = _pack_items("d")
    tmp_cache.put_many(items)
    other = ResultCache(root=tmp_path / "other")
    other.put_many(reversed(items))
    path = _only_pack(tmp_cache)
    assert path.read_bytes().startswith(PACK_MAGIC)
    assert path.name == _only_pack(other).name
    assert path.read_bytes() == _only_pack(other).read_bytes()
    assert tmp_cache.stats.stores == len(items)
    assert not list(tmp_cache.root.rglob("*.tmp"))
    assert not list(tmp_cache.root.glob("*.pkl"))


@pytest.mark.parametrize("over", ["put-over-put", "put-over-pack", "pack-over-pack"])
def test_newest_write_of_a_key_wins(tmp_cache, over):
    """Rewriting a key serves the newest payload to the writer and to a
    fresh reader alike, whatever the pack names' order: the write
    removes every pack that held the key under another payload, so that
    pack's other keys miss.  Twenty rounds of fresh payloads (fresh pack
    names) leave no room for name-order luck."""
    six = [key for key, _ in _pack_items("n")]
    key = six[0]
    for round_index in range(20):
        old, new = _payload(f"old {round_index}"), _payload(f"new {round_index}")
        if over == "put-over-put":
            tmp_cache.put(key, old)
        else:
            tmp_cache.put_many((k, old) for k in six)
        if over == "pack-over-pack":
            tmp_cache.put_many([(key, new), *_pack_items(f"o{round_index}", 2)])
        else:
            tmp_cache.put(key, new)
        fresh = ResultCache(root=tmp_cache.root)
        for reader in (tmp_cache, fresh):
            assert reader.get(key) == new
        if over != "put-over-put":
            assert [fresh.get(k) for k in six[1:]] == [None] * 5
        assert fresh.stats.corrupt == 0
    if over != "pack-over-pack":
        assert len(list((tmp_cache.root / PACK_DIR).glob("*.pack"))) == 1


def test_clear_and_len_count_distinct_keys(tmp_cache):
    assert len(tmp_cache) == 0
    tmp_cache.put_many(_pack_items("a", count=3))
    tmp_cache.put_many(_pack_items("b", count=2))
    tmp_cache.put("f" * 64, _payload("file"))
    # The same payload again: an identical pack, nothing superseded.
    tmp_cache.put(_pack_items("a")[0][0], _pack_items("a")[0][1])
    assert len(tmp_cache) == 6
    assert ResultCache(root=tmp_cache.root).clear() == 6
    assert len(tmp_cache) == 0
    assert tmp_cache.get(_pack_items("b")[0][0]) is None
    assert not list(tmp_cache.root.rglob("*.p*k*"))


def test_str_root_works_like_a_path(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    assert cache.root == tmp_path / "cache"
    cache.put("s" * 64, _payload("str"))
    assert cache.get("s" * 64) == _payload("str")
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


def test_cold_miss_on_unchanged_packs_stats_once_and_opens_nothing(
    tmp_cache, monkeypatch
):
    import os

    import repro.experiments.cache as cache_mod

    tmp_cache.put_many(_pack_items("m"))
    reader = ResultCache(root=tmp_cache.root)
    assert reader.get("0" * 64) is None  # the first look indexes packs/
    calls = collections.Counter()

    def counting(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return spy

    for name in ("open", "read_bytes", "stat"):
        monkeypatch.setattr(Path, name, counting(name, getattr(Path, name)))
    monkeypatch.setattr(cache_mod.os, "listdir", counting("listdir", os.listdir))
    for index in range(20):
        assert reader.get(f"{index:064d}") is None
    assert calls == {"stat": 20}
    assert reader.stats.as_dict() == {
        "hits": 0, "misses": 21, "stores": 0, "corrupt": 0,
    }


def test_pack_index_rereads_only_when_packs_change(tmp_cache, monkeypatch):
    """A reader parses each pack once, only after ``packs/`` changes;
    a writer indexes its own packs without reading them back."""
    import repro.experiments.cache as cache_mod

    read = []
    real_parse = cache_mod._parse_pack

    def spy(raw):
        read.append(len(raw))
        return real_parse(raw)

    monkeypatch.setattr(cache_mod, "_parse_pack", spy)
    first, second = _pack_items("x"), _pack_items("y")
    tmp_cache.put_many(first)
    assert tmp_cache.get(first[0][0]) == first[0][1]
    assert read == []

    reader = ResultCache(root=tmp_cache.root)
    assert reader.get(first[0][0]) == first[0][1]
    assert reader.get("e" * 64) is None
    assert reader.get(first[1][0]) == first[1][1]
    assert len(read) == 1

    tmp_cache.put("f" * 64, _payload("file"))
    tmp_cache.put_many(second)
    assert len(read) == 1  # nor any other writer's pack
    assert reader.get(second[0][0]) == second[0][1]
    assert reader.get("f" * 64) == _payload("file")
    assert reader.get(first[2][0]) == first[2][1]
    assert len(read) == 3
