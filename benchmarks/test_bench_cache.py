"""Result-cache cost gates: a lookup batch and a write cost what they touch.

A campaign looks up every job's key before it runs anything, and the
job service writes one pack per fresh job, so the cache must not charge
per-job or per-pack work the batch does not need:

* ``test_cold_batch_lookup_is_cheaper_than_per_key_lookups``: a cold
  4,096-key :meth:`ResultCache.get_many` (one look at ``packs/``, then
  one dict probe per key) must be at least ``BATCH_MIN`` times cheaper
  than the same keys through ``get`` one at a time, which looks at
  ``packs/`` once per key.  A ratio on one host, not a wall-clock bound.
* ``test_put_indexes_only_its_own_pack``: a ``put`` into a cache of
  3,000 one-entry packs adds exactly its own entries to the existing
  key index object and reads no other pack.  Structural, so it holds on
  any host.
"""

from __future__ import annotations

import time

import repro.experiments.cache as cache_mod
from repro.experiments.cache import ResultCache

LOOKUP_KEYS = 4096
PACKS = 3000
#: How many times cheaper the batch must be (~50x measured on a dev box).
BATCH_MIN = 5


def _key(index: int) -> str:
    return f"{index:064x}"


def _best(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_cold_batch_lookup_is_cheaper_than_per_key_lookups(tmp_path):
    writer = ResultCache(root=tmp_path)
    writer.put_many((_key(i), {"summary": str(i)}) for i in range(4))
    reader = ResultCache(root=tmp_path)
    keys = [_key(LOOKUP_KEYS + i) for i in range(LOOKUP_KEYS)]
    assert reader.get_many(keys) == [None] * LOOKUP_KEYS  # indexes packs/

    batch = _best(lambda: reader.get_many(keys))
    per_key = _best(lambda: [reader.get(key) for key in keys])
    ratio = per_key / batch
    print(
        f"\ncold lookups of {LOOKUP_KEYS} keys: get_many {batch * 1e3:.2f} ms, "
        f"per-key get {per_key * 1e3:.2f} ms ({ratio:.1f}x)"
    )
    assert ratio >= BATCH_MIN, (
        f"batch lookup only {ratio:.1f}x cheaper (need {BATCH_MIN}x)"
    )


def test_put_indexes_only_its_own_pack(tmp_path, monkeypatch):
    cache = ResultCache(root=tmp_path)
    for index in range(PACKS):
        cache.put(_key(index), ("stdout", index))
    reader = ResultCache(root=tmp_path)
    assert len(reader) == PACKS
    index_object = reader._packed
    before = dict(index_object)

    parsed = []
    real_parse = cache_mod._parse_pack

    def spy(raw):
        parsed.append(len(raw))
        return real_parse(raw)

    monkeypatch.setattr(cache_mod, "_parse_pack", spy)
    started = time.perf_counter()
    reader.put(_key(PACKS), ("stdout", "new"))
    seconds = time.perf_counter() - started
    print(f"\nput into {PACKS} one-entry packs: {seconds * 1e3:.2f} ms")

    assert parsed == []
    assert reader._packed is index_object
    added = {key: entry for key, entry in index_object.items() if key not in before}
    assert list(added) == [_key(PACKS)]
    assert {key: index_object[key] for key in before} == before
    assert reader.get(_key(PACKS)) == ("stdout", "new")
