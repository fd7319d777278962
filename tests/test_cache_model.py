"""Model test of the result cache's pack index (hypothesis, stateful).

Two :class:`ResultCache` instances share one root while random steps
write, supersede, damage, remove and clear packs under them.  After
every step, for each instance:

* its key index, grown pack by pack, equals a from-scratch rebuild over
  the packs it holds, in the order it first saw them;
* once it has listed ``packs/``, it holds exactly the packs on disk,
  each indexed as parsing the file yields (unless the file was damaged
  after it was indexed);
* a batch lookup (``get_many``) and one ``get`` per key, from identical
  copies of the instance over identical copies of the directory, return
  the same values and count the same hits, misses and corrupt packs;
* every hit is the newest payload written under its key.
"""

from __future__ import annotations

import copy
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.experiments.cache import PACK_DIR, ResultCache, _parse_pack

KEYS = [f"{index:064x}" for index in range(6)]


def _payload(key: str, version: int):
    return {"summary": f"{key[-2:]} v{version}\n", "values": list(range(version))}


def _rebuild(cache: ResultCache):
    return {
        key: (name, *entry)
        for name, index in cache._packs.items()
        for key, entry in index.items()
    }


class PackIndexMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="cache-model-"))
        self.root = self.tmp / "cache"
        self.caches = [ResultCache(root=self.root), ResultCache(root=self.root)]
        #: The newest payload written under each key.
        self.newest = {}
        self.versions = 0
        #: Packs damaged on disk after they were written.
        self.damaged = set()
        self.copies = 0

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _packs_on_disk(self):
        pack_root = self.root / PACK_DIR
        if not pack_root.is_dir():
            return []
        return sorted(path.name for path in pack_root.iterdir() if path.suffix == ".pack")

    def _write(self, cache: ResultCache, keys, rewrite: bool) -> None:
        items = []
        for key in keys:
            if rewrite or key not in self.newest:
                self.versions += 1
                self.newest[key] = _payload(key, self.versions)
            items.append((key, self.newest[key]))
        cache.put_many(items)

    # -- steps ----------------------------------------------------------

    @rule(
        writer=st.integers(0, 1),
        keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True),
        rewrite=st.booleans(),
    )
    def put_many(self, writer, keys, rewrite):
        """Publish a pack; with *rewrite*, under fresh payloads, so every
        pack holding one of its keys is superseded."""
        self._write(self.caches[writer], keys, rewrite)

    @rule(
        keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True),
        rewrite=st.booleans(),
    )
    def publish_foreign(self, keys, rewrite):
        """A writer neither instance knows publishes between looks."""
        self._write(ResultCache(root=self.root), keys, rewrite)

    @precondition(lambda self: self._packs_on_disk())
    @rule(pick=st.integers(0, 10**6), at=st.integers(0, 10**6), bit=st.integers(0, 7))
    def corrupt_pack(self, pick, at, bit):
        names = self._packs_on_disk()
        name = names[pick % len(names)]
        path = self.root / PACK_DIR / name
        raw = bytearray(path.read_bytes())
        raw[at % len(raw)] ^= 1 << bit
        path.write_bytes(bytes(raw))
        self.damaged.add(name)

    @precondition(lambda self: self._packs_on_disk())
    @rule(pick=st.integers(0, 10**6))
    def remove_stale_pack(self, pick):
        """Another writer removes a pack it superseded."""
        names = self._packs_on_disk()
        (self.root / PACK_DIR / names[pick % len(names)]).unlink()

    @rule(which=st.integers(0, 1))
    def clear(self, which):
        self.caches[which].clear()

    # -- checks ---------------------------------------------------------

    def _twin(self, cache: ResultCache) -> ResultCache:
        """A copy of *cache* over a copy of its directory: the copy
        keeps the ``packs/`` mtime, so the twin looks as *cache* would."""
        self.copies += 1
        root = self.tmp / f"copy-{self.copies}"
        if self.root.exists():
            shutil.copytree(self.root, root)
        twin = copy.deepcopy(cache)
        twin.root = root
        return twin

    @invariant()
    def batch_lookup_equals_per_key_lookups(self):
        for cache in self.caches:
            batch, single = self._twin(cache), self._twin(cache)
            values = batch.get_many(KEYS)
            assert values == [single.get(key) for key in KEYS]
            assert batch.stats == single.stats
            for key, value in zip(KEYS, values):
                assert value is None or value == self.newest[key]

    @invariant()
    def index_equals_a_rebuild(self):
        on_disk = self._packs_on_disk()
        for cache in self.caches:
            assert cache._packed == _rebuild(cache)
            cache._refresh_packs(force=True)
            assert cache._packed == _rebuild(cache)
            assert sorted(cache._packs) == self._packs_on_disk()
            for name in on_disk:
                if name in self.damaged or name not in cache._packs:
                    continue
                raw = (self.root / PACK_DIR / name).read_bytes()
                assert cache._packs[name] == _parse_pack(raw)


PackIndexMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None
)
TestPackIndex = PackIndexMachine.TestCase
