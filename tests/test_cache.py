"""Unit tests for the cache models."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.core import (
    CacheLine,
    InfiniteCache,
    SetAssociativeCache,
    make_cache,
)
from repro.common.config import CacheConfig
from repro.common.errors import ConfigError


def small_cache(policy="lru"):
    # 4 lines, 2-way: two sets; even blocks map to set 0, odd to set 1.
    return SetAssociativeCache(
        CacheConfig(size_bytes=64, block_size=16, associativity=2, replacement=policy)
    )


class TestSetAssociativeCache:
    def test_insert_and_lookup(self):
        c = small_cache()
        assert c.insert(0, "S") is None
        line = c.lookup(0)
        assert line is not None and line.block == 0 and line.state == "S"
        assert c.lookup(2) is None
        assert 0 in c and 2 not in c

    def test_insert_existing_updates_state(self):
        c = small_cache()
        c.insert(0, "S")
        assert c.insert(0, "E", dirty=True) is None
        line = c.lookup(0)
        assert line.state == "E" and line.dirty

    def test_lru_eviction_order(self):
        c = small_cache()
        c.insert(0, "S")
        c.insert(2, "S")
        c.touch(0)  # 0 becomes most recent; victim should be 2
        victim = c.insert(4, "S")
        assert victim.block == 2
        assert c.lookup(0) is not None and c.lookup(4) is not None

    def test_fifo_ignores_touch(self):
        c = small_cache(policy="fifo")
        c.insert(0, "S")
        c.insert(2, "S")
        c.touch(0)
        victim = c.insert(4, "S")
        assert victim.block == 0  # oldest inserted, touch had no effect

    def test_random_uses_rng(self):
        cfg = CacheConfig(size_bytes=64, block_size=16, associativity=2,
                          replacement="random")
        c = SetAssociativeCache(cfg, random.Random(7))
        c.insert(0, "S")
        c.insert(2, "S")
        victim = c.insert(4, "S")
        assert victim.block in (0, 2)

    def test_sets_are_independent(self):
        c = small_cache()
        # Fill set 0 (even blocks); odd block must not evict from it.
        c.insert(0, "S")
        c.insert(2, "S")
        assert c.insert(1, "S") is None
        assert len(c) == 3

    def test_remove(self):
        c = small_cache()
        c.insert(0, "S")
        removed = c.remove(0)
        assert removed.block == 0
        assert c.remove(0) is None
        assert len(c) == 0

    def test_eviction_returns_dirty_line(self):
        c = small_cache()
        c.insert(0, "D", dirty=True)
        c.insert(2, "S")
        c.touch(2)
        # block 0 is LRU now? insertion order: 0 then 2; touch(2) keeps 0 oldest
        victim = c.insert(4, "S")
        assert victim.block == 0 and victim.dirty

    def test_resident_blocks(self):
        c = small_cache()
        for b in (0, 1, 2):
            c.insert(b, "S")
        assert sorted(c.resident_blocks()) == [0, 1, 2]

    def test_rejects_infinite_config(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(CacheConfig(size_bytes=None))

    def test_capacity_respected(self):
        c = small_cache()
        for b in range(0, 20, 2):  # all map to set 0
            c.insert(b, "S")
        assert len(c) == 2


class EagerCache:
    """Every set built up front, as a list indexed by set number."""

    def __init__(self, config, rng):
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self.policy = config.replacement
        self.rng = rng
        self.sets = [OrderedDict() for _ in range(self.num_sets)]

    def lookup(self, block):
        return self.sets[block % self.num_sets].get(block)

    def touch(self, block):
        cache_set = self.sets[block % self.num_sets]
        if self.policy == "lru" and block in cache_set:
            cache_set.move_to_end(block)

    def insert(self, block, state):
        cache_set = self.sets[block % self.num_sets]
        if block in cache_set:
            cache_set[block].state = state
            self.touch(block)
            return None
        victim = None
        if len(cache_set) >= self.ways:
            if self.policy == "random":
                victim = cache_set[self.rng.choice(list(cache_set))]
            else:
                victim = next(iter(cache_set.values()))
            del cache_set[victim.block]
        cache_set[block] = CacheLine(block, state)
        return victim

    def remove(self, block):
        return self.sets[block % self.num_sets].pop(block, None)

    def resident_blocks(self):
        for cache_set in self.sets:
            yield from cache_set


class TestLazySets:
    def test_absent_sets_are_not_built(self):
        c = SetAssociativeCache(CacheConfig())
        for block in range(0, 50_000, 7):
            assert c.lookup(block) is None
            c.touch(block)
            assert c.remove(block) is None
            assert block not in c
        assert c._sets == {}
        assert list(c.resident_blocks()) == [] and len(c) == 0

    def test_fill_builds_only_the_touched_sets(self):
        c = SetAssociativeCache(CacheConfig())  # 1024 sets
        for block in (3, 1027, 5):
            c.insert(block, "S")
        assert sorted(c._sets) == [3, 5]

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(["lru", "fifo", "random"]),
        seed=st.integers(0, 2**16),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "touch", "remove", "lookup"]),
                st.integers(0, 40),
            ),
            max_size=120,
        ),
    )
    def test_matches_eager_sets(self, policy, seed, ops):
        config = CacheConfig(
            size_bytes=128, block_size=16, associativity=2, replacement=policy
        )
        lazy = SetAssociativeCache(config, random.Random(seed))
        eager = EagerCache(config, random.Random(seed))
        for op, block in ops:
            if op == "insert":
                got, want = lazy.insert(block, "S"), eager.insert(block, "S")
            elif op == "touch":
                got, want = lazy.touch(block), eager.touch(block)
            elif op == "remove":
                got, want = lazy.remove(block), eager.remove(block)
            else:
                got, want = lazy.lookup(block), eager.lookup(block)
            assert (got and got.block) == (want and want.block)
            assert list(lazy.resident_blocks()) == list(eager.resident_blocks())
        assert len(lazy) == sum(len(s) for s in eager.sets)


class TestInfiniteCache:
    def test_never_evicts(self):
        c = InfiniteCache()
        for b in range(10_000):
            assert c.insert(b, "S") is None
        assert len(c) == 10_000
        assert c.lookup(1234).block == 1234

    def test_remove(self):
        c = InfiniteCache()
        c.insert(5, "S")
        assert c.remove(5).block == 5
        assert c.remove(5) is None

    def test_touch_noop(self):
        c = InfiniteCache()
        c.touch(99)  # must not raise


class TestMakeCache:
    def test_dispatch(self):
        assert isinstance(make_cache(CacheConfig(size_bytes=None)), InfiniteCache)
        assert isinstance(make_cache(CacheConfig()), SetAssociativeCache)
