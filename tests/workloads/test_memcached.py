"""Unit tests for the Memcached lookup workload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AccessMechanism, BackingStore, SystemConfig
from repro.errors import ConfigError
from repro.host.system import System
from repro.memory import FlatMemory
from repro.workloads.hashing import mix64
from repro.workloads.memcached import (
    KvStore,
    MemcachedParams,
    _store_image,
    install_memcached,
    make_get_keys,
    per_core_stores,
    value_word,
)

SMALL = MemcachedParams(items=128, buckets=64, gets_per_thread=8)


def test_params_validation():
    with pytest.raises(ConfigError):
        MemcachedParams(items=0)
    with pytest.raises(ConfigError):
        MemcachedParams(value_bytes=100)  # not a multiple of 64
    with pytest.raises(ConfigError):
        MemcachedParams(gets_per_thread=0)


def test_value_lines():
    assert MemcachedParams(value_bytes=256).value_lines == 4


def test_functional_get_returns_stored_value():
    world = FlatMemory()
    store = KvStore(SMALL, base_addr=0, world=world)
    store.populate(range(SMALL.items))
    for key in (0, 1, 63, 127):
        value = store.get_functional(key)
        assert value is not None
        for index, word in enumerate(value):
            assert word == value_word(key, index)


def test_functional_get_misses_unknown_key():
    world = FlatMemory()
    store = KvStore(SMALL, base_addr=0, world=world)
    store.populate(range(SMALL.items))
    assert store.get_functional(99999) is None


def test_chains_are_built():
    world = FlatMemory()
    store = KvStore(SMALL, base_addr=0, world=world)
    store.populate(range(SMALL.items))
    # 128 keys into 64 buckets: at least one chain of length >= 2.
    assert store.max_chain >= 2


def test_timed_get_matches_functional_value():
    config = SystemConfig(
        mechanism=AccessMechanism.ON_DEMAND, backing=BackingStore.DRAM
    )
    system = System(config)
    results = install_memcached(system, SMALL, threads_per_core=2)
    system.run_to_completion(limit_ticks=10**11)
    for (core, slot), values in results.items():
        keys = make_get_keys(SMALL, thread_seed=core * 1000 + slot)
        assert len(values) == len(keys)
        for key, value in zip(keys, values):
            assert value is not None
            # The timed GET returns the first word of each value line.
            for line, word in enumerate(value):
                assert word == value_word(key, line * 8)


def test_all_mechanisms_return_identical_values():
    outcomes = []
    for backing, mechanism in (
        (BackingStore.DRAM, AccessMechanism.ON_DEMAND),
        (BackingStore.DEVICE, AccessMechanism.PREFETCH),
        (BackingStore.DEVICE, AccessMechanism.SOFTWARE_QUEUE),
    ):
        config = SystemConfig(
            mechanism=mechanism, backing=backing, threads_per_core=2
        )
        system = System(config)
        results = install_memcached(system, SMALL, threads_per_core=2)
        system.run_to_completion(limit_ticks=10**11)
        outcomes.append(
            {
                key: tuple(tuple(v) for v in values)
                for key, values in sorted(results.items())
            }
        )
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_store_size_accounts_all_regions():
    size = KvStore.size_bytes(SMALL)
    expected = 64 * 8 + 128 * 64 + 128 * 256
    assert size == expected


def _reference_populate(store, keys):
    """Word-by-word insertion, one checked write at a time: the layout
    the bulk ``KvStore.populate`` must reproduce bit for bit."""
    world = store.world
    chain_len: dict[int, int] = {}
    for index, key in enumerate(keys):
        bucket_addr = store._bucket_addr(key)
        entry = store._entry_addr(index)
        world.write_word(entry + 0, key)
        world.write_word(entry + 8, store._value_addr(index))
        world.write_word(entry + 16, world.read_word(bucket_addr))
        world.write_word(bucket_addr, entry)
        for word_index in range(store.params.value_bytes // 8):
            world.write_word(
                store._value_addr(index) + word_index * 8,
                value_word(key, word_index),
            )
        bucket = mix64(key) % store.params.buckets
        chain_len[bucket] = chain_len.get(bucket, 0) + 1
        store.max_chain = max(store.max_chain, chain_len[bucket])


_key_lists = st.one_of(
    st.integers(min_value=0, max_value=48).map(range),
    st.lists(st.integers(min_value=-(1 << 66), max_value=1 << 66), max_size=40),
    # Few distinct keys: duplicates, and ones equal modulo 2**64.
    st.lists(
        st.sampled_from([0, 1, 7, 1 << 64, (1 << 64) + 1, (1 << 65) + 7]), max_size=40
    ),
)


@given(
    params=st.builds(
        MemcachedParams,
        items=st.integers(min_value=1, max_value=40),
        buckets=st.integers(min_value=1, max_value=40),
        value_bytes=st.sampled_from([64, 128, 256]),
    ),
    base_words=st.integers(min_value=0, max_value=1 << 40),
    rounds=st.lists(_key_lists, min_size=1, max_size=3),
    existing=st.dictionaries(
        st.integers(min_value=0, max_value=39),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        max_size=6,
    ),
)
@settings(max_examples=150, deadline=None)
def test_populate_matches_word_by_word_reference(params, base_words, rounds, existing):
    base = base_words * 8
    stores = []
    for _ in range(2):
        world = FlatMemory()
        # Words already at bucket addresses: the first key of each
        # bucket must chain onto them.
        for bucket, word in existing.items():
            world.write_word(base + (bucket % params.buckets) * 8, word)
        stores.append(KvStore(params, base, world))
    bulk, reference = stores
    for keys in rounds:
        bulk.populate(keys)
        _reference_populate(reference, keys)
        assert bulk.world._words == reference.world._words
        assert bulk.max_chain == reference.max_chain


def _value_of(key):
    return [value_word(key, i) for i in range(SMALL.value_bytes // 8)]


def test_stores_built_from_one_image_are_isolated():
    def build():
        system = System(SystemConfig(mechanism=AccessMechanism.ON_DEMAND))
        return per_core_stores(system, SMALL)(0)

    first, second = build(), build()
    # Flip one value word of the first store, as a corrupted build would.
    address = first._value_addr(5)
    first.world.write_word(address, first.world.read_word(address) ^ 1)
    assert first.get_functional(5) != _value_of(5)
    for key in range(SMALL.items):
        assert second.get_functional(key) == _value_of(key)
    third = build()
    assert third.world._words == second.world._words
    assert third.get_functional(5) == _value_of(5)


def test_store_image_memo_is_bounded():
    _store_image.cache_clear()
    maxsize = _store_image.cache_info().maxsize
    for offset in range(maxsize + 3):
        KvStore(SMALL, 0, FlatMemory()).populate(range(offset, offset + 16))
    info = _store_image.cache_info()
    assert info.currsize == maxsize and info.hits == 0
    KvStore(SMALL, 0, FlatMemory()).populate(range(maxsize + 2, maxsize + 18))
    assert _store_image.cache_info().hits == 1
