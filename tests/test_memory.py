"""Unit tests for the functional memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.memory import WORD_BYTES, FlatMemory


def test_unwritten_words_read_zero():
    memory = FlatMemory()
    assert memory.read_word(0x1000) == 0


def test_write_read_roundtrip():
    memory = FlatMemory()
    memory.write_word(0x88, 0xDEADBEEF)
    assert memory.read_word(0x88) == 0xDEADBEEF


def test_values_truncate_to_64_bits():
    memory = FlatMemory()
    memory.write_word(0, (1 << 64) + 5)
    assert memory.read_word(0) == 5


def test_unaligned_access_rejected():
    memory = FlatMemory()
    with pytest.raises(AddressError):
        memory.read_word(0x3)
    with pytest.raises(AddressError):
        memory.write_word(0x7, 1)
    with pytest.raises(AddressError):
        memory.read_word(-8)


def test_line_read_packs_words_little_endian():
    memory = FlatMemory()
    for i in range(8):
        memory.write_word(0x100 + i * WORD_BYTES, i + 1)
    line = memory.read_line(0x100)
    assert len(line) == 64
    for i in range(8):
        assert int.from_bytes(line[i * 8 : (i + 1) * 8], "little") == i + 1


def test_line_read_requires_alignment():
    memory = FlatMemory()
    with pytest.raises(AddressError):
        memory.read_line(0x108)


def test_word_from_line():
    memory = FlatMemory()
    memory.write_word(0x120, 777)
    line = memory.read_line(0x100)
    assert FlatMemory.word_from_line(0x100, line, 0x120) == 777
    with pytest.raises(AddressError):
        FlatMemory.word_from_line(0x100, line, 0x200)
    with pytest.raises(AddressError):
        FlatMemory.word_from_line(0x100, line, 0x104)


def test_sparse_footprint():
    memory = FlatMemory()
    memory.write_word(0, 1)
    memory.write_word(1 << 40, 2)
    assert memory.word_count() == 2


def test_line_size_must_be_word_multiple():
    with pytest.raises(AddressError):
        FlatMemory(line_bytes=60)


def test_line_address_helper():
    memory = FlatMemory()
    assert memory.line_address(0) == 0
    assert memory.line_address(63) == 0
    assert memory.line_address(64) == 64
    assert memory.line_address(130) == 128
    with pytest.raises(AddressError):
        memory.line_address(-1)


@given(
    first=st.integers(min_value=0, max_value=1 << 40),
    step=st.integers(min_value=1, max_value=9),
    values=st.lists(st.integers(min_value=-(1 << 66), max_value=1 << 66), max_size=40),
    existing=st.dictionaries(
        st.integers(min_value=0, max_value=64), st.integers(0, 99), max_size=8
    ),
)
@settings(max_examples=80, deadline=None)
def test_write_words_matches_a_write_word_loop(first, step, values, existing):
    bulk, loop = FlatMemory(), FlatMemory()
    addr, stride = first * WORD_BYTES, step * WORD_BYTES
    for memory in (bulk, loop):
        for offset, value in existing.items():
            memory.write_word(addr + offset * WORD_BYTES, value)
    bulk.write_words(addr, values, stride)
    for index, value in enumerate(values):
        loop.write_word(addr + index * stride, value)
    assert bulk._words == loop._words


@pytest.mark.parametrize(
    ("addr", "stride"), [(0x3, 8), (-8, 8), (0x10, 4), (0x10, 0), (0x10, -8)]
)
def test_write_words_rejects_bad_addresses_and_writes_nothing(addr, stride):
    memory = FlatMemory()
    memory.write_word(0x40, 9)
    with pytest.raises(AddressError):
        memory.write_words(addr, [1, 2, 3], stride)
    assert memory._words == {0x40 // WORD_BYTES: 9}


def test_write_words_masks_out_of_range_values():
    memory = FlatMemory()
    memory.write_words(0x100, [(1 << 64) + 5, -1, 7])
    assert [memory.read_word(0x100 + i * WORD_BYTES) for i in range(3)] == [
        5,
        (1 << 64) - 1,
        7,
    ]


def test_write_words_empty_is_a_no_op():
    memory = FlatMemory()
    memory.write_word(0x8, 1)
    memory.write_words(0x10, [])
    memory.write_words(0x10, range(0))
    assert memory._words == {1: 1}
