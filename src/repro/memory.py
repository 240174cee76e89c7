"""Functional (contents-only) memory stores.

Timing is modeled by the channel/link/queue models; *contents* live
here.  Workloads store real data structures (graphs, hash tables, bit
arrays) in a :class:`FlatMemory` so that their access streams are
genuinely data-dependent, exactly like the applications in the paper.

Words are 64-bit, matching the paper's ``dev_access(uint64*)`` API.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import AddressError

__all__ = ["FlatMemory", "WORD_BYTES"]

#: The access granularity of dev_access(uint64*).
WORD_BYTES = 8

_WORD_MASK = (1 << 64) - 1


class FlatMemory:
    """A sparse, word-granular, byte-addressed memory.

    Unwritten words read as zero (like fresh mmap'd pages).  Lines are
    read as ``bytes`` so that device responses carry real content end
    to end -- the replay-fidelity tests compare these against recorded
    traces byte for byte.
    """

    def __init__(self, line_bytes: int = 64) -> None:
        if line_bytes % WORD_BYTES != 0:
            raise AddressError("line size must be a multiple of the word size")
        self.line_bytes = line_bytes
        self._words: dict[int, int] = {}

    @staticmethod
    def _check_word_aligned(addr: int) -> None:
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        if addr % WORD_BYTES != 0:
            raise AddressError(f"address {addr:#x} is not 8-byte aligned")

    def read_word(self, addr: int) -> int:
        """Read the 64-bit word at byte address ``addr``."""
        self._check_word_aligned(addr)
        return self._words.get(addr // WORD_BYTES, 0)

    def write_word(self, addr: int, value: int) -> None:
        """Write the 64-bit word at byte address ``addr``."""
        self._check_word_aligned(addr)
        self._words[addr // WORD_BYTES] = value & _WORD_MASK

    def write_words(
        self, addr: int, values: Sequence[int], stride: int = WORD_BYTES
    ) -> None:
        """Write ``values[i]`` to the word at ``addr + i * stride``.

        The bulk form of :meth:`write_word` for laying out whole arrays:
        the address is checked once for the run, values are masked only
        when one is out of range, and an error writes nothing.
        """
        self._check_word_aligned(addr)
        if stride <= 0 or stride % WORD_BYTES != 0:
            raise AddressError(f"stride {stride} is not a positive multiple of {WORD_BYTES}")
        if not values:
            return
        if min(values) < 0 or max(values) > _WORD_MASK:
            values = [value & _WORD_MASK for value in values]
        first = addr // WORD_BYTES
        step = stride // WORD_BYTES
        self._words.update(zip(range(first, first + len(values) * step, step), values))

    def line_address(self, addr: int) -> int:
        """The line-aligned base address containing ``addr``."""
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        return addr - (addr % self.line_bytes)

    def read_line(self, line_addr: int) -> bytes:
        """Read one full cache line as bytes (little-endian words)."""
        if line_addr % self.line_bytes != 0:
            raise AddressError(f"address {line_addr:#x} is not line aligned")
        parts = []
        for offset in range(0, self.line_bytes, WORD_BYTES):
            parts.append(self.read_word(line_addr + offset).to_bytes(8, "little"))
        return b"".join(parts)

    def word_count(self) -> int:
        """Number of words ever written (sparse footprint)."""
        return len(self._words)

    @staticmethod
    def word_from_line(line_addr: int, line_data: bytes, addr: int) -> int:
        """Extract the word at ``addr`` from a line's byte content."""
        offset = addr - line_addr
        if offset < 0 or offset + WORD_BYTES > len(line_data):
            raise AddressError(
                f"address {addr:#x} outside line at {line_addr:#x}"
            )
        if offset % WORD_BYTES != 0:
            raise AddressError(f"address {addr:#x} is not 8-byte aligned")
        return int.from_bytes(line_data[offset : offset + WORD_BYTES], "little")
