"""Bitmask helpers. Vertex id v maps to bit v; bit 0 is unused."""

from collections.abc import Callable, Iterable, Iterator
from typing import TypeVar

_T = TypeVar("_T")


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


#: Each byte value with its bits in reverse order.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def edge_key(mask: int) -> tuple[bytes, int]:
    """Sort key realizing the canonical edge order: masks sort as their
    ascending vertex lists, `tuple(iter_bits(mask))`, do, without building
    the lists.

    Two ascending lists first differ at the least vertex d that only one
    of them holds. That one is the smaller, unless the other ends below d
    and so is a prefix of it. A list's gaps, the vertices below its last
    one that it misses, give the same order: where two lists' gaps first
    differ, the list whose gaps hold that vertex is the larger; equal gaps
    mean that one list extends the other, and the shorter, with the
    smaller bit length, is the smaller. The key is the gaps as bytes, the
    least vertex in the high bit of the first byte, so that bytes order
    compares them from the least vertex up; then the bit length.
    """
    top = mask.bit_length()
    gaps = ((1 << top) - 1 >> 1) & ~mask
    return gaps.to_bytes((gaps.bit_length() + 7) >> 3, "little").translate(_REVERSED), top


def byte_tables(n: int) -> list[dict[int, _T]]:
    """One empty table per byte of a mask on bits 0..n, for byte_entries."""
    return [{} for _ in range((n >> 3) + 1)]


def byte_entries(mask: int, tables: list[dict[int, _T]], fill: Callable[[int, int], _T]) -> list[_T]:
    """The entries of mask's nonzero bytes, lowest byte first.

    Byte j holds bits 8j..8j+7; its entry for byte value b is
    tables[j][b], computed as fill(j, b) on first use and kept, so a table
    holds at most 256 entries. mask must be non-negative and fit in
    len(tables) bytes. fill must be a function of (j, b): two callers that
    fill one entry at once then store the same value.
    """
    entries = []
    for j, b in enumerate(mask.to_bytes(len(tables), "little")):
        if b:
            table = tables[j]
            entry = table.get(b)
            if entry is None:
                entry = table[b] = fill(j, b)
            entries.append(entry)
    return entries
