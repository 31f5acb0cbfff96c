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


def edge_key(mask: int) -> tuple[int, ...]:
    """Sort key realizing the canonical edge order (ascending vertex lists)."""
    return tuple(iter_bits(mask))


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
