"""Bitmask helpers. Vertex id v maps to bit v; bit 0 is unused."""

from collections.abc import Callable, Iterable, Iterator


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


def set_sink(sink: Callable[[frozenset[int]], None]) -> Callable[[int], None]:
    """A sink of masks that hands sink each mask as a frozenset."""
    return lambda m: sink(set_of(m))


def edge_key(mask: int) -> tuple[int, ...]:
    """Sort key realizing the canonical edge order (ascending vertex lists)."""
    return tuple(iter_bits(mask))
