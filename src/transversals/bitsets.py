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


class ByteTable(dict):
    """The table of byte position j: byte value b -> fill(j, b), computed
    on the first lookup and kept, so a table holds at most 256 entries.

    Byte j of a mask holds bits 8j..8j+7. fill must be a function of
    (j, b): two callers that fill one entry at once then store the same
    value.
    """

    __slots__ = ("j", "fill")

    def __init__(self, j: int, fill: Callable[[int, int], object]) -> None:
        self.j, self.fill = j, fill

    def __missing__(self, b: int):
        entry = self[b] = self.fill(self.j, b)
        return entry


class PackedSink:
    """A sink that packs the masks on bits 0..n it gets, width = (n >> 3) + 1
    bytes each, little-endian, and hands them on in chunks of block masks:
    each time it fills a chunk it calls flush with it, in order, and it
    keeps the rest in `buffer` for its owner. A chunk whose flush raises
    stays in `buffer`, and no mask after it is taken.

    `sink(mask)` packs one mask; `extend(packed)` takes a run of masks
    already packed, which is how the search kernel hands over a replayed
    subtree's outputs when the sink's width is that of its masks.
    """

    __slots__ = ("width", "limit", "flush", "buffer")

    def __init__(self, n: int, block: int, flush: Callable[[bytes], object]) -> None:
        if block < 1:
            raise ValueError(f"block must be at least 1, got {block}")
        self.width = (n >> 3) + 1
        self.limit, self.flush = block * self.width, flush  # bytes per chunk
        self.buffer = bytearray()

    def __call__(self, mask: int) -> None:
        buffer = self.buffer
        buffer += mask.to_bytes(self.width, "little")
        if len(buffer) == self.limit:
            self.flush(bytes(buffer))
            buffer.clear()

    def extend(self, packed: bytes) -> None:
        buffer, limit = self.buffer, self.limit
        rest = memoryview(packed)  # chunk by chunk, so the buffer never holds more than one
        while len(buffer) + len(rest) >= limit:
            cut = limit - len(buffer)
            buffer += rest[:cut]
            rest = rest[cut:]
            self.flush(bytes(buffer))
            buffer.clear()
        buffer += rest


def xor_each(packed: bytes, mask: int, width: int) -> bytes:
    """packed, a run of width-byte little-endian masks, with mask XORed into each of them."""
    pattern = int.from_bytes(mask.to_bytes(width, "little") * (len(packed) // width), "little")
    return (int.from_bytes(packed, "little") ^ pattern).to_bytes(len(packed), "little")


def each_mask(sink: Callable[[int], object], width: int, block: bytes) -> None:
    """Call sink with each width-byte little-endian mask of block, in order."""
    for start in range(0, len(block), width):
        sink(int.from_bytes(block[start : start + width], "little"))


def byte_tables(n: int, fill: Callable[[int, int], object]) -> list[ByteTable]:
    """One table per byte of a mask on bits 0..n, each filled by fill."""
    return [ByteTable(j, fill) for j in range((n >> 3) + 1)]


def relabeling(keep: int) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """(squeeze, spread) for keep, a mask: pext and pdep in software, each
    walking the set bits of its argument. squeeze(m) moves the bit of m at
    keep's i-th lowest bit to bit i and drops m's bits outside keep;
    spread(c) moves bit i of c back to keep's i-th lowest bit, for c below
    2**popcount(keep). With bit 0 in keep, squeeze relabels the vertices of
    keep to 1..popcount(keep) - 1 in their order and spread maps them back.
    """
    spots = tuple(iter_bits(keep))
    rank = {v: i for i, v in enumerate(spots)}
    return (
        lambda m: sum(1 << rank[v] for v in iter_bits(m & keep)),
        lambda c: sum(1 << spots[i] for i in iter_bits(c)),
    )
