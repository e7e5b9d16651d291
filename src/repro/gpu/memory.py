"""Device-memory model with cache-line coalescing accounting.

Appendix A of the paper explains the two memory behaviours the kernels are
designed around: accesses from the lanes of a warp that fall into the same
128-byte cache line are served by one transaction ("coalesced"), while
scattered accesses cost one transaction each.  :class:`DeviceMemory` exposes
word-granular and bit-granular access recording that implements exactly that
rule and feeds the shared :class:`~repro.gpu.metrics.KernelMetrics`.
"""

from __future__ import annotations

from typing import Iterable

from repro.gpu.metrics import KernelMetrics

#: Cache-line size used for coalescing, in bytes (Appendix A: 128-byte lines).
CACHE_LINE_BYTES = 128


#: Default number of cache lines kept by the on-chip cache model (8 KiB of
#: 128-byte lines, roughly one warp's share of an SM's L1/shared budget).
DEFAULT_CACHE_LINES = 64


class DeviceMemory:
    """Counts coalesced transactions for simulated global-memory accesses.

    Besides coalescing within a single warp-wide access, the model keeps a
    small FIFO cache of recently fetched lines: GCGT's design point is that a
    node's compressed adjacency data is fetched once and then decoded entirely
    on chip (Section 3.2), so repeated reads of the same line during the
    decode rounds of one frontier chunk must not be charged again.
    """

    def __init__(
        self,
        metrics: KernelMetrics,
        cache_line_bytes: int = CACHE_LINE_BYTES,
        word_bytes: int = 4,
        cache_lines: int = DEFAULT_CACHE_LINES,
    ) -> None:
        if cache_line_bytes <= 0 or word_bytes <= 0:
            raise ValueError("cache_line_bytes and word_bytes must be positive")
        self.metrics = metrics
        self.cache_line_bytes = cache_line_bytes
        self.word_bytes = word_bytes
        #: Words per cache line: word addresses coalesce by ``// words_per_line``.
        self.words_per_line = max(1, cache_line_bytes // word_bytes)
        self.cache_capacity = max(0, cache_lines)
        self._cache: dict[tuple[str, int], bool] = {}

    def charge_lines(self, space: str, lines: Iterable[int]) -> int:
        """Charge one warp-wide access to ``lines`` of ``space``; return
        the transactions it cost.

        Lines already cached are free and move to the back of the FIFO; each
        other line costs one transaction and is cached, evicting the oldest
        line once the cache is full.  Lines are visited in iteration order,
        which decides the cache state, so callers pass the same set
        (built in the same order) for the same access.
        """
        cache = self._cache
        capacity = self.cache_capacity
        missed = 0
        for line in lines:
            key = (space, line)
            if cache.pop(key, False):
                # Refresh recency by reinserting at the back of the FIFO.
                cache[key] = True
                continue
            missed += 1
            if capacity:
                cache[key] = True
                if len(cache) > capacity:
                    del cache[next(iter(cache))]
        self.metrics.memory_transactions += missed
        return missed

    # -- word-granular accesses (CSR arrays, frontier queues, labels) -------

    def access_words(self, word_addresses: Iterable[int], space: str = "words") -> int:
        """Record a warp-wide access to word indices; return transactions used.

        Word indices landing in the same cache line coalesce into a single
        transaction, mirroring how a warp's loads are serviced.  ``space``
        names the logical array being read (labels, frontier queue, CSR
        offsets, ...) so lines from different arrays never alias in the cache
        model.
        """
        addresses = list(word_addresses)
        if not addresses:
            return 0
        words_per_line = self.words_per_line
        lines = {address // words_per_line for address in addresses}
        self.metrics.memory_words += len(addresses)
        return self.charge_lines(space, lines)

    def access_word(self, word_address: int, space: str = "words") -> int:
        """Record a single-lane word access (always one transaction)."""
        return self.access_words([word_address], space=space)

    # -- bit-granular accesses (the CGR bit stream) --------------------------

    def access_bit_ranges(self, bit_ranges: Iterable[tuple[int, int]]) -> int:
        """Record warp-wide reads of bit ranges ``(start_bit, num_bits)``.

        Each range is mapped onto the cache lines it touches; ranges from
        different lanes that share a line coalesce.  This is how the decoding
        kernels charge for reading compressed adjacency data.
        """
        line_bits = self.cache_line_bytes * 8
        word_bits = self.word_bytes * 8
        lines: set[int] = set()
        words = 0
        for start_bit, num_bits in bit_ranges:
            if num_bits <= 0:
                continue
            first = start_bit // line_bits
            last = (start_bit + num_bits - 1) // line_bits
            if first == last:
                lines.add(first)
            else:
                lines.update(range(first, last + 1))
            # num_bits >= 1, so the ceiling division is already >= 1.
            words += (num_bits + word_bits - 1) // word_bits
        if not lines:
            return 0
        self.metrics.memory_words += words
        return self.charge_lines("bits", lines)

    def access_bit_range(self, start_bit: int, num_bits: int) -> int:
        """Record a single-lane read of one bit range."""
        return self.access_bit_ranges([(start_bit, num_bits)])

    # -- other traffic -------------------------------------------------------

    def atomic_add(self, count: int = 1) -> None:
        """Record global-memory atomic operations (frontier allocation)."""
        self.metrics.atomic_operations += count

    def shared_access(self, count: int = 1) -> None:
        """Record shared-memory (intra-block) traffic."""
        self.metrics.shared_memory_accesses += count
