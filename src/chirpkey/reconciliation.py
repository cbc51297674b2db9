"""Cascade information reconciliation over a parity-query oracle.

The correcting party never sees the reference key; it only asks for the
parity of index subsets.  Pass 1 works over blocks of k1 = ceil(0.73/QBER)
in natural order; each later pass doubles the block size under a fresh
seeded permutation.  All blocks of all passes share one table of parities
indexed by a global block id, and a position's block in any pass is found
from that pass's inverse permutation.  Odd blocks are binary-searched for
one error, smallest block first; every flip toggles the parity of the
position's block in each pass seen so far, which may make earlier blocks odd
again, until no odd block remains.

Every block is a run ``order[lo:hi]`` of its pass's order, and so is every
half a search asks about.  The far side answers three queries:
``parities(order, heads)`` for the parities of many blocks at once,
``runs(order)`` for the parity of any run of one order, and
``parity(indices)`` for one index set (the final full-key check).  Cascade
lays the pass orders end to end and asks ``parities`` once, for every block
of every pass; its own block parities come from one sum over the same
layout, re-read for the passes still ahead only after a flip.  Each side
packs its key once into one Python int per pass order that is searched,
bit i holding ``order[i]``, so a run's parity is the popcount of a shifted,
masked int: no prefix sums and no numpy call per halving.  The correcting
party keeps its packed ints current by toggling one bit of each on every
flip, and builds the inverse permutations a flip needs on the first flip
that needs them.  Parity answers are counted as leaked bits.
"""
from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import ParameterError, ReconciliationError
from .quantizer import BitKey, as_bits


@dataclass(frozen=True)
class CascadeConfig:
    """Protocol knobs.

    Block sizes double from k1 = ceil(0.73/QBER) but are capped at half the
    key so every pass keeps at least two blocks; with few passes an even
    clump of errors confined to one block survives undetected, so the
    default pass count is generous (late passes cost only a couple of
    parity bits each).
    """

    num_passes: int = 14
    qber_estimate: float | str = "auto"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_passes < 1:
            raise ParameterError("num_passes must be >= 1")
        q = self.qber_estimate
        if isinstance(q, str):
            if q != "auto":
                raise ParameterError("qber_estimate must be a float or 'auto'")
        elif not (0.0 < q < 0.5):
            raise ParameterError("qber_estimate must lie in (0, 0.5)")


@dataclass(frozen=True)
class ReconciliationOutcome:
    corrected_key: BitKey
    parity_bits_leaked: int
    parity_messages: int
    converged: bool


@dataclass(frozen=True)
class QberSample:
    """Result of sampled QBER estimation; sampled positions are consumed."""

    estimate: float
    positions: np.ndarray = field(repr=False)


class LocalParityOracle:
    """In-process far side, answering parity queries over a visible key.

    It answers the three queries cascade asks:

    - ``parities(order, heads)``: the parities of the blocks of ``order``
      that start at ``heads``; cascade asks it once, for every pass;
    - ``runs(order)``: a function ``(lo, hi) -> parity of order[lo:hi]``,
      answered from the key packed once, in that order, into one int;
    - ``parity(indices)``: the parity of any index set.

    The ``order`` arrays cascade passes are views of its retained tables,
    valid only during the call: an oracle that needs one later copies it.
    """

    def __init__(self, key: BitKey | np.ndarray):
        self._bits = as_bits(key)

    def __len__(self) -> int:
        return len(self._bits)

    def parity(self, indices) -> int:
        # as_bits guarantees 0/1, so the count of ones has the sum's parity
        ones = np.count_nonzero(self._bits[np.asarray(indices, dtype=np.intp)])
        return int(ones) & 1

    def parities(self, order: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Parities of the blocks of ``order`` that start at ``heads``.

        Block i is ``order[heads[i]:heads[i + 1]]`` and the last block runs
        to the end.  ``order`` may be several pass orders laid end to end,
        with a head at the start of each, so no block spans two passes and
        one call answers every block of every pass.
        """
        return np.add.reduceat(self._bits[order], heads) & 1

    def runs(self, order: np.ndarray) -> Callable[[int, int], int]:
        """Parity of ``order[lo:hi]`` as a function of ``(lo, hi)``."""
        key = _pack(self._bits[order])

        def run(lo: int, hi: int) -> int:
            return ((key >> lo) & ((1 << (hi - lo)) - 1)).bit_count() & 1

        return run


def _pack(bits: np.ndarray) -> int:
    """0/1 bits as one int, ``bits[i]`` at bit i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


_TABLE_CAP = 1 << 16  # entries per kept pass table: 14 passes of 2048 bits fit
# the flat (orders, inverse) pair while no call holds it, sized to the
# largest passes * n up to _TABLE_CAP seen so far
_spare_tables: list[tuple[np.ndarray, np.ndarray]] = []


def _take_tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two flat intp tables of at least ``size`` entries: the retained pair
    if it is large enough, else a new pair.  A call takes the pair out of
    ``_spare_tables``, so no other call can hold it at the same time."""
    tables = None
    if size <= _TABLE_CAP:  # a larger call leaves the retained pair alone
        try:
            tables = _spare_tables.pop()
        except IndexError:  # none retained yet, or another call holds it
            pass
    if tables is None or tables[0].size < size:
        tables = (np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp))
    return tables


def initial_block_size(qber: float, key_len: int) -> int:
    """k1 = ceil(0.73/QBER), clamped to [4, key length]."""
    if not (0.0 < qber < 0.5):
        raise ParameterError("qber must lie in (0, 0.5)")
    return max(4, min(math.ceil(0.73 / qber), key_len))


def pass_block_sizes(k1: int, key_len: int, num_passes: int) -> list[int]:
    """Doubling schedule, capped at half the key length after pass 1."""
    cap = max(4, key_len // 2)
    sizes = []
    for p in range(num_passes):
        k = k1 if p == 0 else min(k1 << p, cap)
        sizes.append(min(k, key_len))
    return sizes


def _search(
    key_a: int, lo: int, hi: int, parity_g: Callable[[int, int], int]
) -> tuple[int, int]:
    """Offset of one differing position in the odd run ``[lo, hi)`` of an order.

    ``key_a`` is the correcting party's key packed in that order, read as
    the oracle's run query reads the far side's, and ``parity_g(i, j)`` is
    the far side's parity of the run ``[i, j)``.  The run is odd by
    assumption, so the search keeps a window ``[lo, hi)`` and asks only for
    its left half; the right half's parity follows from the parent's, so it
    spends at most ceil(log2(hi - lo)) answers.  Returns the offset and the
    number of answers spent.
    """
    asked = 0
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        asked += 1
        if ((key_a >> lo) & ((1 << (mid - lo)) - 1)).bit_count() & 1 != parity_g(lo, mid):
            hi = mid
        else:
            lo = mid
    return lo, asked


def _indices_digest(indices: np.ndarray) -> str:
    text = ",".join(str(int(i)) for i in indices)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def cascade(
    key_a: BitKey,
    oracle_g,
    config: CascadeConfig,
    transcript: list[str] | None = None,
    on_flip: Callable[[int], None] | None = None,
) -> ReconciliationOutcome:
    """Reconcile ``key_a`` against the key behind the parity oracle.

    Every block of every pass has a global id in one block table: its start
    in the pass orders laid end to end, its length and both parities, held
    as Python lists built once.  The far side's parities are one batched
    answer, ``oracle_g.parities`` over all pass orders with a head at every
    block start; the correcting party's are one ``reduceat`` over its key in
    the same layout.  A flip keeps the parities of the passes seen so far
    current and leaves the later ones stale, so the next pass re-reads its
    own and every later pass's parities in one ``reduceat``; a cascade that
    makes no flip re-reads nothing.  Position i lies in block
    ``first[p] + inverse[p][i] // sizes[p]`` of pass p, so a flip toggles
    the local parity of its block in every pass seen so far.  The inverse
    permutation rows are filled on demand: a flip in pass p fills the rows
    up to p that no earlier flip needed, so a cascade without flips builds
    none.  Odd blocks wait in a heap, and the smallest (then lowest id) is
    searched first, which spends the fewest answers per correction.

    A block and every half searched in it are runs of one pass order, so
    the searches read packed keys, not index sets.  The first search in an
    order packs the correcting key in that order and binds the oracle's run
    query to it, which packs the far side's key once; each flip then
    toggles bit ``inverse[q][pos]`` of every packed order q.  Orders that
    hold no odd block are never packed.

    ``orders`` and ``inverse`` are (passes, n) views of two intp tables,
    kept for the next call when passes * n <= 2^16 (so a call maps and
    faults in no fresh pages for them) and allocated for this call alone
    above it.  Every row is written before it is read, so what an earlier
    call left in them is never seen.  The ``order`` arrays the
    oracle receives are views of these tables, valid only during the call.

    ``config.qber_estimate`` must be numeric here; "auto" is resolved by the
    pipeline via estimate_qber before cascading.  If ``transcript`` is a
    list, one CSV line "pass,block_id,indices_hash,parity_a,parity_g" is
    appended per parity answer, in protocol order: pass p's block parities
    when pass p starts, then its searches; ``on_flip`` is called with every
    corrected position in order (audit hook).  Raises
    ``ReconciliationError`` instead of making an (n+1)-th flip: with
    consistent answers each flip removes one disagreement, so more than n
    prove the far side inconsistent.
    """
    if isinstance(config.qber_estimate, str):
        raise ParameterError(
            "qber_estimate is 'auto'; run estimate_qber first and pass the value"
        )
    n = len(oracle_g)
    if len(key_a) != n:
        raise ParameterError(f"key length {len(key_a)} != oracle key length {n}")
    if n == 0:
        raise ParameterError("keys must be non-empty")

    bits = key_a.bits.copy()
    k1 = initial_block_size(float(config.qber_estimate), n)
    rng = np.random.default_rng(config.rng_seed)
    sizes = pass_block_sizes(k1, n, config.num_passes)
    tables = _take_tables(len(sizes) * n)
    orders, inverse = (t[: len(sizes) * n].reshape(len(sizes), n) for t in tables)
    orders[:] = np.arange(n)
    for row in orders[1:]:
        rng.shuffle(row)  # what rng.permutation(n) draws, in place
    flat = orders.reshape(-1)
    start = [lo for p, k in enumerate(sizes) for lo in range(p * n, (p + 1) * n, k)]
    length = [hi - lo for lo, hi in zip(start, start[1:] + [flat.size])]
    first = list(accumulate((-(-n // k) for k in sizes), initial=0))
    blocking = list(zip(first, sizes))  # (first block id, block size) per pass
    heads = np.array(start)
    parity_g = oracle_g.parities(flat, heads).tolist()
    # uint8 sums wrap modulo 256, which keeps their parity
    parity_a = (np.add.reduceat(bits[flat], heads) & 1).tolist()
    built = 0  # inverse rows [0, built) filled, on the first flip needing them
    keys: dict[int, int] = {}  # pass -> correcting key packed in its order
    runs: dict[int, Callable[[int, int], int]] = {}  # pass -> far side's run query
    queries = flips = 0
    stale = False  # a flip since the parities of later passes were read

    def log_query(pass_idx: int, block_id: int, idx, pa: int, pg: int) -> None:
        transcript.append(f"{pass_idx},{block_id},{_indices_digest(idx)},{pa},{pg}")

    def logged(pass_idx: int, block_id: int, order, run_g) -> Callable[[int, int], int]:
        def answer(lo: int, hi: int) -> int:
            pg = run_g(lo, hi)
            idx = order[lo:hi]
            log_query(pass_idx, block_id, idx, int(bits[idx].sum() & 1), pg)
            return pg
        return answer

    for p, k in enumerate(sizes):
        base, end = first[p], first[p + 1]
        if stale:  # passes p.. were read before the last flip: read them again
            pa = np.add.reduceat(bits[flat[p * n :]], heads[base:] - p * n) & 1
            parity_a[base:] = pa.tolist()
            stale = False
        if transcript is not None:
            for bid, seg in enumerate(np.split(orders[p], range(k, n, k)), base):
                log_query(p, bid, seg, parity_a[bid], parity_g[bid])
        heap = [(length[b], b) for b in range(base, end) if parity_a[b] != parity_g[b]]
        heapq.heapify(heap)
        while heap:
            bid = heapq.heappop(heap)[1]
            if parity_a[bid] == parity_g[bid]:
                continue  # made even by a later flip
            q, lo = divmod(start[bid], n)
            if q not in keys:
                keys[q] = _pack(bits[orders[q]])
                runs[q] = oracle_g.runs(orders[q])
            run_g = runs[q]
            if transcript is not None:
                run_g = logged(p, bid, orders[q], run_g)
            at, asked = _search(keys[q], lo, lo + length[bid], run_g)
            queries += asked
            pos = int(orders[q, at])
            flips += 1
            if flips > n:
                raise ReconciliationError(
                    f"{flips} flips on a {n}-bit key: every consistent flip "
                    "removes one disagreement, so the parity answers contradict "
                    "each other"
                )
            bits[pos] ^= 1
            stale = True
            if on_flip is not None:
                on_flip(pos)
            if built <= p:
                inverse[np.arange(built, p + 1)[:, None], orders[built : p + 1]] = np.arange(n)
                built = p + 1
            where = inverse[: p + 1, pos].tolist()
            for q in keys:
                keys[q] ^= 1 << where[q]
            for hit in [f + i // k for (f, k), i in zip(blocking, where)]:
                parity_a[hit] ^= 1
                if parity_a[hit] != parity_g[hit]:
                    heapq.heappush(heap, (length[hit], hit))

    # final full-key parity comparison (a necessary, not sufficient, check)
    full = np.arange(n)
    pg_full = oracle_g.parity(full)
    pa_full = int(bits.sum() & 1)
    if transcript is not None:
        log_query(config.num_passes, -1, full, pa_full, pg_full)
    if flat.size <= _TABLE_CAP:
        _spare_tables[:] = [tables]

    return ReconciliationOutcome(
        corrected_key=BitKey(bits, "reconciled"),
        parity_bits_leaked=len(start) + queries + 1,
        parity_messages=config.num_passes + queries + 1,
        converged=pa_full == pg_full,
    )


def estimate_qber(
    key_a: BitKey,
    key_g: BitKey,
    sample_fraction: float,
    seed: int = 0,
) -> QberSample:
    """Estimate the disagreement rate from a disclosed random sample.

    The sampled positions become public and must be removed from both keys
    before cascading; they are returned alongside the clamped estimate.  A
    sample that would take every bit (only a 1-bit key, as the fraction is
    at most 0.5) is an error.
    """
    if len(key_a) != len(key_g):
        raise ParameterError("keys must have equal length")
    if not (0.0 < sample_fraction <= 0.5):
        raise ParameterError("sample_fraction must lie in (0, 0.5]")
    n = len(key_a)
    count = max(1, math.ceil(sample_fraction * n))
    if count >= n:
        raise ParameterError(f"a {count}-bit QBER sample leaves nothing of a {n}-bit key")
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(n, size=count, replace=False))
    disagree = float(np.mean(key_a.bits[positions] != key_g.bits[positions]))
    return QberSample(float(np.clip(disagree, 0.01, 0.49)), positions)


def consume_positions(key: BitKey, positions: np.ndarray) -> BitKey:
    """Remove disclosed positions from a key (post-sampling hygiene)."""
    return BitKey(np.delete(key.bits, positions), key.stage)
