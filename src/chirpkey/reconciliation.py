"""Cascade information reconciliation over a parity-query oracle.

The correcting party never sees the reference key; it only asks for the
parity of index subsets.  Pass 1 works over blocks of k1 = ceil(0.73/QBER)
in natural order; each later pass doubles the block size under a fresh
seeded permutation.  All blocks of all passes share one table of parities
indexed by a global block id, and a position's block in any pass is found
from that pass's inverse permutation.  Odd blocks are binary-searched for
one error, smallest block first; every flip toggles the parity of the
position's block in each pass seen so far, which may make earlier blocks odd
again, until no odd block remains.  The first pass (pass 0 in the code and
the transcript) is simpler: its blocks are disjoint runs of the natural
order and a flip there touches only the block it corrects, so one prefix
sum of the key, taken as the pass starts, gives the local parity of every
half searched in it.  Parity answers are counted as leaked bits.
"""
from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
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
    """In-process adapter answering parity queries over a visible key."""

    def __init__(self, key: BitKey | np.ndarray):
        self._bits = as_bits(key)

    def __len__(self) -> int:
        return len(self._bits)

    def parity(self, indices) -> int:
        # as_bits guarantees 0/1, so the count of ones has the sum's parity
        ones = np.count_nonzero(self._bits[np.asarray(indices, dtype=np.intp)])
        return int(ones) & 1

    def parities(self, order: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Parities of the blocks of ``order`` that start at ``heads``."""
        return np.add.reduceat(self._bits[order], heads) & 1


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


def _search(seg, sums: list[int], offset: int, parity_g: Callable) -> int:
    """Window index of one differing position inside the odd block ``seg``.

    The local parity of ``seg[i:j]`` is ``(sums[offset + j] - sums[offset +
    i]) & 1``: ``sums`` is a prefix sum of the correcting party's bits, over
    the block itself (offset 0) or over a longer run that holds it.  The
    block is odd by assumption, so the search keeps a window ``[lo, hi)``
    and asks ``parity_g`` only for the left half ``seg[lo:mid]``; the right
    half's parity follows from the parent's, so it spends at most
    ceil(log2(len)) queries.
    """
    lo, hi = 0, len(seg)
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        if (sums[offset + mid] - sums[offset + lo]) & 1 != parity_g(seg[lo:mid]):
            hi = mid
        else:
            lo = mid
    return lo


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
    in the flattened pass orders, its length and both parities, held as
    Python lists that each pass extends once.  Position i lies in block
    ``first[p] + inverse[p][i] // sizes[p]`` of pass p, so a flip toggles
    the local parity of its block in every pass seen so far; the inverse
    permutations are one scatter of ``arange(n)``.

    Pass 0 is searched from one prefix sum of the whole key, taken as the
    pass starts.  Its blocks are disjoint runs of the natural order and a
    pass-0 flip toggles only the block it corrects, which that flip makes
    even, so no pass-0 block is searched twice and no bit outside the
    searched block changes: the prefix sum stays exact for every block
    still to be searched, and the odd blocks are simply walked in heap
    order.  From pass 1 on, a flip can make any earlier block odd again and
    blocks are permuted, so odd blocks wait in a heap, the smallest (then
    lowest id) is searched first, which spends the fewest queries per
    correction, and each search takes one prefix sum of the block's own
    bits.  Either way a search pays one oracle call per halving.

    ``config.qber_estimate`` must be numeric here; "auto" is resolved by the
    pipeline via estimate_qber before cascading.  If ``transcript`` is a
    list, one CSV line "pass,block_id,indices_hash,parity_a,parity_g" is
    appended per parity answer; ``on_flip`` is called with every corrected
    position in order (audit hook).  Raises ``ReconciliationError`` instead
    of making an (n+1)-th flip: with consistent answers each flip removes
    one disagreement, so more than n prove the far side inconsistent.
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
    sizes = np.array(pass_block_sizes(k1, n, config.num_passes))
    orders = np.array([np.arange(n), *(rng.permutation(n) for _ in sizes[1:])])
    flat = orders.reshape(-1)
    inverse = np.empty_like(orders)
    inverse[np.arange(len(sizes))[:, None], orders] = np.arange(n)
    first = np.concatenate(([0], np.cumsum(-(-n // sizes))))
    start: list[int] = []
    length: list[int] = []
    parity_a: list[int] = []
    parity_g: list[int] = []
    queries = flips = 0

    def log_query(pass_idx: int, block_id: int, idx, pa: int, pg: int) -> None:
        transcript.append(f"{pass_idx},{block_id},{_indices_digest(idx)},{pa},{pg}")

    def ask(pass_idx: int, block_id: int, idx) -> int:
        nonlocal queries
        queries += 1
        pg = oracle_g.parity(idx)
        if transcript is not None:
            log_query(pass_idx, block_id, idx, int(bits[idx].sum() & 1), pg)
        return pg

    def flip(pos: int) -> None:
        nonlocal flips
        flips += 1
        if flips > n:
            raise ReconciliationError(
                f"{flips} flips on a {n}-bit key: every consistent flip "
                "removes one disagreement, so the parity answers contradict "
                "each other"
            )
        bits[pos] ^= 1
        if on_flip is not None:
            on_flip(pos)

    for p, k in enumerate(sizes.tolist()):
        offsets = np.arange(0, n, k)
        pg = oracle_g.parities(orders[p], offsets).tolist()
        # uint8 sums wrap modulo 256, which keeps their parity
        pa = (np.add.reduceat(bits[orders[p]], offsets) & 1).tolist()
        base = len(start)  # this pass's first block id
        start += range(p * n, (p + 1) * n, k)
        length += [k] * (len(pa) - 1) + [n - (len(pa) - 1) * k]
        parity_g += pg
        parity_a += pa
        if transcript is not None:
            for bid, seg in enumerate(np.split(orders[p], offsets[1:]), base):
                log_query(p, bid, seg, parity_a[bid], parity_g[bid])
        heap = [(length[b], b) for b, (x, y) in enumerate(zip(pa, pg), base) if x != y]
        if p == 0:
            cum = [0, *np.cumsum(bits).tolist()]
            for _, bid in sorted(heap):  # heap order: nothing is pushed in pass 0
                lo = start[bid]
                seg = orders[0][lo : lo + length[bid]]
                flip(lo + _search(seg, cum, lo, lambda idx: ask(0, bid, idx)))
            parity_a = parity_g.copy()  # each flip made its odd block even
            continue
        heapq.heapify(heap)
        firsts, ks, inv = first[: p + 1], sizes[: p + 1], inverse[: p + 1]
        while heap:
            bid = heapq.heappop(heap)[1]
            if parity_a[bid] == parity_g[bid]:
                continue  # made even by a later flip
            seg = flat[start[bid] : start[bid] + length[bid]]
            sums = [0, *np.cumsum(bits[seg]).tolist()]
            pos = int(seg[_search(seg, sums, 0, lambda idx: ask(p, bid, idx))])
            flip(pos)
            for hit in (firsts + inv[:, pos] // ks).tolist():
                parity_a[hit] ^= 1
                if parity_a[hit] != parity_g[hit]:
                    heapq.heappush(heap, (length[hit], hit))

    # final full-key parity comparison (a necessary, not sufficient, check)
    full = np.arange(n)
    pg_full = oracle_g.parity(full)
    pa_full = int(bits.sum() & 1)
    if transcript is not None:
        log_query(config.num_passes, -1, full, pa_full, pg_full)

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
    before cascading; they are returned alongside the clamped estimate.
    """
    if len(key_a) != len(key_g):
        raise ParameterError("keys must have equal length")
    if not (0.0 < sample_fraction <= 0.5):
        raise ParameterError("sample_fraction must lie in (0, 0.5]")
    n = len(key_a)
    count = max(1, math.ceil(sample_fraction * n))
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(n, size=count, replace=False))
    disagree = float(np.mean(key_a.bits[positions] != key_g.bits[positions]))
    return QberSample(float(np.clip(disagree, 0.01, 0.49)), positions)


def consume_positions(key: BitKey, positions: np.ndarray) -> BitKey:
    """Remove disclosed positions from a key (post-sampling hygiene)."""
    return BitKey(np.delete(key.bits, positions), key.stage)
