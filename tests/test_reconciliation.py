import hashlib
import heapq
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpkey import (
    BitKey,
    CascadeConfig,
    LocalParityOracle,
    ParameterError,
    ReconciliationError,
    cascade,
    estimate_qber,
)
from chirpkey import reconciliation
from chirpkey.reconciliation import (
    _indices_digest,
    _pack,
    _search,
    consume_positions,
    initial_block_size,
    pass_block_sizes,
)


def _random_keys(rng, n, qber):
    truth = rng.integers(0, 2, n).astype(np.uint8)
    noisy = truth.copy()
    nflips = rng.binomial(n, qber)
    flips = rng.choice(n, size=nflips, replace=False)
    noisy[flips] ^= 1
    return BitKey(noisy), truth


def test_initial_block_size_rule():
    assert initial_block_size(0.05, 512) == math.ceil(0.73 / 0.05)
    assert initial_block_size(0.49, 512) == 4          # clamp floor
    assert initial_block_size(0.001, 512) == 512       # clamp to key length


def test_identical_keys_leak_schedule():
    n = 512
    key = BitKey(np.random.default_rng(0).integers(0, 2, n).astype(np.uint8))
    cfg = CascadeConfig(qber_estimate=0.05, rng_seed=2)
    outcome = cascade(key, LocalParityOracle(key), cfg)
    np.testing.assert_array_equal(outcome.corrected_key.bits, key.bits)
    assert outcome.converged
    k1 = initial_block_size(0.05, n)
    sizes = pass_block_sizes(k1, n, cfg.num_passes)
    expected_leak = sum(math.ceil(n / k) for k in sizes) + 1
    assert outcome.parity_bits_leaked == expected_leak
    assert outcome.parity_messages == cfg.num_passes + 1
    assert outcome.corrected_key.stage == "reconciled"


def test_pass_block_sizes_shape():
    sizes = pass_block_sizes(15, 512, 14)
    assert sizes[0] == 15
    assert sizes[1] == 30 and sizes[2] == 60 and sizes[3] == 120 and sizes[4] == 240
    assert all(s == 256 for s in sizes[5:])  # capped at half the key
    # a huge k1 still leaves later passes with two blocks
    assert pass_block_sizes(512, 512, 3) == [512, 256, 256]


def test_single_error_corrected_at_exact_position():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 2, 256).astype(np.uint8)
    noisy = truth.copy()
    noisy[137] ^= 1
    outcome = cascade(
        BitKey(noisy), LocalParityOracle(truth), CascadeConfig(qber_estimate=0.05)
    )
    np.testing.assert_array_equal(outcome.corrected_key.bits, truth)
    flipped = np.flatnonzero(outcome.corrected_key.bits != noisy)
    np.testing.assert_array_equal(flipped, [137])


@pytest.mark.parametrize("qber", [0.01, 0.05, 0.11])
def test_cascade_monte_carlo_success(qber):
    rng = np.random.default_rng(hash(qber) % 2**32)
    wins = 0
    trials = 200
    for t in range(trials):
        key_a, truth = _random_keys(rng, 512, qber)
        outcome = cascade(
            key_a,
            LocalParityOracle(truth),
            CascadeConfig(qber_estimate=qber, rng_seed=t),
        )
        wins += np.array_equal(outcome.corrected_key.bits, truth)
    assert wins >= int(0.99 * trials)


def test_every_flip_lands_on_a_true_disagreement():
    rng = np.random.default_rng(77)
    for t in range(50):
        key_a, truth = _random_keys(rng, 512, 0.06)
        flips: list[int] = []
        outcome = cascade(
            key_a,
            LocalParityOracle(truth),
            CascadeConfig(qber_estimate=0.06, rng_seed=t),
            on_flip=flips.append,
        )
        replay = key_a.bits.copy()
        for pos in flips:
            assert replay[pos] != truth[pos]  # strictly reduces Hamming distance
            replay[pos] ^= 1
        np.testing.assert_array_equal(replay, outcome.corrected_key.bits)


class _LiarOracle(LocalParityOracle):
    """Far side that inverts every parity answer it gives."""

    def parity(self, indices) -> int:
        return super().parity(indices) ^ 1

    def parities(self, order, heads):
        return super().parities(order, heads) ^ 1

    def runs(self, order):
        run = super().runs(order)
        return lambda lo, hi: run(lo, hi) ^ 1


def test_inconsistent_far_side_raises_instead_of_flipping_forever():
    rng = np.random.default_rng(8)
    key_a, truth = _random_keys(rng, 256, 0.05)
    flips: list[int] = []
    start = time.perf_counter()
    with pytest.raises(ReconciliationError, match="257 flips on a 256-bit key"):
        cascade(key_a, _LiarOracle(truth), CascadeConfig(qber_estimate=0.05),
                on_flip=flips.append)
    assert time.perf_counter() - start < 1.0
    assert len(flips) <= 256 + 1


def test_converged_equals_full_parity_match():
    rng = np.random.default_rng(3)
    for t in range(30):
        key_a, truth = _random_keys(rng, 128, 0.12)
        outcome = cascade(
            key_a,
            LocalParityOracle(truth),
            CascadeConfig(num_passes=1, qber_estimate=0.12, rng_seed=t),
        )
        full_match = int(outcome.corrected_key.bits.sum() & 1) == int(truth.sum() & 1)
        assert outcome.converged == full_match


def test_cascade_deterministic_with_transcript():
    rng = np.random.default_rng(11)
    key_a, truth = _random_keys(rng, 512, 0.05)
    cfg = CascadeConfig(qber_estimate=0.05, rng_seed=9)
    t1: list[str] = []
    t2: list[str] = []
    o1 = cascade(key_a, LocalParityOracle(truth), cfg, transcript=t1)
    o2 = cascade(key_a, LocalParityOracle(truth), cfg, transcript=t2)
    np.testing.assert_array_equal(o1.corrected_key.bits, o2.corrected_key.bits)
    assert o1.parity_bits_leaked == o2.parity_bits_leaked
    assert t1 == t2
    line = re.compile(r"^\d+,-?\d+,[0-9a-f]{16},[01],[01]$")
    assert all(line.match(row) for row in t1)
    assert len(t1) == o1.parity_bits_leaked


def test_leak_counts_dominate_messages():
    rng = np.random.default_rng(21)
    key_a, truth = _random_keys(rng, 1024, 0.08)
    outcome = cascade(
        key_a, LocalParityOracle(truth), CascadeConfig(qber_estimate=0.08)
    )
    assert outcome.parity_bits_leaked >= outcome.parity_messages >= 0


def test_cascade_rejects_auto_and_mismatch():
    key = BitKey(np.zeros(16, dtype=np.uint8))
    with pytest.raises(ParameterError):
        cascade(key, LocalParityOracle(np.zeros(16, dtype=np.uint8)), CascadeConfig())
    with pytest.raises(ParameterError):
        cascade(
            key,
            LocalParityOracle(np.zeros(17, dtype=np.uint8)),
            CascadeConfig(qber_estimate=0.1),
        )


def test_config_validation():
    with pytest.raises(ParameterError):
        CascadeConfig(num_passes=0)
    with pytest.raises(ParameterError):
        CascadeConfig(qber_estimate=0.6)
    with pytest.raises(ParameterError):
        CascadeConfig(qber_estimate="maybe")


def _search_block(positions, local_bits, parity_g):
    """Position of one differing bit in the odd block ``positions``, found by
    cascade's search over ``local_bits`` packed into one int; ``parity_g``
    answers index sets, and the search must count every answer it asks."""
    seg = np.asarray(positions, dtype=np.intp)
    asked = []

    def run_g(lo, hi):
        asked.append((lo, hi))
        return parity_g(seg[lo:hi])

    at, count = _search(_pack(local_bits), 0, len(seg), run_g)
    assert count == len(asked)
    return int(seg[at])


def test_binary_search_single_error_all_offsets():
    truth = np.zeros(8, dtype=np.uint8)
    for err in range(8):
        local = truth.copy()
        local[err] ^= 1
        queries = 0

        def parity_g(idx):
            nonlocal queries
            queries += 1
            return int(truth[np.asarray(idx, dtype=np.intp)].sum() & 1)

        positions = np.arange(8)
        pos = _search_block(positions, local[positions], parity_g)
        assert pos == err
        assert queries <= 3


def test_binary_search_block_of_one():
    truth = np.array([1], dtype=np.uint8)
    local = np.array([0], dtype=np.uint8)
    queries = 0

    def parity_g(idx):
        nonlocal queries
        queries += 1
        return 1

    positions = np.array([0])
    pos = _search_block(positions, local[positions], parity_g)
    assert pos == 0 and queries == 0


def test_binary_search_three_errors_returns_a_true_one():
    from itertools import combinations

    truth = np.zeros(8, dtype=np.uint8)
    for errs in combinations(range(8), 3):
        local = truth.copy()
        local[list(errs)] ^= 1
        positions = np.arange(8)
        pos = _search_block(
            positions,
            local[positions],
            lambda idx: int(truth[np.asarray(idx)].sum() & 1),
        )
        assert pos in errs


def _binary_search_reference(positions, parity_a, parity_g):
    """Reference search: one local and one far-side parity call per
    halving, each on the left half of the remaining segment."""
    seg = np.asarray(positions, dtype=np.intp)
    while len(seg) > 1:
        half = (len(seg) + 1) // 2
        left = seg[:half]
        if parity_a(left) != parity_g(left):
            seg = left
        else:
            seg = seg[half:]
    return int(seg[0])


@pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 73, 1024, 1100])
def test_binary_search_equals_reference(length):
    rng = np.random.default_rng(length)
    for trial in range(40):
        n = length + int(rng.integers(0, 50))
        truth = rng.integers(0, 2, n).astype(np.uint8)
        positions = rng.permutation(n)[:length]
        local = truth.copy()
        errors = min(1 + trial % 5, length)
        local[rng.choice(positions, size=errors, replace=False)] ^= 1
        asked = {"reference": [], "prefix": []}

        def far(name):
            def parity_g(idx):
                asked[name].append(np.asarray(idx).tolist())
                return int(truth[idx].sum() & 1)
            return parity_g

        want = _binary_search_reference(
            positions, lambda idx: int(local[idx].sum() & 1), far("reference")
        )
        got = _search_block(positions, local[positions], far("prefix"))
        assert got == want
        assert asked["prefix"] == asked["reference"]


def test_parity_answers_are_python_scalars():
    # repr() of a numpy scalar differs from a Python one (np.True_ vs True),
    # so a numpy answer would surface only as a pinned-transcript mismatch
    rng = np.random.default_rng(4)
    key_a, truth = _random_keys(rng, 256, 0.05)
    oracle = LocalParityOracle(truth)
    answer = oracle.parity(np.arange(10))
    assert type(answer) is int, f"parity() returned {type(answer)!r}, not int"
    run = oracle.runs(np.arange(256)[::-1])
    for lo, hi in ((0, 1), (3, 11), (0, 256)):
        answer = run(lo, hi)
        assert type(answer) is int, f"a run query returned {type(answer)!r}, not int"
    outcome = cascade(key_a, oracle, CascadeConfig(qber_estimate=0.05))
    assert type(outcome.converged) is bool, (
        f"converged is {type(outcome.converged)!r}, not bool"
    )


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 2048, 4097])
def test_run_query_equals_parity_of_the_run(n):
    # the run query reads the key packed into whole bytes and held in 30-bit
    # int digits, so runs that start or end near byte, digit and 64-bit word
    # edges, or at the key's end, are checked; up to 65 bits, every run is
    rng = np.random.default_rng([n, 27])
    truth = rng.integers(0, 2, n).astype(np.uint8)
    oracle = LocalParityOracle(truth)
    order = rng.permutation(n)
    run = oracle.runs(order)
    if n <= 65:
        points = range(n + 1)
    else:
        edges = (0, 8, 30, 60, 64, 1024, n // 2, n - 64, n - 8, n)
        near = {e + d for e in edges for d in (-1, 0, 1)}
        near.update(rng.integers(0, n + 1, 20).tolist())
        points = sorted(e for e in near if 0 <= e <= n)
    for lo in points:
        for hi in points:
            if lo < hi:
                assert run(lo, hi) == oracle.parity(order[lo:hi]), (lo, hi)


def test_qber_estimate_clamps():
    bits = np.random.default_rng(0).integers(0, 2, 400).astype(np.uint8)
    same = BitKey(bits)
    assert estimate_qber(same, same, 0.2).estimate == 0.01
    flipped = BitKey(1 - bits)
    assert estimate_qber(same, flipped, 0.25).estimate == 0.49


def test_qber_estimate_binomial_accuracy():
    rng = np.random.default_rng(42)
    inside = 0
    trials = 1000
    for t in range(trials):
        key_a, truth = _random_keys(rng, 2048, 0.10)
        est = estimate_qber(key_a, BitKey(truth), 0.2, seed=t)
        inside += 0.06 <= est.estimate <= 0.14
    assert inside >= int(0.95 * trials)


def test_qber_sample_consumption():
    rng = np.random.default_rng(9)
    key_a, truth = _random_keys(rng, 100, 0.1)
    key_g = BitKey(truth)
    sample = estimate_qber(key_a, key_g, 0.3, seed=4)
    trimmed_a = consume_positions(key_a, sample.positions)
    trimmed_g = consume_positions(key_g, sample.positions)
    assert len(trimmed_a) == len(trimmed_g) == 100 - len(sample.positions)
    assert len(sample.positions) == math.ceil(0.3 * 100)


def test_qber_sample_of_the_whole_key_is_an_error():
    # a sample that takes every bit would hand cascade two empty keys
    one = BitKey(np.array([1], dtype=np.uint8))
    with pytest.raises(ParameterError, match="1-bit QBER sample .* 1-bit key"):
        estimate_qber(one, one, 0.1)
    two = BitKey(np.array([1, 0], dtype=np.uint8))
    assert len(estimate_qber(two, two, 0.5).positions) == 1


@given(st.integers(min_value=16, max_value=256), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_cascade_never_increases_disagreement(n, seed):
    rng = np.random.default_rng(seed)
    key_a, truth = _random_keys(rng, n, 0.08)
    before = int(np.sum(key_a.bits != truth))
    outcome = cascade(
        key_a, LocalParityOracle(truth), CascadeConfig(qber_estimate=0.08, rng_seed=seed)
    )
    after = int(np.sum(outcome.corrected_key.bits != truth))
    assert after <= before
    assert len(outcome.corrected_key) == n


# SHA-256 over corrected bits, leak, messages, converged, transcript and flip
# order of every (q, passes) case below, per key length n.  Cascade's outputs
# are part of the protocol, so any rewrite of it must reproduce these exactly.
PINNED_CASCADE = {
    1: "75ae0335683e21ef6c64825a241ad63e30d1173c06ea784f76e692e8b8f02bb7",
    3: "6fc7fcd206712ef4340707535ae5b82e784eefee66ce53a2b81d73c5cd1545eb",
    31: "011212da033c576c48bfe4e061b1e79cac8a9b7ae1a657304425cc59cf4f7ab1",
    280: "0aa18e1e6b43be5f5c466ac194c53753ccbd2dfa63e61f12d61dd5022ae934b9",
    2048: "c9d43665db634fa4eda083c538f1399e2f4cddba3783df78fd52b8d16a4ff741",
}


@pytest.mark.parametrize("n", sorted(PINNED_CASCADE))
def test_cascade_matches_pinned_transcripts(n):
    # (estimated QBER, true error rate, passes); the last two cases under-estimate
    # the error rate, so k1 > n/2 for n = 280 with several errors to correct
    grid = [(q, q, p) for q in (0.002, 0.01, 0.11, 0.45) for p in (1, 3, 14)]
    grid += [(0.002, 0.05, 3), (0.002, 0.05, 14)]
    h = hashlib.sha256()
    for q_est, q_true, passes in grid:
        rng = np.random.default_rng([n, round(q_true * 1000), passes])
        truth = rng.integers(0, 2, n).astype(np.uint8)
        noisy = truth.copy()
        noisy[rng.random(n) < q_true] ^= 1
        cfg = CascadeConfig(num_passes=passes, qber_estimate=q_est, rng_seed=n + passes)
        for transcript in (None, []):
            flips: list[int] = []
            out = cascade(
                BitKey(noisy), LocalParityOracle(truth), cfg,
                transcript=transcript, on_flip=flips.append,
            )
            h.update(out.corrected_key.bits.tobytes())
            h.update(repr((out.parity_bits_leaked, out.parity_messages,
                           out.converged, flips, transcript)).encode())
    assert h.hexdigest() == PINNED_CASCADE[n]


def _cascade_reference(key_a, oracle_g, config, transcript=None, on_flip=None):
    """Reference cascade: one numpy block table for all passes, every odd
    block (pass 0 too) taken from a heap and searched by
    ``_binary_search_reference`` with each half's local parity summed
    directly, and each flip's block ids gathered and toggled as arrays."""
    n = len(oracle_g)
    bits = key_a.bits.copy()
    k1 = initial_block_size(float(config.qber_estimate), n)
    rng = np.random.default_rng(config.rng_seed)
    sizes = np.array(pass_block_sizes(k1, n, config.num_passes))
    orders = np.vstack([np.arange(n)] + [rng.permutation(n) for _ in sizes[1:]])
    flat = orders.reshape(-1)
    inverse = np.empty_like(orders)
    inverse[np.arange(len(sizes))[:, None], orders] = np.arange(n)
    first = np.concatenate(([0], np.cumsum(-(-n // sizes))))
    start = np.concatenate([p * n + np.arange(0, n, k) for p, k in enumerate(sizes)])
    length = np.diff(start, append=orders.size)
    parity_a = np.zeros(first[-1], dtype=np.uint8)
    parity_g = np.zeros(first[-1], dtype=np.uint8)
    queries = flips = 0

    def local_parity(idx) -> int:
        return int(bits[idx].sum() & 1)

    def log_query(pass_idx, block_id, idx, pa, pg) -> None:
        transcript.append(f"{pass_idx},{block_id},{_indices_digest(idx)},{pa},{pg}")

    def ask(pass_idx, block_id, idx) -> int:
        nonlocal queries
        queries += 1
        pg = oracle_g.parity(idx)
        if transcript is not None:
            log_query(pass_idx, block_id, idx, local_parity(idx), pg)
        return pg

    for p, k in enumerate(sizes):
        ids = np.arange(first[p], first[p + 1])
        heads = np.arange(0, n, k)
        parity_g[ids] = oracle_g.parities(orders[p], heads)
        parity_a[ids] = np.add.reduceat(bits[orders[p]], heads) & 1
        if transcript is not None:
            for bid, seg in zip(ids.tolist(), np.split(orders[p], heads[1:])):
                log_query(p, bid, seg, parity_a[bid], parity_g[bid])
        odd = ids[parity_a[ids] != parity_g[ids]]
        heap = list(zip(length[odd].tolist(), odd.tolist()))
        heapq.heapify(heap)
        while heap:
            bid = heapq.heappop(heap)[1]
            if parity_a[bid] == parity_g[bid]:
                continue
            seg = flat[start[bid] : start[bid] + length[bid]]
            pos = _binary_search_reference(
                seg, local_parity, lambda idx: ask(p, bid, idx)
            )
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
            hit = first[: p + 1] + inverse[: p + 1, pos] // sizes[: p + 1]
            parity_a[hit] ^= 1
            hit = hit[parity_a[hit] != parity_g[hit]]
            for entry in zip(length[hit].tolist(), hit.tolist()):
                heapq.heappush(heap, entry)

    full = np.arange(n)
    pg_full = oracle_g.parity(full)
    converged = local_parity(full) == pg_full
    if transcript is not None:
        log_query(config.num_passes, -1, full, local_parity(full), pg_full)
    return (bits, int(first[-1]) + queries + 1, config.num_passes + queries + 1, converged)


def _run_both(key_a, oracle, cfg, with_transcript):
    """(outcome or error text, transcript, flips) of cascade and of the reference."""
    runs = []
    for fn in (cascade, _cascade_reference):
        transcript = [] if with_transcript else None
        flips: list[int] = []
        try:
            out = fn(key_a, oracle, cfg, transcript=transcript, on_flip=flips.append)
        except ReconciliationError as err:
            out = str(err)
        else:
            if fn is cascade:
                out = (out.corrected_key.bits, out.parity_bits_leaked,
                       out.parity_messages, out.converged)
            out = (out[0].tobytes(), *out[1:])
        runs.append((out, transcript, flips))
    return runs


@pytest.mark.parametrize("n", [1, 3, 31, 64, 280, 1100, 2048])
def test_cascade_equals_reference(n):
    rng = np.random.default_rng([n, 18])
    for passes in (1, 3, 14):
        for scale in (0.25, 4.0):  # under- and over-estimated QBER
            for with_transcript in (False, True):
                q_true = float(rng.uniform(0.0, 0.15))
                q_est = float(np.clip(q_true * scale, 0.002, 0.45))
                truth = rng.integers(0, 2, n).astype(np.uint8)
                noisy = truth.copy()
                noisy[rng.random(n) < q_true] ^= 1
                cfg = CascadeConfig(num_passes=passes, qber_estimate=q_est,
                                    rng_seed=int(rng.integers(2**31)))
                got, want = _run_both(BitKey(noisy), LocalParityOracle(truth), cfg,
                                      with_transcript)
                assert got == want, (n, passes, scale, with_transcript)
                if not with_transcript:  # same error text after the same flips
                    got, want = _run_both(BitKey(noisy), _LiarOracle(truth), cfg, False)
                    assert got == want, (n, passes, scale, "liar")


def _odd_block_passes(transcript):
    """Passes whose transcript holds an odd block or half: the passes that search."""
    return sorted({int(row.split(",")[0]) for row in transcript
                   if row.split(",")[3] != row.split(",")[4]})


def _assert_cascade_equals_reference(key_a, truth, cfg):
    """cascade and the reference agree with and without a transcript, and
    against a far side that lies; returns cascade's (outcome, transcript, flips)."""
    runs = {}
    for oracle in (LocalParityOracle(truth), _LiarOracle(truth)):
        for with_transcript in (False, True):
            got, want = _run_both(key_a, oracle, cfg, with_transcript)
            assert got == want, (type(oracle).__name__, with_transcript)
            runs[type(oracle), with_transcript] = got
    return runs[LocalParityOracle, True]


# (n, estimated QBER, cascade seed, key seed, error positions, passes that
# search), found by a seeded search over pairs of errors inside one pass-0
# block: every block of passes 0 and 1 holds an even number of errors, so
# the first flip comes in pass 2 or later and fills several inverse rows at
# once; where two passes search, the second flip fills rows again
LATE_FIRST_FLIP = [
    (64, 0.05, 226, 415, (0, 2, 17, 20), [2]),
    (64, 0.05, 245, 133, (5, 9, 33, 44), [3, 5]),
    (64, 0.05, 892, 434, (1, 14, 51, 53), [13]),
    (280, 0.02, 558, 547, (13, 34, 155, 159), [2, 3]),
    (280, 0.02, 691, 668, (8, 29, 185, 203), [4, 5]),
    (1100, 0.01, 14, 250, (165, 181, 400, 434), [2, 11]),
    (1100, 0.01, 512, 997, (178, 190), [9]),
]


@pytest.mark.parametrize("case", LATE_FIRST_FLIP, ids=lambda c: f"n{c[0]}-pass" + "-".join(map(str, c[5])))
def test_cascade_equals_reference_after_late_first_flip(case):
    n, q_est, cascade_seed, key_seed, errors, searched = case
    truth = np.random.default_rng(key_seed).integers(0, 2, n).astype(np.uint8)
    noisy = truth.copy()
    noisy[list(errors)] ^= 1
    cfg = CascadeConfig(qber_estimate=q_est, rng_seed=cascade_seed)
    out, transcript, flips = _assert_cascade_equals_reference(BitKey(noisy), truth, cfg)
    assert _odd_block_passes(transcript) == searched
    assert sorted(flips) == sorted(errors)


# (n, estimated QBER): n is a multiple of no block size, so every pass ends
# in a short block just before the next pass's first head
SHORT_LAST_BLOCKS = [(251, 0.03), (251, 0.11), (1009, 0.01), (1009, 0.05)]


@pytest.mark.parametrize("n, q_est", SHORT_LAST_BLOCKS)
def test_cascade_equals_reference_with_short_last_blocks(n, q_est):
    rng = np.random.default_rng([n, round(q_est * 1000), 29])
    for passes in (1, 3, 14):
        sizes = pass_block_sizes(initial_block_size(q_est, n), n, passes)
        assert all(n % k for k in sizes), sizes
        q_true = float(rng.uniform(0.0, 0.15))
        truth = rng.integers(0, 2, n).astype(np.uint8)
        noisy = truth.copy()
        noisy[rng.random(n) < q_true] ^= 1
        cfg = CascadeConfig(num_passes=passes, qber_estimate=q_est,
                            rng_seed=int(rng.integers(2**31)))
        _assert_cascade_equals_reference(BitKey(noisy), truth, cfg)


class _CountingOracle(LocalParityOracle):
    """Far side that tallies every parity bit it answers."""

    answers = 0

    def parity(self, indices) -> int:
        self.answers += 1
        return super().parity(indices)

    def parities(self, order, heads):
        self.answers += len(heads)
        return super().parities(order, heads)

    def runs(self, order):
        run = super().runs(order)

        def counted(lo, hi):
            self.answers += 1
            return run(lo, hi)

        return counted


def test_leak_counts_every_parity_answer():
    rng = np.random.default_rng(1818)
    for _ in range(40):
        n = int(rng.integers(1, 1500))
        q_true = float(rng.uniform(0.0, 0.15))
        truth = rng.integers(0, 2, n).astype(np.uint8)
        noisy = truth.copy()
        noisy[rng.random(n) < q_true] ^= 1
        oracle = _CountingOracle(truth)
        cfg = CascadeConfig(num_passes=int(rng.integers(1, 15)),
                            qber_estimate=float(rng.uniform(0.005, 0.3)),
                            rng_seed=int(rng.integers(2**31)))
        outcome = cascade(BitKey(noisy), oracle, cfg)
        assert oracle.answers == outcome.parity_bits_leaked


def _cascade_call(n, seed):
    """Bits, leak, messages, converged, transcript and flips of a 14-pass
    cascade at 5% errors."""
    rng = np.random.default_rng([n, seed])
    key_a, truth = _random_keys(rng, n, 0.05)
    transcript, flips = [], []
    out = cascade(key_a, LocalParityOracle(truth),
                  CascadeConfig(qber_estimate=0.05, rng_seed=seed),
                  transcript=transcript, on_flip=flips.append)
    return (out.corrected_key.bits.tobytes(), out.parity_bits_leaked,
            out.parity_messages, out.converged, transcript, flips)


def test_retained_pass_tables_change_no_outcome(monkeypatch):
    # 2048, 512 and 2048 bits share one retained pair of tables; 5000 x 14
    # passes is above the cap and gets a pair of its own, which is not kept
    calls = [(2048, 1), (512, 2), (2048, 3), (5000, 4)]
    assert 2048 * 14 <= reconciliation._TABLE_CAP < 5000 * 14
    monkeypatch.setattr(reconciliation, "_spare_tables", [])
    got, kept = [], []
    for call in calls:
        got.append(_cascade_call(*call))
        kept.append([id(t) for t in reconciliation._spare_tables[0]])
    assert kept[0] == kept[1] == kept[2] == kept[3]
    assert all(t.size <= reconciliation._TABLE_CAP for t in reconciliation._spare_tables[0])
    for call, want in zip(calls, got):
        reconciliation._spare_tables.clear()  # fresh tables
        assert _cascade_call(*call) == want, call
    for call, want in zip(calls, got):
        for pair in reconciliation._spare_tables:
            for table in pair:
                table.fill(0)  # what an earlier call left is never read
        assert _cascade_call(*call) == want, call
