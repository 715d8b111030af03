import functools
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import physec.keystream as ks_module
from physec.bits import STAGE_AMPLIFIED, STAGE_QUANTIZED, BitKey
from physec.errors import KeystreamExhausted, ParameterError
from physec.keystream import (
    BLOCK_BITS,
    KeystreamRegions,
    KeystreamSeed,
    keyed_permutation,
    keyed_subset,
    keystream,
    permutation_allocation_bits,
    subset_allocation_bits,
    xor_encrypt,
)
from physec.ofdm import wifi_like_config


# A sequential reader of keystream words: the reference that the draw
# kernel behind keyed_permutation and keyed_subset must match.
class BitReader:
    """Sequential reader over a keystream slice with exhaustion checking.

    The slice is packed once into a Python integer, MSB first, so a word of
    any width is one shift and mask rather than a loop over its bits.
    """

    def __init__(self, bits):
        self._bits = np.asarray(bits, dtype=np.uint8)
        packed = np.packbits(self._bits)
        self._word = int.from_bytes(packed.tobytes(), "big")
        self._width = 8 * packed.size
        self._size = self._bits.size
        self._pos = 0

    @property
    def consumed(self) -> int:
        return self._pos

    def _exhausted(self, count: int) -> KeystreamExhausted:
        return KeystreamExhausted(f"needed {count} bits, {self._size - self._pos} left")

    def read_word(self, width: int) -> int:
        """Next `width` bits as a big-endian integer."""
        end = self._pos + width
        if end > self._size:
            raise self._exhausted(width)
        self._pos = end
        return (self._word >> (self._width - end)) & ((1 << width) - 1)

    def read_bits(self, count: int) -> np.ndarray:
        start = self._pos
        if start + count > self._size:
            raise self._exhausted(count)
        self._pos = start + count
        return self._bits[start : self._pos]

    def draw_uniform(self, m: int) -> int:
        """Unbiased draw from {0, .., m-1} by rejection sampling."""
        if m < 1:
            raise ParameterError("m must be >= 1")
        if m == 1:
            return 0
        width = (m - 1).bit_length()
        while True:
            value = self.read_word(width)
            if value < m:
                return value


def _loop_permutation(n, ks):
    """keyed_permutation as a draw loop over the reference reader."""
    reader = BitReader(ks)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = reader.draw_uniform(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.intp)


def _loop_subset(pool, count, ks):
    """keyed_subset as a draw loop over the reference reader."""
    arr = np.asarray(pool, dtype=np.intp).tolist()
    reader = BitReader(ks)
    for i in range(count):
        j = i + reader.draw_uniform(len(arr) - i)
        arr[i], arr[j] = arr[j], arr[i]
    return np.array(arr[:count], dtype=np.intp)


def _seed(seed_int=0, nonce=0, n=128):
    rng = np.random.default_rng(seed_int)
    key = BitKey(rng.integers(0, 2, size=n, dtype=np.uint8), STAGE_AMPLIFIED)
    return KeystreamSeed(key, nonce=nonce)


def test_keystream_deterministic():
    s = _seed(0)
    assert np.array_equal(keystream(s, 1000), keystream(s, 1000))
    assert not np.array_equal(keystream(s, 1000), keystream(_seed(1), 1000))


def test_keystream_seek_by_block():
    s = _seed(2)
    full = keystream(s, 512)
    assert np.array_equal(full[256:], keystream(s, 256, block_offset=1))
    assert np.array_equal(full[:256], keystream(s, 256, block_offset=0))


def test_keystream_nonce_offset_equivalence():
    key = _seed(3).key
    a = keystream(KeystreamSeed(key, nonce=5), 256)
    b = keystream(KeystreamSeed(key, nonce=0), 256, block_offset=5)
    assert np.array_equal(a, b)


def test_keystream_key_avalanche():
    rng = np.random.default_rng(4)
    base = rng.integers(0, 2, size=128, dtype=np.uint8)
    ref = keystream(KeystreamSeed(BitKey(base, STAGE_AMPLIFIED)), 10_000)
    flipped = base.copy()
    flipped[17] ^= 1
    other = keystream(KeystreamSeed(BitKey(flipped, STAGE_AMPLIFIED)), 10_000)
    assert abs(np.mean(ref != other) - 0.5) < 0.02
    assert abs(ref.mean() - 0.5) < 0.02


def test_keystream_lengths_and_validation():
    s = _seed(5)
    assert keystream(s, 0).size == 0
    assert keystream(s, 1).size == 1
    assert keystream(s, 257).size == 257
    with pytest.raises(ParameterError):
        keystream(s, -1)


def test_keystream_rows_take_one_seed_per_row():
    # repeated seeds, an equal seed as another object, odd nonces, and one
    # counter that wraps past 2^64
    base = [_seed(7, nonce=3), _seed(8, nonce=(1 << 64) - 2), _seed(9)]
    seeds = (base[0], base[1], base[0], _seed(7, nonce=3), base[2], base[1])
    offsets = [0, 1, 5, 2, 0, 40]
    for n_bits in (0, 1, 300, 600):
        rows = keystream(seeds, n_bits, offsets)
        assert rows.shape == (len(seeds), n_bits)
        for row, seed, offset in zip(rows, seeds, offsets):
            assert np.array_equal(row, keystream(seed, n_bits, offset))
    rows = keystream(seeds, 300, offsets)
    assert np.array_equal(keystream(list(seeds), 300, offsets), rows)
    assert keystream((), 300, []).shape == (0, 300)
    with pytest.raises(ParameterError, match="one seed per row"):
        keystream(seeds[:-1], 300, offsets)
    assert np.array_equal(keystream(seeds[:1], 300, 5), keystream(seeds[0], 300, 5))
    with pytest.raises(ParameterError, match="one seed per row"):
        keystream(seeds[:2], 300, 5)
    with pytest.raises(ParameterError, match="KeystreamSeed"):
        keystream(seeds[:-1] + (base[0].key,), 300, offsets)
    with pytest.raises(ParameterError, match="one seed per row"):
        KeystreamRegions(seeds, 300, offsets[:-1])


def test_seed_stage_enforcement():
    rng = np.random.default_rng(6)
    raw = BitKey(rng.integers(0, 2, size=128, dtype=np.uint8), STAGE_QUANTIZED)
    with pytest.raises(ParameterError):
        KeystreamSeed(raw)
    good = BitKey(raw.bits, STAGE_AMPLIFIED)
    with pytest.raises(ParameterError):
        KeystreamSeed(good, nonce=1 << 64)
    with pytest.raises(ParameterError):
        KeystreamSeed(good, nonce=-1)
    with pytest.raises(ParameterError):
        KeystreamSeed(BitKey([], STAGE_AMPLIFIED))


def test_xor_encrypt_examples():
    out = xor_encrypt([1, 0, 1, 0], [0, 1, 1, 0])
    assert list(out) == [1, 1, 0, 0]
    plain = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
    ks = keystream(_seed(7), 6)
    assert np.array_equal(xor_encrypt(xor_encrypt(plain, ks), ks), plain)
    with pytest.raises(ParameterError):
        xor_encrypt(plain, ks[:4])


def test_bit_reader_words_msb_first():
    r = BitReader([1, 0, 1, 1, 1, 0])
    assert r.read_word(3) == 0b101
    assert list(r.read_bits(2)) == [1, 1]
    assert r.consumed == 5
    with pytest.raises(KeystreamExhausted):
        r.read_word(2)


def test_draw_uniform_edge_cases():
    r = BitReader([])
    assert r.draw_uniform(1) == 0
    assert r.consumed == 0
    with pytest.raises(ParameterError):
        r.draw_uniform(0)
    # width-2 draws for m = 3 reject the value 3 and redraw
    r2 = BitReader([1, 1, 0, 1])
    assert r2.draw_uniform(3) == 1
    assert r2.consumed == 4


def test_permutation_basics():
    assert list(keyed_permutation(1, [])) == [0]
    ks = keystream(_seed(8), permutation_allocation_bits(64))
    perm = keyed_permutation(64, ks)
    assert sorted(perm) == list(range(64))


def test_permutation_uniform_n4():
    s = _seed(9)
    budget = permutation_allocation_bits(4)
    counts = {}
    n_draws = 10_000
    # one long stream, chopped into per-draw slices: one row each
    blob = keystream(s, budget * n_draws)
    for p in keyed_permutation(4, blob.reshape(n_draws, budget)).tolist():
        counts[tuple(p)] = counts.get(tuple(p), 0) + 1
    assert len(counts) == 24
    for c in counts.values():
        assert abs(c / n_draws - 1 / 24) < 0.02


def test_permutation_exhaustion():
    with pytest.raises(KeystreamExhausted):
        keyed_permutation(64, keystream(_seed(10), 8))
    with pytest.raises(ParameterError):
        keyed_permutation(0, [])


def test_allocation_bounds_suffice():
    # frozen seeds: the 4x budget never runs dry across many draws
    for n in (2, 3, 5, 16, 64):
        budget = permutation_allocation_bits(n)
        for nonce in range(50):
            ks = keystream(_seed(11, nonce=nonce), budget)
            keyed_permutation(n, ks)
    budget = subset_allocation_bits(48, 4)
    for nonce in range(200):
        keyed_subset(np.arange(48), 4, keystream(_seed(12, nonce=nonce), budget))


def test_subset_selection():
    pool = np.arange(100, 148)
    ks = keystream(_seed(13), subset_allocation_bits(48, 6))
    sub = keyed_subset(pool, 6, ks)
    assert sub.size == 6
    assert len(set(sub.tolist())) == 6
    assert set(sub.tolist()) <= set(pool.tolist())
    assert keyed_subset(pool, 0, []).size == 0
    full = keyed_subset(np.arange(5), 5, keystream(_seed(14), 200))
    assert sorted(full) == list(range(5))
    with pytest.raises(ParameterError):
        keyed_subset(pool, 49, ks)


def test_subset_pool_must_hold_integers():
    ks = keystream(_seed(15), 100)
    for pool in ([0.5, 1.7, 2.2], np.array([True, False, True])):
        with pytest.raises(ParameterError, match="integers"):
            keyed_subset(pool, 2, ks)
    # an empty pool is still valid, and the codec's tuple of idle carriers
    # draws as its integer array does
    assert keyed_subset([], 0, ks).size == 0
    idle = wifi_like_config().idle_carriers
    assert np.array_equal(
        keyed_subset(idle, 4, ks), keyed_subset(np.array(idle, dtype=np.uint8), 4, ks)
    )


@pytest.mark.parametrize("shape", [(), (2, 3, 64)])
def test_draws_refuse_keystream_that_is_not_1d_or_2d(shape):
    bits = np.ones(shape, dtype=np.uint8)
    want = f"keystream must be 1-D or 2-D, got shape {shape}"
    draws = [
        functools.partial(keyed_permutation, 1),
        functools.partial(keyed_permutation, 4),
        functools.partial(keyed_subset, np.arange(8), 2),
    ]
    for draw in draws:
        with pytest.raises(ParameterError) as error:
            draw(bits)
        assert str(error.value) == want


def test_allocation_validation():
    with pytest.raises(ParameterError):
        permutation_allocation_bits(0)
    with pytest.raises(ParameterError):
        subset_allocation_bits(4, 5)
    assert permutation_allocation_bits(1) == 0
    assert subset_allocation_bits(4, 0) == 0


def test_allocation_bits_equal_closed_form_sums():
    # step k of a Fisher-Yates run over m = size - k choices reads
    # ceil(log2 m) bits per attempt; the budget is four attempts a step
    def width(m):
        return math.ceil(math.log2(m)) if m > 1 else 0

    for n in range(1, 65):
        want = 4 * sum(width(n - k) for k in range(n - 1))
        assert permutation_allocation_bits(n) == want, n
    for pool in range(65):
        for count in range(pool + 1):
            want = 4 * sum(width(pool - k) for k in range(count))
            assert subset_allocation_bits(pool, count) == want, (pool, count)


def _bitwise_words(bits, widths):
    """Reference reader: each word built one bit at a time, MSB first."""
    pos, words = 0, []
    for width in widths:
        word = 0
        for b in bits[pos : pos + width]:
            word = (word << 1) | int(b)
        words.append(word)
        pos += width
    return words


def test_bit_reader_matches_bitwise_reference():
    rng = np.random.default_rng(15)
    for size in (1, 7, 8, 9, 63, 257, 1284):
        bits = rng.integers(0, 2, size, dtype=np.uint8)
        widths = []
        while sum(widths) < size:
            widths.append(int(rng.integers(0, 9)))
        widths[-1] -= sum(widths) - size
        reader = BitReader(bits)
        for width, expected in zip(widths, _bitwise_words(bits, widths)):
            before = reader.consumed
            assert reader.read_word(width) == expected
            assert reader.consumed == before + width
        assert reader.consumed == size


def test_bit_reader_exhaustion_leaves_position():
    r = BitReader([1, 0, 1, 1, 0, 1, 1, 1, 0, 1])
    assert r.read_word(9) == 0b101101110
    with pytest.raises(KeystreamExhausted, match="needed 2 bits, 1 left"):
        r.read_word(2)
    assert r.consumed == 9
    with pytest.raises(KeystreamExhausted, match="needed 3 bits, 1 left"):
        r.read_bits(3)
    assert r.consumed == 9
    assert r.read_word(0) == 0
    assert list(r.read_bits(1)) == [1]
    assert r.consumed == 10
    with pytest.raises(KeystreamExhausted):
        r.draw_uniform(2)
    assert r.consumed == 10


GOLDEN_KEYED_SHA256 = "9c3e5a0584844dbc0779fbcf051b02c292abbd8c15515d442721263b10d1631b"


def test_keyed_primitives_golden_hash():
    # integers only, so the hash holds on any platform
    key = BitKey(
        np.random.default_rng(2026).integers(0, 2, 128, dtype=np.uint8),
        STAGE_AMPLIFIED,
    )
    digest = hashlib.sha256()
    for nonce in range(1000):
        seed = KeystreamSeed(key, nonce)
        perm = keyed_permutation(64, keystream(seed, permutation_allocation_bits(64)))
        sub = keyed_subset(
            np.arange(16, 64), 4, keystream(seed, subset_allocation_bits(48, 4))
        )
        digest.update(perm.astype(np.int64).tobytes())
        digest.update(sub.astype(np.int64).tobytes())
    assert digest.hexdigest() == GOLDEN_KEYED_SHA256


def _outcome(draw, ks):
    """The draw's result as a list, or the text of its KeystreamExhausted."""
    try:
        return draw(ks).tolist()
    except KeystreamExhausted as exc:
        return f"exhausted: {exc}"


def _reference_rows(reference, rows):
    """The reference draw loop over each keystream row in turn: the rows it
    draws, or the KeystreamExhausted text of the first row that runs dry."""
    drawn = []
    for bits in rows:
        outcome = _outcome(reference, bits)
        if isinstance(outcome, str):
            return outcome
        drawn.append(outcome)
    return drawn


def _perm_case(n):
    """(kernel, reference, budget) of keyed_permutation(n)."""
    return (
        functools.partial(keyed_permutation, n),
        functools.partial(_loop_permutation, n),
        permutation_allocation_bits(n),
    )


def _subset_case(pool, count):
    """(kernel, reference, budget) of keyed_subset(pool, count)."""
    return (
        functools.partial(keyed_subset, pool, count),
        functools.partial(_loop_subset, pool, count),
        subset_allocation_bits(len(pool), count),
    )


@pytest.mark.parametrize(
    "size, count",
    [(1, None), (2, None), (3, None), (5, None), (16, None), (64, None),
     (48, 4), (5, 5), (1, 1), (1000, 8), (2000, 8)],
)
def test_draw_kernel_matches_reference_reader(size, count):
    # count None: keyed_permutation(size); else keyed_subset of a size pool;
    # the last two draw 10 and 11 bits a word, and 11-bit words start at
    # every bit offset of a byte, so some of them straddle three bytes
    if count is None:
        kernel, reference, budget = _perm_case(size)
    else:
        kernel, reference, budget = _subset_case(np.arange(100, 100 + size), count)
    rng = np.random.default_rng(size * 100 + (count or 0))
    random = [rng.integers(0, 2, budget, dtype=np.uint8) for _ in range(20)]
    # mostly ones: draws land at or above m and are rejected again and again
    heavy = [(rng.random(budget) < 0.9).astype(np.uint8) for _ in range(20)]
    short = [ks[:cut] for ks in (random[0], heavy[0]) for cut in range(budget + 1)]
    outcomes = []
    for ks in random + heavy + short:
        outcome = _outcome(kernel, ks)
        assert outcome == _outcome(reference, ks)
        outcomes.append(outcome)
    exhausted = sum(isinstance(o, str) for o in outcomes)
    assert exhausted < len(outcomes)
    # a draw needs bits exactly when some step has more than one choice
    assert (exhausted > 0) == (budget > 0)
    # the same rows as [F, n_bits] batches: one draw per row, or the first
    # row's error that runs dry
    for rows in (np.array(random + heavy), np.array(heavy + random)):
        assert _outcome(kernel, rows) == _reference_rows(reference, rows)
    for cut in range(0, budget + 1, max(1, budget // 20)):
        rows = np.array([random[0][:cut], heavy[0][:cut], random[1][:cut]])
        assert _outcome(kernel, rows) == _reference_rows(reference, rows)
    assert _outcome(kernel, np.zeros((0, budget), dtype=np.uint8)) == []


def _blocks_by_row(hashed, regions):
    """The blocks hashed for each row of regions, whose regions start 15
    blocks apart, asserting that each row's are the first blocks of its
    region in order, none past its end, and that every hashed block
    belongs to a row."""
    n_blocks = -(-regions.n_bits // BLOCK_BITS)
    seeds = regions.seed
    if isinstance(seeds, KeystreamSeed):
        seeds = (seeds,) * len(regions.first_blocks)
    by_row = []
    for seed, first in zip(seeds, regions.first_blocks):
        start = seed.nonce + first
        own = [b for b in hashed if (b - start) % (1 << 64) < 15]
        assert own == [(start + i) % (1 << 64) for i in range(len(own))]
        assert len(own) <= n_blocks
        by_row.append(own)
    assert sum(map(len, by_row)) == len(hashed)
    return by_row


def _record_hashes(monkeypatch):
    """The list of block counters _block_digest hashes from now on."""
    hashed = []
    digest = ks_module._block_digest

    def recording_digest(state, block):
        hashed.append(block % (1 << 64))
        return digest(state, block)

    monkeypatch.setattr(ks_module, "_block_digest", recording_digest)
    return hashed


# (kernel, reference, region bits): 64-point permutations over their
# six-block budget, whose 6th block holds 4 bits, and longer plans over the
# same region, whose draws reach its 3rd to 6th blocks and run past its
# end; the codec's decoy-slot subsets
PERM_BITS = permutation_allocation_bits(64)
LAZY_CASES = [
    _perm_case(n)[:2] + (PERM_BITS,) for n in (64, 100, 130, 140)
] + [_subset_case(np.arange(16, 64), 4)]


def test_lazy_regions_match_eager_keystream_row_by_row(monkeypatch):
    hashed = _record_hashes(monkeypatch)
    rng = np.random.default_rng(2027)
    reached = Counter()  # blocks hashed by a row whose draws succeeded
    ran_dry = Counter()  # full or cut budget
    for case in range(1200):
        draw, reference, n_bits = LAZY_CASES[case % len(LAZY_CASES)]
        cut = case % 7 == 6
        if cut:
            n_bits = int(rng.integers(0, n_bits))
        # odd nonces, and one in five whose counter wraps past 2^64
        nonce = (1 << 64) - 3 if case % 5 == 0 else int(rng.integers(1 << 62)) * 2 + 1
        seed = _seed(int(rng.integers(1 << 31)), nonce=nonce)
        frames = rng.choice(1000, size=int(rng.integers(1, 5)), replace=False)
        firsts = (frames * 15 + 3).tolist()
        # the eager batch form: one keystream call, one row per offset
        eager = keystream(seed, n_bits, firsts)
        want = _reference_rows(reference, eager)
        regions = KeystreamRegions(seed, n_bits, firsts)
        hashed.clear()
        got = _outcome(draw, regions)
        by_row = _blocks_by_row(hashed, regions)
        assert got == want
        assert _outcome(draw, eager) == got
        if not isinstance(want, str):
            reached.update(len(blocks) for blocks in by_row)
            continue
        # the rows before the first that runs dry draw as they do alone
        bad_row = next(
            row for row in range(len(firsts))
            if isinstance(_outcome(reference, eager[row]), str)
        )
        prefix = firsts[:bad_row]
        assert _outcome(draw, KeystreamRegions(seed, n_bits, prefix)) == (
            _reference_rows(reference, eager[:bad_row])
        )
        ran_dry["cut" if cut else "full"] += 1
    assert {1, 2, 3, 4, 5, 6} <= set(reached)
    assert ran_dry["cut"] and ran_dry["full"]


# SHA-256 of 64-point permutations over 300-row KeystreamRegions batches
# (key default_rng(2028), 128 bits), one at nonce 5 and one whose block
# counter wraps past 2^64 mid-batch; taken while every region row was drawn
# by the per-row kernel
LARGE_BATCH_SHA256 = (
    "8e4d8f826ede988b56e02c22240a14f9330dce1ac712eabcf0d9385b31e9e3ad"
)


def test_large_region_batch_golden_hash():
    key = BitKey(
        np.random.default_rng(2028).integers(0, 2, 128, dtype=np.uint8),
        STAGE_AMPLIFIED,
    )
    firsts = (np.arange(300) * 15 + 3).tolist()
    digest = hashlib.sha256()
    for nonce in (5, (1 << 64) - 2000):
        regions = KeystreamRegions(KeystreamSeed(key, nonce), PERM_BITS, firsts)
        digest.update(keyed_permutation(64, regions).astype(np.int64).tobytes())
    assert digest.hexdigest() == LARGE_BATCH_SHA256


# Region batches of every size against the reference draw loop, row by row
LOCKSTEP_CASES = [_perm_case(n) for n in (1, 2, 3, 5, 16, 64, 100, 130, 140, 256)] + [
    # the codec's decoy slots; a full shuffle whose last step has one choice
    _subset_case(np.arange(16, 64), 4),
    _subset_case(np.arange(100, 105), 5),
]
LOCKSTEP_IDS = [f"perm{n}" for n in (1, 2, 3, 5, 16, 64, 100, 130, 140, 256)] + [
    "subset48of4",
    "subset5of5",
]


def _random_regions(rng, n_bits, rows, wrap=False):
    """rows regions 15 blocks apart from a random frame; wrap puts the
    block counter past 2^64 mid-batch."""
    nonce = (1 << 64) - 7 * max(rows, 1) if wrap else int(rng.integers(1 << 62))
    seed = _seed(int(rng.integers(1 << 31)), nonce=nonce)
    firsts = (int(rng.integers(1000)) + np.arange(rows)) * 15 + 3
    return KeystreamRegions(seed, n_bits, firsts.tolist())


def _eager(regions):
    """The [F, n_bits] bit array a KeystreamRegions batch stands for."""
    return keystream(regions.seed, regions.n_bits, regions.first_blocks)


@pytest.mark.parametrize("rows", [0, 1, 2, 63, 64, 192])
@pytest.mark.parametrize("case", range(len(LOCKSTEP_CASES)), ids=LOCKSTEP_IDS)
def test_lockstep_kernel_matches_per_row_kernel(case, rows):
    draw, reference, budget = LOCKSTEP_CASES[case]
    rng = np.random.default_rng(3000 + 10 * case + rows)
    # full budgets, one of them with a wrapping counter, then budgets cut
    # to nothing and to a random length, most of which some row runs dry on
    n_bits = [budget, budget, 0] + rng.integers(0, budget + 1, 4).tolist()
    outcomes = []
    for i, bits in enumerate(n_bits):
        regions = _random_regions(rng, bits, rows, wrap=i == 1)
        want = _reference_rows(reference, _eager(regions))
        assert _outcome(draw, regions) == want
        outcomes.append(want)
    assert not all(isinstance(o, str) for o in outcomes[:2])


@pytest.mark.parametrize("rows", [1, 2, 40])
@pytest.mark.parametrize("size, count", [(600, None), (1000, 8), (2000, 8)])
def test_wide_plans_on_region_batches_match_reference(size, count, rows):
    # draws of 10 and 11 bits, read through three bytes; full budgets, then
    # one bit short of the no-rejection need, on which every row runs dry,
    # and a little over it
    if count is None:
        draw, reference, budget = _perm_case(size)
    else:
        draw, reference, budget = _subset_case(np.arange(size), count)
    rng = np.random.default_rng(3300 + size + rows)
    need = budget // 4
    n_bits = [budget, budget, need - 1, need + int(rng.integers(32))]
    outcomes = []
    for i, bits in enumerate(n_bits):
        regions = _random_regions(rng, bits, rows, wrap=i == 1)
        want = _reference_rows(reference, _eager(regions))
        assert _outcome(draw, regions) == want
        outcomes.append(isinstance(want, str))
    assert outcomes[:2] == [False, False] and any(outcomes)


@pytest.mark.parametrize("rows", [63, 65])
@pytest.mark.parametrize("case", [5, 8, 10], ids=["perm64", "perm140", "subset48of4"])
def test_region_rows_keyed_per_row_match_single_seed_draws(case, rows):
    draw, reference, budget = LOCKSTEP_CASES[case]
    rng = np.random.default_rng(3050 + 10 * case + rows)
    keys = [
        _seed(int(rng.integers(1 << 31)), nonce=int(rng.integers(1, 1 << 62)))
        for _ in range(4)
    ]
    # runs of a key, keys that come back, and frames that several keys share
    seeds = tuple(keys[i] for i in np.repeat(rng.integers(0, 4, rows), 3)[:rows])
    firsts = ((np.arange(rows) % 11) * 15 + 3).tolist()
    got = draw(KeystreamRegions(seeds, budget, firsts)).tolist()
    assert len(set(seeds)) == 4
    for row, seed, first in zip(got, seeds, firsts):
        assert row == reference(keystream(seed, budget, first)).tolist()
    one = draw(KeystreamRegions(seeds[-1], budget, firsts[-1:])).tolist()
    assert one == got[-1:] == [draw(keystream(seeds[-1], budget, firsts[-1])).tolist()]


def test_lockstep_kernel_matches_on_mostly_ones_rows(monkeypatch):
    # rows of three-quarters ones reject most draws, so they read window
    # after window and many run dry; one such row among fair rows
    digest = ks_module._block_digest
    biased_blocks = set()

    def biased_digest(state, block):
        out = digest(state, block)
        if block % (1 << 64) in biased_blocks:
            more = hashlib.sha256(out).digest()
            out = bytes(a | b for a, b in zip(out, hashlib.sha256(more).digest()))
            out = bytes(a | b for a, b in zip(out, more))
        return out

    monkeypatch.setattr(ks_module, "_block_digest", biased_digest)
    rng = np.random.default_rng(3100)
    ran_dry = Counter()
    for case in range(40):
        draw, reference, budget = LOCKSTEP_CASES[case % len(LOCKSTEP_CASES)]
        regions = _random_regions(rng, budget, 64)
        rows = range(64) if case % 2 else [int(rng.integers(64))]
        biased_blocks.clear()
        for row in rows:
            start = regions.seed.nonce + regions.first_blocks[row]
            biased_blocks.update(start + b for b in range(-(-budget // BLOCK_BITS)))
        want = _reference_rows(reference, _eager(regions))
        assert _outcome(draw, regions) == want
        ran_dry[isinstance(want, str)] += 1
    # some batches drawn, some run dry
    assert ran_dry[True] and ran_dry[False]


def test_lockstep_kernel_hashes_a_prefix_of_each_region(monkeypatch):
    hashed = _record_hashes(monkeypatch)
    rng = np.random.default_rng(3200)
    reached = Counter()
    for case in range(3 * len(LOCKSTEP_CASES)):
        draw, _, budget = LOCKSTEP_CASES[case % len(LOCKSTEP_CASES)]
        # full budgets, and budgets cut to about the no-rejection need
        n_bits = budget if case % 3 else budget // 4 + int(rng.integers(64))
        regions = _random_regions(rng, n_bits, 128, wrap=case % 5 == 0)
        hashed.clear()
        _outcome(draw, regions)
        n_blocks = -(-n_bits // BLOCK_BITS)
        for own in _blocks_by_row(hashed, regions):
            reached[len(own) == n_blocks] += 1
    # rows that stopped short of their region's end, and rows that hashed
    # all of it
    assert reached[False] and reached[True]
