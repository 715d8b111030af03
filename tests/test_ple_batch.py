import hashlib
import itertools

import numpy as np
import pytest

import physec.keystream as ks_module
from physec import ple
from physec.bits import STAGE_AMPLIFIED, BitKey
from physec.errors import ParameterError
from physec.keystream import BLOCK_BITS, KeystreamSeed
from physec.modulation import QAM16, QPSK
from physec.ofdm import wifi_like_config
from physec.ple import SCHEME_ORDER, PleCodec, key_to_data_ratio

SUBSETS = [
    tuple(s for i, s in enumerate(SCHEME_ORDER) if (mask >> i) & 1)
    for mask in range(64)
]
FRAMES = np.array([0, 3, 4, 11, 2])  # out of order, with gaps


def _seed(seed_int, n=128, nonce=0):
    rng = np.random.default_rng(seed_int)
    key = BitKey(rng.integers(0, 2, n, dtype=np.uint8), STAGE_AMPLIFIED)
    return KeystreamSeed(key, nonce)


def _payloads(cfg, n_frames, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (n_frames, cfg.payload_bits), dtype=np.uint8)


# (frame indices, nonce) batches: out of order with gaps; runs, a repeat
# and a descent; a block counter that wraps past 2^64 inside frame 1
BATCHES = [
    (FRAMES, 0),
    (np.array([3, 4, 5, 9, 9, 0, 1]), 0),
    (np.array([0, 1, 2]), (1 << 64) - 20),
]


@pytest.mark.parametrize("mapping", [QPSK, QAM16])
def test_batch_rows_equal_single_frames_for_every_subset(mapping):
    cfg = wifi_like_config(mapping)
    for (frames, nonce), (mask, stack) in itertools.product(
        BATCHES, enumerate(SUBSETS)
    ):
        codec = PleCodec(cfg, stack, _seed(mask, nonce=nonce))
        bits = _payloads(cfg, frames.size, 100 + mask)
        samples = codec.encrypt_batch(bits, frames)
        assert samples.shape == (frames.size, cfg.n_fft + cfg.cp_len)
        for row, f in enumerate(frames):
            single = codec.encrypt(bits[row], int(f))
            assert np.array_equal(samples[row], single), (stack, f, nonce)
            assert np.array_equal(codec.decrypt(single, int(f)), bits[row])
        assert np.array_equal(codec.decrypt_batch(samples, frames), bits), stack


@pytest.mark.parametrize("rows", [5, 70])
@pytest.mark.parametrize("mapping", [QPSK, QAM16])
def test_rows_keyed_per_row_equal_single_key_codecs(mapping, rows):
    cfg = wifi_like_config(mapping)
    keys = [_seed(40 + i, nonce=[0, 9, (1 << 64) - 30][i % 3]) for i in range(3)]
    # runs of a key, a key that comes back, frames that several keys share
    seeds = tuple(keys[(r // 2) % 3] for r in range(rows))
    frames = np.arange(rows) % 4
    bits = _payloads(cfg, rows, 41)
    codec = PleCodec(cfg, SCHEME_ORDER, seeds)
    samples = codec.encrypt_batch(bits, frames)
    for row, (seed, f) in enumerate(zip(seeds, frames.tolist())):
        alone = PleCodec(cfg, SCHEME_ORDER, seed)
        assert np.array_equal(samples[row], alone.encrypt(bits[row], f)), row
        assert np.array_equal(alone.decrypt(samples[row], f), bits[row])
    assert np.array_equal(codec.decrypt_batch(samples, frames), bits)
    fresh = PleCodec(cfg, SCHEME_ORDER, list(seeds))
    assert np.array_equal(fresh.decrypt_batch(samples, frames), bits)
    for n in (rows - 1, rows + 1):
        with pytest.raises(ParameterError, match="one seed per row"):
            codec.encrypt_batch(_payloads(cfg, n, 42), np.arange(n))
    plain = PleCodec(cfg, (), seeds)
    with pytest.raises(ParameterError, match="one seed per row"):
        plain.encrypt_batch(bits[1:], frames[1:])


# SHA-256 of six-scheme encrypt_batch ciphertext (key default_rng(2026), 128
# bits, nonce 11; payload default_rng(7)), computed before the keyed draws
# moved into one kernel and frame runs into one keystream call each
CIPHERTEXT_SHA256 = {
    QPSK: "58fc2c6960597d94718ef7789fc2c6336778e35b82110a51436d4c242cd2f4ff",
    QAM16: "7ed6b0707de06609be06776b39ba874b80506712651b99f319bf245daa512acc",
}


@pytest.mark.parametrize("mapping", sorted(CIPHERTEXT_SHA256))
def test_six_scheme_ciphertext_golden_hash(mapping):
    cfg = wifi_like_config(mapping)
    key = np.random.default_rng(2026).integers(0, 2, 128, dtype=np.uint8)
    codec = PleCodec(cfg, SCHEME_ORDER, KeystreamSeed(BitKey(key, STAGE_AMPLIFIED), 11))
    frames = np.array([7, 3, 4, 5, 0, 19, 2, 3, 40, 1])
    bits = _payloads(cfg, frames.size, 7)
    samples = codec.encrypt_batch(bits, frames)
    digest = hashlib.sha256(samples.astype("<c16").tobytes()).hexdigest()
    assert digest == CIPHERTEXT_SHA256[mapping]


# the same, over a 150-frame batch (frames 0..149 reversed, key
# default_rng(2029), nonce 3; payload default_rng(17)), taken while every
# permutation was drawn by the per-row kernel
LARGE_CIPHERTEXT_SHA256 = {
    QPSK: "150a57ca3e836620e1310dfcfd1fbedf17c5ec42146934161cb50bcecbae8c1b",
    QAM16: "457aa93dd4389fe744fa488d28ccce95bdfd601a128aaf0dc77ccef314dfd47d",
}


@pytest.mark.parametrize("mapping", sorted(LARGE_CIPHERTEXT_SHA256))
def test_large_batch_ciphertext_golden_hash(mapping):
    cfg = wifi_like_config(mapping)
    key = np.random.default_rng(2029).integers(0, 2, 128, dtype=np.uint8)
    codec = PleCodec(cfg, SCHEME_ORDER, KeystreamSeed(BitKey(key, STAGE_AMPLIFIED), 3))
    frames = np.arange(150)[::-1]
    bits = _payloads(cfg, frames.size, 17)
    samples = codec.encrypt_batch(bits, frames)
    digest = hashlib.sha256(samples.astype("<c16").tobytes()).hexdigest()
    assert digest == LARGE_CIPHERTEXT_SHA256[mapping]
    assert np.array_equal(codec.decrypt_batch(samples, frames), bits)


# SHA-256 of the plain modem, a codec with no schemes: encrypt_batch of
# frames 0..11 (payload default_rng(8)), computed while the frequency-domain
# SymbolFrame chain (frame_from_symbols -> ofdm_modulate) still existed and
# gave the same bytes
PLAIN_SHA256 = {
    QPSK: "f27e942c49d31fa6d1198750fe94cd2fb6b9ad957e8532108b08d16458ea2e38",
    QAM16: "aa1facc827e633f921f2f613f7685734b6079e4e893217327639f349d09cc671",
}


@pytest.mark.parametrize("mapping", [QPSK, QAM16])
def test_plain_codec_golden_hash(mapping):
    cfg = wifi_like_config(mapping)
    bits = _payloads(cfg, 12, 8)
    samples = PleCodec(cfg, (), _seed(2027)).encrypt_batch(bits, np.arange(12))
    digest = hashlib.sha256(samples.astype("<c16").tobytes()).hexdigest()
    assert digest == PLAIN_SHA256[mapping]


def _fresh_codec(cfg, seed=9):
    return PleCodec(cfg, SCHEME_ORDER, _seed(seed))


def test_kept_material_never_serves_another_batch():
    cfg = wifi_like_config()
    codec = _fresh_codec(cfg)
    batch_a, batch_b = np.arange(6), np.array([6, 2, 3, 3, 50])
    bits_a = _payloads(cfg, batch_a.size, 10)
    bits_b = _payloads(cfg, batch_b.size, 11)
    codec.encrypt_batch(bits_a, batch_a)
    samples_b = _fresh_codec(cfg).encrypt_batch(bits_b, batch_b)
    assert np.array_equal(codec.decrypt_batch(samples_b, batch_b), bits_b)
    # the same indices in another dtype are the same frames
    assert np.array_equal(
        codec.decrypt_batch(samples_b, batch_b.astype(np.uint16)), bits_b
    )
    # a caller that rewrites its index array in place gets the new frames
    idx = batch_a.copy()
    codec.encrypt_batch(bits_a, idx)
    idx[:] = np.arange(10, 16)
    want = _fresh_codec(cfg).encrypt_batch(bits_a, np.arange(10, 16))
    assert np.array_equal(codec.encrypt_batch(bits_a, idx), want)
    assert np.array_equal(codec.decrypt_batch(want, idx), bits_a)
    # two codecs keyed per row, with equal indices: rows 0 and 2 share a
    # seed (as another object), rows 1, 3 and 4 do not
    keyed_a = PleCodec(cfg, SCHEME_ORDER, [_seed(s) for s in (1, 2, 1, 3, 4)])
    keyed_b = PleCodec(cfg, SCHEME_ORDER, [_seed(s) for s in (1, 5, 1, 6, 7)])
    samples_a = keyed_a.encrypt_batch(bits_b, batch_b)
    samples_b = keyed_b.encrypt_batch(bits_b, batch_b)
    same = [(a == b).all() for a, b in zip(samples_a, samples_b)]
    assert same == [True, False, True, False, False]
    assert np.array_equal(keyed_a.decrypt_batch(samples_a, batch_b), bits_b)
    assert np.array_equal(keyed_b.decrypt_batch(samples_b, batch_b), bits_b)
    wrong = keyed_a.decrypt_batch(samples_b, batch_b) != bits_b
    assert [bool(w.any()) for w in wrong] == [not s for s in same]


def test_batch_hashes_only_the_keystream_blocks_it_reads(monkeypatch):
    hashed, calls = [], []
    digest, keystream = ks_module._block_digest, ple.keystream

    def recording_digest(state, block):
        hashed.append(block)
        return digest(state, block)

    # positional-only, as the benchmark's trace hook reads the bits as args[1]
    def counting_keystream(seed, n_bits, /, block_offset=0):
        calls.append((n_bits, list(block_offset)))
        return keystream(seed, n_bits, block_offset)

    monkeypatch.setattr(ks_module, "_block_digest", recording_digest)
    monkeypatch.setattr(ple, "keystream", counting_keystream)
    cfg = wifi_like_config()
    codec = _fresh_codec(cfg)
    blocks = codec._blocks_per_frame
    dummy = codec._region_offset["dummy"]
    # xor, phase and dummy take a block each; each scramble budgets six
    assert (blocks, dummy, codec._region_offset["scramble_freq"]) == (15, 2, 3)
    frames = np.arange(100)
    samples = codec.encrypt_batch(_payloads(cfg, 100, 13), frames)
    # the three eager blocks per frame in one call, and about two blocks
    # per scramble region
    assert calls == [(3 * BLOCK_BITS, (frames * blocks).tolist())]
    assert len(hashed) <= 8 * frames.size
    eager = [b for b in hashed if b % blocks < 3]
    assert sorted(eager) == sorted(f * blocks + k for f in frames for k in range(3))
    # decrypting the batch it has just encrypted hashes nothing more
    hashed.clear()
    codec.decrypt_batch(samples, frames)
    assert hashed == []
    # a decrypt-only codec hashes no dummy block
    receiver = _fresh_codec(cfg)
    receiver.decrypt_batch(samples, frames)
    assert len(hashed) <= 7 * frames.size
    assert not any(b % blocks == dummy for b in hashed)
    # runs, a repeat and a descent: one call, each row from its own frame
    calls.clear()
    hashed.clear()
    frames = np.array([3, 4, 5, 9, 9, 0, 1])
    bits = _payloads(cfg, frames.size, 12)
    samples = codec.encrypt_batch(bits, frames)
    assert calls == [(3 * BLOCK_BITS, (frames * blocks).tolist())]
    assert {b // blocks for b in hashed} == set(frames.tolist())
    for row, frame in enumerate(frames):
        alone = _fresh_codec(cfg).encrypt_batch(bits[row : row + 1], [frame])
        assert np.array_equal(samples[row : row + 1], alone)
    assert np.array_equal(codec.decrypt_batch(samples, frames), bits)


def test_each_scramble_permutation_derived_once_per_batch(monkeypatch):
    # patched at the module name, as the benchmark's trace plan patches it
    calls = []
    keyed_permutation = ple.keyed_permutation

    def counting_permutation(n, regions):
        calls.append((n, regions.first_blocks))
        return keyed_permutation(n, regions)

    monkeypatch.setattr(ple, "keyed_permutation", counting_permutation)
    cfg = wifi_like_config()
    codec = _fresh_codec(cfg)
    frames = np.array([5, 6, 1])
    bits = _payloads(cfg, frames.size, 15)
    samples = codec.encrypt_batch(bits, frames)
    assert np.array_equal(codec.decrypt_batch(samples, frames), bits)
    # one call for the batch: every frame's scramble_freq region, then
    # every frame's scramble_time region
    blocks = codec._blocks_per_frame
    firsts = [
        f * blocks + codec._region_offset[scheme]
        for scheme in ("scramble_freq", "scramble_time")
        for f in frames.tolist()
    ]
    assert calls == [(cfg.n_fft, tuple(firsts))]


STAGES = (
    "partial_interleave",
    "partial_deinterleave",
    "insert_dummy",
    "scramble_freq",
    "unscramble_freq",
    "scramble_time",
    "unscramble_time",
    "ofdm_modulate",
    "attach_cp",
    "ofdm_demodulate",
)


def _counting(name, stage, calls):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return stage(*args, **kwargs)

    return wrapper


def test_codec_runs_each_public_stage_once_per_batch(monkeypatch):
    # patched at the module name, as the benchmark's trace plan patches them
    calls = []
    for name in STAGES:
        monkeypatch.setattr(ple, name, _counting(name, getattr(ple, name), calls))
    cfg = wifi_like_config()
    codec = _fresh_codec(cfg)
    frames = np.array([2, 3, 7])
    bits = _payloads(cfg, frames.size, 14)
    samples = codec.encrypt_batch(bits, frames)
    encrypt_calls = list(calls)
    calls.clear()
    assert np.array_equal(codec.decrypt_batch(samples, frames), bits)
    assert encrypt_calls == [
        "partial_interleave",
        "insert_dummy",
        "scramble_freq",
        "ofdm_modulate",
        "scramble_time",
        "attach_cp",
    ]
    assert calls == [
        "unscramble_time",
        "ofdm_demodulate",
        "unscramble_freq",
        "partial_deinterleave",
    ]
    assert sorted(encrypt_calls + calls) == sorted(STAGES)


def test_batch_validation():
    cfg = wifi_like_config()
    codec = PleCodec(cfg, SCHEME_ORDER, _seed(1))
    bits = _payloads(cfg, 2, 2)
    with pytest.raises(ParameterError):
        codec.encrypt_batch(bits, [0, -1])
    with pytest.raises(ParameterError):
        codec.decrypt_batch(np.zeros((2, 80), dtype=complex), [-3, 0])
    with pytest.raises(ParameterError):
        codec.encrypt_batch(bits[:, :-1], [0, 1])
    with pytest.raises(ParameterError):
        codec.encrypt_batch(bits, [0, 1, 2])
    with pytest.raises(ParameterError):
        codec.encrypt_batch(bits.ravel(), [0])
    with pytest.raises(ParameterError):
        codec.decrypt_batch(codec.encrypt_batch(bits, [0, 1])[:, 1:], [0, 1])
    with pytest.raises(ParameterError):
        codec.encrypt_batch(bits, [0.0, 1.0])


def test_empty_batch():
    cfg = wifi_like_config()
    codec = PleCodec(cfg, SCHEME_ORDER, _seed(3))
    samples = codec.encrypt_batch(np.zeros((0, 96), dtype=np.uint8), [])
    assert samples.shape == (0, 80)
    assert codec.decrypt_batch(samples, []).shape == (0, 96)


def test_key_to_data_ratio_refuses_duplicates():
    cfg = wifi_like_config()
    with pytest.raises(ParameterError):
        key_to_data_ratio(["xor", "xor"], cfg)
    with pytest.raises(ParameterError):
        key_to_data_ratio(["phase", "dummy", "phase"], cfg)
    assert key_to_data_ratio(["phase", "xor"], cfg) == pytest.approx(2.0)
    # (1284 permutation + 72 dummy + 96 xor bits) / 96 payload bits
    assert key_to_data_ratio(["scramble_time", "dummy", "xor"], cfg) == 15.125
