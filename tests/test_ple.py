import math

import numpy as np
import pytest

from physec.bits import STAGE_AMPLIFIED, BitKey
from physec.errors import KeystreamExhausted, ParameterError
from physec.keystream import KeystreamSeed, keystream
from physec.modulation import QAM16, QPSK, map_symbols, min_decision_distance
from physec.ofdm import (
    OfdmConfig,
    awgn_rows,
    ebn0_db_to_snr_db,
    ofdm_demodulate,
    ofdm_modulate,
    wifi_like_config,
)
from physec.ple import (
    SCHEME_ORDER,
    PhaseEncryptConfig,
    PleCodec,
    insert_dummy,
    key_to_data_ratio,
    partial_deinterleave,
    partial_interleave,
    phase_decrypt,
    phase_encrypt,
    scheme_budget_bits,
    scramble_freq,
    scramble_time,
    unscramble_freq,
    unscramble_time,
)


def _seed(seed_int, n=128):
    rng = np.random.default_rng(seed_int)
    key = BitKey(rng.integers(0, 2, size=n, dtype=np.uint8), STAGE_AMPLIFIED)
    return KeystreamSeed(key)


def _qpsk_symbols(n, seed=0):
    rng = np.random.default_rng(seed)
    return map_symbols(rng.integers(0, 2, size=2 * n, dtype=np.uint8), QPSK)


def _qpsk_grid(cfg, seed):
    """A subcarrier grid with random QPSK symbols on cfg's data carriers."""
    grid = np.zeros(cfg.n_fft, dtype=complex)
    grid[list(cfg.data_carriers)] = _qpsk_symbols(cfg.n_data, seed)
    return grid


def test_phase_zero_keystream_is_identity():
    sym = _qpsk_symbols(32)
    out = phase_encrypt(sym, np.zeros(64, dtype=np.uint8), PhaseEncryptConfig(2))
    assert np.allclose(out, sym)


def test_phase_quarter_turn_example():
    # angle word 01 with q = 2 rotates by pi/2
    sym = np.array([(1 + 1j) / math.sqrt(2)])
    out = phase_encrypt(sym, [0, 1], PhaseEncryptConfig(2))
    assert out[0] == pytest.approx((-1 + 1j) / math.sqrt(2))


def test_phase_roundtrip_with_perturbation():
    sym = _qpsk_symbols(1000, seed=1)
    cfg = PhaseEncryptConfig(bits_per_angle=4, noise_enabled=True, noise_scale=0.5)
    ks = keystream(_seed(2), cfg.bits_per_symbol() * sym.size)
    enc = phase_encrypt(sym, ks, cfg)
    assert np.allclose(phase_decrypt(enc, ks, cfg), sym, atol=1e-12)


def test_phase_preserves_power_without_perturbation():
    sym = _qpsk_symbols(500, seed=3)
    ks = keystream(_seed(4), 2 * sym.size)
    enc = phase_encrypt(sym, ks, PhaseEncryptConfig(2))
    assert np.allclose(np.abs(enc), np.abs(sym))


def test_phase_perturbation_radius_bounded():
    # zero input symbols isolate the additive perturbation term
    zeros = np.zeros(2000, dtype=complex)
    scale = 0.3
    cfg = PhaseEncryptConfig(bits_per_angle=2, noise_enabled=True, noise_scale=scale)
    ks = keystream(_seed(6), cfg.bits_per_symbol() * zeros.size)
    radius = np.abs(phase_encrypt(zeros, ks, cfg))
    assert radius.max() <= scale * 255 / 256 + 1e-12
    assert radius.max() > 0.9 * scale


def test_phase_keystream_exhaustion():
    sym = _qpsk_symbols(10)
    with pytest.raises(KeystreamExhausted):
        phase_encrypt(sym, np.zeros(19, dtype=np.uint8), PhaseEncryptConfig(2))


def test_phase_config_validation():
    with pytest.raises(ParameterError):
        PhaseEncryptConfig(bits_per_angle=0)
    with pytest.raises(ParameterError):
        PhaseEncryptConfig(bits_per_angle=17)
    with pytest.raises(ParameterError):
        PhaseEncryptConfig(noise_enabled=True, noise_scale=0.0)
    with pytest.raises(ParameterError):
        PhaseEncryptConfig(noise_scale=-1.0)
    for scale in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            PhaseEncryptConfig(noise_enabled=True, noise_scale=scale)


def test_interleave_frozen_example():
    # the public rule swaps symbols whose principal phase exceeds -pi/2; a
    # phase of -pi reads as pi
    values = np.array([[1.0 + 0j, 1j, -1j, -1.0 - 1.0j, complex(-1.0, -0.0)]])
    out = partial_interleave(values)
    assert np.allclose(out, [[1j, 1.0, -1j, -1.0 - 1.0j, -1j]])


def test_interleave_roundtrip_on_alphabets():
    rng = np.random.default_rng(7)
    for mapping in (QPSK, QAM16):
        cfg = wifi_like_config(mapping)
        for trial in range(50):
            bits = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
            sym = map_symbols(bits, mapping)
            if trial % 2:
                sym = sym * 1j  # quarter-turn rotated alphabet stays invertible
            rows = sym.reshape(1, cfg.n_data)
            fwd = partial_interleave(rows)
            back = partial_deinterleave(fwd)
            assert np.allclose(back, rows)
            assert np.sum(np.abs(fwd) ** 2) == pytest.approx(np.sum(np.abs(rows) ** 2))


def test_interleave_leaves_non_data_carriers():
    # decoys go in after the interleave stage, whose keystream region is 0
    # blocks, so adding it to a dummy stack leaves every idle carrier alone
    cfg = wifi_like_config()
    frames = np.arange(8)
    bits = np.random.default_rng(30).integers(0, 2, (8, 96), dtype=np.uint8)
    with_interleave, dummy_only = (
        ofdm_demodulate(
            PleCodec(cfg, stack, _seed(31)).encrypt_batch(bits, frames)[:, cfg.cp_len :]
        )
        for stack in (("partial_interleave", "dummy"), ("dummy",))
    )
    idle, data = list(cfg.idle_carriers), list(cfg.data_carriers)
    assert np.allclose(with_interleave[:, idle], dummy_only[:, idle], atol=1e-12)
    # the public rule swaps data symbols ...
    assert not np.allclose(with_interleave[:, data], dummy_only[:, data])
    # ... and would move decoys off the Re = Im diagonal, which do occur
    decoys = dummy_only[:, idle][np.abs(dummy_only[:, idle]) > 0.5]
    assert decoys.size == 4 * frames.size
    assert np.any(np.abs(decoys.real - decoys.imag) > 0.5)


def test_dummy_noop_without_slots():
    cfg = OfdmConfig(n_fft=64, cp_len=16, data_carriers=tuple(range(1, 49)))
    before = _qpsk_grid(cfg, seed=8)
    grid = before[None].copy()
    insert_dummy(grid, np.zeros((1, 0), dtype=np.uint8), cfg)
    assert np.array_equal(grid[0], before)


def test_dummy_fills_keyed_slots_only():
    cfg = wifi_like_config()
    seed = _seed(9)
    budget = scheme_budget_bits("dummy", cfg, PhaseEncryptConfig())
    before = _qpsk_grid(cfg, seed=10)
    grid = before[None].copy()
    insert_dummy(grid, keystream(seed, budget)[None], cfg)
    out = grid[0]
    data_idx = list(cfg.data_carriers)
    assert np.array_equal(out[data_idx], before[data_idx])
    touched = np.flatnonzero(out != before)
    assert len(touched) == 4
    assert set(touched.tolist()) <= set(cfg.idle_carriers)
    with pytest.raises(ParameterError):
        insert_dummy(grid, keystream(seed, budget), cfg)
    with pytest.raises(ParameterError):
        insert_dummy(grid, keystream(seed, 2 * budget).reshape(2, budget), cfg)


def test_dummy_values_uniform_over_constellation():
    cfg = wifi_like_config()
    seed = _seed(11)
    budget = scheme_budget_bits("dummy", cfg, PhaseEncryptConfig())
    pts = map_symbols(
        np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8), QPSK
    )
    n_frames = 5000
    blob = keystream(seed, budget * n_frames)
    grids = np.zeros((n_frames, 64), dtype=complex)
    insert_dummy(grids, blob.reshape(n_frames, budget), cfg)
    assert np.all(np.count_nonzero(grids, axis=1) == 4)
    values = grids[grids != 0]
    counts = np.bincount(np.argmin(np.abs(values[:, None] - pts), axis=1), minlength=4)
    total = counts.sum()
    expected = total / 4
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 16.27  # 99.9th percentile of chi-square with 3 dof


def test_scramble_freq_semantics_and_roundtrip():
    rng = np.random.default_rng(12)
    cfg = wifi_like_config()
    grid = np.stack([_qpsk_grid(cfg, seed=s) for s in (13, 113)])
    perm = np.stack([rng.permutation(64), rng.permutation(64)])
    out = scramble_freq(grid, perm)
    assert np.array_equal(out, [row[p] for row, p in zip(grid, perm)])
    back = unscramble_freq(out, perm)
    assert np.array_equal(back, grid)
    assert np.array_equal(
        np.sum(np.abs(out) ** 2, axis=1), np.sum(np.abs(grid) ** 2, axis=1)
    )


def test_scramble_time_refreshes_prefix():
    rng = np.random.default_rng(14)
    core = ofdm_modulate(_qpsk_grid(wifi_like_config(), seed=15))[None]
    perm = rng.permutation(64)[None]
    out = scramble_time(core, perm)
    assert np.array_equal(out[0], core[0][perm[0]])
    assert np.array_equal(unscramble_time(out, perm), core)
    # the codec attaches the prefix after time scrambling, from the
    # permuted block, so it stays a true cyclic extension
    cfg = wifi_like_config()
    frames = np.arange(5)
    bits = np.random.default_rng(32).integers(0, 2, (5, 96), dtype=np.uint8)
    plain = PleCodec(cfg, (), _seed(33)).encrypt_batch(bits, frames)
    codec = PleCodec(cfg, ("scramble_time",), _seed(33))
    samples = codec.encrypt_batch(bits, frames)
    time_perm = codec._material(frames, dummy=True)[1]["scramble_time"]
    assert np.array_equal(
        samples[:, cfg.cp_len :], scramble_time(plain[:, cfg.cp_len :], time_perm)
    )
    full = PleCodec(cfg, SCHEME_ORDER, _seed(33)).encrypt_batch(bits, frames)
    for tx in (samples, full):
        assert np.array_equal(tx[:, : cfg.cp_len], tx[:, -cfg.cp_len :])


@pytest.mark.parametrize("noise", [False, True])
def test_phase_stage_equals_rotation_formula_bit_for_bit(noise):
    # the table lookup against sym * exp(1j theta) + noise and its inverse,
    # theta = 2 pi v / 2^q computed per symbol
    rng = np.random.default_rng(44)
    sym = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    for q in range(1, 17):
        cfg = PhaseEncryptConfig(q, noise, 0.1 if noise else 0.0)
        ks = rng.integers(0, 2, cfg.bits_per_symbol() * sym.size, dtype=np.uint8)
        words = ks.reshape(sym.size, -1)
        v = words[:, :q] @ (1 << np.arange(q - 1, -1, -1))
        theta = 2.0 * math.pi * v / (1 << q)
        perturbation = np.zeros(sym.size, dtype=complex)
        if noise:
            weights = 1 << np.arange(7, -1, -1)
            radius = 0.1 * (words[:, q : q + 8] @ weights) / 256.0
            angle = 2.0 * math.pi * (words[:, q + 8 : q + 16] @ weights) / 256.0
            perturbation = radius * np.exp(1j * angle)
        want = sym * np.exp(1j * theta) + perturbation
        assert phase_encrypt(sym, ks, cfg).tobytes() == want.tobytes()
        back = (want - perturbation) * np.exp(-1j * theta)
        assert phase_decrypt(want, ks, cfg).tobytes() == back.tobytes()


def test_scramble_rejects_non_permutation():
    grid = _qpsk_grid(wifi_like_config(), seed=16)[None]
    with pytest.raises(ParameterError):
        scramble_freq(grid, np.zeros((1, 64), dtype=np.intp))
    with pytest.raises(ParameterError):
        scramble_freq(grid, np.arange(63)[None])
    # the check covers every row of a batch
    grids = np.repeat(grid, 3, axis=0)
    perms = np.tile(np.arange(64), (3, 1))
    assert np.array_equal(unscramble_time(grids, perms), grids)
    perms[1, 0] = 1
    with pytest.raises(ParameterError):
        unscramble_time(grids, perms)
    with pytest.raises(ParameterError):
        scramble_freq(grids, np.arange(64))


def test_budgets_and_ratio_examples():
    cfg = wifi_like_config()
    assert scheme_budget_bits("xor", cfg, PhaseEncryptConfig()) == 96
    assert scheme_budget_bits("phase", cfg, PhaseEncryptConfig(2)) == 96
    assert scheme_budget_bits("phase", cfg, PhaseEncryptConfig(4)) == 192
    assert scheme_budget_bits("partial_interleave", cfg, PhaseEncryptConfig()) == 0
    assert key_to_data_ratio(["xor"], cfg) == pytest.approx(1.0)
    assert key_to_data_ratio(["phase"], cfg, PhaseEncryptConfig(2)) == pytest.approx(1.0)
    assert key_to_data_ratio(["phase"], cfg, PhaseEncryptConfig(4)) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        key_to_data_ratio(["caesar"], cfg)


def test_codec_roundtrip_each_scheme():
    rng = np.random.default_rng(17)
    for mapping in (QPSK, QAM16):
        cfg = wifi_like_config(mapping)
        stacks = [(s,) for s in SCHEME_ORDER] + [SCHEME_ORDER]
        for stack in stacks:
            codec = PleCodec(cfg, stack, _seed(18))
            for f in range(3):
                bits = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
                frame = codec.encrypt(bits, f)
                assert frame.shape == (80,)
                assert np.array_equal(codec.decrypt(frame, f), bits)


def test_codec_roundtrip_with_perturbation_stack():
    # perturbation shifts symbols off the alphabet, so it composes with
    # every stage except the interleave selection rule
    cfg = wifi_like_config()
    stack = tuple(s for s in SCHEME_ORDER if s != "partial_interleave")
    pc = PhaseEncryptConfig(bits_per_angle=2, noise_enabled=True, noise_scale=0.5)
    codec = PleCodec(cfg, stack, _seed(19), phase_cfg=pc)
    rng = np.random.default_rng(20)
    for f in range(5):
        bits = rng.integers(0, 2, size=96, dtype=np.uint8)
        assert np.array_equal(codec.decrypt(codec.encrypt(bits, f), f), bits)


def test_keystream_discipline_across_frames():
    cfg = wifi_like_config()
    codec = PleCodec(cfg, SCHEME_ORDER, _seed(23))
    bits = np.zeros(96, dtype=np.uint8)
    f0 = codec.encrypt(bits, 0)
    f0_again = codec.encrypt(bits, 0)
    f1 = codec.encrypt(bits, 1)
    assert np.array_equal(f0, f0_again)
    assert not np.array_equal(f0, f1)
    with pytest.raises(ParameterError):
        codec.encrypt(bits, -1)


def test_frame_indices_stop_before_the_block_counter_wraps():
    # all six schemes read 15 blocks per frame; frame f reads blocks
    # 15 f .. 15 f + 14 of a 2^64 counter, so the index 2^64 // 15 would
    # wrap onto frame 0's blocks
    cfg = wifi_like_config()
    codec = PleCodec(cfg, SCHEME_ORDER, _seed(32))
    limit = (1 << 64) // 15
    bits = np.random.default_rng(33).integers(0, 2, (1, 96), dtype=np.uint8)
    last = np.array([limit - 1], dtype=np.int64)
    tx = codec.encrypt_batch(bits, last)
    assert np.array_equal(codec.decrypt_batch(tx, last), bits)
    assert np.array_equal(codec.decrypt(tx[0], limit - 1), bits[0])
    for dtype in (np.int64, np.uint64):
        over = np.array([limit], dtype=dtype)
        with pytest.raises(ParameterError, match="frame_index"):
            codec.encrypt_batch(bits, over)
        with pytest.raises(ParameterError, match="frame_index"):
            codec.decrypt_batch(tx, over)
    # codecs that read no keystream accept any index
    top = np.array([(1 << 64) - 1], dtype=np.uint64)
    for stack in ((), ("partial_interleave",)):
        plain = PleCodec(cfg, stack, _seed(34))
        tx = plain.encrypt_batch(bits, top)
        assert np.array_equal(plain.decrypt_batch(tx, top), bits)


def _eve_ber(stack, n_frames, alice=24, eve=25, payload_seed=26):
    cfg = wifi_like_config()
    codec_a = PleCodec(cfg, stack, _seed(alice))
    codec_e = PleCodec(cfg, stack, _seed(eve))
    rng = np.random.default_rng(payload_seed)
    # frame f carries the f-th 96-bit payload draw
    frames = np.arange(n_frames)
    bits = rng.integers(0, 2, size=(n_frames, 96), dtype=np.uint8)
    samples = codec_a.encrypt_batch(bits, frames)
    wrong = int(np.sum(codec_e.decrypt_batch(samples, frames) != bits))
    return wrong / (n_frames * 96)


def test_wrong_seed_receiver_confused():
    for stack in (("xor",), ("phase",), ("scramble_freq",)):
        ber = _eve_ber(stack, 200)
        assert 0.45 <= ber <= 0.55, (stack, ber)


def test_full_stack_degradation_within_half_db():
    # operating at Eb/N0 = 8 dB, the full stack must beat the analytic
    # uncoded curve evaluated half a dB worse
    cfg = wifi_like_config()
    codec = PleCodec(cfg, SCHEME_ORDER, _seed(27))
    snr = ebn0_db_to_snr_db(8.0, QPSK)
    rng = np.random.default_rng(28)
    n_frames = 5000
    # frame f: the f-th 96-bit payload draw, noise seeded with 10_000 + f
    frames = np.arange(n_frames)
    bits = rng.integers(0, 2, size=(n_frames, 96), dtype=np.uint8)
    seeds = (10_000 + frames).tolist()
    noisy = awgn_rows(codec.encrypt_batch(bits, frames), snr, seeds)
    errors = int(np.sum(codec.decrypt_batch(noisy, frames) != bits))
    ber = errors / (n_frames * 96)
    bound = 0.5 * math.erfc(math.sqrt(10 ** (7.5 / 10)))
    assert ber <= bound


def test_codec_validation():
    cfg = wifi_like_config()
    seed = _seed(29)
    with pytest.raises(ParameterError):
        PleCodec(cfg, ("caesar",), seed)
    with pytest.raises(ParameterError):
        PleCodec(cfg, ("xor", "xor"), seed)
    over = min_decision_distance(QPSK) / 2
    with pytest.raises(ParameterError):
        PleCodec(
            cfg,
            ("phase",),
            seed,
            phase_cfg=PhaseEncryptConfig(2, noise_enabled=True, noise_scale=over),
        )
    codec = PleCodec(cfg, ("xor",), seed)
    with pytest.raises(ParameterError):
        codec.encrypt(np.zeros(95, dtype=np.uint8))
