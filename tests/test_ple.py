import math

import numpy as np
import pytest

from physec.bits import STAGE_AMPLIFIED, BitKey
from physec.errors import KeystreamExhausted, ParameterError
from physec.keystream import KeystreamSeed, keystream
from physec.modulation import QAM16, QPSK, map_symbols, min_decision_distance
from physec.ofdm import (
    DOMAIN_FREQ,
    OfdmConfig,
    SymbolFrame,
    awgn_link,
    ebn0_db_to_snr_db,
    frame_from_symbols,
    wifi_like_config,
)
from physec.ple import (
    DEFAULT_INTERLEAVE_THRESHOLD,
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


TWO_CARRIER = OfdmConfig(n_fft=2, cp_len=0, data_carriers=(0, 1))


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


def test_interleave_threshold_extremes():
    grid = np.array([1.0 + 0j, 0 + 1j])
    frame = SymbolFrame(grid, DOMAIN_FREQ, TWO_CARRIER)
    # pi: nothing exceeds the threshold
    assert np.array_equal(partial_interleave(frame, math.pi).data, grid)
    # -pi: everything does
    assert np.allclose(partial_interleave(frame, -math.pi).data, [1j, 1.0])


def test_interleave_frozen_example():
    frame = SymbolFrame(np.array([1.0 + 0j, 0 + 1j]), DOMAIN_FREQ, TWO_CARRIER)
    out = partial_interleave(frame, math.pi / 4)
    assert np.allclose(out.data, [1.0, 1.0])


def test_interleave_roundtrip_on_alphabets():
    rng = np.random.default_rng(7)
    for mapping in (QPSK, QAM16):
        cfg = wifi_like_config(mapping)
        for trial in range(50):
            bits = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
            sym = map_symbols(bits, mapping)
            if trial % 2:
                sym = sym * 1j  # quarter-turn rotated alphabet stays invertible
            frame = frame_from_symbols(sym, cfg)
            fwd = partial_interleave(frame, DEFAULT_INTERLEAVE_THRESHOLD)
            back = partial_deinterleave(fwd, DEFAULT_INTERLEAVE_THRESHOLD)
            assert np.allclose(back.data, frame.data)
            assert np.sum(np.abs(fwd.data) ** 2) == pytest.approx(
                np.sum(np.abs(frame.data) ** 2)
            )


def test_interleave_leaves_non_data_carriers():
    cfg = wifi_like_config()
    grid = np.zeros(64, dtype=complex)
    grid[7] = -1 - 1j  # decoy slot, angle below any sane threshold
    frame = SymbolFrame(grid, DOMAIN_FREQ, cfg)
    out = partial_interleave(frame, -math.pi)
    assert out.data[7] == -1 - 1j


def test_interleave_threshold_validation():
    frame = SymbolFrame(np.zeros(2, dtype=complex), DOMAIN_FREQ, TWO_CARRIER)
    with pytest.raises(ParameterError):
        partial_interleave(frame, 3.5)
    with pytest.raises(ParameterError):
        partial_deinterleave(frame, -3.5)


def test_dummy_noop_without_slots():
    cfg = OfdmConfig(n_fft=64, cp_len=16, data_carriers=tuple(range(1, 49)))
    frame = frame_from_symbols(_qpsk_symbols(48, seed=8), cfg)
    out = insert_dummy(frame, np.zeros(0, dtype=np.uint8))
    assert np.array_equal(out.data, frame.data)


def test_dummy_fills_keyed_slots_only():
    cfg = wifi_like_config()
    seed = _seed(9)
    budget = scheme_budget_bits("dummy", cfg, PhaseEncryptConfig())
    frame = frame_from_symbols(_qpsk_symbols(48, seed=10), cfg)
    out = insert_dummy(frame, keystream(seed, budget))
    data_idx = list(cfg.data_carriers)
    assert np.array_equal(out.data[data_idx], frame.data[data_idx])
    touched = np.flatnonzero(out.data != frame.data)
    assert len(touched) == 4
    assert set(touched.tolist()) <= set(cfg.idle_carriers)


def test_dummy_values_uniform_over_constellation():
    cfg = wifi_like_config()
    seed = _seed(11)
    budget = scheme_budget_bits("dummy", cfg, PhaseEncryptConfig())
    empty = SymbolFrame(np.zeros(64, dtype=complex), DOMAIN_FREQ, cfg)
    pts = map_symbols(
        np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8), QPSK
    )
    counts = np.zeros(4)
    n_frames = 5000
    blob = keystream(seed, budget * n_frames)
    for f in range(n_frames):
        out = insert_dummy(empty, blob[f * budget : (f + 1) * budget])
        values = out.data[out.data != 0]
        assert values.size == 4
        for v in values:
            counts[int(np.argmin(np.abs(pts - v)))] += 1
    total = counts.sum()
    expected = total / 4
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 16.27  # 99.9th percentile of chi-square with 3 dof


def test_scramble_freq_semantics_and_roundtrip():
    rng = np.random.default_rng(12)
    frame = frame_from_symbols(_qpsk_symbols(48, seed=13), wifi_like_config())
    perm = rng.permutation(64)
    out = scramble_freq(frame, perm)
    assert np.array_equal(out.data, frame.data[perm])
    back = unscramble_freq(out, perm)
    assert np.array_equal(back.data, frame.data)
    assert np.sum(np.abs(out.data) ** 2) == np.sum(np.abs(frame.data) ** 2)


def test_scramble_time_refreshes_prefix():
    from physec.ofdm import ofdm_modulate

    rng = np.random.default_rng(14)
    frame = ofdm_modulate(
        frame_from_symbols(_qpsk_symbols(48, seed=15), wifi_like_config())
    )
    perm = rng.permutation(64)
    out = scramble_time(frame, perm)
    core = frame.data[16:]
    assert np.array_equal(out.data[16:], core[perm])
    assert np.array_equal(out.data[:16], core[perm][-16:])
    back = unscramble_time(out, perm)
    assert np.allclose(back.data, frame.data)


def test_scramble_rejects_non_permutation():
    frame = frame_from_symbols(_qpsk_symbols(48, seed=16), wifi_like_config())
    with pytest.raises(ParameterError):
        scramble_freq(frame, np.zeros(64, dtype=np.intp))
    with pytest.raises(ParameterError):
        scramble_freq(frame, np.arange(63))


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
                assert frame.has_cp and frame.data.size == 80
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
    assert np.array_equal(f0.data, f0_again.data)
    assert not np.array_equal(f0.data, f1.data)
    with pytest.raises(ParameterError):
        codec.encrypt(bits, -1)


def _eve_ber(stack, n_frames, alice=24, eve=25, payload_seed=26):
    cfg = wifi_like_config()
    codec_a = PleCodec(cfg, stack, _seed(alice))
    codec_e = PleCodec(cfg, stack, _seed(eve))
    rng = np.random.default_rng(payload_seed)
    wrong = 0
    for f in range(n_frames):
        bits = rng.integers(0, 2, size=96, dtype=np.uint8)
        frame = codec_a.encrypt(bits, f)
        wrong += int(np.sum(codec_e.decrypt(frame, f) != bits))
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
    errors = 0
    for f in range(n_frames):
        bits = rng.integers(0, 2, size=96, dtype=np.uint8)
        noisy = awgn_link(codec.encrypt(bits, f), snr, rng_seed=10_000 + f)
        errors += int(np.sum(codec.decrypt(noisy, f) != bits))
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
    with pytest.raises(ParameterError):
        PleCodec(cfg, ("xor",), seed, interleave_threshold=9.0)
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
