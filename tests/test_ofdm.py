import numpy as np
import pytest

from physec.bits import STAGE_AMPLIFIED, BitKey
from physec.errors import ParameterError
from physec.keystream import KeystreamSeed
from physec.modulation import QAM16, QPSK, map_symbols
from physec.ofdm import (
    OfdmConfig,
    attach_cp,
    awgn_link,
    awgn_rows,
    ebn0_db_to_snr_db,
    ofdm_demodulate,
    ofdm_modulate,
    wifi_like_config,
)
from physec.ple import PleCodec


def _random_frame(cfg, seed=0):
    """Payload bits, their subcarrier grid and the link frame's samples."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
    grid = np.zeros(cfg.n_fft, dtype=complex)
    grid[list(cfg.data_carriers)] = map_symbols(bits, cfg.mapping)
    samples = attach_cp(ofdm_modulate(grid), cfg.cp_len)
    return bits, grid, samples


def test_wifi_layout():
    cfg = wifi_like_config()
    assert (cfg.n_fft, cfg.cp_len) == (64, 16)
    assert cfg.n_data == 48
    assert len(cfg.dummy_carriers) == 4
    assert set(cfg.dummy_carriers) == {7, 21, 43, 57}
    assert not set(cfg.data_carriers) & set(cfg.dummy_carriers)
    assert cfg.payload_bits == 96
    # DC bin and the center guard band stay empty
    assert 0 not in cfg.data_carriers
    assert not set(range(27, 38)) & set(cfg.data_carriers)
    assert set(cfg.dummy_carriers) <= set(cfg.idle_carriers)
    assert wifi_like_config(QAM16).payload_bits == 192


def test_modem_roundtrip():
    for mapping in (QPSK, QAM16):
        cfg = wifi_like_config(mapping)
        bits, grid, frame = _random_frame(cfg, seed=1)
        assert frame.size == 80
        back = ofdm_demodulate(frame[cfg.cp_len :])
        assert np.allclose(back, grid, atol=1e-10)
        data = list(cfg.data_carriers)
        assert np.allclose(back[data], map_symbols(bits, mapping), atol=1e-10)


def test_modem_rows_are_frames():
    cfg = wifi_like_config()
    grids = np.stack([_random_frame(cfg, seed=s)[1] for s in (20, 21, 22)])
    core = ofdm_modulate(grids)
    assert np.array_equal(core, [ofdm_modulate(g) for g in grids])
    samples = attach_cp(core, cfg.cp_len)
    assert np.array_equal(samples, [attach_cp(c, cfg.cp_len) for c in core])
    assert np.array_equal(ofdm_demodulate(core), [ofdm_demodulate(c) for c in core])


def test_cyclic_prefix_is_tail_copy():
    cfg = wifi_like_config()
    _, grid, frame = _random_frame(cfg, seed=2)
    core = ofdm_modulate(grid)
    assert np.array_equal(frame[:16], frame[-16:])
    assert np.array_equal(frame[16:], core)
    assert np.array_equal(attach_cp(core, 0), core)
    for cp_len in (-1, 64):
        with pytest.raises(ParameterError):
            attach_cp(core, cp_len)


def test_impulse_bin_gives_flat_time_signal():
    grid = np.zeros(64, dtype=complex)
    grid[0] = 1.0
    assert np.allclose(ofdm_modulate(grid), 1.0 / 8.0)


def test_modem_preserves_energy():
    cfg = wifi_like_config()
    _, grid, _ = _random_frame(cfg, seed=3)
    core = ofdm_modulate(grid)
    assert np.sum(np.abs(core) ** 2) == pytest.approx(
        np.sum(np.abs(grid) ** 2), abs=1e-12
    )


def test_awgn_infinite_snr_identity():
    cfg = wifi_like_config()
    _, _, frame = _random_frame(cfg, seed=4)
    out = awgn_link(frame, np.inf, rng_seed=0)
    assert np.array_equal(out, frame)


def test_awgn_noise_power_calibrated():
    n = 1 << 17
    silent = np.zeros(n, dtype=complex)
    for snr_db in (0.0, 10.0):
        out = awgn_link(silent, snr_db, rng_seed=5)
        power = float(np.mean(np.abs(out) ** 2))
        assert abs(power / 10.0 ** (-snr_db / 10.0) - 1.0) < 0.02


def test_awgn_deterministic():
    cfg = wifi_like_config()
    _, _, frame = _random_frame(cfg, seed=6)
    a = awgn_link(frame, 10.0, rng_seed=7)
    b = awgn_link(frame, 10.0, rng_seed=7)
    c = awgn_link(frame, 10.0, rng_seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_awgn_rejects_nonsense_snr():
    cfg = wifi_like_config()
    _, _, frame = _random_frame(cfg, seed=9)
    with pytest.raises(ParameterError):
        awgn_link(frame, float("nan"), 0)
    with pytest.raises(ParameterError):
        awgn_link(frame, -np.inf, 0)


def test_awgn_rows_equal_awgn_link_per_row_seed():
    cfg = wifi_like_config()
    frames = [_random_frame(cfg, seed=40 + f)[2] for f in range(6)]
    samples = np.array(frames)
    seeds = [int(s) for s in np.random.default_rng(41).integers(1 << 62, size=6)]
    n = samples.shape[1]
    for snr_db in (8.0, -3.0):
        rows = awgn_rows(samples, snr_db, seeds)
        want = [awgn_link(f, snr_db, s) for f, s in zip(frames, seeds)]
        assert rows.tobytes() == np.array(want).tobytes()
        # Reference: two standard_normal(n) draws per seed, real then imaginary.
        scale = 10.0 ** (-snr_db / 20.0) / np.sqrt(2)
        for row, frame, seed in zip(rows, frames, seeds):
            rng = np.random.default_rng(seed)
            noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
            assert row.tobytes() == (frame + noise).tobytes()
    assert np.array_equal(awgn_rows(samples, np.inf, seeds), samples)
    for snr_db in (float("nan"), -np.inf):
        with pytest.raises(ParameterError) as link_error:
            awgn_link(frames[0], snr_db, seeds[0])
        with pytest.raises(ParameterError) as rows_error:
            awgn_rows(samples, snr_db, seeds)
        assert str(rows_error.value) == str(link_error.value)
    with pytest.raises(ParameterError):
        awgn_rows(samples, 8.0, seeds[:5])


def test_ebn0_conversion():
    assert ebn0_db_to_snr_db(4.0, QPSK) == pytest.approx(4.0 + 10 * np.log10(2))
    assert ebn0_db_to_snr_db(4.0, QAM16) == pytest.approx(4.0 + 10 * np.log10(4))


def _plain_modem(cfg, seed):
    """A codec with no schemes: mapping, data carriers, IFFT and prefix."""
    key = BitKey(np.random.default_rng(seed).integers(0, 2, 128, dtype=np.uint8),
                 STAGE_AMPLIFIED)
    return PleCodec(cfg, (), KeystreamSeed(key))


def test_extract_ignores_decoys():
    # the plain modem reads only the data carriers
    cfg = wifi_like_config()
    codec = _plain_modem(cfg, 12)
    bits, grid, frame = _random_frame(cfg, seed=12)
    assert np.array_equal(codec.encrypt(bits, 5), frame)
    grid[list(cfg.idle_carriers)] = 9.0 + 9.0j
    loaded = attach_cp(ofdm_modulate(grid), cfg.cp_len)
    assert np.array_equal(codec.decrypt(loaded, 5), bits)
    data = ofdm_demodulate(loaded[cfg.cp_len :])[list(cfg.data_carriers)]
    assert np.mean(np.abs(data) ** 2) == pytest.approx(1.0)


def test_frame_and_config_validation():
    cfg = wifi_like_config()
    codec = _plain_modem(cfg, 13)
    # a link frame is n_fft + cp_len = 80 samples, prefix included
    for size in (63, 64, 81):
        with pytest.raises(ParameterError):
            codec.decrypt(np.zeros(size, dtype=complex), 0)
    assert codec.decrypt(np.zeros(80, dtype=complex), 0).shape == (cfg.payload_bits,)
    assert codec.encrypt(np.zeros(cfg.payload_bits, dtype=np.uint8), 0).shape == (80,)
    with pytest.raises(ParameterError):
        OfdmConfig(n_fft=48, cp_len=0, data_carriers=(1,))
    with pytest.raises(ParameterError):
        OfdmConfig(n_fft=64, cp_len=64, data_carriers=(1,))
    with pytest.raises(ParameterError):
        OfdmConfig(n_fft=64, cp_len=16, data_carriers=(1, 1))
    with pytest.raises(ParameterError):
        OfdmConfig(n_fft=64, cp_len=16, data_carriers=(1,), dummy_carriers=(1,))
    with pytest.raises(ParameterError):
        OfdmConfig(n_fft=64, cp_len=16, data_carriers=())
    with pytest.raises(ParameterError):
        OfdmConfig(n_fft=64, cp_len=16, data_carriers=(64,))
