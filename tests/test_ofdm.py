import numpy as np
import pytest

from physec.errors import DomainStateError, ParameterError
from physec.modulation import QAM16, QPSK, map_symbols
from physec.ofdm import (
    DOMAIN_FREQ,
    DOMAIN_TIME,
    OfdmConfig,
    SymbolFrame,
    attach_cp,
    awgn_link,
    ebn0_db_to_snr_db,
    extract_data,
    flat_fading_link,
    frame_from_symbols,
    ofdm_demodulate,
    ofdm_modulate,
    strip_cp,
    wifi_like_config,
)


def _random_frame(cfg, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
    return bits, frame_from_symbols(map_symbols(bits, cfg.mapping), cfg)


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
        bits, frame = _random_frame(cfg, seed=1)
        time = ofdm_modulate(frame)
        assert time.domain == DOMAIN_TIME and time.has_cp
        assert time.data.size == 80
        back = ofdm_demodulate(time)
        assert np.allclose(back.data, frame.data, atol=1e-10)
        assert np.allclose(extract_data(back), map_symbols(bits, mapping), atol=1e-10)


def test_cyclic_prefix_is_tail_copy():
    cfg = wifi_like_config()
    _, frame = _random_frame(cfg, seed=2)
    core = ofdm_modulate(frame)  # has CP already
    assert np.array_equal(core.data[:16], core.data[-16:])
    stripped = strip_cp(core)
    assert stripped.data.size == 64
    assert np.array_equal(attach_cp(stripped).data, core.data)


def test_impulse_bin_gives_flat_time_signal():
    cfg = wifi_like_config()
    grid = np.zeros(64, dtype=complex)
    grid[0] = 1.0
    time = ofdm_modulate(SymbolFrame(grid, DOMAIN_FREQ, cfg))
    core = strip_cp(time)
    assert np.allclose(core.data, 1.0 / 8.0)


def test_modem_preserves_energy():
    cfg = wifi_like_config()
    _, frame = _random_frame(cfg, seed=3)
    core = strip_cp(ofdm_modulate(frame))
    assert np.sum(np.abs(core.data) ** 2) == pytest.approx(
        np.sum(np.abs(frame.data) ** 2), abs=1e-12
    )


def test_awgn_infinite_snr_identity():
    cfg = wifi_like_config()
    _, frame = _random_frame(cfg, seed=4)
    time = ofdm_modulate(frame)
    out = awgn_link(time, np.inf, rng_seed=0)
    assert np.array_equal(out.data, time.data)


def test_awgn_noise_power_calibrated():
    n = 1 << 17
    cfg = OfdmConfig(n_fft=n, cp_len=0, data_carriers=(1,))
    silent = SymbolFrame(np.zeros(n, dtype=complex), DOMAIN_TIME, cfg)
    for snr_db in (0.0, 10.0):
        out = awgn_link(silent, snr_db, rng_seed=5)
        power = float(np.mean(np.abs(out.data) ** 2))
        assert abs(power / 10.0 ** (-snr_db / 10.0) - 1.0) < 0.02


def test_awgn_deterministic():
    cfg = wifi_like_config()
    _, frame = _random_frame(cfg, seed=6)
    time = ofdm_modulate(frame)
    a = awgn_link(time, 10.0, rng_seed=7)
    b = awgn_link(time, 10.0, rng_seed=7)
    c = awgn_link(time, 10.0, rng_seed=8)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_awgn_rejects_nonsense_snr():
    cfg = wifi_like_config()
    _, frame = _random_frame(cfg, seed=9)
    time = ofdm_modulate(frame)
    with pytest.raises(ParameterError):
        awgn_link(time, float("nan"), 0)
    with pytest.raises(ParameterError):
        awgn_link(time, -np.inf, 0)


def test_flat_fading_equalized_roundtrip():
    cfg = wifi_like_config()
    bits, frame = _random_frame(cfg, seed=10)
    time = ofdm_modulate(frame)
    faded, gain = flat_fading_link(time, np.inf, rng_seed=11)
    assert gain != 0
    back = ofdm_demodulate(faded, channel_gain=gain)
    assert np.allclose(extract_data(back), map_symbols(bits, QPSK), atol=1e-10)
    # tap is reproducible per seed
    _, gain2 = flat_fading_link(time, np.inf, rng_seed=11)
    assert gain == gain2


def test_ebn0_conversion():
    assert ebn0_db_to_snr_db(4.0, QPSK) == pytest.approx(4.0 + 10 * np.log10(2))
    assert ebn0_db_to_snr_db(4.0, QAM16) == pytest.approx(4.0 + 10 * np.log10(4))


def test_extract_ignores_decoys():
    cfg = wifi_like_config()
    bits, frame = _random_frame(cfg, seed=12)
    grid = frame.data.copy()
    grid[list(cfg.dummy_carriers)] = 9.0 + 9.0j
    loaded = SymbolFrame(grid, DOMAIN_FREQ, cfg)
    assert np.array_equal(extract_data(loaded), extract_data(frame))
    assert np.mean(np.abs(extract_data(loaded)) ** 2) == pytest.approx(1.0)


def test_frame_and_config_validation():
    cfg = wifi_like_config()
    with pytest.raises(ParameterError):
        SymbolFrame(np.zeros(63, dtype=complex), DOMAIN_FREQ, cfg)
    with pytest.raises(DomainStateError):
        SymbolFrame(np.zeros(64, dtype=complex), DOMAIN_FREQ, cfg, has_cp=True)
    with pytest.raises(ParameterError):
        SymbolFrame(np.zeros(64, dtype=complex), "delay", cfg)
    freq = SymbolFrame(np.zeros(64, dtype=complex), DOMAIN_FREQ, cfg)
    with pytest.raises(DomainStateError):
        strip_cp(freq)
    with pytest.raises(DomainStateError):
        ofdm_demodulate(freq)
    time = SymbolFrame(np.zeros(64, dtype=complex), DOMAIN_TIME, cfg)
    with pytest.raises(ParameterError):
        ofdm_demodulate(attach_cp(time), channel_gain=0)
    with pytest.raises(ParameterError):
        frame_from_symbols(np.zeros(47, dtype=complex), cfg)
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
