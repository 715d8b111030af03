import numpy as np
import pytest

from physec.bits import STAGE_AMPLIFIED, BitKey
from physec.errors import ParameterError
from physec.keystream import KeystreamSeed
from physec.modulation import QAM16, QPSK
from physec.ofdm import strip_cp, wifi_like_config
from physec.ple import SCHEME_ORDER, PleCodec, key_to_data_ratio

SUBSETS = [
    tuple(s for i, s in enumerate(SCHEME_ORDER) if (mask >> i) & 1)
    for mask in range(64)
]
FRAMES = np.array([0, 3, 4, 11, 2])  # out of order, with gaps


def _seed(seed_int, n=128):
    rng = np.random.default_rng(seed_int)
    return KeystreamSeed(BitKey(rng.integers(0, 2, n, dtype=np.uint8), STAGE_AMPLIFIED))


def _payloads(cfg, n_frames, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (n_frames, cfg.payload_bits), dtype=np.uint8)


@pytest.mark.parametrize("mapping", [QPSK, QAM16])
def test_batch_rows_equal_single_frames_for_every_subset(mapping):
    cfg = wifi_like_config(mapping)
    for mask, stack in enumerate(SUBSETS):
        codec = PleCodec(cfg, stack, _seed(mask))
        bits = _payloads(cfg, FRAMES.size, 100 + mask)
        samples = codec.encrypt_batch(bits, FRAMES)
        assert samples.shape == (FRAMES.size, cfg.n_fft + cfg.cp_len)
        for row, f in enumerate(FRAMES):
            single = codec.encrypt(bits[row], int(f))
            assert np.array_equal(samples[row], single.data), (stack, f)
            assert np.array_equal(codec.decrypt(single, int(f)), bits[row])
        assert np.array_equal(codec.decrypt_batch(samples, FRAMES), bits), stack


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


def test_channel_gain_is_divided_out():
    cfg = wifi_like_config()
    codec = PleCodec(cfg, SCHEME_ORDER, _seed(4))
    bits = _payloads(cfg, 8, 5)
    frames = np.arange(8)
    gain = 0.3 - 0.8j
    faded = codec.encrypt_batch(bits, frames) * gain
    assert np.array_equal(codec.decrypt_batch(faded, frames, channel_gain=gain), bits)
    assert not np.array_equal(codec.decrypt_batch(faded, frames), bits)
    single = codec.encrypt(bits[0], 0)
    faded_single = type(single)(single.data * gain, single.domain, cfg, has_cp=True)
    assert np.array_equal(codec.decrypt(faded_single, 0, channel_gain=gain), bits[0])
    with pytest.raises(ParameterError):
        codec.decrypt_batch(faded, frames, channel_gain=0)


def test_single_frame_decrypt_accepts_frame_without_prefix():
    cfg = wifi_like_config()
    codec = PleCodec(cfg, SCHEME_ORDER, _seed(6))
    bits = _payloads(cfg, 1, 7)[0]
    core = strip_cp(codec.encrypt(bits, 9))
    assert not core.has_cp
    assert np.array_equal(codec.decrypt(core, 9), bits)


def test_key_to_data_ratio_refuses_duplicates():
    cfg = wifi_like_config()
    with pytest.raises(ParameterError):
        key_to_data_ratio(["xor", "xor"], cfg)
    with pytest.raises(ParameterError):
        key_to_data_ratio(["phase", "dummy", "phase"], cfg)
    assert key_to_data_ratio(["phase", "xor"], cfg) == pytest.approx(2.0)
    codec = PleCodec(cfg, ["scramble_time", "dummy", "xor"], _seed(8))
    assert key_to_data_ratio(["scramble_time", "dummy", "xor"], cfg) == (
        codec.key_to_data_ratio()
    )
