"""Keyed OFDM transmission: what Bob sees versus what Eve sees.

Builds the full six-stage encryption stack on a 64-subcarrier frame, checks
the legitimate round trip bit for bit, then hands the same waveform to a
receiver holding a different key.
"""
import numpy as np

from physec.bits import BitKey
from physec.keystream import KeystreamSeed
from physec.ofdm import wifi_like_config
from physec.ple import (
    SCHEME_ORDER,
    PhaseEncryptConfig,
    PleCodec,
    key_to_data_ratio,
)

rng = np.random.default_rng(12)
cfg = wifi_like_config()


def fresh_seed():
    return KeystreamSeed(BitKey(rng.integers(0, 2, size=128, dtype=np.uint8),
                                "amplified"))


alice_seed = fresh_seed()
eve_seed = fresh_seed()

print(f"frame: {cfg.n_fft}-point FFT, {cfg.n_data} data carriers, "
      f"{cfg.payload_bits} payload bits, {len(cfg.dummy_carriers)} decoy slots")
print(f"stages: {', '.join(SCHEME_ORDER)}")

codec = PleCodec(cfg, SCHEME_ORDER, alice_seed)
payload = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
tx = codec.encrypt(payload, frame_index=0)
print(f"waveform: {tx.size} samples with cyclic prefix, "
      f"mean power {np.mean(np.abs(tx) ** 2):.3f}")
print(f"legit round trip exact: "
      f"{np.array_equal(codec.decrypt(tx, 0), payload)}")

print()
print("=== wrong-key receiver, stage by stage ===")
n_frames = 300
frames = np.arange(n_frames)
print(f"{'stack':>20} {'eve BER':>8}")
for stack in (("xor",), ("phase",), ("scramble_freq",), SCHEME_ORDER):
    codec_a = PleCodec(cfg, stack, alice_seed)
    codec_e = PleCodec(cfg, stack, eve_seed)
    # one payload row per frame, all frames in one batch each way
    bits = rng.integers(0, 2, size=(n_frames, cfg.payload_bits), dtype=np.uint8)
    rx = codec_e.decrypt_batch(codec_a.encrypt_batch(bits, frames), frames)
    wrong = int(np.sum(rx != bits))
    label = "+".join(stack) if len(stack) <= 3 else "all six"
    print(f"{label:>20} {wrong / (n_frames * cfg.payload_bits):>8.4f}")
print("every keyed stage alone already pins a blind receiver at coin-flip BER")

print()
print("=== keystream cost per plaintext bit ===")
for label, stack, pc in (
    ("xor", ["xor"], None),
    ("phase q=2", ["phase"], PhaseEncryptConfig(bits_per_angle=2)),
    ("phase q=4", ["phase"], PhaseEncryptConfig(bits_per_angle=4)),
    ("all six", list(SCHEME_ORDER), None),
):
    print(f"{label:>10}: {key_to_data_ratio(stack, cfg, pc):.3f}")
