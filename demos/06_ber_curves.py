"""Bit error rate over the AWGN link: encryption should be free for Bob.

Sweeps Eb/N0 and prints plot-ready columns for an unencrypted QPSK modem,
a phase-encrypted link with the correct key, and the full six-stage stack.
The analytic QPSK curve is the reference; all three measured columns
should hug it.
"""
import math

import numpy as np

from physec.bits import BitKey
from physec.keystream import KeystreamSeed
from physec.modulation import QPSK
from physec.ofdm import awgn_rows, ebn0_db_to_snr_db, wifi_like_config
from physec.ple import SCHEME_ORDER, PleCodec

cfg = wifi_like_config()
rng = np.random.default_rng(13)
seed = KeystreamSeed(BitKey(rng.integers(0, 2, size=128, dtype=np.uint8),
                            "amplified"))
codecs = {
    "plain": PleCodec(cfg, (), seed),  # no schemes: the bare modem
    "phase": PleCodec(cfg, ("phase",), seed),
    "full": PleCodec(cfg, SCHEME_ORDER, seed),
}

N_FRAMES = 400  # 38400 bits per point; the floor is ~3e-5


def run_point(ebn0_db):
    snr_db = ebn0_db_to_snr_db(ebn0_db, QPSK)
    # each frame draws its payload, then its noise seed; all three links
    # carry the same frames through the same noise, in one batch each
    frames = np.arange(N_FRAMES)
    bits = np.empty((N_FRAMES, cfg.payload_bits), dtype=np.uint8)
    noise_seeds = []
    for f in frames:
        bits[f] = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
        noise_seeds.append(int(rng.integers(1 << 62)))
    total = bits.size
    errs = {}
    for name, codec in codecs.items():
        rx = awgn_rows(codec.encrypt_batch(bits, frames), snr_db, noise_seeds)
        errs[name] = int(np.sum(codec.decrypt_batch(rx, frames) != bits)) / total
    return errs


print(f"{'ebn0_db':>7} {'analytic':>10} {'plain':>10} {'phase':>10} {'all six':>10}")
for ebn0_db in (0.0, 2.0, 4.0, 6.0, 8.0):
    analytic = 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))
    m = run_point(ebn0_db)
    print(f"{ebn0_db:>7.1f} {analytic:>10.3e} {m['plain']:>10.3e} "
          f"{m['phase']:>10.3e} {m['full']:>10.3e}")
print()
print("columns are CSV-ready; pipe through awk or paste into a notebook to plot")
