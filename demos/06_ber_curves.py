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
from physec.ofdm import awgn_link, ebn0_db_to_snr_db, wifi_like_config
from physec.ple import SCHEME_ORDER, PleCodec

cfg = wifi_like_config()
rng = np.random.default_rng(13)
seed = KeystreamSeed(BitKey(rng.integers(0, 2, size=128, dtype=np.uint8),
                            "amplified"))
plain_codec = PleCodec(cfg, (), seed)  # no schemes: the bare modem
phase_codec = PleCodec(cfg, ("phase",), seed)
full_codec = PleCodec(cfg, SCHEME_ORDER, seed)

N_FRAMES = 400  # 38400 bits per point; the floor is ~3e-5


def run_point(ebn0_db):
    snr_db = ebn0_db_to_snr_db(ebn0_db, QPSK)
    errs = {"plain": 0, "phase": 0, "full": 0}
    for f in range(N_FRAMES):
        bits = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
        noise_seed = int(rng.integers(1 << 62))

        rx = awgn_link(plain_codec.encrypt(bits, f), snr_db, noise_seed)
        errs["plain"] += int(np.sum(plain_codec.decrypt(rx, f) != bits))

        rx = awgn_link(phase_codec.encrypt(bits, f), snr_db, noise_seed)
        errs["phase"] += int(np.sum(phase_codec.decrypt(rx, f) != bits))

        rx = awgn_link(full_codec.encrypt(bits, f), snr_db, noise_seed)
        errs["full"] += int(np.sum(full_codec.decrypt(rx, f) != bits))
    total = N_FRAMES * cfg.payload_bits
    return {k: v / total for k, v in errs.items()}


print(f"{'ebn0_db':>7} {'analytic':>10} {'plain':>10} {'phase':>10} {'all six':>10}")
for ebn0_db in (0.0, 2.0, 4.0, 6.0, 8.0):
    analytic = 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))
    m = run_point(ebn0_db)
    print(f"{ebn0_db:>7.1f} {analytic:>10.3e} {m['plain']:>10.3e} "
          f"{m['phase']:>10.3e} {m['full']:>10.3e}")
print()
print("columns are CSV-ready; pipe through awk or paste into a notebook to plot")
