"""Acceptance gate: the twelve checkable guarantees of this package.

Each test prints one PASS line with the measured figure once its assertions
hold, so a verbose run doubles as an acceptance report.
"""
import math
import time
from itertools import combinations

import numpy as np

from physec.bits import BitKey
from physec.blockcode import hamming74
from physec.channel import ChannelParams, expected_reciprocity, generate_trace, pearson_correlation
from physec.distill import recover, sketch
from physec.harness import config_from_dict, report_json_bytes, run_experiment
from physec.keystream import KeystreamSeed
from physec.modulation import QPSK
from physec.ofdm import awgn_rows, ebn0_db_to_snr_db, wifi_like_config
from physec.ple import SCHEME_ORDER, PhaseEncryptConfig, PleCodec, key_to_data_ratio
from physec.quantize import (
    CdfConfig,
    MeanSigmaConfig,
    quantize_cdf,
    quantize_mean_sigma,
)


def _amp_seed(seed_int):
    rng = np.random.default_rng(seed_int)
    return KeystreamSeed(
        BitKey(rng.integers(0, 2, size=128, dtype=np.uint8), "amplified")
    )


def test_c01_exhaustive_reconciliation_oracle():
    code = hamming74()
    start = time.perf_counter()
    cases = failures = 0
    for value in range(128):
        k_a = BitKey((value >> np.arange(6, -1, -1)) & 1)
        sk = sketch(k_a, code, rng_seed=value)
        patterns = [np.zeros(7, dtype=np.uint8)]
        patterns += [((1 << p) >> np.arange(6, -1, -1)) & 1 for p in range(7)]
        for e in patterns:
            cases += 1
            got = recover(BitKey(k_a.bits ^ np.asarray(e, dtype=np.uint8)), sk, code)
            if not np.array_equal(got.bits, k_a.bits):
                failures += 1
    elapsed = time.perf_counter() - start
    assert cases == 1024
    assert failures == 0
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: 1024/1024 sketch/recover cases exact "
        f"in {elapsed:.3f} s"
    )


def test_c02_blockcode_structural_oracle():
    code = hamming74()
    cw = code.codewords()
    assert cw.shape == (16, 7)
    dmin = min(int(np.sum(a != b)) for a, b in combinations(cw, 2))
    assert dmin == 3
    members = {w.tobytes() for w in cw}
    closed = sum((a ^ b).tobytes() in members for a in cw for b in cw)
    assert closed == 256
    print(
        "PASS criterion 2: hamming74 min distance 3, all 256 codeword "
        "sums are codewords"
    )


def test_c03_quantizer_balance():
    rng = np.random.default_rng(2026)
    x = rng.normal(size=1 << 14)
    worst = 0.0
    for ql in (1, 2, 3):
        key = quantize_cdf(x, CdfConfig(ql))
        sym = key.bits.reshape(-1, ql) @ (1 << np.arange(ql - 1, -1, -1))
        fracs = np.bincount(sym, minlength=1 << ql) / x.size
        dev = float(np.abs(fracs - 2.0**-ql).max())
        worst = max(worst, dev)
        assert dev < 0.02
    ones = quantize_mean_sigma(x, MeanSigmaConfig(alpha=0.0)).bits.bits.mean()
    assert abs(ones - 0.5) < 0.02
    print(
        f"PASS criterion 3: symbol balance within {worst:.4f} of uniform "
        f"(bound 0.02); ones-fraction {ones:.4f}"
    )


def test_c04_quantizer_invariances():
    rng = np.random.default_rng(3)
    ms_cfg = MeanSigmaConfig(alpha=0.5)
    cdf_cfg = CdfConfig(2)
    violations = 0
    for _ in range(1000):
        x = rng.normal(size=64)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        ref = quantize_mean_sigma(x, ms_cfg)
        got = quantize_mean_sigma(a * x + b, ms_cfg)
        if not (
            np.array_equal(ref.bits.bits, got.bits.bits)
            and np.array_equal(ref.kept_indices, got.kept_indices)
        ):
            violations += 1
        if not np.array_equal(
            quantize_cdf(x, cdf_cfg).bits, quantize_cdf(np.exp(x), cdf_cfg).bits
        ):
            violations += 1
    assert violations == 0
    print(
        "PASS criterion 4: 1000 affine and 1000 monotone transforms, "
        "zero output changes"
    )


def test_c05_reciprocity_calibration():
    n_seeds = 100
    worst = 0.0
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        params = [
            ChannelParams(
                temporal_correlation=0.99,
                sampling_delay=1.0,
                snr_db=snr_db,
                n_probes=100_000,
                rng_seed=seed,
            )
            for seed in range(n_seeds)
        ]
        target = expected_reciprocity(params[0])
        assert target == 0.99 / (1.0 + 10.0 ** (-snr_db / 10.0))
        corrs = [
            pearson_correlation(tr.x_a, tr.x_b)
            for tr in (generate_trace(p) for p in params)
        ]
        dev = abs(float(np.mean(corrs)) - target)
        worst = max(worst, dev)
        assert dev <= 0.01
    print(
        f"PASS criterion 5: mean trace correlation within {worst:.4f} of "
        f"rho_t/(1+10^(-snr/10)) at snr 0/10/20/30 dB (bound 0.01)"
    )


def test_c06_end_to_end_key_agreement():
    cfg = config_from_dict(
        {
            "scenario": "acceptance",
            "ple": {"ber_bits": 0},
            "sweep": {"parameter": "channel.snr_db", "values": [0.0, 30.0]},
            "trials": 200,
        }
    )
    assert cfg.raw["amplify_out_len"] == 128
    report = run_experiment(cfg)
    low, high = (
        entry["metrics"]["key_agreement_rate"]["mean"] for entry in report["results"]
    )
    assert high >= 0.95
    assert low < high
    print(
        f"PASS criterion 6: 128-bit key agreement {high:.3f} at 30 dB "
        f"(>= 0.95), {low:.3f} at 0 dB (strictly lower)"
    )


def test_c07_ple_roundtrip_all_subsets():
    cfg = wifi_like_config()
    rng = np.random.default_rng(4)
    subsets = [
        tuple(s for s in SCHEME_ORDER if (mask >> SCHEME_ORDER.index(s)) & 1)
        for mask in range(64)
    ]
    frames = np.arange(100)
    failures = 0
    for mask, stack in enumerate(subsets):
        codec = PleCodec(cfg, stack, _amp_seed(mask))
        # frame f carries the subset's f-th 96-bit payload draw
        bits = rng.integers(0, 2, size=(frames.size, 96), dtype=np.uint8)
        decoded = codec.decrypt_batch(codec.encrypt_batch(bits, frames), frames)
        failures += int((decoded != bits).any(axis=1).sum())
    assert failures == 0
    print(
        "PASS criterion 7: all 64 scheme subsets x 100 payloads, "
        "6400/6400 noiseless round trips exact"
    )


def test_c08_eavesdropper_ber():
    cfg = wifi_like_config()
    n_bits = 100_000
    n_frames = -(-n_bits // cfg.payload_bits)
    results = {}
    for stack in (("phase",), ("scramble_freq",), ("xor",)):
        codec_a = PleCodec(cfg, stack, _amp_seed(10))
        codec_e = PleCodec(cfg, stack, _amp_seed(11))
        rng = np.random.default_rng(5)
        # frame f carries the f-th 96-bit payload draw
        frames = np.arange(n_frames)
        bits = rng.integers(0, 2, size=(n_frames, 96), dtype=np.uint8)
        samples = codec_a.encrypt_batch(bits, frames)
        ber = np.sum(codec_e.decrypt_batch(samples, frames) != bits) / bits.size
        results[stack[0]] = ber
        assert 0.45 <= ber <= 0.55
    summary = ", ".join(f"{k} {v:.4f}" for k, v in results.items())
    print(f"PASS criterion 8: wrong-seed BER in [0.45, 0.55]: {summary}")


def test_c09_awgn_qpsk_oracle():
    ebn0_db = 4.0
    oracle = 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))
    cfg = wifi_like_config()
    snr_db = ebn0_db_to_snr_db(ebn0_db, QPSK)
    n_frames = -(-1_000_000 // cfg.payload_bits)

    ber = {}
    # no schemes is the plain modem
    for name, schemes, rng_seed in (("plain", (), 6), ("phase", ("phase",), 7)):
        codec = PleCodec(cfg, schemes, _amp_seed(12))
        rng = np.random.default_rng(rng_seed)
        # each frame draws its 96-bit payload, then its noise seed
        frames = np.arange(n_frames)
        bits = np.empty((n_frames, 96), dtype=np.uint8)
        noise_seeds = []
        for f in frames:
            bits[f] = rng.integers(0, 2, size=96, dtype=np.uint8)
            noise_seeds.append(int(rng.integers(1 << 62)))
        rx = awgn_rows(codec.encrypt_batch(bits, frames), snr_db, noise_seeds)
        errors = int(np.sum(codec.decrypt_batch(rx, frames) != bits))
        ber[name] = errors / bits.size
        assert abs(ber[name] - oracle) <= 0.1 * oracle
    print(
        f"PASS criterion 9: QPSK BER at 4 dB Eb/N0: plain {ber['plain']:.5f}, "
        f"phase-encrypted {ber['phase']:.5f}, oracle {oracle:.5f} (tolerance 10%)"
    )


def test_c10_key_to_data_ratios():
    cfg = wifi_like_config()
    r_xor = key_to_data_ratio(["xor"], cfg)
    r_q2 = key_to_data_ratio(["phase"], cfg, PhaseEncryptConfig(bits_per_angle=2))
    r_q4 = key_to_data_ratio(["phase"], cfg, PhaseEncryptConfig(bits_per_angle=4))
    assert r_xor == 1.0
    assert r_q2 == 1.0
    assert r_q4 == 2.0
    print(
        f"PASS criterion 10: computed key-to-data ratios xor {r_xor}, "
        f"phase q2 {r_q2}, phase q4 {r_q4}"
    )


def test_c11_complexity_trend():
    rng = np.random.default_rng(8)
    cdf_cfg = CdfConfig(1)
    ms_cfg = MeanSigmaConfig(alpha=0.5)
    ratios = {}
    for n in (10_000, 100_000, 1_000_000):
        x = rng.normal(size=n)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            quantize_cdf(x, cdf_cfg)
            t1 = time.perf_counter()
            quantize_mean_sigma(x, ms_cfg)
            t2 = time.perf_counter()
            samples.append((t1 - t0) / (t2 - t1))
        ratios[n] = float(np.median(samples))
    assert ratios[1_000_000] > ratios[10_000]
    print(
        "PASS criterion 11: cdf/mean-sigma runtime ratio grows "
        f"{ratios[10_000]:.2f} -> {ratios[100_000]:.2f} -> "
        f"{ratios[1_000_000]:.2f} over n = 1e4/1e5/1e6"
    )


def test_c12_experiment_determinism():
    raw = {
        "scenario": "determinism",
        "channel": {"n_probes": 300},
        "ple": {"ber_bits": 960},
        "sweep": {"parameter": "channel.snr_db", "values": [10.0, 30.0]},
        "trials": 5,
        "master_seed": 42,
    }
    first = report_json_bytes(run_experiment(config_from_dict(raw)))
    second = report_json_bytes(run_experiment(config_from_dict(raw)))
    assert first == second
    print(
        f"PASS criterion 12: repeated seeded run emits byte-identical "
        f"JSON ({len(first)} bytes)"
    )
