"""The whole key-generation pipeline, one stage at a time.

Probe a channel with packet loss, align what survived, quantize, reconcile
with a secure sketch, then hash down to a 128-bit key. Printed at each
stage: how much material is left and how far apart the two parties are.
"""
import numpy as np

from physec.bits import BitKey, pack_bits
from physec.blockcode import hamming74
from physec.channel import ChannelParams, generate_trace
from physec.distill import amplify, monobit_test, recover, runs_test, sketch, syndrome_bits_leaked
from physec.probing import LossModel, align_timestamps, apply_loss
from physec.quantize import MeanSigmaConfig, intersect_kept_indices, quantize_mean_sigma

params = ChannelParams(snr_db=15.0, n_probes=600, rng_seed=66)
trace = generate_trace(params)
print(f"probing: {params.n_probes} rounds at {params.snr_db:g} dB, tau = "
      f"{params.sampling_delay:g}")

alice, bob = apply_loss(trace, LossModel(loss_probability=0.1, rng_seed=67))
x_a, x_b, _ = align_timestamps(alice, bob, params.sampling_delay)
print(f"loss + alignment: alice kept {len(alice)}, bob kept {len(bob)}, "
      f"{x_a.size} usable pairs")

cfg = MeanSigmaConfig(alpha=0.5)
out_a = quantize_mean_sigma(x_a, cfg)
out_b = quantize_mean_sigma(x_b, cfg)
bits_a, common = intersect_kept_indices(out_a, out_b.kept_indices)
bits_b, _ = intersect_kept_indices(out_b, out_a.kept_indices)
kdr = float(np.mean(bits_a.bits != bits_b.bits))
print(f"quantization: {common.size} common bits, disagreement {kdr:.4f}")

code = hamming74()
n_blocks = len(bits_a) // code.n_code
usable = n_blocks * code.n_code
k_a = BitKey(bits_a.bits[:usable])
k_b = BitKey(bits_b.bits[:usable])
sk = sketch(k_a, code, rng_seed=11)
k_b_fixed = recover(k_b, sk, code)
leaked = syndrome_bits_leaked(code, n_blocks)
agree = np.array_equal(k_b_fixed.bits, k_a.bits)
print(f"reconciliation: {n_blocks} blocks, {leaked} bits leaked, "
      f"keys identical: {agree}")

out_len = 128
salt = b"demo-session-salt"
key_a = amplify(k_a, leaked, out_len, salt)
key_b = amplify(k_b_fixed, leaked, out_len, salt)
print(f"amplification: {usable} -> {out_len} bits "
      f"(budget {usable} - {leaked} = {usable - leaked})")
print(f"  alice {pack_bits(key_a.bits).hex()}")
print(f"  bob   {pack_bits(key_b.bits).hex()}")

mono = monobit_test(key_a.bits)
runs = runs_test(key_a.bits)
print(f"randomness: monobit z = {mono.statistic:.2f} "
      f"({'pass' if mono.passed else 'FAIL'}), runs z = {runs.statistic:.2f} "
      f"({'pass' if runs.passed else 'FAIL'})")
