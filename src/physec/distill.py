"""Key distillation: reconcile near-identical bit strings, then compress.

The code-offset secure sketch hides a quantized key k behind a random
codeword: the public sketch is s = k XOR c. The peer, holding k' close to k
in Hamming distance, computes k' XOR s = c XOR (k XOR k'), decodes back to c
and recovers k = c XOR s exactly when the mismatch stays within the code's
correction radius. Publishing s leaks at most the code redundancy per block,
which privacy amplification then pays for by hashing down to a shorter key.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bits import (
    STAGE_AMPLIFIED,
    STAGE_RECONCILED,
    BitKey,
    as_bit_array,
    pack_bits,
    unpack_bits,
)
from .blockcode import LinearBlockCode
from .errors import (
    DecodeFailure,
    EntropyBudgetError,
    ParameterError,
    ReconcileFailure,
)
from .rng import check_seed, generators


@dataclass(frozen=True)
class SecureSketch:
    """Public reconciliation data: sketch bits plus code identification."""

    s: np.ndarray
    code_id: str
    n_blocks: int

    def __post_init__(self):
        object.__setattr__(self, "s", as_bit_array(self.s))
        if self.n_blocks < 1:
            raise ParameterError("sketch must cover at least one block")
        if self.s.size % self.n_blocks != 0:
            raise ParameterError("sketch length must be n_blocks x n_code")


def _blocks(key: BitKey, code: LinearBlockCode) -> np.ndarray:
    if len(key) == 0 or len(key) % code.n_code != 0:
        raise ParameterError(
            f"key length {len(key)} is not a positive multiple of n_code "
            f"{code.n_code}; pad or truncate explicitly before sketching"
        )
    return key.bits.reshape(-1, code.n_code)


def sketch(k_a: BitKey, code: LinearBlockCode, rng_seed) -> SecureSketch:
    """Build the public sketch s = k_a XOR c, one random codeword per block.

    The codewords' messages are drawn from default_rng(rng_seed), or from
    rng_seed itself when it is a np.random.Generator the caller built.
    """
    blocks = _blocks(k_a, code)
    rng = rng_seed
    if not isinstance(rng, np.random.Generator):
        rng = generators([check_seed(rng_seed, "rng_seed")])[0]
    msgs = rng.integers(0, 2, size=(blocks.shape[0], code.k_code), dtype=np.uint8)
    codewords = code.encode(msgs)
    return SecureSketch(
        (blocks ^ codewords).ravel(), code.code_id, int(blocks.shape[0])
    )


def recover(k_b: BitKey, sk: SecureSketch, code: LinearBlockCode) -> BitKey:
    """Reconcile k_b against a peer's sketch.

    Per block: decode (k_b XOR s) to the nearest codeword c_hat and emit
    c_hat XOR s. Output equals the sketching party's key whenever each
    block differs in at most t_corr positions. Fail-closed: one undecodable
    block fails the whole key.
    """
    if sk.code_id != code.code_id:
        raise ParameterError(
            f"sketch was built with {sk.code_id!r}, not {code.code_id!r}"
        )
    blocks = _blocks(k_b, code)
    s_blocks = sk.s.reshape(-1, code.n_code)
    if blocks.shape != s_blocks.shape:
        raise ParameterError("key and sketch cover different block counts")
    try:
        msgs = code.decode_batch(blocks ^ s_blocks)
    except DecodeFailure as exc:
        raise ReconcileFailure(str(exc)) from exc
    c_hat = code.encode(msgs)
    return k_b.advanced(STAGE_RECONCILED, (c_hat ^ s_blocks).ravel())


def syndrome_bits_leaked(code: LinearBlockCode, n_blocks: int) -> int:
    """Information leaked by a sketch, counted as syndrome bits per block."""
    if n_blocks < 0:
        raise ParameterError("n_blocks must be >= 0")
    return n_blocks * (code.n_code - code.k_code)


def amplify(k: BitKey, leaked_bits: int, out_len: int, salt: bytes) -> BitKey:
    """Privacy amplification by counter-extended SHA-256.

    Refuses (budget error) when out_len exceeds len(k) - leaked_bits; the
    caller supplies the leakage count it is accounting for. Output bits are
    the concatenated digests of salt || bitlen(k) || packed(k) || counter,
    truncated to out_len.
    """
    if out_len < 1:
        raise ParameterError("out_len must be >= 1")
    if leaked_bits < 0:
        raise ParameterError("leaked_bits must be >= 0")
    if len(k) == 0:
        raise ParameterError("cannot amplify an empty key")
    if out_len > len(k) - leaked_bits:
        raise EntropyBudgetError(
            f"requested {out_len} bits but budget is "
            f"{len(k)} - {leaked_bits} = {len(k) - leaked_bits}"
        )
    prefix = salt + len(k).to_bytes(8, "big") + pack_bits(k.bits)
    digest = b""
    counter = 0
    while len(digest) * 8 < out_len:
        digest += hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        counter += 1
    return k.advanced(STAGE_AMPLIFIED, unpack_bits(digest, out_len))


class RandomnessResult(NamedTuple):
    """Outcome of a key randomness check."""

    statistic: float
    passed: bool
    applicable: bool = True


def monobit_test(bits) -> RandomnessResult:
    """Frequency test: z = |#ones - #zeros| / sqrt(n), pass iff z <= 3."""
    arr = as_bit_array(bits)
    if arr.size < 100:
        raise ParameterError("monobit test needs at least 100 bits")
    ones = int(arr.sum())
    z = abs(2 * ones - arr.size) / math.sqrt(arr.size)
    return RandomnessResult(z, z <= 3.0)


def runs_test(bits) -> RandomnessResult:
    """Runs test against the expected run count 2 n pi (1 - pi) + 1.

    Not applicable (rather than an error) when the input is shorter than
    100 bits or fails the monobit pre-check; an all-equal input has
    pi (1 - pi) = 0 and is likewise not applicable.
    """
    arr = as_bit_array(bits)
    if arr.size < 100:
        return RandomnessResult(float("nan"), False, applicable=False)
    if not monobit_test(arr).passed:
        return RandomnessResult(float("nan"), False, applicable=False)
    n = arr.size
    pi = float(arr.mean())
    if pi in (0.0, 1.0):
        return RandomnessResult(float("nan"), False, applicable=False)
    runs = 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))
    expected = 2.0 * n * pi * (1.0 - pi) + 1.0
    z = abs(runs - expected) / (2.0 * math.sqrt(n) * pi * (1.0 - pi))
    return RandomnessResult(z, z <= 3.0)
