"""Keyed physical-layer encryption stages and their composition.

Six independently toggleable schemes share one hash-counter keystream. Each
stage function works on a batch of F frames, one row per frame, keyed by
that row's keystream bits; PleCodec calls them in this order:

* xor (keystream.xor_encrypt): bit-level stream cipher on the payload.
* phase (phase_encrypt / phase_decrypt): per-symbol rotation by keyed
  angles (2 pi v / 2^q, each rotation looked up in a table of the 2^q),
  optionally with a keyed bounded perturbation the receiver subtracts
  exactly; flattened symbols.
* partial_interleave (partial_interleave / partial_deinterleave): swap
  Re/Im of the data symbols[F, n_data] whose phase exceeds the public
  INTERLEAVE_THRESHOLD.
* dummy (insert_dummy): fill keyed decoy carriers of grids[F, n_fft], in
  place, with keyed constellation symbols; ks[F, budget].
* scramble_freq / scramble_time (scramble_* / unscramble_*): keyed index
  permutations perm[F, n_fft] of the subcarrier grid[F, n_fft] and of the
  prefix-free post-IFFT samples core[F, n_fft]; each call checks its
  perm rows, except those the codec drew, which it checks once per batch.

Each enabled scheme owns a fixed region of keystream blocks per frame, so
budgets are deterministic, frames never reuse keystream, and the receiver
can derive any stage's bits independently of the others. The scramble
regions come last and are hashed about as far as their draws read; both
scrambles' regions of a batch are drawn in one keyed_permutation call.

A codec's key material is one KeystreamSeed for every frame, or a tuple of
one seed per frame, which fixes its batches' frame count; each frame's
stages read only its own seed's keystream, so a batch of frames under many
keys gives the rows those keys' own codecs give. A batch's scramble
permutations, F rows per scramble scheme, are one keyed_permutation call,
and its decoy slots one keyed_subset call: keystream's draw kernel costs
about as much for one row as for dozens, so large batches amortise it.

The codec runs ofdm's array modem (ofdm_modulate, attach_cp,
ofdm_demodulate) between the stages; PleCodec(cfg, (), seed), with no
schemes, is the plain modem. On the link a frame is a row of n_fft + cp_len
time-domain samples, cyclic prefix first.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import modulation
from .errors import KeystreamExhausted, ParameterError
from .keystream import (
    BLOCK_BITS,
    KeystreamRegions,
    KeystreamSeed,
    keyed_permutation,
    keyed_subset,
    keystream,
    permutation_allocation_bits,
    subset_allocation_bits,
    xor_encrypt,
)
from .ofdm import OfdmConfig, attach_cp, ofdm_demodulate, ofdm_modulate

SCHEME_XOR = "xor"
SCHEME_PHASE = "phase"
SCHEME_INTERLEAVE = "partial_interleave"
SCHEME_DUMMY = "dummy"
SCHEME_SCRAMBLE_FREQ = "scramble_freq"
SCHEME_SCRAMBLE_TIME = "scramble_time"

SCHEME_ORDER = (
    SCHEME_XOR,
    SCHEME_PHASE,
    SCHEME_INTERLEAVE,
    SCHEME_DUMMY,
    SCHEME_SCRAMBLE_FREQ,
    SCHEME_SCRAMBLE_TIME,
)
_SCRAMBLES = (SCHEME_SCRAMBLE_FREQ, SCHEME_SCRAMBLE_TIME)

# bits consumed per symbol for the keyed phase perturbation (8 radius + 8 angle)
_NOISE_BITS = 16

# partial_interleave swaps the symbols whose phase exceeds this; the stage
# inverts exactly at this value on the QPSK/16QAM alphabets
INTERLEAVE_THRESHOLD = -math.pi / 2


@dataclass(frozen=True)
class PhaseEncryptConfig:
    """Angle resolution and optional cancellable perturbation.

    bits_per_angle q gives rotations 2 pi v / 2^q. noise_scale bounds |n_k|;
    keep it under half the mapping's minimum decision distance so a noisy
    receiver is not pushed across a decision boundary by design.
    """

    bits_per_angle: int = 2
    noise_enabled: bool = False
    noise_scale: float = 0.0

    def __post_init__(self):
        if not 1 <= self.bits_per_angle <= 16:
            raise ParameterError("bits_per_angle must be in 1..16")
        if not 0 <= self.noise_scale < math.inf:
            raise ParameterError("noise_scale must be finite and >= 0")
        if self.noise_enabled and self.noise_scale == 0:
            raise ParameterError("enabled noise needs a positive noise_scale")

    def bits_per_symbol(self) -> int:
        return self.bits_per_angle + (_NOISE_BITS if self.noise_enabled else 0)

    def check_mapping(self, mapping: str) -> None:
        """Refuse a perturbation that could push a symbol of mapping across
        a decision boundary on its own."""
        if (
            self.noise_enabled
            and self.noise_scale >= modulation.min_decision_distance(mapping) / 2
        ):
            raise ParameterError(
                "phase noise_scale must stay below half the minimum decision "
                f"distance of {mapping!r}"
            )


@functools.lru_cache(maxsize=32)
def _rotations(q: int, sign: int) -> np.ndarray:
    """exp(sign i theta) for each angle word v of q bits, theta = 2 pi v / 2^q:
    the rotation phase_encrypt (sign 1) or phase_decrypt (sign -1) applies
    to a symbol whose angle word is v. Read-only."""
    theta = 2.0 * math.pi * np.arange(1 << q) / (1 << q)
    table = np.exp(sign * 1j * theta)
    table.flags.writeable = False
    return table


def _phase_terms(n_symbols: int, ks, cfg: PhaseEncryptConfig):
    """Keyed angle words v (rotation 2 pi v / 2^q) and perturbations for
    n_symbols symbols.

    Layout per symbol: q angle bits, then (when noise is enabled) 8 radius
    bits and 8 perturbation-angle bits, all big-endian.
    """
    bits = np.asarray(ks, dtype=np.uint8)
    per = cfg.bits_per_symbol()
    need = per * n_symbols
    if bits.size < need:
        raise KeystreamExhausted(f"phase stage needs {need} bits, got {bits.size}")
    words = bits[:need].reshape(n_symbols, per)
    q = cfg.bits_per_angle
    v = words[:, :q] @ (1 << np.arange(q - 1, -1, -1))
    noise = np.zeros(n_symbols, dtype=complex)
    if cfg.noise_enabled:
        byte_weights = 1 << np.arange(7, -1, -1)
        radius = cfg.noise_scale * (words[:, q : q + 8] @ byte_weights) / 256.0
        angle = 2.0 * math.pi * (words[:, q + 8 : q + 16] @ byte_weights) / 256.0
        noise = radius * np.exp(1j * angle)
    return v, noise


def phase_encrypt(symbols, ks, cfg: PhaseEncryptConfig) -> np.ndarray:
    """Rotate each symbol by its keyed angle and add the keyed perturbation."""
    sym = np.asarray(symbols, dtype=complex)
    v, noise = _phase_terms(sym.size, ks, cfg)
    return sym * _rotations(cfg.bits_per_angle, 1)[v] + noise


def phase_decrypt(symbols, ks, cfg: PhaseEncryptConfig) -> np.ndarray:
    """Exact inverse: subtract the perturbation, then derotate."""
    sym = np.asarray(symbols, dtype=complex)
    v, noise = _phase_terms(sym.size, ks, cfg)
    return (sym - noise) * _rotations(cfg.bits_per_angle, -1)[v]


def _principal_angle(values: np.ndarray) -> np.ndarray:
    ang = np.angle(values)
    ang[ang == -np.pi] = np.pi
    return ang


def _swap_re_im(values: np.ndarray) -> np.ndarray:
    return values.imag + 1j * values.real


def partial_interleave(symbols) -> np.ndarray:
    """Swap Re/Im of each data symbol whose phase exceeds INTERLEAVE_THRESHOLD.

    symbols are the data symbols of a batch, one row per frame
    ([F, n_data]); the rule is elementwise and public. Phases are principal
    values in (-pi, pi]. The codec runs this stage before insert_dummy, so
    decoys are never interleaved. Key-independent by design; its protection
    comes from stacking under the keyed stages.
    """
    values = np.asarray(symbols, dtype=complex)
    sel = _principal_angle(values) > INTERLEAVE_THRESHOLD
    return np.where(sel, _swap_re_im(values), values)


def partial_deinterleave(symbols) -> np.ndarray:
    """Undo partial_interleave by re-testing the selection rule.

    A symbol is unswapped iff its candidate pre-swap value (Re/Im swapped
    back) satisfies the selection rule. This reconstructs the transmitter's
    selection exactly when the symbol values occurring at this stage form a
    set closed under Re/Im swap inside the selection region; that holds for
    the unit QPSK/16QAM alphabets, including quarter-turn phase-encrypted
    ones. Outside such alphabets (or over a noisy, imperfectly equalized
    link) selections can be misjudged; this stage is only guaranteed on
    noiseless or perfectly equalized links.
    """
    values = np.asarray(symbols, dtype=complex)
    swapped = _swap_re_im(values)
    sel = _principal_angle(swapped) > INTERLEAVE_THRESHOLD
    return np.where(sel, swapped, values)


def _dummy_bits(cfg: OfdmConfig) -> tuple[int, int]:
    """The dummy stage's bits per frame: (decoy value bits, value + slot bits)."""
    count = len(cfg.dummy_carriers)
    values = count * modulation.bits_per_symbol(cfg.mapping)
    return values, values + subset_allocation_bits(len(cfg.idle_carriers), count)


def insert_dummy(grids: np.ndarray, ks, cfg: OfdmConfig) -> None:
    """Fill keyed decoy slots of grids[F, n_fft] in place, row f keyed by ks[f].

    Per row of ks[F, budget], the first count * bits_per_symbol bits map to
    the decoy values and the next subset_allocation_bits pick their slots.
    Decoy values are uniform constellation draws (marginally identical to
    data symbols) and land on a keyed per-frame choice of
    len(cfg.dummy_carriers) slots from the idle-carrier pool, so an
    observer without the key cannot tell decoys from idle carriers. Data
    carriers are never touched; an empty dummy set is a no-op.
    """
    ks = np.asarray(ks, dtype=np.uint8)
    if ks.ndim != 2 or ks.shape[0] != len(grids):
        raise ParameterError(f"need one keystream row per grid row, got {ks.shape}")
    count = len(cfg.dummy_carriers)
    if count == 0:
        return
    idle = cfg.idle_carriers
    n_value_bits, need = _dummy_bits(cfg)
    if ks.shape[1] < need:
        raise KeystreamExhausted(f"dummy stage needs {need} bits, got {ks.shape[1]}")
    values = modulation.map_symbols(ks[:, :n_value_bits].ravel(), cfg.mapping)
    slots = keyed_subset(idle, count, ks[:, n_value_bits:need])
    np.put_along_axis(grids, slots, values.reshape(-1, count), axis=1)


class _CheckedPerms(np.ndarray):
    """Permutation rows PleCodec._perm has drawn and checked, which
    _permute takes without sorting them again."""


def _check_perms(perm: np.ndarray, shape: tuple) -> None:
    """Raise ParameterError unless perm[F, n] has the given shape and each
    row sorts to 0..n-1; one check covers the whole batch."""
    n = shape[-1]
    if perm.shape != shape or not (np.sort(perm, axis=-1) == np.arange(n)).all():
        raise ParameterError(f"not a permutation of 0..{n - 1} per row")


def _permute(data: np.ndarray, perm, inverse: bool = False) -> np.ndarray:
    """Permute data[F, n] along the last axis, one perm row per data row:
    output i = input perm[i]; inverse undoes it (output perm[i] = input i).

    perm is checked as _check_perms does, unless the codec drew it.
    """
    p = np.asarray(perm, dtype=np.intp)
    if not isinstance(perm, _CheckedPerms):
        _check_perms(p, data.shape)
    if not inverse:
        return np.take_along_axis(data, p, axis=-1)
    out = np.empty_like(data)
    np.put_along_axis(out, p, data, axis=-1)
    return out


def scramble_freq(grid: np.ndarray, perm) -> np.ndarray:
    """Permute each frame's subcarriers: out[f, i] = grid[f, perm[f, i]].

    grid and perm are [F, n_fft]. The stage runs after insert_dummy, so
    data and decoy carriers are mixed alike.
    """
    return _permute(grid, perm)


def unscramble_freq(grid: np.ndarray, perm) -> np.ndarray:
    """Invert scramble_freq: out[f, perm[f, i]] = grid[f, i]."""
    return _permute(grid, perm, inverse=True)


def scramble_time(core: np.ndarray, perm) -> np.ndarray:
    """Permute each frame's post-IFFT samples: out[f, i] = core[f, perm[f, i]].

    core and perm are [F, n_fft]: the permutation covers only the IFFT
    block. The codec attaches the cyclic prefix after this stage, so the
    prefix is a true cyclic extension of the permuted block.
    """
    return _permute(core, perm)


def unscramble_time(core: np.ndarray, perm) -> np.ndarray:
    """Invert scramble_time on prefix-free samples core[F, n_fft]."""
    return _permute(core, perm, inverse=True)


def scheme_budget_bits(
    scheme: str, cfg: OfdmConfig, phase_cfg: PhaseEncryptConfig
) -> int:
    """Deterministic keystream bits one scheme is allocated per frame."""
    if scheme == SCHEME_XOR:
        return cfg.payload_bits
    if scheme == SCHEME_PHASE:
        return phase_cfg.bits_per_symbol() * cfg.n_data
    if scheme == SCHEME_INTERLEAVE:
        return 0
    if scheme == SCHEME_DUMMY:
        return _dummy_bits(cfg)[1]
    if scheme in _SCRAMBLES:
        return permutation_allocation_bits(cfg.n_fft)
    raise ParameterError(f"unknown scheme {scheme!r}")


def _ordered_schemes(schemes) -> tuple:
    """Requested scheme names in SCHEME_ORDER; unknown or repeated names raise."""
    requested = list(schemes)
    unknown = [s for s in requested if s not in SCHEME_ORDER]
    if unknown:
        raise ParameterError(f"unknown schemes {unknown}")
    if len(set(requested)) != len(requested):
        raise ParameterError("duplicate scheme names")
    return tuple(s for s in SCHEME_ORDER if s in requested)


class PleCodec:
    """Composition of the enabled schemes over one OFDM link.

    Encryption order: xor on bits, constellation mapping, phase, partial
    interleave (data carriers), dummy insertion, frequency scrambling,
    unitary IFFT (ofdm_modulate), time scrambling, cyclic prefix
    (attach_cp). Decryption inverts the chain.
    frame_index advances the keystream so no two frames share keystream
    positions; an index whose blocks would wrap the 2^64 block counter is
    refused.

    The codec works on batches of frames: encrypt_batch and decrypt_batch
    take one row per frame plus each row's frame index, and run each
    enabled stage function once per batch. seed is one KeystreamSeed for
    every row, or a tuple of one per row, which every batch must match.
    """

    def __init__(
        self,
        cfg: OfdmConfig,
        schemes,
        seed: KeystreamSeed | tuple,
        phase_cfg: PhaseEncryptConfig | None = None,
    ):
        self.cfg = cfg
        self.schemes = _ordered_schemes(schemes)
        self.seed = seed if isinstance(seed, KeystreamSeed) else tuple(seed)
        self.phase_cfg = phase_cfg or PhaseEncryptConfig()
        if SCHEME_PHASE in self.schemes:
            self.phase_cfg.check_mapping(cfg.mapping)
        self._budgets = {
            s: scheme_budget_bits(s, cfg, self.phase_cfg) for s in self.schemes
        }
        self._region_offset = {}
        offset = 0
        for s in self.schemes:
            self._region_offset[s] = offset
            offset += -(-self._budgets[s] // BLOCK_BITS)
        self._blocks_per_frame = offset
        # every scheme but the scrambles reads one prefix of its frame's
        # blocks, the dummy stage's last; decryption skips the dummy's
        scrambles = [self._region_offset[s] for s in self.schemes if s in _SCRAMBLES]
        self._eager_blocks = scrambles[0] if scrambles else offset
        self._decrypt_blocks = self._region_offset.get(SCHEME_DUMMY, self._eager_blocks)
        self._data_idx = np.asarray(cfg.data_carriers, dtype=np.intp)
        self._kept = None

    def _material(self, frame_indices, dummy: bool) -> tuple:
        """Key material of a frame-index batch: (regions, perms).

        regions holds each frame's blocks of every enabled scheme but the
        scrambles, one row per frame, hashed in one keystream call; without
        dummy it stops before the dummy stage's block, which only encryption
        reads. perms maps each enabled scramble scheme to its permutations,
        all drawn in one _perm call. Both are read-only; the codec keeps the
        last batch's, keyed by the indices' bytes (its seeds are fixed), so
        decrypting the batch it has just encrypted derives nothing again.
        """
        idx = np.asarray(frame_indices)
        if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
            raise ParameterError("frame indices must be a 1-D integer array")
        if np.any(idx < 0):
            raise ParameterError("frame_index must be >= 0")
        frames = idx.tolist()
        # frame f reads blocks f B .. f B + B - 1 of a 2^64 counter
        if self._blocks_per_frame and frames:
            limit = (1 << 64) // self._blocks_per_frame
            if max(frames) >= limit:
                raise ParameterError(f"frame_index must be < {limit}")
        key = (idx.dtype.str, idx.tobytes())
        starts = [f * self._blocks_per_frame for f in frames]
        if self._kept is None or self._kept[0] != key:
            scrambles = tuple(s for s in self.schemes if s in _SCRAMBLES)
            perms = self._perm(scrambles, starts) if scrambles else {}
            self._kept = (key, None, perms)
        _, regions, perms = self._kept
        n_bits = (self._eager_blocks if dummy else self._decrypt_blocks) * BLOCK_BITS
        if regions is None or regions.shape[1] < n_bits:
            regions = keystream(self.seed, n_bits, starts)
            regions.flags.writeable = False
            self._kept = (key, regions, perms)
        return regions, perms

    def _scheme_bits(self, scheme: str, regions: np.ndarray) -> np.ndarray:
        """One scheme's keystream bits per frame, sliced from the regions."""
        start = self._region_offset[scheme] * BLOCK_BITS
        return regions[:, start : start + self._budgets[scheme]]

    def _perm(self, schemes: tuple, starts: list) -> dict:
        """Each scramble scheme's keyed permutation per frame, {scheme:
        [F, n_fft]}, read-only; starts are the frames' first blocks. Every
        scheme's regions, one per frame, go to one keyed_permutation call:
        both scrambles budget permutation_allocation_bits(n_fft). The
        permutations are checked here, once, and the scramble stages take
        them unchecked."""
        firsts = [s + self._region_offset[scheme] for scheme in schemes for s in starts]
        seed = self.seed
        if not isinstance(seed, KeystreamSeed):
            seed *= len(schemes)
        regions = KeystreamRegions(seed, self._budgets[schemes[0]], firsts)
        perms = keyed_permutation(self.cfg.n_fft, regions)
        _check_perms(perms, (len(firsts), self.cfg.n_fft))
        perms = perms.view(_CheckedPerms)
        perms.flags.writeable = False
        by_scheme = perms.reshape(len(schemes), len(starts), self.cfg.n_fft)
        return dict(zip(schemes, by_scheme))

    def encrypt_batch(self, plain_bits, frame_indices) -> np.ndarray:
        """Encrypt F frames: bits[F, payload_bits] -> samples[F, n_fft + cp_len]."""
        cfg = self.cfg
        regions, perms = self._material(frame_indices, dummy=True)
        n_frames = regions.shape[0]
        bits = np.asarray(plain_bits, dtype=np.uint8)
        if bits.shape != (n_frames, cfg.payload_bits):
            raise ParameterError(
                f"payload must have shape ({n_frames}, {cfg.payload_bits}), "
                f"got {bits.shape}"
            )
        # the xor budget is exactly payload_bits and the phase budget exactly
        # bits_per_symbol * n_data, so flattened key rows line up with the
        # flattened frames
        bits = bits.ravel()
        if SCHEME_XOR in self.schemes:
            bits = xor_encrypt(bits, self._scheme_bits(SCHEME_XOR, regions).ravel())
        symbols = modulation.map_symbols(bits, cfg.mapping)
        if SCHEME_PHASE in self.schemes:
            ks = self._scheme_bits(SCHEME_PHASE, regions).ravel()
            symbols = phase_encrypt(symbols, ks, self.phase_cfg)
        symbols = symbols.reshape(n_frames, cfg.n_data)
        if SCHEME_INTERLEAVE in self.schemes:
            symbols = partial_interleave(symbols)
        grid = np.zeros((n_frames, cfg.n_fft), dtype=complex)
        grid[:, self._data_idx] = symbols
        if SCHEME_DUMMY in self.schemes:
            insert_dummy(grid, self._scheme_bits(SCHEME_DUMMY, regions), cfg)
        if SCHEME_SCRAMBLE_FREQ in self.schemes:
            grid = scramble_freq(grid, perms[SCHEME_SCRAMBLE_FREQ])
        core = ofdm_modulate(grid)
        if SCHEME_SCRAMBLE_TIME in self.schemes:
            core = scramble_time(core, perms[SCHEME_SCRAMBLE_TIME])
        return attach_cp(core, cfg.cp_len)

    def decrypt_batch(self, samples, frame_indices) -> np.ndarray:
        """Invert encrypt_batch: samples[F, n_fft + cp_len] -> bits[F, payload_bits]."""
        cfg = self.cfg
        regions, perms = self._material(frame_indices, dummy=False)
        n_frames = regions.shape[0]
        rx = np.asarray(samples, dtype=complex)
        if rx.shape != (n_frames, cfg.n_fft + cfg.cp_len):
            raise ParameterError(
                f"samples must have shape ({n_frames}, {cfg.n_fft + cfg.cp_len}), "
                f"got {rx.shape}"
            )
        core = rx[:, cfg.cp_len :]
        if SCHEME_SCRAMBLE_TIME in self.schemes:
            core = unscramble_time(core, perms[SCHEME_SCRAMBLE_TIME])
        grid = ofdm_demodulate(core)
        if SCHEME_SCRAMBLE_FREQ in self.schemes:
            grid = unscramble_freq(grid, perms[SCHEME_SCRAMBLE_FREQ])
        symbols = grid[:, self._data_idx]
        if SCHEME_INTERLEAVE in self.schemes:
            symbols = partial_deinterleave(symbols)
        symbols = symbols.ravel()
        if SCHEME_PHASE in self.schemes:
            ks = self._scheme_bits(SCHEME_PHASE, regions).ravel()
            symbols = phase_decrypt(symbols, ks, self.phase_cfg)
        bits = modulation.demap_symbols(symbols, cfg.mapping)
        if SCHEME_XOR in self.schemes:
            bits = xor_encrypt(bits, self._scheme_bits(SCHEME_XOR, regions).ravel())
        return bits.reshape(n_frames, cfg.payload_bits)

    def encrypt(self, plain_bits, frame_index: int = 0) -> np.ndarray:
        """encrypt_batch for one frame: bits[payload_bits] -> one row of
        samples[n_fft + cp_len], cyclic prefix first."""
        bits = np.asarray(plain_bits, dtype=np.uint8)
        return self.encrypt_batch(bits[None], [frame_index])[0]

    def decrypt(self, samples, frame_index: int = 0) -> np.ndarray:
        """decrypt_batch for one frame: one row of samples[n_fft + cp_len]
        -> bits[payload_bits]."""
        return self.decrypt_batch(np.asarray(samples)[None], [frame_index])[0]


def key_to_data_ratio(
    schemes,
    cfg: OfdmConfig,
    phase_cfg: PhaseEncryptConfig | None = None,
) -> float:
    """Keystream bits budgeted per plaintext bit for a scheme stack."""
    pc = phase_cfg or PhaseEncryptConfig()
    total = sum(scheme_budget_bits(s, cfg, pc) for s in _ordered_schemes(schemes))
    return total / cfg.payload_bits
