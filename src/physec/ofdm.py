"""OFDM framing: subcarrier layout, unitary (I)FFT modem, AWGN link.

The modem works on arrays with one OFDM symbol per row: ofdm_modulate and
ofdm_demodulate are the DFT pair along the last axis, and attach_cp adds
the cyclic prefix. On the link a frame is a row of n_fft + cp_len
time-domain samples, prefix first; awgn_rows adds noise to a batch of such
rows and awgn_link to one. The DFT pair is unitary (norm="ortho"), so
scrambling stages and the modem itself preserve energy exactly and
per-subcarrier noise variance equals the injected per-sample variance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import modulation
from .errors import ParameterError
from .rng import check_seed, generators


@dataclass(frozen=True)
class OfdmConfig:
    """Static subcarrier layout and mapping for one link.

    data_carriers and dummy_carriers are disjoint index sets; dummy_carriers
    fixes how many idle carriers are filled with decoy symbols when the
    dummy scheme is enabled.
    """

    n_fft: int = 64
    cp_len: int = 16
    data_carriers: Tuple[int, ...] = ()
    dummy_carriers: Tuple[int, ...] = ()
    mapping: str = modulation.QPSK

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ParameterError("n_fft must be a power of two >= 2")
        if not 0 <= self.cp_len < self.n_fft:
            raise ParameterError("cp_len must be in [0, n_fft)")
        data = tuple(int(i) for i in self.data_carriers)
        dummy = tuple(int(i) for i in self.dummy_carriers)
        object.__setattr__(self, "data_carriers", data)
        object.__setattr__(self, "dummy_carriers", dummy)
        for name, idx in (("data_carriers", data), ("dummy_carriers", dummy)):
            if len(set(idx)) != len(idx):
                raise ParameterError(f"{name} contains duplicates")
            if idx and not all(0 <= i < self.n_fft for i in idx):
                raise ParameterError(f"{name} indices must be in [0, n_fft)")
        if set(data) & set(dummy):
            raise ParameterError("data and dummy carriers must be disjoint")
        if not data:
            raise ParameterError("need at least one data carrier")
        modulation.bits_per_symbol(self.mapping)  # validates the mapping name

    @property
    def n_data(self) -> int:
        return len(self.data_carriers)

    @property
    def idle_carriers(self) -> Tuple[int, ...]:
        """Carriers not assigned to data; the pool decoy symbols draw from."""
        data = set(self.data_carriers)
        return tuple(i for i in range(self.n_fft) if i not in data)

    @property
    def payload_bits(self) -> int:
        return self.n_data * modulation.bits_per_symbol(self.mapping)


def wifi_like_config(mapping: str = modulation.QPSK) -> OfdmConfig:
    """64-FFT preset with 48 data carriers and 4 decoy slots.

    Data occupies the classic +-1..26 band (FFT bins 1..26 and 38..63)
    minus the four pilot bins, which are repurposed as decoy slots.
    """
    pilots = {7, 21, 43, 57}
    used = [i for i in list(range(1, 27)) + list(range(38, 64)) if i not in pilots]
    return OfdmConfig(
        n_fft=64,
        cp_len=16,
        data_carriers=tuple(used),
        dummy_carriers=tuple(sorted(pilots)),
        mapping=mapping,
    )


def ofdm_modulate(grid) -> np.ndarray:
    """Unitary inverse DFT along the last axis: subcarrier grid[..., n_fft]
    -> prefix-free samples core[..., n_fft], one OFDM symbol per row."""
    return np.fft.ifft(grid, axis=-1, norm="ortho")


def attach_cp(core, cp_len: int) -> np.ndarray:
    """Prefix each row of core[..., n] with a copy of its last cp_len samples.

    A cp_len of 0 adds nothing; x[..., cp_len:] takes the prefix off again.
    """
    core = np.asarray(core)
    n = core.shape[-1]
    if not 0 <= cp_len < n:
        raise ParameterError(f"cp_len must be in [0, {n})")
    return np.concatenate([core[..., n - cp_len :], core], axis=-1)


def ofdm_demodulate(core) -> np.ndarray:
    """Unitary DFT along the last axis: prefix-free samples core[..., n_fft]
    -> subcarrier grid[..., n_fft], one OFDM symbol per row."""
    return np.fft.fft(core, axis=-1, norm="ortho")


def awgn_link(samples, snr_db: float, rng_seed: int) -> np.ndarray:
    """awgn_rows for one row samples[n], seeded with rng_seed.

    Per-sample noise variance is 10^(-snr_db/10) relative to unit signal
    power; +inf leaves the samples unchanged.
    """
    check_seed(rng_seed, "rng_seed")
    return awgn_rows(np.asarray(samples)[None], snr_db, [rng_seed])[0]


def awgn_rows(samples, snr_db: float, seeds) -> np.ndarray:
    """Add circularly symmetric complex Gaussian noise to each row of
    samples[F, n], row f from np.random.default_rng(seeds[f]).

    Per-sample noise variance is 10^(-snr_db/10) relative to unit signal
    power, drawn as n real parts then n imaginary parts: row f's noise is
    default_rng(seeds[f]).standard_normal(2 n), though rng.generators seeds
    every row's generator at once. Seeds are integers in [0, 2^128); +inf
    returns the samples unchanged.
    """
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ParameterError("snr_db must be a real value or +inf")
    x = np.asarray(samples, dtype=complex)
    if x.ndim != 2 or len(seeds) != x.shape[0]:
        raise ParameterError(f"need one seed per row of samples, got {x.shape}")
    if snr_db == np.inf:
        for seed in seeds:
            check_seed(seed, "seeds")
        return x
    sigma = 10.0 ** (-snr_db / 20.0)
    n = x.shape[1]
    draws = np.empty((x.shape[0], 2 * n))
    for gen, row in zip(generators(seeds), draws):
        gen.standard_normal(out=row)
    noise = np.empty_like(x)
    noise.real, noise.imag = draws[:, :n], draws[:, n:]
    return x + noise * (sigma / np.sqrt(2))


def ebn0_db_to_snr_db(ebn0_db: float, mapping: str) -> float:
    """Convert per-bit Eb/N0 to the per-sample SNR awgn_rows expects.

    With unit-energy symbols, Es/N0 = bits_per_symbol x Eb/N0; the unitary
    modem makes per-subcarrier SNR equal per-sample SNR.
    """
    bps = modulation.bits_per_symbol(mapping)
    return float(ebn0_db + 10.0 * np.log10(bps))
