"""OFDM framing: subcarrier layout, unitary (I)FFT modem, channel links.

The DFT pair is unitary (norm="ortho"), so scrambling stages and the modem
itself preserve energy exactly and per-subcarrier noise variance equals the
injected per-sample variance.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from . import modulation
from .errors import DomainStateError, ParameterError

DOMAIN_FREQ = "freq"
DOMAIN_TIME = "time"


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


@dataclass(frozen=True)
class SymbolFrame:
    """One OFDM symbol with its domain tag and carrier occupancy map."""

    data: np.ndarray
    domain: str
    cfg: OfdmConfig
    has_cp: bool = False

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", arr)
        if self.domain not in (DOMAIN_FREQ, DOMAIN_TIME):
            raise ParameterError(f"unknown domain {self.domain!r}")
        expect = self.cfg.n_fft
        if self.domain == DOMAIN_FREQ:
            if self.has_cp:
                raise DomainStateError("frequency-domain frames carry no prefix")
        elif self.has_cp:
            expect += self.cfg.cp_len
        if arr.shape != (expect,):
            raise ParameterError(
                f"{self.domain} frame must have shape ({expect},), got {arr.shape}"
            )

    def require(self, domain: str, has_cp: bool | None = None) -> None:
        if self.domain != domain or (has_cp is not None and self.has_cp != has_cp):
            raise DomainStateError(
                f"expected a {domain} frame"
                + ("" if has_cp is None else f" with has_cp={has_cp}")
                + f", got {self.domain} (has_cp={self.has_cp})"
            )


def frame_from_symbols(symbols, cfg: OfdmConfig) -> SymbolFrame:
    """Place data-carrier symbols into an otherwise empty frequency frame."""
    sym = np.asarray(symbols, dtype=complex)
    if sym.shape != (cfg.n_data,):
        raise ParameterError(f"expected {cfg.n_data} symbols, got {sym.shape}")
    grid = np.zeros(cfg.n_fft, dtype=complex)
    grid[list(cfg.data_carriers)] = sym
    return SymbolFrame(grid, DOMAIN_FREQ, cfg)


def extract_data(frame: SymbolFrame) -> np.ndarray:
    """Data-carrier symbols of a frequency frame (decoys simply ignored)."""
    frame.require(DOMAIN_FREQ)
    return frame.data[list(frame.cfg.data_carriers)].copy()


def attach_cp(frame: SymbolFrame) -> SymbolFrame:
    frame.require(DOMAIN_TIME, has_cp=False)
    cp = frame.data[frame.cfg.n_fft - frame.cfg.cp_len :]
    return replace(frame, data=np.concatenate([cp, frame.data]), has_cp=True)


def strip_cp(frame: SymbolFrame) -> SymbolFrame:
    frame.require(DOMAIN_TIME, has_cp=True)
    return replace(frame, data=frame.data[frame.cfg.cp_len :].copy(), has_cp=False)


def ofdm_modulate(frame: SymbolFrame) -> SymbolFrame:
    """Frequency frame -> time frame: unitary inverse DFT, then prefix."""
    frame.require(DOMAIN_FREQ)
    core = np.fft.ifft(frame.data, norm="ortho")
    return attach_cp(SymbolFrame(core, DOMAIN_TIME, frame.cfg))


def ofdm_demodulate(frame: SymbolFrame, channel_gain: complex = 1.0) -> SymbolFrame:
    """Time frame -> frequency frame: drop prefix, unitary DFT, equalize.

    channel_gain is the known one-tap flat-fading coefficient; the receiver
    divides it out per subcarrier.
    """
    core = strip_cp(frame) if frame.has_cp else frame
    core.require(DOMAIN_TIME, has_cp=False)
    grid = demodulate_samples(core.data, channel_gain)
    return SymbolFrame(grid, DOMAIN_FREQ, frame.cfg)


def demodulate_samples(core, channel_gain: complex = 1.0) -> np.ndarray:
    """Prefix-free time samples -> equalized grid, along the last axis.

    The array form of ofdm_demodulate, one OFDM symbol per row.
    """
    if channel_gain == 0:
        raise ParameterError("channel gain must be nonzero")
    return np.fft.fft(core, axis=-1, norm="ortho") / channel_gain


def awgn_link(frame: SymbolFrame, snr_db: float, rng_seed: int) -> SymbolFrame:
    """Add circularly symmetric complex Gaussian noise.

    Per-sample noise variance is 10^(-snr_db/10) relative to unit signal
    power; +inf leaves the frame untouched.
    """
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ParameterError("snr_db must be a real value or +inf")
    if snr_db == np.inf:
        return frame
    rng = np.random.default_rng(rng_seed)
    sigma = 10.0 ** (-snr_db / 20.0)
    n = frame.data.size
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (sigma / np.sqrt(2))
    return replace(frame, data=frame.data + noise)


def flat_fading_link(
    frame: SymbolFrame, snr_db: float, rng_seed: int
) -> Tuple[SymbolFrame, complex]:
    """One-tap Rayleigh block fading plus AWGN.

    Returns the faded frame and the tap, which a legitimate receiver learns
    from its reference preamble and passes to ofdm_demodulate; a receiver
    without the preamble (an eavesdropper) has to equalize blind.
    """
    rng = np.random.default_rng(np.random.SeedSequence((rng_seed, 0x0FAD)))
    gain = complex((rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2))
    faded = replace(frame, data=frame.data * gain)
    return awgn_link(faded, snr_db, rng_seed), gain


def ebn0_db_to_snr_db(ebn0_db: float, mapping: str) -> float:
    """Convert per-bit Eb/N0 to the per-sample SNR awgn_link expects.

    With unit-energy symbols, Es/N0 = bits_per_symbol x Eb/N0; the unitary
    modem makes per-subcarrier SNR equal per-sample SNR.
    """
    bps = modulation.bits_per_symbol(mapping)
    return float(ebn0_db + 10.0 * np.log10(bps))
