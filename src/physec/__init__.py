"""Physical-layer security toolkit: key generation plus keyed OFDM encryption.

Two halves, glued by a Monte-Carlo experiment harness:

* key generation: simulate (or replay) reciprocal channel measurements,
  quantize them into bits on both sides, reconcile the residual mismatch
  with a code-offset secure sketch, and hash down to a final key whose
  length respects the public leakage.
* physical-layer encryption: use that key to drive a stack of keyed OFDM
  transforms (bit XOR, phase rotation, partial interleaving, decoy
  carriers, frequency/time scrambling) on top of a unitary FFT modem.

Everything is deterministic given explicit seeds.
"""
from .bits import (
    STAGE_AMPLIFIED,
    STAGE_QUANTIZED,
    STAGE_RECONCILED,
    BitKey,
    bit_fraction_differing,
    pack_bits,
    unpack_bits,
)
from .blockcode import LinearBlockCode, code_by_id, hamming74, repetition41
from .channel import (
    ChannelParams,
    ChannelTrace,
    eve_correlation_from_distance,
    expected_reciprocity,
    generate_trace,
    pearson_correlation,
)
from .distill import (
    SecureSketch,
    amplify,
    monobit_test,
    recover,
    runs_test,
    sketch,
    syndrome_bits_leaked,
)
from .errors import (
    ConfigError,
    DecodeFailure,
    DegenerateInputError,
    DomainStateError,
    EntropyBudgetError,
    KeystreamExhausted,
    ParameterError,
    PhysecError,
    ReconcileFailure,
)
from .harness import (
    ExperimentConfig,
    MetricsReport,
    emit_report,
    load_config,
    load_trace_csv,
    run_experiment,
    validate_config,
)
from .keystream import KeystreamSeed, keyed_permutation, keyed_subset, keystream
from .ofdm import (
    OfdmConfig,
    SymbolFrame,
    awgn_link,
    ebn0_db_to_snr_db,
    flat_fading_link,
    ofdm_demodulate,
    ofdm_modulate,
    wifi_like_config,
)
from .ple import (
    PhaseEncryptConfig,
    PleCodec,
    SCHEME_ORDER,
    key_to_data_ratio,
)
from .probing import (
    LossModel,
    ProbeSide,
    align_timestamps,
    apply_loss,
    read_trace,
    read_trace_records,
)
from .quantize import (
    CdfConfig,
    MeanSigmaConfig,
    QuantizationOutcome,
    intersect_kept_indices,
    quantize_cdf,
    quantize_mean_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "STAGE_AMPLIFIED",
    "STAGE_QUANTIZED",
    "STAGE_RECONCILED",
    "BitKey",
    "bit_fraction_differing",
    "pack_bits",
    "unpack_bits",
    "LinearBlockCode",
    "code_by_id",
    "hamming74",
    "repetition41",
    "ChannelParams",
    "ChannelTrace",
    "eve_correlation_from_distance",
    "expected_reciprocity",
    "generate_trace",
    "pearson_correlation",
    "SecureSketch",
    "amplify",
    "monobit_test",
    "recover",
    "runs_test",
    "sketch",
    "syndrome_bits_leaked",
    "ConfigError",
    "DecodeFailure",
    "DegenerateInputError",
    "DomainStateError",
    "EntropyBudgetError",
    "KeystreamExhausted",
    "ParameterError",
    "PhysecError",
    "ReconcileFailure",
    "ExperimentConfig",
    "MetricsReport",
    "emit_report",
    "load_config",
    "load_trace_csv",
    "run_experiment",
    "validate_config",
    "KeystreamSeed",
    "keyed_permutation",
    "keyed_subset",
    "keystream",
    "OfdmConfig",
    "SymbolFrame",
    "awgn_link",
    "ebn0_db_to_snr_db",
    "flat_fading_link",
    "ofdm_demodulate",
    "ofdm_modulate",
    "wifi_like_config",
    "PhaseEncryptConfig",
    "PleCodec",
    "SCHEME_ORDER",
    "key_to_data_ratio",
    "LossModel",
    "ProbeSide",
    "align_timestamps",
    "apply_loss",
    "read_trace",
    "read_trace_records",
    "CdfConfig",
    "MeanSigmaConfig",
    "QuantizationOutcome",
    "intersect_kept_indices",
    "quantize_cdf",
    "quantize_mean_sigma",
    "__version__",
]
