"""Exception hierarchy shared across the package.

Everything raised on purpose derives from PhysecError so callers (and the
experiment harness, which records per-trial failures as data) can catch one
base class without swallowing genuine bugs.
"""


class PhysecError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PhysecError, ValueError):
    """An argument or configuration value is out of its documented domain."""


class DegenerateInputError(ParameterError):
    """Input data cannot support the requested operation (zero variance,
    too few distinct values, unrealizable quantile, ...)."""


class DecodeFailure(PhysecError):
    """A block decoder found no codeword within its correction radius."""


class ReconcileFailure(PhysecError):
    """Information reconciliation failed for at least one block (fail-closed)."""


class EntropyBudgetError(ParameterError):
    """Requested output length exceeds the post-leakage entropy budget."""


class KeystreamExhausted(ParameterError):
    """An operation ran out of keystream bits before completing."""


class DomainStateError(PhysecError):
    """A key was used in a processing stage it has already left."""


class ConfigError(PhysecError):
    """Experiment configuration violates the schema.

    Carries the full list of violations so a validator can report all of
    them at once instead of stopping at the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
