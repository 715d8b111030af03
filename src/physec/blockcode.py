"""Systematic linear block codes with bounded-distance syndrome decoding.

The reconciliation layer only needs encode/decode_batch with a known
correction radius, so codes are pluggable: any systematic code defined by
its parity submatrix P (codeword = [message | message @ P]) works.
Decoding looks each received word's syndrome up in a table of all error
patterns of weight up to t_corr; a syndrome outside the table is a decode
failure. For a perfect code such as Hamming(7,4) every syndrome is in the
table, so decoding never fails and heavier errors mis-correct silently.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DecodeFailure, ParameterError


class LinearBlockCode:
    """Systematic (n_code, k_code) code correcting up to t_corr bit errors."""

    def __init__(self, parity: np.ndarray, t_corr: int, code_id: str):
        p = np.asarray(parity, dtype=np.uint8) & 1
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ParameterError("parity matrix must be 2-D and nonempty")
        if t_corr < 0:
            raise ParameterError("t_corr must be >= 0")
        self.parity = p
        self.k_code = p.shape[0]
        self.n_code = self.k_code + p.shape[1]
        self.t_corr = t_corr
        self.code_id = code_id
        # H = [P^T | I]; syndrome of a received word r is r @ H^T
        self._h_t = np.vstack([p, np.eye(p.shape[1], dtype=np.uint8)])
        # a syndrome's bits, read as a big-endian integer, index the tables
        self._syn_weights = (1 << np.arange(p.shape[1] - 1, -1, -1)).astype(np.int64)
        self._correctable, self._message_fix = self._build_tables()
        # read-only: code_by_id hands out one shared instance per id
        tables = (p, self._h_t, self._syn_weights, self._correctable, self._message_fix)
        for table in tables:
            table.flags.writeable = False

    def _build_tables(self):
        """Per syndrome: whether an error pattern of weight <= t_corr has it,
        and the message bits of the lightest such pattern (zeros if none)."""
        n_syn = 1 << (self.n_code - self.k_code)
        correctable = np.zeros(n_syn, dtype=bool)
        fix = np.zeros((n_syn, self.k_code), dtype=np.uint8)
        correctable[0] = True
        for w in range(1, self.t_corr + 1):
            for positions in combinations(range(self.n_code), w):
                err = np.zeros(self.n_code, dtype=np.uint8)
                err[list(positions)] = 1
                syn = int((err @ self._h_t % 2) @ self._syn_weights)
                if not correctable[syn]:
                    correctable[syn] = True
                    fix[syn] = err[: self.k_code]
        return correctable, fix

    def encode(self, message) -> np.ndarray:
        """Message bits -> systematic codeword. Accepts (k,) or (m, k)."""
        msg = np.asarray(message, dtype=np.uint8) & 1
        single = msg.ndim == 1
        msg2 = msg[None, :] if single else msg
        if msg2.shape[-1] != self.k_code:
            raise ParameterError(f"message length must be {self.k_code}")
        words = np.concatenate([msg2, msg2 @ self.parity % 2], axis=1)
        return words[0] if single else words

    def decode_batch(self, words: np.ndarray) -> np.ndarray:
        """Received words[m, n_code] -> messages[m, k_code]: each row's
        message of the nearest codeword within t_corr.

        Raises DecodeFailure when some row has no codeword within the
        correction radius (never happens for a perfect code).
        """
        w = np.asarray(words, dtype=np.uint8) & 1
        if w.ndim != 2 or w.shape[1] != self.n_code:
            raise ParameterError(f"words must have shape (m, {self.n_code})")
        syn = (w @ self._h_t % 2) @ self._syn_weights
        correctable = self._correctable[syn]
        if not correctable.all():
            bad = int(np.argmin(correctable))
            raise DecodeFailure(f"block {bad}: syndrome outside correction radius")
        # take, not a fancy index: it skips numpy's slow 2-D gather path
        return w[:, : self.k_code] ^ np.take(self._message_fix, syn, axis=0)

    def codewords(self) -> np.ndarray:
        """All 2^k codewords (small k only; used for structural checks)."""
        if self.k_code > 16:
            raise ParameterError("codeword enumeration capped at k 16")
        msgs = (
            (np.arange(1 << self.k_code)[:, None] >> np.arange(self.k_code - 1, -1, -1))
            & 1
        ).astype(np.uint8)
        return self.encode(msgs)


def hamming74() -> LinearBlockCode:
    """The (7,4) Hamming code, systematic form, t_corr = 1."""
    parity = np.array(
        [
            [1, 1, 0],
            [1, 0, 1],
            [0, 1, 1],
            [1, 1, 1],
        ],
        dtype=np.uint8,
    )
    return LinearBlockCode(parity, t_corr=1, code_id="hamming74")


def repetition41() -> LinearBlockCode:
    """A (4,1) repetition code; some 2-bit errors are detectably ambiguous,
    which makes it handy for exercising decode-failure paths."""
    return LinearBlockCode(np.ones((1, 3), dtype=np.uint8), t_corr=1, code_id="rep41")


# built once, like the constellation tables
_REGISTRY = {code.code_id: code for code in (hamming74(), repetition41())}


def code_by_id(code_id: str) -> LinearBlockCode:
    """The registered code with this identifier, one shared instance per id."""
    try:
        return _REGISTRY[code_id]
    except KeyError:
        raise ParameterError(f"unknown code_id {code_id!r}") from None
