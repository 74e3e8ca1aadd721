"""The step-by-step FIPS-197 cipher round, kept as the test oracle.

``repro.crypto.aes.AES.encrypt_block`` runs the round as T-tables;
this is the round exactly as section 5.1 of the standard writes it —
SubBytes, ShiftRows, MixColumns, AddRoundKey on a 16-byte state — and
is what the T-table form is compared against.  It shares the S-box and
the key schedule with the implementation; the FIPS-197 appendix
vectors in ``test_aes.py`` pin those.
"""

from repro.crypto.aes import _MUL2, _MUL3, _SBOX, AES


class ReferenceAES(AES):
    """:class:`AES` with the spec-literal forward round.

    The state is a flat 16-int list in column-major order as in the
    spec: ``state[r + 4c]`` is row r, column c, which is just the byte
    order of the block.
    """

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES operates on 16-byte blocks")
        state = list(block)
        self._add_round_key(state, 0)
        for r in range(1, self._rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, r)
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._rounds)
        return bytes(state)

    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c:4 * c + 4]
            state[4 * c + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[4 * c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[4 * c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[4 * c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
