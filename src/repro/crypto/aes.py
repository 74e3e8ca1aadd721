"""AES (FIPS-197) implemented from scratch.

Supports 128-, 192- and 256-bit keys.  The implementation follows the
specification — S-box generated from the multiplicative inverse in
GF(2^8) composed with the affine map, column mixing via xtime — and is
validated against the FIPS-197 appendix vectors in
``tests/crypto/test_aes.py``.

This is the "strong encryption" of the paper's record store, so
:meth:`AES.encrypt_block` sits on every put and get and runs the round
as T-tables over four 32-bit column words, built at import from the
first-principles S-box below (``tests/crypto/reference_aes.py`` keeps
the step-by-step round as the oracle).  Only the forward cipher is
built: CTR decrypts by encrypting, and the SWP word image is matched,
never decrypted.  A plain software AES with no constant-time claims,
which is fine for a simulation study.
"""

from __future__ import annotations

_RIJNDAEL_POLY = 0x11B


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo the Rijndael polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= _RIJNDAEL_POLY
    return result


def _build_sbox() -> list[int]:
    """Generate the S-box from first principles (inverse + affine map)."""
    # Multiplicative inverses, with inv(0) := 0.
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = [0] * 256
    for x in range(256):
        b = inverse[x]
        value = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((b << shift) | (b >> (8 - shift))) & 0xFF
            value ^= rotated
        sbox[x] = value
    return sbox


_SBOX = _build_sbox()
_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))

# Precomputed xtime-style multiplication tables for MixColumns.
_MUL2 = [_gf_mul(x, 2) for x in range(256)]
_MUL3 = [_gf_mul(x, 3) for x in range(256)]

# Encryption T-tables.  The MixColumns matrix has first column
# (2, 1, 1, 3), so an S-boxed byte in row 0 contributes the word
# 2·S | S | S | 3·S; rows 1-3 contribute it rotated right by 1-3 bytes.
_T0 = [
    (_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s] for s in _SBOX
]
_T1 = [(t >> 8) | ((t & 0xFF) << 24) for t in _T0]
_T2 = [(t >> 8) | ((t & 0xFF) << 24) for t in _T1]
_T3 = [(t >> 8) | ((t & 0xFF) << 24) for t in _T2]


class AES:
    """A raw AES block cipher over 16-byte blocks.

    >>> aes = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    >>> aes.encrypt_block(bytes.fromhex(
    ...     "00112233445566778899aabbccddeeff")).hex()  # FIPS-197 C.1
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self.key = bytes(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self.key)
        # The same schedule, one word per state column (encrypt_block).
        self._round_words = [
            int.from_bytes(bytes(rk[i:i + 4]), "big")
            for rk in self._round_keys
            for i in (0, 4, 8, 12)
        ]

    def _expand_key(self, key: bytes) -> list[list[int]]:
        """FIPS-197 key expansion; returns round keys as 16-byte lists."""
        nk = len(key) // 4
        nr = self._rounds
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        round_keys = []
        for r in range(nr + 1):
            rk: list[int] = []
            for w in words[4 * r:4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    # -- block operations -------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """One cipher pass.  Column ``c`` of the state is the word
        ``s<c>``; ShiftRows makes output column ``c`` take its row-``r``
        byte from column ``c + r``, and table ``r`` applies SubBytes and
        that row's share of MixColumns in one lookup."""
        if len(block) != 16:
            raise ValueError("AES operates on 16-byte blocks")
        rk = self._round_words
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        state = int.from_bytes(block, "big")
        s0 = (state >> 96) ^ rk[0]
        s1 = (state >> 64) & 0xFFFFFFFF ^ rk[1]
        s2 = (state >> 32) & 0xFFFFFFFF ^ rk[2]
        s3 = state & 0xFFFFFFFF ^ rk[3]
        last = 4 * self._rounds
        for i in range(4, last, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255]
                ^ t3[s3 & 255] ^ rk[i],
                t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255]
                ^ t3[s0 & 255] ^ rk[i + 1],
                t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255]
                ^ t3[s1 & 255] ^ rk[i + 2],
                t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255]
                ^ t3[s2 & 255] ^ rk[i + 3],
            )
        # The final round has no MixColumns: S-box and ShiftRows only.
        sbox = _SBOX
        columns = (s0, s1, s2, s3, s0, s1, s2)
        out = 0
        for c in range(4):
            out = out << 32 | (
                sbox[columns[c] >> 24] << 24
                | sbox[columns[c + 1] >> 16 & 255] << 16
                | sbox[columns[c + 2] >> 8 & 255] << 8
                | sbox[columns[c + 3] & 255]
            ) ^ rk[last + c]
        return out.to_bytes(16, "big")
