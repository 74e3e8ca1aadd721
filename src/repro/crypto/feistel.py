"""A pseudo-random permutation (PRP) over an arbitrary bit-width domain.

The paper's Stage 1 needs ECB on *chunks*: "Basically, ECB uses
standard secret key encryption to generate a seemingly random,
reversible mapping of clear-text chunks to encrypted chunks of the
same size."  A chunk is only ``s * f`` bits wide (e.g. 4 ASCII symbols
= 32 bits, or a Stage-2 code of 16 bits), far below AES's 128-bit
block, so a raw AES-ECB cannot provide a same-size mapping.

We therefore build the standard format-preserving construction:

* a **balanced Feistel network** over ``2w`` bits (Luby-Rackoff), with
  an HMAC-based keyed round function, gives a PRP on even widths;
* **cycle-walking** extends it to odd widths and to non-power-of-two
  domain sizes: permute over the next even width and re-apply the
  permutation until the value falls back inside the domain.  Because
  the enclosing permutation is a bijection, cycle-walking is also a
  bijection on the domain and terminates (expected < 4 iterations for
  our parameters).

The result is deterministic per key — equal chunks map to equal
ciphertext chunks, which is exactly the (weak, searchable) property
Stage 1 requires.
"""

from __future__ import annotations

from repro.crypto.prf import prf_int

_DEFAULT_ROUNDS = 10

#: Widest enclosing Feistel domain (in bits) for which a full
#: permutation table may be materialised.  2^20 entries of machine
#: ints is a few megabytes — beyond that the table would dominate
#: memory and the per-value path wins anyway.
MAX_TABLE_BITS = 20


class FeistelPRP:
    """A keyed bijection on ``range(domain_size)``.

    ``domain_size`` may be any integer >= 2; when it is ``2**width``
    the PRP is a permutation of all ``width``-bit strings (the paper's
    chunk space).

    >>> prp = FeistelPRP(b"k" * 16, domain_size=2 ** 16)
    >>> prp.decrypt(prp.encrypt(12345))
    12345
    """

    def __init__(
        self,
        key: bytes,
        domain_size: int,
        rounds: int = _DEFAULT_ROUNDS,
    ) -> None:
        if domain_size < 2:
            raise ValueError("domain size must be at least 2")
        if rounds < 4:
            # Luby-Rackoff: 3 rounds give a PRP, 4 a strong PRP; we do
            # not accept fewer than 4 to keep the construction sound.
            raise ValueError("at least 4 Feistel rounds are required")
        self.key = bytes(key)
        self.domain_size = domain_size
        self.rounds = rounds
        # Enclosing power-of-two domain of even bit width.
        width = max(2, (domain_size - 1).bit_length())
        if width % 2:
            width += 1
        self._width = width
        self._half = width // 2
        self._half_mask = (1 << self._half) - 1
        self._round_keys = [
            self.key + b"|feistel|" + r.to_bytes(2, "big")
            for r in range(rounds)
        ]
        # Lazily built full permutation table (value -> encrypt(value))
        # for small domains; see :meth:`permutation_table`.
        self._table: list[int] | None = None

    # -- the enclosing permutation on 2^width ------------------------------

    def _round(self, r: int, value: int) -> int:
        return prf_int(
            self._round_keys[r],
            value.to_bytes((self._half + 7) // 8, "big"),
            self._half,
        )

    def _permute(self, value: int) -> int:
        left = value >> self._half
        right = value & self._half_mask
        for r in range(self.rounds):
            left, right = right, left ^ self._round(r, right)
        return (left << self._half) | right

    def _unpermute(self, value: int) -> int:
        left = value >> self._half
        right = value & self._half_mask
        for r in range(self.rounds - 1, -1, -1):
            left, right = right ^ self._round(r, left), left
        return (left << self._half) | right

    # -- batch fast path -----------------------------------------------------

    def permutation_table(self) -> list[int] | None:
        """The full ``value -> encrypt(value)`` table, or None.

        Only materialised for enclosing widths up to
        :data:`MAX_TABLE_BITS`.  Building it needs just
        ``rounds * 2**(width/2)`` PRF evaluations — the HMAC round
        function depends on one half only — followed by pure table
        arithmetic, so a 16-bit domain costs ~2.5k HMACs instead of
        the ~650k a per-value sweep would pay.  The result is
        byte-identical to :meth:`encrypt` (same round values, same
        cycle-walk), which the equivalence suite pins.
        """
        if self._table is None and self._width <= MAX_TABLE_BITS:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> list[int]:
        half = self._half
        size = 1 << self._width
        round_tables = [
            [self._round(r, value) for value in range(1 << half)]
            for r in range(self.rounds)
        ]
        lefts = [value >> half for value in range(size)]
        rights = list(range(1 << half)) * (1 << half)
        for table in round_tables:
            lefts, rights = rights, [
                left ^ table[right]
                for left, right in zip(lefts, rights)
            ]
        perm = [
            (left << half) | right
            for left, right in zip(lefts, rights)
        ]
        domain = self.domain_size
        if domain == size:
            return perm
        table = []
        for value in range(domain):
            image = perm[value]
            while image >= domain:  # cycle-walking, via the table
                image = perm[image]
            table.append(image)
        return table

    # -- public API ---------------------------------------------------------

    def encrypt(self, value: int) -> int:
        """Map ``value`` to its image under the keyed permutation."""
        self._check(value)
        image = self._permute(value)
        while image >= self.domain_size:  # cycle-walking
            image = self._permute(image)
        return image

    def decrypt(self, value: int) -> int:
        """Invert :meth:`encrypt`."""
        self._check(value)
        image = self._unpermute(value)
        while image >= self.domain_size:
            image = self._unpermute(image)
        return image

    def _check(self, value: int) -> None:
        if not 0 <= value < self.domain_size:
            raise ValueError(
                f"value {value} outside domain [0, {self.domain_size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FeistelPRP(domain_size={self.domain_size}, "
            f"rounds={self.rounds})"
        )
