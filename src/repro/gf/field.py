"""Binary extension fields GF(2^g) with table-driven arithmetic.

The paper (section 4) constructs a field Phi = GF(2^g) whose elements are
bit strings of size ``g``; addition is bitwise XOR and multiplication is
"implemented by small tables".  This module implements exactly that:
for each field a generator element is used to build log/antilog tables,
making multiplication and inversion O(1) table lookups.

Fields for every 1 <= g <= 16 are supported, which covers every chunk
geometry the paper discusses (dispersion pieces of 2, 4 or 8 bits,
LH*_RS parity over GF(2^8), and the 16-bit field occasionally used for
very wide chunks).
"""

from __future__ import annotations

from typing import Iterable

#: Default primitive (irreducible, with 2 as a generator where possible)
#: polynomials for GF(2^g), expressed with the leading term included:
#: e.g. 0x11B = x^8 + x^4 + x^3 + x + 1 (the Rijndael polynomial).
DEFAULT_POLYNOMIALS: dict[int, int] = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0x11D,                # x^8 + x^4 + x^3 + x^2 + 1 (classic RS poly)
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}


class GF2:
    """The finite field GF(2^g), 1 <= g <= 16.

    Elements are plain Python ``int`` values in ``range(2**g)``; the
    field object carries the arithmetic.  Instances are cached per
    ``(g, polynomial)`` pair, so ``GF2(8) is GF2(8)`` holds and the
    (up to 128 KiB) tables are built once.

    >>> f = GF2(8, polynomial=0x11B)  # the Rijndael field
    >>> f.mul(0x57, 0x83)             # the FIPS-197 worked example
    193
    >>> GF2(8).mul(3, GF2(8).inv(3))  # default RS polynomial 0x11D
    1
    """

    _cache: dict[tuple[int, int], "GF2"] = {}

    def __new__(cls, g: int, polynomial: int | None = None) -> "GF2":
        if not 1 <= g <= 16:
            raise ValueError(f"GF(2^g) supported for 1 <= g <= 16, got g={g}")
        poly = DEFAULT_POLYNOMIALS[g] if polynomial is None else polynomial
        key = (g, poly)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self._init_tables(g, poly)
        cls._cache[key] = self
        return self

    def _init_tables(self, g: int, poly: int) -> None:
        order = 1 << g
        if poly >> g != 1:
            raise ValueError(
                f"polynomial {poly:#x} does not have degree {g}"
            )
        self.degree = g
        self.order = order
        self.polynomial = poly
        # Find a generator: try alpha = 2 (the polynomial "x") first,
        # which is a generator whenever poly is primitive; otherwise
        # fall back to an exhaustive search.
        gen = self._find_generator(g, poly)
        self.generator = gen
        exp = [0] * (2 * order)       # exp[i] = gen^i, doubled to skip mod
        log = [0] * order             # log[x] = i with gen^i == x
        x = 1
        for i in range(order - 1):
            exp[i] = x
            log[x] = i
            x = self._slow_mul(x, gen)
        if x != 1:
            raise ValueError(
                f"{gen} is not a generator of GF(2^{g}) mod {poly:#x}"
            )
        for i in range(order - 1, 2 * order):
            exp[i] = exp[i - (order - 1)]
        self._exp = exp
        self._log = log

    def _find_generator(self, g: int, poly: int) -> int:
        order = 1 << g
        for candidate in range(2, order):
            x = candidate
            seen = 1
            while x != 1:
                x = self._slow_mul_with(x, candidate, g, poly)
                seen += 1
                if seen > order:
                    break
            # candidate generates the multiplicative group iff its order
            # is exactly 2^g - 1.
            if seen == order - 1 or (seen == 1 and order == 2):
                return candidate
        if order == 2:
            return 1
        raise ValueError(f"no generator found for GF(2^{g}) mod {poly:#x}")

    def _slow_mul(self, a: int, b: int) -> int:
        return self._slow_mul_with(a, b, self.degree, self.polynomial)

    @staticmethod
    def _slow_mul_with(a: int, b: int, g: int, poly: int) -> int:
        """Carry-less multiply then reduce; used only for table building."""
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a >> g:
                a ^= poly
        return result

    # -- field operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition (bitwise XOR, as the paper defines it)."""
        return a ^ b

    # Subtraction equals addition in characteristic 2.
    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on a == 0."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^g)")
        return self._exp[self.order - 1 - self._log[a]]

    # -- vector helpers ----------------------------------------------------

    def dot(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        """Inner product of two equal-length vectors over the field."""
        acc = 0
        for x, y in zip(xs, ys, strict=True):
            acc ^= self.mul(x, y)
        return acc

    def validate(self, a: int) -> int:
        """Return ``a`` if it is a field element, else raise ValueError."""
        if not 0 <= a < self.order:
            raise ValueError(
                f"{a} is not an element of GF(2^{self.degree})"
            )
        return a

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF2(degree={self.degree}, polynomial={self.polynomial:#x})"
