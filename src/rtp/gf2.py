"""Carry-less arithmetic in GF(2^64).

Field elements are 64-bit polynomials over GF(2), reduced modulo
x^64 + x^4 + x^3 + x + 1. Addition is XOR.

Multiplication uses a "spread" integer form: bit i of a value is stored at
position 7*i of a Python int. One big-int multiplication of two spread
operands then computes the carry-less product, because each 7-bit cell can
absorb a column sum of up to 64 without carrying into the next cell; the
low bit of every cell is exactly the GF(2) coefficient. The hot loop keeps
values spread permanently (XOR works the same on spread ints), so the only
conversions happen when random elements are drawn.
"""

from __future__ import annotations

CELL = 7
MODULUS_TAIL = 0b11011  # x^4 + x^3 + x + 1, the low part of the modulus

_SPREAD_BYTE = [0] * 256
for _b in range(256):
    _s = 0
    for _i in range(8):
        if _b >> _i & 1:
            _s |= 1 << (CELL * _i)
    _SPREAD_BYTE[_b] = _s

_PARITY_MASK = sum(1 << (CELL * k) for k in range(127))
_LOW_MASK = (1 << (CELL * 64)) - 1
_HIGH_SHIFT = CELL * 64


def spread(x: int) -> int:
    """Convert a plain 64-bit value into spread form."""
    t = _SPREAD_BYTE
    return (
        t[x & 255]
        | t[x >> 8 & 255] << 56
        | t[x >> 16 & 255] << 112
        | t[x >> 24 & 255] << 168
        | t[x >> 32 & 255] << 224
        | t[x >> 40 & 255] << 280
        | t[x >> 48 & 255] << 336
        | t[x >> 56 & 255] << 392
    )


def gf_mul(a: int, b: int) -> int:
    """Multiply two spread field elements, returning a spread element."""
    m = (a * b) & _PARITY_MASK
    high = m >> _HIGH_SHIFT
    m &= _LOW_MASK
    while high:
        # x^64 folds onto x^4 + x^3 + x + 1: shifts of 4, 3, 1, 0 cells
        folded = high ^ (high << 28) ^ (high << 21) ^ (high << CELL)
        m ^= folded & _LOW_MASK
        high = folded >> _HIGH_SHIFT
    return m
