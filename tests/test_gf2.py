from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from rtp.gf2 import CELL, MODULUS_TAIL, gf_mul, spread

ELEMENTS = st.integers(0, (1 << 64) - 1)


def unspread(s: int) -> int:
    """Inverse of spread; the sieve never needs it."""
    x = 0
    k = 0
    while s:
        if s & 1:
            x |= 1 << k
        s >>= CELL
        k += 1
    return x


def reference_mul(x: int, y: int) -> int:
    """Shift-and-xor schoolbook product with bitwise reduction."""
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
    modulus = (1 << 64) | MODULUS_TAIL
    for i in range(acc.bit_length() - 1, 63, -1):
        if acc >> i & 1:
            acc ^= modulus << (i - 64)
    return acc


@given(ELEMENTS)
def test_spread_round_trip(x):
    assert unspread(spread(x)) == x


@given(ELEMENTS, ELEMENTS)
def test_mul_matches_reference(a, b):
    assert unspread(gf_mul(spread(a), spread(b))) == reference_mul(a, b)


@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_field_axioms(a, b, c):
    sa, sb, sc = spread(a), spread(b), spread(c)
    assert gf_mul(sa, sb) == gf_mul(sb, sa)
    assert gf_mul(sa, gf_mul(sb, sc)) == gf_mul(gf_mul(sa, sb), sc)
    assert gf_mul(sa, sb ^ sc) == gf_mul(sa, sb) ^ gf_mul(sa, sc)


@given(ELEMENTS)
def test_identity_and_zero(a):
    sa = spread(a)
    assert gf_mul(sa, spread(1)) == sa
    assert gf_mul(sa, 0) == 0


@given(ELEMENTS, ELEMENTS)
def test_spread_xor_is_xor(a, b):
    assert spread(a) ^ spread(b) == spread(a ^ b)
