"""Finite field arithmetic tests."""

import pytest
from hypothesis import given, strategies as st

from oortlab.errors import NotPrimePower, TooLarge
from oortlab.gf import MAX_Q, Field, factorize, field, is_prime, prime_power

FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 64]


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms(q):
    F = field(q)
    els = list(range(q))
    sample = els if q <= 9 else els[:6] + els[-3:]
    for a in sample:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert 0 in {F.add(a, b) for b in els}  # a has a negative
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in sample:
        for b in sample:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    a, b, c = sample[0], sample[-1], sample[len(sample) // 2]
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]), st.data())
def test_field_random_axioms(q, data):
    F = field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_primitive_element(q):
    F = field(q)
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = F.mul(x, F.primitive)
    assert len(seen) == q - 1  # multiplicative group is cyclic of order q-1


def test_known_moduli():
    assert field(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert field(9).modulus == (1, 0, 1)  # x^2 + 1 over GF(3)
    # GF(4): x * x = x + 1 with the integer coding (x is 2, x+1 is 3)
    assert field(4).mul(2, 2) == 3
    assert field(7).inv(3) == 5


def test_pow_and_div():
    F = field(25)
    a, x = F.primitive, 1
    for _ in range(24):
        x = F.mul(x, a)
    assert x == 1
    assert F.div(1, a) == F.inv(a)
    assert F.div(F.mul(3, 7), 7) == 3


@pytest.mark.parametrize("q", [q for q in range(2, MAX_Q + 1) if len(factorize(q)) == 1])
def test_tables_match_the_polynomial_arithmetic(q):
    """The table-driven arithmetic against the polynomial arithmetic the
    tables are built from, on every pair of elements of every field."""
    F = field(q)
    for a in range(q):
        if a:
            assert F._poly_mul(a, F.inv(a)) == 1
        for b in range(q):
            assert F.add(a, b) == F._poly_add(a, b)
            assert F.mul(a, b) == F._poly_mul(a, b)


def test_out_of_range_elements():
    F = field(9)
    for bad in (-1, 9):
        for op in (lambda: F.add(bad, 1), lambda: F.mul(1, bad), lambda: F.inv(bad)):
            with pytest.raises(ValueError):
                op()


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        field(5).inv(0)


def test_bad_sizes():
    with pytest.raises(NotPrimePower):
        Field(6)
    with pytest.raises(TooLarge):
        Field(512)
    with pytest.raises(TooLarge):
        Field(128)


def test_prime_power_and_factorize():
    assert prime_power(27) == (3, 3)
    assert prime_power(13) == (13, 1)
    with pytest.raises(NotPrimePower):
        prime_power(12)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)
