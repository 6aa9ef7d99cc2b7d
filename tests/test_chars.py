from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from theta2 import chars


def brute_sign(bits):
    a1, a2, b1, b2 = bits
    return -1 if (a1 * b1 + a2 * b2) % 2 else 1


def brute_add(x, y):
    return tuple((p + q) % 2 for p, q in zip(x, y))


def all_characteristics():
    return [chars.Characteristic.from_bits(bits) for bits in product((0, 1), repeat=4)]


def test_zero_characteristic_is_even():
    assert chars.Characteristic((0, 0), (0, 0)).is_even()


def test_canonical_orders_have_correct_parity():
    assert all(m.is_even() for m in chars.EVEN_CHARS)
    assert all(not n.is_even() for n in chars.ODD_CHARS)
    assert len(set(chars.EVEN_CHARS)) == 10
    assert len(set(chars.ODD_CHARS)) == 6


def test_exhaustive_parity_count():
    evens = sum(1 for bits in product((0, 1), repeat=4) if brute_sign(bits) == 1)
    assert evens == 10
    mine = sum(1 for m in all_characteristics() if m.is_even())
    assert mine == 10
    assert sum(1 for m in all_characteristics() if not m.is_even()) == 6


@given(st.tuples(*[st.integers(0, 1)] * 4))
def test_parity_matches_bit_formula(bits):
    m = chars.Characteristic.from_bits(bits)
    assert m.sign() == brute_sign(bits)


def test_azygetic_requires_distinct():
    m = chars.even(3)
    x = chars.odd(1)
    assert not chars.is_azygetic(m, m, x)


def test_azygetic_example_from_first_table_entry():
    # the even quadruple for the first odd pair contains label 7
    assert chars.is_azygetic(chars.odd(1), chars.odd(2), chars.even(7))


def test_azygetic_full_enumeration_matches_brute_force():
    allc = [m.bits for m in all_characteristics()]

    def brute(m1, m2, m3):
        if len({m1, m2, m3}) < 3:
            return False
        s = brute_sign(m1) * brute_sign(m2) * brute_sign(m3)
        return s * brute_sign(brute_add(brute_add(m1, m2), m3)) == -1

    count_brute = sum(brute(*t) for t in combinations(allc, 3))
    count_mine = sum(
        chars.is_azygetic(*(chars.Characteristic.from_bits(b) for b in t))
        for t in combinations(allc, 3))
    assert count_mine == count_brute > 0


@pytest.mark.parametrize("pair,expected", [
    ((1, 2), (7, 8, 9, 10)),
    ((5, 6), (5, 6, 7, 8)),
])
def test_azygetic_quadruple_table_entries(pair, expected):
    assert chars.azygetic_quadruple(*pair) == expected


def test_all_quadruples_have_size_four_and_are_distinct():
    quads = [chars.azygetic_quadruple(i, j) for i, j in combinations(range(1, 7), 2)]
    assert all(len(q) == 4 for q in quads)
    assert len(set(quads)) == 15


def test_azygetic_quadruple_rejects_bad_labels():
    with pytest.raises(ValueError):
        chars.azygetic_quadruple(2, 2)


def test_five_term_decompositions_counts():
    total = 0
    for i in range(1, 7):
        ds = chars.five_term_decompositions(i)
        assert len(ds) == 12
        assert all(len(d) == 5 for d in ds)
        total += len(ds)
    assert total == 72


def test_five_term_example_block_member():
    # the worked sextet example pairs odd 5 with evens {1,2,3,6,7}
    assert frozenset({1, 2, 3, 6, 7}) in chars.five_term_decompositions(5)


def test_five_term_matches_brute_force_subset_sum():
    for i in range(1, 7):
        target = chars.odd(i).bits
        brute = {
            frozenset(c)
            for c in combinations(range(1, 11), 5)
            if (lambda s: s == target)(
                tuple(sum(chars.even(k).bits[p] for k in c) % 2 for p in range(4)))
        }
        assert set(chars.five_term_decompositions(i)) == brute


def test_catalog_dump_shape():
    data = chars.catalog()
    assert len(data["even"]) == 10
    assert len(data["odd"]) == 6
    assert data["even"][0] == [0, 0, 0, 0]
    assert len(data["azygetic_quadruples"]) == 15
    assert all(len(v) == 12 for v in data["five_term_decompositions"].values())
