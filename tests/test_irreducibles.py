"""Irreducible counting, enumeration, degree sums, product identity."""

import pytest

from fqtlab import (BudgetExceeded, FiniteField, Poly, count_irreducibles,
                    degree_sum, enumerate_monic_irreducibles,
                    irreducible_product, is_irreducible,
                    monic_polys_of_degree, product_identity_check)
from fqtlab import irreducibles

from helpers import rabin_filter

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)


def test_counts_frozen():
    assert [count_irreducibles(2, d) for d in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert [count_irreducibles(3, d) for d in range(1, 5)] == [3, 3, 8, 18]
    assert [count_irreducibles(5, d) for d in range(1, 4)] == [5, 10, 40]
    assert count_irreducibles(4, 2) == 6
    with pytest.raises(ValueError):
        count_irreducibles(2, 0)


def brute_count(field, d):
    # trial enumeration oracle, independent of the Moebius formula
    return sum(1 for f in monic_polys_of_degree(field, d) if is_irreducible(f))


def test_counts_match_enumeration():
    for field in (F2, F3, F4):
        for d in range(1, 5):
            polys = enumerate_monic_irreducibles(field, d)
            assert len(polys) == count_irreducibles(field.q, d) == brute_count(field, d)
            assert list(polys) == sorted(polys, key=Poly.sort_key)
            assert all(p.monic() == p and p.deg == d for p in polys)


# every degree d with q^d <= 4096 over these fields
SIEVE_FIELDS = [FiniteField(2), F3, FiniteField(5), FiniteField(7), F4,
                FiniteField(3, 2)]
SIEVE_IDS = ["F2", "F3", "F5", "F7", "F4", "F9"]


def sieve_degrees(field):
    return [d for d in range(1, 13) if field.q ** d <= 4096]


@pytest.mark.parametrize("field", SIEVE_FIELDS, ids=SIEVE_IDS)
def test_sieve_matches_rabin_filter(field):
    # the sieve leaves what Rabin's test on every monic candidate keeps,
    # in the same order, and as many as the Moebius count
    for d in sieve_degrees(field):
        polys = enumerate_monic_irreducibles(field, d)
        assert polys == rabin_filter(field, d)
        assert len(polys) == count_irreducibles(field.q, d)


@pytest.fixture
def empty_caches():
    irreducibles.enumerate_monic_irreducibles.cache_clear()
    yield
    irreducibles.enumerate_monic_irreducibles.cache_clear()


def test_sieve_confirms_every_survivor(monkeypatch, empty_caches):
    # Rabin's test sees each survivor once, and the enumeration raises
    # when it rejects one (here t^3 + t^2 + 1, the second cubic over F_2)
    F2 = FiniteField(2)
    seen = []
    rejected = Poly(F2, [1, 0, 1, 1])

    def rabin(f):
        seen.append(f)
        return f != rejected and is_irreducible(f)

    monkeypatch.setattr(irreducibles, "is_irreducible", rabin)
    assert enumerate_monic_irreducibles(F2, 2) == (Poly(F2, [1, 1, 1]),)
    assert seen == list(enumerate_monic_irreducibles(F2, 1)) + [
        Poly(F2, [1, 1, 1])]
    with pytest.raises(AssertionError, match="reducible"):
        enumerate_monic_irreducibles(F2, 3)
    assert seen[-2:] == [Poly(F2, [1, 1, 0, 1]), rejected]


def test_degree_sum_frozen():
    assert [degree_sum(2, n) for n in range(1, 7)] == [2, 4, 10, 22, 52, 106]
    assert [degree_sum(3, n) for n in range(1, 4)] == [3, 9, 33]
    with pytest.raises(ValueError):
        degree_sum(2, 0)


def test_degree_sum_window():
    # q^n <= dsum(n) < 2 q^n for every small (q, n)
    for q in (2, 3, 4, 5, 7, 9):
        for n in range(1, 9):
            s = degree_sum(q, n)
            assert q ** n <= s < 2 * q ** n


def test_irreducible_product_frozen():
    # over F2 with n=2: t (t+1) (t^2+t+1) = t^4 + t
    assert irreducible_product(F2, 2) == Poly(F2, [0, 1, 0, 0, 1])
    assert irreducible_product(F2, 0) == Poly.one(F2)
    for field in (F2, F3):
        for n in range(1, 4):
            prod = irreducible_product(field, n)
            assert prod.deg == degree_sum(field.q, n)


def test_product_identity():
    for n in (1, 2, 3, 4):
        assert product_identity_check(F2, n)
    for n in (1, 2):
        assert product_identity_check(F3, n)
    assert product_identity_check(F4, 1)


def test_product_identity_budget():
    with pytest.raises(BudgetExceeded):
        product_identity_check(F2, 20, budget=1 << 14)
    with pytest.raises(ValueError):
        product_identity_check(F2, 0)
