import pytest

import fqtlab.field as field_mod
from fqtlab.field import (PRIME_LIMIT, FiniteField, default_modulus,
                          divisors, is_prime, prime_factors)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
F9 = FiniteField(3, 2)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(2) == (2,)
    assert prime_factors(12) == (2, 3)
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(97) == (97,)


def test_divisors_match_brute_force():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == (n >= 2 and prime_factors(n) == (n,))
               for n in range(20000))


# Carmichael numbers fool the Fermat test for every coprime base; the rest
# are strong pseudoprimes to base 2, to bases 2..23 and to bases 2..37
PSEUDOPRIMES = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                2047, 3215031751, 3825123056546413051,
                318665857834031151167461)


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_pseudoprimes_are_rejected(n):
    assert not is_prime(n)
    with pytest.raises(ValueError, match="p must be prime"):
        FiniteField(n)


def test_large_prime_fields_construct_without_trial_division(monkeypatch):
    def trial_division(n):
        raise AssertionError("trial division of %d" % n)

    monkeypatch.setattr(field_mod, "prime_factors", trial_division)
    for p in (2**61 - 1, 2**64 - 59, 2**80 - 65):
        F = FiniteField(p)
        assert F.mul(F.inv(12345), 12345) == 1
    with pytest.raises(ValueError, match="only decided below"):
        FiniteField(PRIME_LIMIT)


def test_constructor_validation():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 0)
    with pytest.raises(ValueError):
        FiniteField(2, modulus=(1, 1))  # modulus meaningless for e=1
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 1))  # wrong length


class _NoPower(int):
    """An int that fails the test if any int is raised to its power."""

    def __rpow__(self, base, mod=None):
        raise AssertionError("computed %d ** %d" % (base, self))


def test_huge_extension_degree_is_refused_without_the_power():
    # p >= 2, so any e > 8 is past the table limit; p ** e is never taken
    for p in (2, 3, 2**61 - 1):
        for e in (9, 10**12):
            with pytest.raises(ValueError, match="supported up to q = 256"):
                FiniteField(p, _NoPower(e))
    with pytest.raises(ValueError, match="supported up to q = 256"):
        FiniteField(2, 10**12)
    with pytest.raises(ValueError, match="supported up to q = 256"):
        FiniteField(3, 6)  # 729 > 256 with e <= 8
    assert FiniteField(2, 8).q == 256


def test_default_moduli():
    # least monic irreducible x^e + c scan: x^2+x+1 over F_2, x^2+1 over F_3
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(3, 2) == (1, 0, 1)


def test_prime_field_arithmetic():
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.neg(2) == 3
    assert F5.inv(2) == 3
    assert F5.pow(2, 4) == 1
    assert F3.sub(0, 1) == 2
    assert F2.add(1, 1) == 0


def test_extension_arithmetic_f4():
    # codes: 0, 1, a, a+1 with a^2 = a+1
    a = 2
    assert F4.mul(a, a) == 3
    assert F4.mul(a, 3) == 1  # a * (a+1) = a^2 + a = 1
    assert F4.add(a, 3) == 1
    assert F4.inv(a) == 3


def test_extension_arithmetic_f9():
    # modulus x^2 + 1: a^2 = -1 = 2
    a = 3  # coords (0, 1)
    assert F9.coords(a) == (0, 1)
    assert F9.mul(a, a) == 2
    assert F9.from_coords((2, 1)) == 5
    assert F9.coords(5) == (2, 1)


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F9])
def test_field_axioms_exhaustive(F):
    els = list(F.elements())
    for x in els:
        assert F.add(x, 0) == x
        assert F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
    # spot-check associativity and distributivity on a coarse grid
    grid = els[:: max(1, len(els) // 4)]
    for x in grid:
        for y in grid:
            assert F.add(x, y) == F.add(y, x)
            assert F.mul(x, y) == F.mul(y, x)
            for z in grid:
                assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
                assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F9])
def test_pth_root_inverts_frobenius(F):
    for x in F.elements():
        assert F.pth_root(F.pow(x, F.p)) == x
        assert F.pow(F.pth_root(x), F.p) == x


def test_units_and_elements():
    assert list(F4.elements()) == [0, 1, 2, 3]
    assert list(F4.units()) == [1, 2, 3]
    assert len(list(F9.units())) == 8


def test_equality_and_hash():
    assert FiniteField(2) == FiniteField(2)
    assert FiniteField(2, 2) == FiniteField(2, 2, modulus=(1, 1, 1))
    assert FiniteField(2) != FiniteField(3)
    assert hash(FiniteField(3)) == hash(FiniteField(3))


def test_inv_of_zero():
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
