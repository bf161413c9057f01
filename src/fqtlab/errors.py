"""Exception types shared across the package."""


class FqtError(Exception):
    """Base class for errors raised by fqtlab."""


class BudgetExceeded(FqtError):
    """An operation would materialize an object larger than its budget allows."""


# Default budgets, each a cap on what one operation may materialize.
DEFAULT_DEGREE_BUDGET = 1 << 14  # polynomial degree
DEFAULT_ENUM_BUDGET = 1 << 20  # entries enumerated (table domains, solutions)
DEFAULT_MATRIX_BUDGET = 1 << 22  # linear-algebra matrix entries


def power_exceeds(q: int, n: int, budget: int) -> bool:
    """Whether q^n > budget, for q >= 2.

    q^n >= 2^n > budget once n >= budget.bit_length(), so a huge n is
    answered without computing the power.
    """
    return n >= budget.bit_length() or q ** n > budget


class PolyParseError(FqtError, ValueError):
    """A polynomial literal could not be parsed."""


class TableDomainError(FqtError, KeyError):
    """A function-table lookup outside the table's domain."""


class NotCoprime(FqtError, ValueError):
    """CRT moduli share a nonconstant common factor.

    Carries the offending pair of modulus indices in ``pair``.
    """

    def __init__(self, message, pair):
        super().__init__(message)
        self.pair = pair


class ExactDivisionError(FqtError, ArithmeticError):
    """A division that was required to be exact left a remainder."""
