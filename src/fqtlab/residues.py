"""Residues of many polynomials mod every modulus of a fixed list at once.

`index_arrays` reduces a list of polynomials mod every modulus P_i, and it
is the one way `functable.ResidueMap` reduces a table's inputs and values
alike.  x mod P_i is (x mod M) mod P_i for M the product of the moduli, so
M is formed, and each x divided by it once, only when some x reaches deg M
= sum deg P_i; then reduction mod every P_i is one F_p-linear map on packed
columns of all the remainders at once.  The sum `_index_array` has one more
caller, the counterexample build, which takes its map rows from its own
step tables.

F_q[t]/(P), deg P = d, is F_p^(e*d): coordinate e*i+b of a residue is
coordinate b (base-p digit b of the code) of its coefficient of t^i, so the
residue's index is the sum of p^pos * y_pos over the positions pos.  Column
e*i+b of the map M_P, on polynomials of degree < L, holds the coordinates of
x^b * t^i mod P.  Its rows come by recurrence, with no division: the top
coefficients of t^i mod P are a linear recurring sequence with
characteristic polynomial P/lc(P) (Lidl-Niederreiter, Finite Fields,
ch. 8), and each row is the one before it minus a multiple of that
sequence, shifted one column (`_column_map`).  Coordinate pos of n
polynomials is packed into one int, a slot per polynomial, and output
coordinate o is sum_j M_P[o][j] * col_j.
The slot rule: each slot sums at most e*L products below (p-1)^2, so slots
of s = _slot_bytes(e*L, p) bytes never carry; over characteristic 2 a slot
is one bit and the sums are XOR.  Over odd p the slots are reduced mod p
once, by bytes.translate when s = 1 and by `_kron_slots` otherwise, and the
index column sum_o p^o * y_o is summed in slots as wide as the index
array's type, which hold every index, and written straight into the array.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, reduce
from itertools import compress
from operator import mul, xor

from .poly import (_SWAP, _block_tables, _klen, _krem, _kron_pack,
                   _kron_slots, _nonzero_moduli, _pack2, _slot_bytes,
                   _unpack2)


@lru_cache(maxsize=None)
def _byte_tables(p: int, e: int) -> tuple:
    """Translate tables for bytes: i mod p, and for each b < e digit b of
    the code i."""
    return (bytes(i % p for i in range(256)),
            tuple(bytes(i // p ** b % p for i in range(256))
                  for b in range(e)))


def _slots(parts, s: int) -> int:
    """The int of slots of s bytes whose byte u comes from parts[u], one
    byte per slot."""
    if s == 1:
        return int.from_bytes(parts[0], "little")
    buf = bytearray(len(parts[0]) * s)
    for u, part in enumerate(parts):
        buf[u::s] = part
    return int.from_bytes(buf, "little")


def _coeff_bytes(F) -> int:
    """Bytes per coefficient code in a row of `_coeff_row`."""
    return 1 if F.q <= 256 else ((F.q - 1).bit_length() + 7) // 8


def _coeff_row(r, L: int, F, w: int) -> bytes:
    """The L coefficient codes of a kernel form of degree < L, w bytes
    each."""
    if F.q == 2:
        return _unpack2(r).ljust(L, b"\0")
    if w == 1:
        return bytes(r).ljust(L, b"\0")
    return _kron_pack(r, w).to_bytes(L * w, "little")


def _column_map(m, L: int, F) -> list:
    """The rows of M_P for the kernel form m of P, on degree < L: row o
    lists coordinate o of x^b * t^i mod P for each column e*i+b.

    The rows come by recurrence.  Let d = deg P, P~ = P/lc(P) with
    coefficients p~_k, and T[i] the coefficient of t^(d-1) in t^i mod P.
    Then t^(i+1) mod P = t*(t^i mod P) - T[i]*P~, so T[i] = [i = d-1] for
    i < d and T[i+d] = -sum_(k<d) p~_k*T[i+k] (a linear recurring
    sequence with characteristic polynomial P~), and the coefficients of
    t^o, the row R_o of t^i mod P for i < L, have R_o[0] = [o = 0] and
    R_o[i+1] = R_(o-1)[i] - p~_o*T[i]: row o-1 minus p~_o*T, shifted one
    column, up to the top row R_(d-1), which is T itself.  Over GF(2) a
    row is one L-bit int, a shift and an XOR; over an extension field the
    rows are over F_q, from its tables, and coordinate b' of x^b * R_o[i]
    is entry e*i+b of row e*o+b'.  A unit P has no rows.
    """
    e, p, q = F.e, F.p, F.q
    d = _klen(m, F) - 1
    if not d:
        return []
    if q == 2:  # P is monic; a row's bit i is its column i
        low, mask = m ^ 1 << d, (1 << L) - 1
        top = 1 << d - 1
        for i in range(L - d):
            top |= ((top >> i & low).bit_count() & 1) << i + d
        rows, r = [], 0
        for o in range(d - 1):
            r = ((r ^ top if low >> o & 1 else r) << 1 | (not o)) & mask
            rows.append(r)
        return [_unpack2(r).ljust(L, b"\0") for r in rows + [top & mask]]
    top = [0] * (d - 1) + [1]
    rows, r = [], [0] * L
    if e == 1:
        inv = pow(m[-1], -1, p)
        neg = [-c * inv % p for c in m[:d]]  # -p~_k
        for _ in range(L - d):
            top.append(sum(map(mul, neg, top[-d:])) % p)
        for o, c in enumerate(neg[:-1]):
            r = ([int(not o)] + [(a + c * b) % p for a, b in zip(r, top)])[:L]
            rows.append(r)
        return rows + [top[:L]]
    add, times = F._add, F._mul
    inv = F._inv[m[-1]]
    neg = [F._neg[times[c][inv]] for c in m[:d]]
    for _ in range(L - d):
        y = 0
        for c, b in zip(neg, top[-d:]):
            y = add[y][times[c][b]]
        top.append(y)
    for o, c in enumerate(neg[:-1]):
        row = times[c]
        r = ([int(not o)] + [add[a][row[b]] for a, b in zip(r, top)])[:L]
        rows.append(r)
    spread = _block_tables(F)[0]
    xs = [times[p ** b] for b in range(e)]  # x^b has code p^b
    out = []
    for r in rows + [top[:L]]:
        blocks = [spread[x[y]] for y in r for x in xs]
        out.extend([block[b] for block in blocks] for b in range(e))
    return out


def _index_array(rows, cols, F, s: int, n: int, code: str) -> array:
    """The residue indices of n polynomials by the map with these rows,
    from their packed coordinate columns, as an array of type code."""
    p = F.p
    w = array(code).itemsize
    modp = _byte_tables(p, F.e)[0]
    acc = 0
    for o, row in enumerate(rows):
        if p == 2:
            y = _slots([_unpack2(reduce(xor, compress(cols, row), 0))
                        .ljust(n, b"\0")], w)
        elif s == 1:
            y = _slots([sum(map(mul, row, cols)).to_bytes(n, "little")
                        .translate(modp)], w)
        else:
            y = _kron_pack(_kron_slots(sum(map(mul, row, cols)).to_bytes(
                n * s, "little"), s, n, p), w)
        acc += p ** o * y
    out = array(code, acc.to_bytes(n * w, "little"))
    if _SWAP:
        out.byteswap()
    return out


def _value_columns(forms, F) -> tuple[list, int]:
    """The columns of the coordinates of a list of kernel forms over F,
    packed a slot per form, and the slot bytes s: column e*i+b holds
    coordinate b of their coefficients of t^i, for i below the longest
    form's length."""
    L = max((_klen(r, F) for r in forms), default=0)
    w = _coeff_bytes(F)
    rows = bytearray()  # one row of coefficient codes per form
    for r in forms:
        rows += _coeff_row(r, L, F, w)
    codes = [[rows[i * w + u::L * w] for u in range(w)] for i in range(L)]
    if F.e > 1:  # one byte a code, and one column a coordinate
        digits = _byte_tables(F.p, F.e)[1]
        codes = [[c[0].translate(digits[b])]
                 for c in codes for b in range(F.e)]
    s = _slot_bytes(len(codes), F.p)
    return [_pack2(c[0]) if F.p == 2 else _slots(c, s) for c in codes], s


def index_arrays(moduli, xs, code: str) -> list:
    """For each modulus P_i in the order given, the array of type code of
    (x mod P_i).index() for every x of xs, in order."""
    moduli = _nonzero_moduli(moduli)
    F = moduli[0].field
    xs = list(xs)
    if any(x.field is not F and x.field != F for x in moduli + xs):
        raise ValueError("mixed-field polynomial operation")
    forms = [x._k for x in xs]
    top = sum(P.deg for P in moduli)  # deg M, M the product of the moduli
    if any(_klen(r, F) > top for r in forms):
        M = reduce(mul, moduli)._k  # x mod P_i = (x mod M) mod P_i
        forms = [_krem(r, M, F) for r in forms]
    cols, s = _value_columns(forms, F)
    L = len(cols) // F.e
    return [_index_array(_column_map(P._k, L, F), cols, F, s, len(xs), code)
            for P in moduli]
