"""Dense kernel computations over F_q.

Rows arrive as coefficient sequences.  Over GF(2) each row lives in a single
Python int, one bit per column, and row operations are XORs.  Other prime
fields work on plain ints mod p and keep only the free columns of the pivot
rows; extension fields use lists with table-driven field arithmetic.
Elimination maintains reduced row echelon form, so the pivot/free column
split, and with it the canonical kernel basis, is independent of row order.
Kernel basis vectors are emitted one per free column, ascending; "first"
always means the vector whose free column index is least.
"""

from __future__ import annotations

from operator import mul

from .poly import _pack2


def _pack_rows(rows):
    """GF(2) rows as ints, bit j = column j; int rows pass through."""
    return [r if isinstance(r, int) else _pack2(r) for r in rows]


def _rref_gf2(rows, ncols):
    pivots = []  # (row_int, pivot_col), pivot cols strictly increasing later
    for r in rows:
        r &= (1 << ncols) - 1
        for pr, pc in pivots:
            if (r >> pc) & 1:
                r ^= pr
        if not r:
            continue
        pc = (r & -r).bit_length() - 1
        for i, (pr, c) in enumerate(pivots):
            if (pr >> pc) & 1:
                pivots[i] = (pr ^ r, c)
        pivots.append((r, pc))
    pivots.sort(key=lambda t: t[1])
    return pivots


def _rref_prime(p, rows, ncols):
    # Pivot rows are kept by column, and only at the free columns: free[j]
    # lists their entries in column j, in pivot order.  Each pivot row is 1
    # at its own pivot column and 0 at the others, so the multipliers that
    # reduce an incoming row are its own entries at the pivot columns, all
    # read before any is applied, and only its free entries change.
    pcs = []
    free = {j: [] for j in range(ncols)}
    for r in rows:
        if not free:
            break
        m = [r[c] for c in pcs]
        red = {j: (r[j] - sum(map(mul, m, col))) % p
               for j, col in free.items()}
        pc = next((j for j, x in red.items() if x), None)
        if pc is None:
            continue
        inv = pow(red[pc], -1, p)
        f = free.pop(pc)
        for j, col in free.items():
            x = red[j] * inv % p
            free[j] = [(c - fi * x) % p for c, fi in zip(col, f)] + [x]
        pcs.append(pc)
    pivots = []
    for i, pc in enumerate(pcs):
        row = [0] * ncols
        row[pc] = 1
        for j, col in free.items():
            row[j] = col[i]
        pivots.append((row, pc))
    pivots.sort(key=lambda t: t[1])
    return pivots


def _rref_generic(field, rows, ncols):
    pivots = []  # (row_list, pivot_col)
    for r in rows:
        r = list(r)
        for pr, pc in pivots:
            c = r[pc]
            if c:
                for j in range(ncols):
                    if pr[j]:
                        r[j] = field.sub(r[j], field.mul(c, pr[j]))
        pc = next((j for j in range(ncols) if r[j]), None)
        if pc is None:
            continue
        inv = field.inv(r[pc])
        if inv != 1:
            r = [field.mul(x, inv) for x in r]
        for i, (pr, c) in enumerate(pivots):
            f = pr[pc]
            if f:
                pivots[i] = ([field.sub(pr[j], field.mul(f, r[j]))
                              for j in range(ncols)], c)
        pivots.append((r, pc))
    pivots.sort(key=lambda t: t[1])
    return pivots


def _pivots(field, rows, ncols):
    """Pivot rows of the reduced row echelon form as (list, pivot column)
    pairs, ascending by pivot column.  Repeated rows are eliminated once:
    relation systems repeat most of theirs."""
    if field.q == 2:
        return [([(pr >> j) & 1 for j in range(ncols)], pc)
                for pr, pc in _rref_gf2(dict.fromkeys(_pack_rows(rows)),
                                        ncols)]
    rows = dict.fromkeys(map(tuple, rows))
    if field.e == 1:
        return _rref_prime(field.p, rows, ncols)
    return _rref_generic(field, rows, ncols)


def kernel_basis(field, rows, ncols: int) -> list[tuple[int, ...]]:
    """Canonical kernel basis of the system rows * x = 0, one vector per
    free column in ascending column order."""
    if ncols < 0:
        raise ValueError("ncols must be >= 0")
    pivots = _pivots(field, rows, ncols)
    pivot_cols = {pc for _, pc in pivots}
    out = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for pr, pc in pivots:
            if pr[j]:
                vec[pc] = field.neg(pr[j])
        out.append(tuple(vec))
    return out


def kernel_vector(field, rows, ncols: int):
    """First canonical kernel basis vector, or None for a trivial kernel."""
    basis = kernel_basis(field, rows, ncols)
    return basis[0] if basis else None


def matrix_rank(field, rows, ncols: int) -> int:
    return len(_pivots(field, rows, ncols))
