"""Tables shared by the test suite, the per-entry residue reference, the
column maps by shift-and-reduce, the Rabin filter of all monic candidates,
the full relation system, the RatFunc reference for K[X], and the
factor-based p-th root in F_q(t)."""

from fqtlab import (FuncTable, RatFunc, crt, enumerate_monic_irreducibles,
                    factor, irreducible_product, is_irreducible, relations)
from fqtlab.poly import (Poly, _block_tables, _klen, _krem, _unpack2,
                         monic_polys_of_degree, poly_gcd, polys_up_to)


def forced_table(field, D, c1, rng):
    """A table that honestly satisfies all three vanishing hypotheses.

    Entries of degree <= c1 are zero.  Above that, each entry is drawn from
    the set of values that are simultaneously congruence-consistent with the
    rows already placed (one congruence per irreducible of degree <= n) and
    inside the degree cap q^n - 1.  The draw uses rng, though the admissible
    set turns out to be a singleton; the point is that the construction
    never assumes the conclusion.
    """
    q = field.q
    values = {}
    for a in polys_up_to(field, D):
        n = 0 if a.is_zero() else a.deg
        if n <= c1:
            values[a] = Poly.zero(field)
            continue
        modulus = irreducible_product(field, n)
        residues, mods = [], []
        for d in range(1, n + 1):
            for p in enumerate_monic_irreducibles(field, d):
                residues.append(values[a % p] % p)
                mods.append(p)
        r = crt(residues, mods)
        # candidates r + modulus*h: any h != 0 overshoots the cap already at
        # constant h, so scanning constants finds every admissible value
        admissible = [c for c in (r + modulus.scaled(h) for h in range(q))
                      if c.is_zero() or c.deg <= q ** n - 1]
        values[a] = rng.choice(admissible)
    return FuncTable(field, D, values)


# -- per-entry residue reference ----------------------------------------------
# The library reduces many polynomials at once: each mod the product of the
# moduli, then by linear maps on packed columns.  This reference shares
# nothing with it: one Poly division per polynomial and modulus.


def direct_indices(moduli, x):
    """[(x mod P).index() for each modulus P], one Poly division each."""
    return [(x % m).index() for m in moduli]


def reference_residue_map(table):
    """(moduli, inputs, values) as ResidueMap lays them out, as lists, with
    every input and every value divided by every modulus on its own."""
    mods = [p for d in range(1, table.D + 1)
            for p in enumerate_monic_irreducibles(table.field, d)]
    if not mods:
        return (), [], []
    inputs = [[] for _ in mods]
    values = [[] for _ in mods]
    for a, v in table.items():
        for col, r in zip(inputs, direct_indices(mods, a)):
            col.append(r)
        for col, r in zip(values, direct_indices(mods, v)):
            col.append(r)
    return tuple(mods), inputs, values


# -- column maps by shift-and-reduce -----------------------------------------
# The library builds certify's column maps by a recurrence on the top
# coordinate of t^i mod P.  This is the routine it replaced: each column
# x^b * t^i mod P is the one before it times t, reduced by one `_krem`.


def shift_and_reduce_column_map(m, L, F):
    """The rows of M_P for the kernel form m of P, on degree < L, as
    `residues._column_map` lays them out, by L single-step reductions."""
    e, p, q = F.e, F.p, F.q
    d = _klen(m, F) - 1
    by_b = []
    for b in range(e):
        # x^b has code p^b; a unit P leaves every residue 0
        r, seq = _krem(1 if q == 2 else [p ** b], m, F), []
        for _ in range(L):
            seq.append(r)
            r = _krem(r << 1 if q == 2 else [0] + list(r), m, F)
        by_b.append(seq)
    if q == 2:  # the coordinates are the bits
        flat = b"".join([_unpack2(r).ljust(d, b"\0") for r in by_b[0]])
    else:
        flat = [c for i in range(L) for seq in by_b
                for c in list(seq[i]) + [0] * (d - len(seq[i]))]
        if e > 1:
            spread = _block_tables(F)[0]
            flat = [y for c in flat for y in spread[c][:e]]
    return [flat[o::e * d] for o in range(e * d)]


# -- the Rabin filter ---------------------------------------------------------
# The library sieves out the products of smaller irreducibles and confirms
# each survivor.  This is the enumeration it replaced: Rabin's test on every
# monic candidate.


def rabin_filter(field, d):
    """The monic irreducibles of degree d, in canonical order, by
    `is_irreducible` on all q^d monic candidates."""
    return tuple(f for f in monic_polys_of_degree(field, d)
                 if is_irreducible(f))


# -- the full relation system ------------------------------------------------
# find_relation never builds it: it adds one entry's rows per witness.


def relation_rows(table, bounds):
    """Every entry's rows of the relation system, in canonical order."""
    return relations._system_rows(
        (relations._relation_columns(a, v, bounds) for a, v in table.items()),
        10 ** 9, "relation system")


# -- RatFunc reference for K[X] --------------------------------------------------
# The library holds a polynomial over K = F_q(t) as N(X)/d over F_q[t].  These
# are the plain routines it replaced, kept as the reference the tests compare
# against: a K-poly is a tuple of RatFunc, trailing zeros stripped, and every
# step is normalised in K.


def kpoly(coeffs):
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def kpoly_from_polys(coeffs):
    return kpoly([RatFunc.from_poly(c) for c in coeffs])


def kpoly_add(a, b):
    if not a or not b:
        return kpoly(a or b)
    field = (a or b)[0].field
    out = list(a) + [RatFunc.zero(field)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return kpoly(out)


def kpoly_mul(a, b):
    if not a or not b:
        return ()
    field = a[0].field
    out = [RatFunc.zero(field) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return kpoly(out)


def kpoly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("K-poly division by zero")
    field = b[0].field
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return (), kpoly(rem)
    inv_lb = b[-1].inverse()
    quot = [RatFunc.zero(field) for _ in range(len(rem) - db)]
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db]
        if not c.is_zero():
            f = c * inv_lb
            quot[i] = f
            for j, bj in enumerate(b):
                rem[i + j] = rem[i + j] - f * bj
    return kpoly(quot), kpoly(rem)


def kpoly_eval(a, x):
    if isinstance(x, Poly):
        x = RatFunc.from_poly(x)
    out = RatFunc.zero(x.field)
    for c in reversed(a):
        out = out * x + c
    return out


def kpoly_clear(a, field):
    """((N_j), d) with d the monic lcm of the denominators of a and
    N_j = a_j * d, so a(x) = N(x)/d; an empty a gives ((), 1)."""
    d = Poly.one(field)
    for c in a:
        if c.den.deg > 0:
            d = d // poly_gcd(d, c.den) * c.den
    return tuple(c.num * (d // c.den) for c in a), d


def lagrange_interpolate(points):
    """The K-poly of degree < len(points) through the (Poly, Poly) pairs, by
    summing Lagrange basis polynomials in K[X]; x values must be distinct."""
    pts = [(RatFunc.from_poly(x), RatFunc.from_poly(y)) for x, y in points]
    if not pts:
        raise ValueError("need at least one point")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i][0] == pts[j][0]:
                raise ValueError("duplicate interpolation nodes at positions "
                                 "%d and %d" % (i, j))
    one = RatFunc.one(pts[0][0].field)
    acc = ()
    for i, (xi, yi) in enumerate(pts):
        if yi.is_zero():
            continue
        basis, denom = (one,), one
        for j, (xj, _) in enumerate(pts):
            if j != i:
                basis = kpoly_mul(basis, (-xj, one))
                denom = denom * (xi - xj)
        acc = kpoly_add(acc, kpoly_mul(basis, (yi / denom,)))
    return acc


# -- p-th roots in F_q(t) by factoring --------------------------------------------
# The library decides a p-th root by one coefficient scan of the numerator and
# the denominator.  This is the routine it replaced: read the root off both
# factorizations.


def pth_root_ratfunc_by_factoring(v, seed=0):
    """Exact p-th root in F_q(t), or None when some factor multiplicity is
    not divisible by p."""
    field = v.num.field
    p = field.p
    parts = []
    for poly in (v.num, v.den):
        fl = factor(poly, seed)
        if any(mult % p for _, mult in fl.factors):
            return None
        root = Poly.constant(field, field.pth_root(fl.unit))
        for prime, mult in fl.factors:
            root = root * prime ** (mult // p)
        parts.append(root)
    return RatFunc(parts[0], parts[1])
