"""Dense exact linear algebra over a coefficient field.

Small row-reduction utilities used by the degree-truncated oracles and the
graded isomorphism search.  Rows are lists of field elements.
"""


def row_reduce(rows, fld):
    """Return (reduced rows, pivot column indices); input is not mutated."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next(
            (i for i in range(r, len(rows)) if not fld.is_zero(rows[i][c])), None
        )
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = fld.inv(rows[r][c])
        rows[r] = [fld.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not fld.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, fld) -> int:
    reduced, _ = row_reduce(rows, fld)
    return len(reduced)


def nullspace(rows, fld):
    """Basis of {x : rows_matrix @ x = 0}, for rows over ncols columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = row_reduce(rows, fld)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [fld.zero] * ncols
        vec[fc] = fld.one
        for row, p in zip(reduced, pivots):
            vec[p] = fld.neg(row[fc])
        basis.append(vec)
    return basis
