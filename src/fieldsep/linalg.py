"""Exact Gaussian elimination over any field handle.

Vectors come in and go out as tuples of FieldElement sharing one field;
the elimination itself runs on rows of the field's element reps.
Everything is small (dimension <= ~16), so plain fraction arithmetic
over F_p(t) is affordable.
"""

from __future__ import annotations

from .basefields import FieldElement


def _reps(v):
    return [c.rep for c in v]


def _subtract_multiple(field, v, c, row):
    """v - c * row, in place on the list v."""
    sub, mul, zero = field._sub, field._mul, field._zero_rep()
    for j, x in enumerate(row):
        if x != zero:
            v[j] = sub(v[j], mul(c, x))


class SpanBuilder:
    """Incremental row-echelon span of vectors; supports membership tests."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []        # reduced echelon rows, as reps
        self.pivots = []      # pivot column per row

    def _reduce(self, v):
        """Reduce the rep list v in place by the rows; columns past the
        width (an augmented part) ride along."""
        zero = self.field._zero_rep()
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c != zero:
                _subtract_multiple(self.field, v, c, row)
        return v

    def _insert(self, v):
        """Append the reduced rep list v as a row unless it is zero on the
        first width columns; returns True if it was appended."""
        zero = self.field._zero_rep()
        for piv in range(self.width):
            if v[piv] != zero:
                inv = self.field._inv(v[piv])
                self.rows.append([self.field._mul(c, inv) for c in v])
                self.pivots.append(piv)
                return True
        return False

    def contains(self, v):
        zero = self.field._zero_rep()
        return all(c == zero for c in self._reduce(_reps(v)))

    def add(self, v):
        """Add v to the span; returns True if it enlarged the span."""
        return self._insert(self._reduce(_reps(v)))


def _gauss_jordan(field, rows, ncols):
    """Reduce rep rows in place to reduced echelon form on the first ncols
    columns.

    Further columns (an augmented right-hand side) ride along.  Returns the
    (row, col) pivots; pivot rows are 0, 1, ... in order.
    """
    zero = field._zero_rep()
    n = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, n) if rows[i][col] != zero), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field._inv(rows[r][col])
        rows[r] = [field._mul(c, inv) for c in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != zero:
                _subtract_multiple(field, rows[i], rows[i][col], rows[r])
        pivots.append((r, col))
        r += 1
    return pivots


def solve_combination(field, basis_vectors, target):
    """Express target as a linear combination of basis_vectors.

    Returns the coefficient list, or None when target is outside the span.
    Solves the transposed system by elimination on an augmented matrix.
    """
    n = len(target)
    m = len(basis_vectors)
    # rows: n equations, m unknowns, augmented with target
    cols = [_reps(v) for v in basis_vectors] + [_reps(target)]
    rows = [[col[i] for col in cols] for i in range(n)]
    pivots = _gauss_jordan(field, rows, m)
    zero = field._zero_rep()
    if any(rows[i][m] != zero for i in range(len(pivots), n)):
        return None
    coeffs = [zero] * m
    for row, col in pivots:
        coeffs[col] = rows[row][m]
    return [FieldElement(field, c) for c in coeffs]


def nullspace(field, rows, width):
    """Basis of the right nullspace of the matrix with the given rows."""
    mat = [_reps(r) for r in rows]
    pivots = _gauss_jordan(field, mat, width)
    pivot_cols = {col for _row, col in pivots}
    basis = []
    for fc in range(width):
        if fc in pivot_cols:
            continue
        v = [field._zero_rep()] * width
        v[fc] = field._one_rep()
        for row, col in pivots:
            v[col] = field._neg(mat[row][fc])
        basis.append(tuple(FieldElement(field, c) for c in v))
    return basis


def determinant(field, rows):
    """Exact determinant by elimination; rows is a square matrix."""
    n = len(rows)
    mat = [_reps(r) for r in rows]
    zero = field._zero_rep()
    det = field._one_rep()
    for col in range(n):
        sel = next((i for i in range(col, n) if mat[i][col] != zero), None)
        if sel is None:
            return field.zero
        if sel != col:
            mat[col], mat[sel] = mat[sel], mat[col]
            det = field._neg(det)
        det = field._mul(det, mat[col][col])
        inv = field._inv(mat[col][col])
        mat[col] = [field._mul(c, inv) for c in mat[col]]
        for i in range(col + 1, n):
            if mat[i][col] != zero:
                _subtract_multiple(field, mat[i], mat[i][col], mat[col])
    return FieldElement(field, det)
