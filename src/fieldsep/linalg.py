"""Exact Gaussian elimination over any field handle.

Vectors are tuples of FieldElement sharing one field.  Everything is
small (dimension <= ~16), so plain fraction arithmetic over F_p(t) is
affordable.
"""

from __future__ import annotations


class SpanBuilder:
    """Incremental row-echelon span of vectors; supports membership tests."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []        # reduced echelon rows
        self.pivots = []      # pivot column per row

    def _reduce(self, v):
        v = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if not c.is_zero():
                for j in range(self.width):
                    v[j] = v[j] - c * row[j]
        return v

    def contains(self, v):
        v = self._reduce(v)
        return all(c.is_zero() for c in v)

    def add(self, v):
        """Add v to the span; returns True if it enlarged the span."""
        v = self._reduce(v)
        for piv in range(self.width):
            if not v[piv].is_zero():
                inv = v[piv].inverse()
                v = [c * inv for c in v]
                self.rows.append(tuple(v))
                self.pivots.append(piv)
                return True
        return False


def _gauss_jordan(rows, ncols):
    """Reduce rows in place to reduced echelon form on the first ncols columns.

    Further columns (an augmented right-hand side) ride along.  Returns the
    (row, col) pivots; pivot rows are 0, 1, ... in order.
    """
    n = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, n):
            if not rows[i][col].is_zero():
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [c * inv for c in rows[r]]
        for i in range(n):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
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
    rows = [[basis_vectors[j][i] for j in range(m)] + [target[i]]
            for i in range(n)]
    pivots = _gauss_jordan(rows, m)
    for i in range(len(pivots), n):
        if not rows[i][m].is_zero():
            return None
    coeffs = [field.zero] * m
    for row, col in pivots:
        coeffs[col] = rows[row][m]
    return coeffs


def nullspace(field, rows, width):
    """Basis of the right nullspace of the matrix with the given rows."""
    mat = [list(r) for r in rows]
    pivots = _gauss_jordan(mat, width)
    pivot_cols = {col for _row, col in pivots}
    basis = []
    for fc in range(width):
        if fc in pivot_cols:
            continue
        v = [field.zero] * width
        v[fc] = field.one
        for row, col in pivots:
            v[col] = -mat[row][fc]
        basis.append(tuple(v))
    return basis


def determinant(field, rows):
    """Exact determinant by elimination; rows is a square matrix."""
    n = len(rows)
    mat = [list(r) for r in rows]
    det = field.one
    for col in range(n):
        sel = None
        for i in range(col, n):
            if not mat[i][col].is_zero():
                sel = i
                break
        if sel is None:
            return field.zero
        if sel != col:
            mat[col], mat[sel] = mat[sel], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = mat[col][col].inverse()
        mat[col] = [c * inv for c in mat[col]]
        for i in range(col + 1, n):
            if not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return det
