"""Exact linear algebra over any field handle, on the reps of its elements.

Vectors come in and go out as tuples of FieldElement sharing one field;
the elimination itself runs on rows of the field's element reps.  Solves,
nullspaces, membership tests and minimal polynomials feed their rows
through a SpanBuilder, a forward echelon built one row at a time; solves
and nullspaces then run one back-substitution pass over its rows, which
leaves them in reduced echelon form.  A determinant eliminates its rows
in place (_determinant), which the norm grid calls on rows of point-field
values.
"""

from __future__ import annotations

from .basefields import FieldElement


def _reps(v):
    return [c.rep for c in v]


def _subtract_multiple(field, v, c, row):
    """v - c * row, in place on the list v."""
    sub, mul, zero = field._sub, field._mul, field._zero
    for j, x in enumerate(row):
        if x != zero:
            v[j] = sub(v[j], mul(c, x))


class SpanBuilder:
    """Incremental row-echelon span of vectors; supports membership tests."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []        # echelon rows, as reps, each 1 at its pivot
        self.pivots = []      # pivot column per row

    def _reduce(self, v):
        """Reduce the rep list v in place by the rows; columns past the
        width (an augmented part) ride along."""
        zero = self.field._zero
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c != zero:
                _subtract_multiple(self.field, v, c, row)
        return v

    def _insert(self, v):
        """Append the reduced rep list v as a row unless it is zero on the
        first width columns; returns True if it was appended."""
        F = self.field
        zero = F._zero
        for piv in range(self.width):
            if v[piv] != zero:
                if v[piv] == F._one:    # every row over F_2, for one
                    self.rows.append(list(v))
                else:
                    inv = F._inv(v[piv])
                    self.rows.append([F._mul(c, inv) for c in v])
                self.pivots.append(piv)
                return True
        return False

    def _back_substitute(self):
        """Clear each row at the pivots of the later rows, last row first:
        the rows become the reduced echelon form of their span."""
        zero = self.field._zero
        for i in range(len(self.rows) - 2, -1, -1):
            row = self.rows[i]
            for later, piv in zip(self.rows[i + 1:], self.pivots[i + 1:]):
                if row[piv] != zero:
                    _subtract_multiple(self.field, row, row[piv], later)

    def contains(self, v):
        zero = self.field._zero
        return all(c == zero for c in self._reduce(_reps(v)))

    def add(self, v):
        """Add v to the span; returns True if it enlarged the span."""
        return self._insert(self._reduce(_reps(v)))


def _reduced_echelon(field, rows, width):
    """A SpanBuilder of the rep rows in reduced echelon form, or None when
    some row reduces to zero on the first width columns but not past them."""
    sb = SpanBuilder(field, width)
    zero = field._zero
    for v in rows:
        v = sb._reduce(v)
        if not sb._insert(v) and any(c != zero for c in v[width:]):
            return None
    sb._back_substitute()
    return sb


def solve_combination(field, basis_vectors, target):
    """Express target as a linear combination of basis_vectors.

    Returns the coefficient list, or None when target is outside the span.
    Solves the transposed system augmented with the target; unknowns off
    the pivot columns are 0.
    """
    m = len(basis_vectors)
    cols = [_reps(v) for v in basis_vectors] + [_reps(target)]
    sb = _reduced_echelon(field, [list(r) for r in zip(*cols)], m)
    if sb is None:
        return None
    coeffs = [field._zero] * m
    for row, col in zip(sb.rows, sb.pivots):
        coeffs[col] = row[m]
    return [FieldElement(field, c) for c in coeffs]


def nullspace(field, rows, width):
    """Canonical basis of the right nullspace of the matrix with the given
    rows: a 1 at one free column each, minus the reduced rows at the
    pivot columns."""
    sb = _reduced_echelon(field, [_reps(r) for r in rows], width)
    zero, one = field._zero, field._one
    basis = []
    for fc in sorted(set(range(width)) - set(sb.pivots)):
        v = [zero] * width
        v[fc] = one
        for row, col in zip(sb.rows, sb.pivots):
            v[col] = field._neg(row[fc])
        basis.append(tuple(FieldElement(field, c) for c in v))
    return basis


def determinant(field, rows):
    """Exact determinant of a square matrix of FieldElement rows."""
    return FieldElement(field, _determinant(field, [_reps(r) for r in rows]))


def _determinant(field, rows):
    """The determinant of a square matrix given as lists of reps, by
    elimination in place: the product of the pivots, signed by the row
    swaps.  A row is reduced from its pivot column on; the columns to the
    left are never read again."""
    add, mul, neg, zero = field._add, field._mul, field._neg, field._zero
    det = field._one
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col] != zero),
                   None)
        if piv is None:
            return zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = neg(det)
        top = rows[col]
        det = mul(det, top[col])
        minus = neg(field._inv(top[col]))
        for r in rows[col + 1:]:
            if r[col] != zero:    # r -= (r[col] / top[col]) * top
                c = mul(r[col], minus)
                for j in range(col + 1, len(r)):
                    if top[j] != zero:
                        r[j] = add(r[j], mul(c, top[j]))
    return det
