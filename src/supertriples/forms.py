"""Graded bilinear forms on the dual homogeneous basis (b, f, b~, f~).

The canonical form pairs b_i with b~^i symmetrically and f_a with f~^a
antisymmetrically:

    B = [[0, 0, 1_m, 0], [0, 0, 0, 1_n], [1_m, 0, 0, 0], [0, -1_n, 0, 0]]
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstraintViolation, DimensionMismatch
from .matrices import transpose

__all__ = ["BilinearForm", "canonical_form", "check_ad_invariance",
           "check_isotropic", "check_graded_symmetry"]


class BilinearForm:
    """Matrix B_ab = <X_a, X_b> over Fractions on a graded basis."""

    __slots__ = ("m", "n", "parity", "matrix")

    def __init__(self, m, n, parity, matrix):
        self.m = m
        self.n = n
        self.parity = tuple(parity)
        self.matrix = [[Fraction(x) for x in row] for row in matrix]
        d = len(self.parity)
        if len(self.matrix) != d or any(len(r) != d for r in self.matrix):
            raise DimensionMismatch("form matrix shape")

    @property
    def dim(self):
        return len(self.parity)

    def __getitem__(self, ij):
        i, j = ij
        return self.matrix[i][j]

    def __eq__(self, other):
        return (isinstance(other, BilinearForm)
                and self.parity == other.parity and self.matrix == other.matrix)

    def __repr__(self):
        return "BilinearForm(%dx%d)" % (self.dim, self.dim)


def canonical_form(m, n):
    """The block form B of the dual homogeneous basis; superdimension (2m, 2n)."""
    if m < 0 or n < 0 or m + n < 1:
        raise ConstraintViolation("bad superdimension (%s, %s)" % (m, n))
    d = 2 * (m + n)
    parity = (0,) * m + (1,) * n + (0,) * m + (1,) * n
    mat = [[Fraction(0)] * d for _ in range(d)]
    off = m + n
    for i in range(m):
        mat[i][off + i] = Fraction(1)      # <b_i, b~^i>
        mat[off + i][i] = Fraction(1)      # <b~^i, b_i>
    for a in range(n):
        mat[m + a][off + m + a] = Fraction(1)    # <f_a, f~^a>
        mat[off + m + a][m + a] = Fraction(-1)   # <f~^a, f_a>
    return BilinearForm(m, n, parity, mat)


def check_graded_symmetry(B):
    """(a, b) pairs violating B_ab = (-1)^{|a||b|} B_ba."""
    bad = []
    for a in range(B.dim):
        for b in range(a, B.dim):
            sign = -1 if (B.parity[a] * B.parity[b]) % 2 else 1
            if B.matrix[a][b] != sign * B.matrix[b][a]:
                bad.append((a, b))
    return bad


def check_ad_invariance(algebra, B):
    """Residuals <[x,y],z> + (-1)^{|x||y|} <y,[x,z]> over all basis triples,
    filtered through the sign-branch splitter; empty means invariant."""
    if algebra.dim != B.dim:
        raise DimensionMismatch("algebra and form dimensions differ")
    if algebra.parity != B.parity:
        raise DimensionMismatch("algebra and form gradings differ")
    from .algebra import _branch_failures, _difference, _push
    nz = algebra.nonzero()
    par = algebra.parity
    # <[x,y],z> = F_xy^k B_kz and <y,[x,z]> = F_xz^k B_yk are pushforwards
    # along B and B^T; `second` holds minus the signed second term
    first = _push(nz, B.matrix)
    second = {(x, y, z): (c if (par[x] * par[y]) % 2 else -c)
              for (x, z, y), c in _push(nz, transpose(B.matrix)).items()}
    return _branch_failures(_difference(first, second))


def check_isotropic(B, span):
    """True iff the coordinate subspace spanned by the given basis indices is
    isotropic and of the maximal dimension m+n."""
    idx = sorted(set(span))
    for a in idx:
        for b in idx:
            if B.matrix[a][b]:
                return False
    return len(idx) == (B.m + B.n)
