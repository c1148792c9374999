"""Graded bilinear forms on the dual homogeneous basis (b, f, b~, f~).

The canonical form pairs b_i with b~^i symmetrically and f_a with f~^a
antisymmetrically:

    B = [[0, 0, 1_m, 0], [0, 0, 0, 1_n], [1_m, 0, 0, 0], [0, -1_n, 0, 0]]

B is the signed permutation ``_pairing``, from which ``canonical_form``
fills its matrix and ``iso`` reads condition (i) and a certificate's inverse.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .algebra import Grading, _difference, _failures, _integer_matrix, _push
from .errors import DimensionMismatch
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


@functools.lru_cache(maxsize=None)
def _pairing(m, n):
    """((p(i), s(i)) for each row i): the one nonzero entry B_{i p(i)} = s(i)
    of the canonical form of superdimension (2m, 2n)."""
    h = m + n
    return (tuple((h + i, 1) for i in range(h))
            + tuple((i, 1) for i in range(m))
            + tuple((m + a, -1) for a in range(n)))


def canonical_form(m, n):
    """The block form B of the dual homogeneous basis; superdimension (2m, 2n)."""
    parity = Grading(m, n).parities() * 2
    mat = [[Fraction(0)] * len(parity) for _ in parity]
    for row, (p, s) in zip(mat, _pairing(m, n)):
        row[p] = Fraction(s)
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
    """((x, y, z), <[x,y],z> + (-1)^{|x||y|} <y,[x,z]>) for each residual
    nonzero on some sign branch; empty means invariant."""
    if algebra.dim != B.dim:
        raise DimensionMismatch("algebra and form dimensions differ")
    if algebra.parity != B.parity:
        raise DimensionMismatch("algebra and form gradings differ")
    N, s = algebra.cleared_tensor()
    par = algebra.parity
    return _failures(algebra.ctx, _ad_residuals,
                     (N, _integer_matrix(B.matrix)[0], par),
                     (algebra.nonzero(), B.matrix, par), (s,))


def _ad_residuals(nz, B, par):
    """The ad-invariance residuals of the tensor nz under the form matrix B,
    in key order."""
    # <[x,y],z> = F_xy^k B_kz and <y,[x,z]> = F_xz^k B_yk are pushforwards
    # along B and B^T; `second` holds minus the signed second term
    first = _push(nz, B)
    second = {(x, y, z): (c if (par[x] * par[y]) % 2 else -c)
              for (x, z, y), c in _push(nz, transpose(B)).items()}
    return _difference(first, second)


def check_isotropic(B, span):
    """True iff the coordinate subspace spanned by the given basis indices is
    isotropic and of the maximal dimension m+n."""
    idx = sorted(set(span))
    for a in idx:
        for b in idx:
            if B.matrix[a][b]:
                return False
    return len(idx) == (B.m + B.n)
