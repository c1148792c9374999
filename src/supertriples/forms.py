"""Graded bilinear forms on the dual homogeneous basis (b, f, b~, f~).

The canonical form pairs b_i with b~^i symmetrically and f_a with f~^a
antisymmetrically:

    B = [[0, 0, 1_m, 0], [0, 0, 0, 1_n], [1_m, 0, 0, 0], [0, -1_n, 0, 0]]

B is the signed permutation ``_pairing``, its one representation:
``check_ad_invariance`` reads the residuals off it, and ``iso`` reads
condition (i), a certificate's inverse and the T-duality matrix.
"""

from __future__ import annotations

import functools

from .algebra import Grading, _difference, _failures
from .errors import DimensionMismatch

__all__ = ["BilinearForm", "canonical_form", "check_ad_invariance"]


class BilinearForm:
    """The canonical form of superdimension (2m, 2n) on its graded basis:
    B_{i p(i)} = s(i) for the ``_pairing`` (p, s) of (m, n)."""

    __slots__ = ("m", "n", "parity")

    def __init__(self, m, n, parity):
        self.m = m
        self.n = n
        self.parity = tuple(parity)

    @property
    def dim(self):
        return len(self.parity)

    def __repr__(self):
        return "BilinearForm(%dx%d)" % (self.dim, self.dim)


@functools.lru_cache(maxsize=None)
def _pairing(m, n):
    """((p(i), s(i)) for each row i): the one nonzero entry B_{i p(i)} = s(i)
    of the canonical form of superdimension (2m, 2n).  p is an involution."""
    h = m + n
    return (tuple((h + i, 1) for i in range(h))
            + tuple((i, 1) for i in range(m))
            + tuple((m + a, -1) for a in range(n)))


def canonical_form(m, n):
    """The block form B of the dual homogeneous basis; superdimension (2m, 2n)."""
    return BilinearForm(m, n, Grading(m, n).parities() * 2)


def check_ad_invariance(algebra, B):
    """((x, y, z), <[x,y],z> + (-1)^{|x||y|} <y,[x,z]>) for each residual
    nonzero on some sign branch; empty means invariant."""
    if algebra.dim != B.dim:
        raise DimensionMismatch("algebra and form dimensions differ")
    if algebra.parity != B.parity:
        raise DimensionMismatch("algebra and form gradings differ")
    N, s = algebra.cleared_tensor()
    par, pairing = algebra.parity, _pairing(B.m, B.n)
    return _failures(algebra.ctx, _ad_residuals, (N, pairing, par),
                     (algebra.nonzero(), pairing, par), (s,))


def _ad_residuals(nz, pairing, par):
    """The ad-invariance residuals of the tensor nz under the canonical form
    with ``_pairing`` pairing, in key order."""
    # B_kz = s(k) at z = p(k) alone, and p is an involution, so an entry
    # c = F_xw^k gives <[x,w],z> = c s(k) at z = p(k) and <y,[x,w]> = c s(y)
    # at y = p(k): one term per key.  `second` holds minus the signed second
    # term, -(-1)^{|x||y|} c s(y)
    first, second = {}, {}
    for (x, w, k, c) in nz:
        y, s = pairing[k]
        first[x, w, y] = c if s > 0 else -c
        odd = (par[x] * par[y]) % 2 == 1
        second[x, y, w] = c if (pairing[y][1] > 0) == odd else -c
    return _difference(first, second)
