"""Manin supertriples and their Drinfel'd superdoubles.

A triple holds the two subalgebra tensors F_{IJ}^K and F~^{IJ}_K over one
shared parameter context.  The double's mixed brackets are always generated
from them, never entered by hand:

    [X_I, X~^J] = F~^{JK}_I X_K + F_{KI}^J X~^K
"""

from __future__ import annotations

from .algebra import Grading, SuperAlgebra, _graded_transposes, check_jacobi
from .errors import DimensionMismatch

__all__ = ["ManinTriple", "DoubleAlgebra", "build_double",
           "check_compatibility", "t_dual"]


class ManinTriple:
    __slots__ = ("S", "S_dual", "ctx", "id", "label")

    def __init__(self, S, S_dual, ident=None, label=None):
        if S.superdim() != S_dual.superdim():
            raise DimensionMismatch("subalgebra superdimensions differ")
        if S.ctx != S_dual.ctx:
            raise DimensionMismatch("subalgebras must share a context")
        self.S = S
        self.S_dual = S_dual
        self.ctx = S.ctx
        self.id = ident
        self.label = label

    @property
    def grading(self):
        return self.S.grading

    def superdim(self):
        return self.S.superdim()

    def substitute(self, bindings):
        return self.map_scalars(*self.ctx.bind(bindings))

    def map_scalars(self, new_ctx, fn):
        """Both tensors with every scalar sent through fn into new_ctx."""
        return ManinTriple(self.S.map_scalars(new_ctx, fn),
                           self.S_dual.map_scalars(new_ctx, fn),
                           ident=self.id, label=self.label)

    def tensor_equal(self, other):
        return (self.S.tensor_equal(other.S)
                and self.S_dual.tensor_equal(other.S_dual))

    def signature(self):
        """(support, fixed) for S and for S_dual: the positions (i, j, k)
        of the nonzero entries, and {position: Fraction} over the constant
        ones.  Binding parameters maps zero to zero and a constant to
        itself, so the triple built at any bindings has its nonzero entries
        inside the support and these constants at their positions."""
        return tuple((frozenset(e[:3] for e in side.nonzero()),
                      {e[:3]: e[3].as_fraction() for e in side.nonzero()
                       if e[3].is_constant()})
                     for side in (self.S, self.S_dual))

    def __repr__(self):
        return "ManinTriple(%s: %s | %s)" % (self.id or "?",
                                             self.S.describe_brackets(),
                                             self.S_dual.describe_brackets())


def _signature_admits(row, other):
    """False when the signature row shows that the triple it was read off
    builds at no bindings into a triple with signature other
    (``ManinTriple.signature``; ``tensor_equal``): a nonzero entry of other
    lies off the row's support, or other differs from a constant entry of
    the row."""
    return all(o_support <= r_support
               and all(o_fixed.get(key) == x for key, x in r_fixed.items())
               for (r_support, r_fixed), (o_support, o_fixed) in zip(row, other))


class DoubleAlgebra(SuperAlgebra):
    """The double on the dual homogeneous basis (b, f, b~, f~); provenance
    keeps the generating triple."""

    __slots__ = ("triple",)

    def __init__(self, grading, ctx, entries, parity, names, name, triple):
        super().__init__(grading, ctx, entries, parity=parity, names=names,
                         name=name)
        self.triple = triple

    def map_scalars(self, new_ctx, fn):
        """The double of the triple mapped by fn; substitute comes through
        here too, so the triple is kept."""
        return build_double(self.triple.map_scalars(new_ctx, fn))


def build_double(triple):
    """Assemble the double tensor from the two subalgebra tensors."""
    S, Sd = triple.S, triple.S_dual
    m, n = S.superdim()
    parity = S.parity + Sd.parity
    entries = double_entries(S.nonzero(), Sd.nonzero(), m + n, parity)
    names = S.grading.names(False) + S.grading.names(True)
    return DoubleAlgebra(Grading(2 * m, 2 * n), triple.ctx, entries, parity,
                         names, "DD(%s)" % (triple.id or "?"), triple)


def double_entries(S_nz, Sd_nz, h, parity):
    """{(i, j, k): value} of the double of the nonzero lists S_nz and Sd_nz
    of two h-dimensional tensors, on the double's parities; the values are
    any entries the kernels take."""
    entries = {(i, j, k): c for (i, j, k, c) in S_nz}
    entries.update(((h + i, h + j, h + k), c) for (i, j, k, c) in Sd_nz)
    # mixed brackets [X_I, X~^J] per the double formula, each entry read off
    # one nonzero entry of F~ or F; [X~^J, X_I] by graded antisymmetry
    mixed = {(i, h + j, k): c for (j, k, i, c) in Sd_nz}
    mixed.update(((i, h + j, h + k), c) for (k, i, j, c) in S_nz)
    _graded_transposes(mixed, {key[:2] for key in mixed}, parity)
    entries.update(mixed)
    return entries


def check_compatibility(triple):
    """Full graded Jacobi residuals of the double; empty means the pair is a
    Manin supertriple."""
    return check_jacobi(build_double(triple))


def t_dual(triple):
    """The dual triple (S~|S).

    The transported tensors coincide with the originals (the f -> -f sign of
    the T map cancels on grading-consistent entries), so only roles swap.
    The doubles are isomorphic via the certificate C = B.
    """
    new_s = SuperAlgebra(triple.S_dual.grading, triple.ctx,
                         triple.S_dual.entries(),
                         parity=triple.S_dual.parity,
                         names=triple.S.grading.names(False),
                         name=triple.S_dual.name, dual_role=False)
    new_sd = SuperAlgebra(triple.S.grading, triple.ctx, triple.S.entries(),
                          parity=triple.S.parity,
                          names=triple.S.grading.names(True),
                          name=triple.S.name, dual_role=True)
    return ManinTriple(new_s, new_sd,
                       ident=("Tdual(%s)" % triple.id) if triple.id else None,
                       label=triple.label)
