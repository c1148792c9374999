"""The report memo: what one ``report`` or ``classify_doubles`` call would
otherwise build more than once, kept until the outermost such call returns.

It has three users: ``catalog`` keeps each catalog triple and certificate
built at bindings, and each certificate matrix bound at bindings alone
(``CertEntry.matrix_at``, all the route planner asks of a certificate, as
it takes the endpoints from its own nodes), ``classify.make_instances``
keeps each ``Instance`` by its ident, with the route nodes it expands, and
``iso`` keeps the search's candidate table of each double shape.  Nothing
else is kept here: a cleared tensor (``SuperAlgebra.cleared_tensor`` and
``integer_tensor``) belongs to its algebra, which dies with the memo when a
report built it, and a row's signature (``TripleEntry.signature``) belongs
to the catalog entry, not to a report.
"""

from __future__ import annotations

import contextlib
import contextvars

from .errors import SuperTriplesError

# {key: value} while a ``report_memo()`` block runs, else None
_MEMO = contextvars.ContextVar("supertriples_memo", default=None)


@contextlib.contextmanager
def report_memo():
    """Within the block, ``memoized(key, construct)`` constructs each key
    once and hands every later caller the same object.  A nested block
    shares the outermost one's memo, which is dropped when that block exits,
    so nothing kept survives it.  Usable as a decorator.

    Sharing is safe because no caller mutates what it gets: the route
    planner, ``Instance`` and the reports only read built triples,
    certificates and matrices or derive new objects (``build_double``,
    ``tensor_equal``, ``invert``, ``compose``, ``map_scalars``), and an
    instance's route nodes and a candidate table only grow by entries that
    do not depend on the caller."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


class _Failed:
    """A construction that raised: its exception's class and message only,
    so no exception object or traceback is kept."""

    __slots__ = ("cls", "message")

    def __init__(self, exc):
        self.cls = type(exc)
        self.message = str(exc)


def memoized(key, construct):
    """construct(), or inside a ``report_memo()`` block the object it gave
    for the same key.  A construction that raised a SuperTriplesError or an
    ArithmeticError is remembered too, and a repeat raises a fresh exception
    of the same class and message."""
    memo = _MEMO.get()
    if memo is None:
        return construct()
    kept = memo.get(key)
    if kept is None:
        try:
            kept = memo[key] = construct()
        except (SuperTriplesError, ArithmeticError) as exc:
            memo[key] = _Failed(exc)
            raise
    elif type(kept) is _Failed:
        raise kept.cls(kept.message)
    return kept
