"""Shared exception types. Each maps to a CLI exit code in cli.py."""


class SuperTriplesError(Exception):
    pass


class ParseError(SuperTriplesError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "line %s, col %s: %s" % (line, col, message)
        super().__init__(message)


class ConstraintViolation(SuperTriplesError):
    pass


class InconsistentRadical(SuperTriplesError):
    pass


class DivisionByZero(SuperTriplesError, ZeroDivisionError):
    pass


class DimensionMismatch(SuperTriplesError):
    pass


class NotAutomorphism(SuperTriplesError):
    pass


class UnknownName(SuperTriplesError, KeyError):
    __str__ = BaseException.__str__    # the plain message, not KeyError's repr


class UnknownId(SuperTriplesError, KeyError):
    __str__ = BaseException.__str__


class BudgetExceeded(SuperTriplesError):
    pass
