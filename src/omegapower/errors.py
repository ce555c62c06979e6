"""Exception types shared across the workbench.

Each subclass names the condition an input failed: a carrier address
(N <= M_j), a carrier set, the language T, the block shape P, the
mu-products, or the literal grammar.  Any other bad input, such as a
number that the rules below refuse, raises WorkbenchError."""


class WorkbenchError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidAddress(WorkbenchError):
    """Carrier address (N, j) violates N <= M_j."""


class NotInKnj(WorkbenchError):
    """The word is not an element of any carrier set."""


class NotInT(WorkbenchError):
    """Some prefix has more 2s than 1s."""


class NotInP(WorkbenchError):
    """The word lacks the infinite block shape with M-valued block runs."""


class InMuOmega(WorkbenchError):
    """The classification map is undefined on infinite products of mu-words."""


class LiteralSyntaxError(WorkbenchError):
    """Malformed word literal; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def check_count(value, what: str, error=WorkbenchError, signed: bool = False):
    """value, if it is a count: an int, not a bool, at least 0 unless signed;
    anything else raises error.  Every count, index and bound passes here."""
    if type(value) is not int or value < 0 and not signed:
        got = "a negative int" if type(value) is int else repr(value)
        raise error(f"{what} must be one of the {'' if signed else 'nonnegative '}ints, not {got}")
    return value


def check_size(size):
    """size, if it is an alphabet size: an int, not a bool, from 2 to 4."""
    if type(size) is not int or not 2 <= size <= 4:
        raise WorkbenchError(f"unsupported alphabet size {size!r}")
    return size


def all_bits(values) -> bool:
    """True iff every value is a bit: the int 0 or 1, not a bool or 1.0."""
    return all(type(b) is int and b in (0, 1) for b in values)
