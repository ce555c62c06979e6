"""Exception types shared across the workbench.

Each subclass names the condition an input failed: a carrier address
(N <= M_j), a carrier set, the language T, the block shape P, the
mu-products, or the literal grammar.  Any other bad input raises
WorkbenchError itself."""


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
