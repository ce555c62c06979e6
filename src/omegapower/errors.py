"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for domain errors raised by this package."""


class AlphabetMismatch(WorkbenchError):
    """Operands declare different alphabet sizes."""


class NotAPrefix(WorkbenchError):
    """suffix_from was handed a word that is not a prefix of the target."""


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
