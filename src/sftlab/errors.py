"""Exception types shared across the package."""


class SftlabError(Exception):
    """Base class for all package-specific errors."""


class NotTransitive(SftlabError):
    """The transition graph on letters is not strongly connected."""


class EmptySubshift(SftlabError):
    """No bi-infinite admissible sequence exists for the given transitions."""


class RangeMismatch(SftlabError):
    """Two windows do not cover a common symmetric index range."""


class NotStochastic(SftlabError):
    """A transition matrix has a row that does not sum to one (or negative entries)."""


class SupportViolation(SftlabError):
    """Transition probabilities are not supported exactly on the allowed pairs."""


class SingularEnergy(SftlabError):
    """k is an integer multiple of pi (sin k = 0), where the edge solutions degenerate."""


class NotInStableSet(SftlabError):
    """The second window does not share the forward tail of the first."""


class NotInUnstableSet(SftlabError):
    """The second window does not share the backward tail of the first."""


class ParabolicOrCentral(SftlabError):
    """The matrix has trace^2 = 4: either a unique invariant direction or +/-Id.

    ``direction`` carries the unique invariant direction when there is one;
    ``central`` is True when the matrix is +/-Id and every direction is invariant.
    """

    def __init__(self, message, direction=None, central=False):
        super().__init__(message)
        self.direction = direction
        self.central = central


class ParseError(SftlabError):
    """A config file is malformed or fails schema validation."""


class UnknownSubcommand(SftlabError):
    """The requested CLI subcommand does not exist."""
