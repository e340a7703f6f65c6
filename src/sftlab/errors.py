"""Exception types shared across the package."""


class SftlabError(Exception):
    """Base class for all package-specific errors."""


class NotTransitive(SftlabError):
    """The transition graph on letters is not strongly connected."""


class EmptySubshift(SftlabError):
    """No bi-infinite admissible sequence exists for the given transitions."""


class NotStochastic(SftlabError):
    """A transition matrix has a row that does not sum to one (or negative entries)."""


class SupportViolation(SftlabError):
    """Transition probabilities are not supported exactly on the allowed pairs."""


class SingularEnergy(SftlabError):
    """k is an integer multiple of pi (sin k = 0), where the edge solutions degenerate."""


class ParseError(SftlabError):
    """A config file is malformed or fails schema validation."""


class UnknownSubcommand(SftlabError):
    """The requested CLI subcommand does not exist."""
