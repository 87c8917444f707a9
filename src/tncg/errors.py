"""Exception types shared across the package."""


class TncgError(Exception):
    """Base class for package-specific failures."""


class FormatError(TncgError):
    """A text artifact (graph, profile, set-cover file) failed to parse.

    Carries enough position information for line-precise diagnostics.
    """

    def __init__(self, path: str, line: int | None, reason: str):
        self.path = path
        self.line = line
        self.reason = reason
        loc = f"{path}:{line}" if line is not None else path
        super().__init__(f"{loc}: {reason}")


class SearchSpaceExceeded(TncgError):
    """An exact search hit its evaluation budget before proving optimality.

    `lower` and `upper` bracket the optimum where the search knows one, as
    `minimum_spanner` does (its root bound and its incumbent); otherwise
    they are None.
    """

    def __init__(self, message: str, lower: int | None = None, upper: int | None = None):
        self.lower = lower
        self.upper = upper
        super().__init__(message)


class PreconditionViolated(TncgError):
    """An operation was invoked on an input outside its stated domain."""


class NotTemporallyConnected(TncgError):
    """The graph does not admit temporal paths between all ordered pairs."""


class NotASpanner(TncgError):
    """A candidate subgraph or profile fails the full-reachability requirement."""
