"""Exception types shared across the package.

Exit-code convention (used by the CLI): 2 parameter / parse errors, 3 resource
guards or out of memory, 4 numerical non-convergence or a non-finite report
value, 130 KeyboardInterrupt.
"""


class GwelError(Exception):
    exit_code = 1


class ParameterError(GwelError):
    exit_code = 2


class RankMismatchError(ParameterError):
    pass


class DistributionError(ParameterError):
    pass


class ParseError(ParameterError):
    """Parse failure with a 1-based character position into the input text."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        self.raw = message
        if position is not None:
            message = f"position {position}: {message}"
        super().__init__(message)


class ResourceGuardError(GwelError):
    exit_code = 3


class CosetLimitError(ResourceGuardError):
    pass


class ConvergenceError(GwelError):
    exit_code = 4
