"""Shared exception types, mapped to CLI exit codes."""


class ValidationError(ValueError):
    """Bad input: wrong shapes, violated preconditions, malformed files. Exit code 2."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its tolerance. Exit code 3."""


class NoSolutionError(ConvergenceError):
    """A linear problem that must be solved exactly has no solution at tolerance."""
