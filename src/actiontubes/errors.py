"""Error taxonomy shared by the library and the command line tools.

Exit codes are assigned per error family so scripted callers can tell a
bad config from a malformed input file from a mid-run failure.
"""
from __future__ import annotations


class ActionTubesError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 4


class ConfigError(ActionTubesError):
    """Unknown config key, unparsable value, or a value out of range."""

    exit_code = 2


class InputError(ActionTubesError, ValueError):
    """Invalid argument or violated precondition on a library call."""

    exit_code = 3


class SchemaError(InputError):
    """Malformed record in an input file.

    Carries enough position information to point at the offending line.
    """

    exit_code = 3

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, field: str | None = None):
        self.path = path
        self.line = line
        self.field = field
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field '{field}'")
        prefix = ": ".join([", ".join(where)]) + ": " if where else ""
        super().__init__(prefix + message)


class ProcessingError(ActionTubesError):
    """A stage failed while processing otherwise well-formed inputs."""

    exit_code = 4
