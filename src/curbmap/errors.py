"""Exception types shared across the pipeline."""

import copyreg


class CurbmapError(Exception):
    """Base class for all domain errors raised by this package.

    Instances pickle as their args and attributes and unpickle without
    calling __init__, so a message a subclass formats is not formatted
    again when the error crosses a process boundary.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseError(CurbmapError):
    """Malformed input file. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(CurbmapError):
    """Bad magic, version, or structure in a binary artifact."""


class EmptyInputError(CurbmapError):
    """An operation that requires at least one point received none."""


class ChannelMissingError(CurbmapError):
    """A required per-point channel is absent from the cloud."""

    def __init__(self, name):
        super().__init__(f"required channel {name!r} is missing")
        self.name = name


class FrameMismatchError(CurbmapError):
    """Inputs do not share a coordinate frame (disjoint extents)."""


class PipelineError(CurbmapError):
    """A pipeline stage failed. Names the stage and wraps the cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
