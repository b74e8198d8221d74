"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error JSON.
"""

from __future__ import annotations


class RelayoptError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class GraphError(RelayoptError):
    """Invalid graph description (loop, duplicate edge, bad terminals, ...)."""

    code = "bad-graph"


class InstructionError(RelayoptError):
    """Triple that is not a valid instruction for the host graph."""

    code = "bad-instruction"


class UnknownVertexError(RelayoptError):
    code = "unknown-vertex"


class ProbabilityError(RelayoptError):
    """Edge probability assignment outside (0,1) or malformed."""

    code = "bad-probability"


class FormatError(RelayoptError):
    """Malformed JSON input."""

    code = "bad-format"


class InfiniteProtocolError(RelayoptError):
    """Operation requires a finite protocol but got an infinite one."""

    code = "infinite-protocol"


class GuardExceededError(RelayoptError):
    """A resource guard (edge count, candidate count, ...) was exceeded."""

    code = "guard-exceeded"


class ZeroPolynomialError(RelayoptError):
    """Profile of the zero polynomial is undefined."""

    code = "zero-polynomial"


class DomainError(RelayoptError, ValueError):
    """Argument outside the domain of a construction or expansion (an even
    breakpoint order, an empty profile, disconnected terminals, ...)."""

    code = "bad-argument"
