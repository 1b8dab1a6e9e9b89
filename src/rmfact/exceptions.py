"""Error taxonomy shared by the whole package.

The CLI maps these onto process exit codes by the roots of the
taxonomy: input/parse problems exit with 2, verification failures with
4, and every other error (structural, factorization, evaluation) with 3.
"""


class RmfactError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RmfactError):
    """Malformed caller input: dimension mismatch, non-finite entries,
    incompatible time-domain tags."""


class ParseError(InputError):
    """A system file could not be parsed; message carries field context."""


class StructureError(RmfactError):
    """The data violates a structural prerequisite, e.g. a singular
    pencil where a regular one is required, or a stabilizability
    violation (the message names the offending eigenvalue)."""


class FactorizationError(RmfactError):
    """A requested factorization does not exist or could not be
    computed (boundary zeros/poles, Riccati solver failure)."""


class EvaluationError(RmfactError):
    """Evaluation point coincides with a pole to working precision."""


class VerificationError(RmfactError):
    """A residual check exceeded its threshold."""
