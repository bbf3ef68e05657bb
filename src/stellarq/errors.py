"""Exception hierarchy with machine-readable error codes.

Every error carries a short ``code`` string so the CLI (and any other
front end) can map failures to stable identifiers without parsing
messages.
"""


class StellarQError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_dict(self):
        return {"error": self.code, "message": self.message, **self.details}


class DomainError(StellarQError):
    """An argument lies outside its mathematical domain."""

    code = "domain-error"


class CutoffError(StellarQError):
    """Fock truncation lost more probability mass than allowed."""

    code = "cutoff-error"


class UndefinedSubtractionError(StellarQError):
    """Photon subtraction applied to a state annihilated by it."""

    code = "undefined-subtraction"


class InfeasiblePrecisionError(StellarQError):
    """Requested precision is not larger than the estimator bias bound."""

    code = "infeasible-precision"


class InsufficientSamplesError(StellarQError):
    """Batch is smaller than the sample count required by the bound."""

    code = "insufficient-samples"


class UnsupportedTargetError(StellarQError):
    """Operation not available for this target operator."""

    code = "unsupported-target"


class OptimizerError(StellarQError):
    """The rank-bounded fidelity search found no ceiling.

    No restart converged, or the best restart stopped on the search box.
    """

    code = "optimizer-failure"


class UsageError(StellarQError):
    """Malformed CLI input (bad spec, missing file, schema violation)."""

    code = "usage-error"
