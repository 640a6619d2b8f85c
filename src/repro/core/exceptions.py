"""Exception hierarchy for the ``repro`` package.

All exceptions raised by the library derive from :class:`ReproError`, so
client code can catch a single base class.  More specific subclasses are
provided for the main failure modes a user is expected to handle
programmatically:

* :class:`InvalidSocError` -- the SOC description itself is malformed
  (negative pattern counts, duplicate module names, empty SOC, ...).
* :class:`InfeasibleDesignError` -- the SOC is valid but cannot be tested on
  the given ATE (some module does not fit in the vector memory even with all
  available channels, or the channel budget is exhausted).
* :class:`ParseError` -- an ITC'02 ``.soc`` file could not be parsed.
* :class:`ConfigurationError` -- an optimisation or experiment was configured
  with inconsistent parameters (e.g. a negative index time or a yield
  outside ``[0, 1]``).
* :class:`StoreError` -- a persistent result-store record cannot be encoded
  or decoded (unregistered type, malformed payload).  Reads through
  :class:`repro.store.PackedResultStore` treat it as a cache miss; it only
  surfaces to callers that use the serialisation layer directly.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidSocError(ReproError):
    """Raised when an SOC description violates a structural invariant."""


class InfeasibleDesignError(ReproError):
    """Raised when no test infrastructure satisfies the ATE constraints.

    The paper's Step 1 exits when a module requires more channels than the
    ATE provides, or when the channel budget is exceeded while assigning
    modules to channel groups.  Both situations map onto this exception.
    """

    def __init__(self, message: str, module_name: str | None = None):
        super().__init__(message)
        #: Name of the module that triggered the infeasibility, if known.
        self.module_name = module_name


class ParseError(ReproError):
    """Raised when an ITC'02 ``.soc`` file cannot be parsed.

    Carries the file name and line number (1-based) when available so error
    messages can point the user at the offending line.
    """

    def __init__(self, message: str, filename: str | None = None, line: int | None = None):
        location = ""
        if filename is not None:
            location += f"{filename}"
        if line is not None:
            location += f":{line}"
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.filename = filename
        self.line = line


class ConfigurationError(ReproError):
    """Raised when user-supplied parameters are inconsistent or out of range."""


class StoreError(ReproError):
    """Raised when a result-store payload cannot be encoded or decoded."""


class ServiceError(ReproError):
    """Raised when a campaign-service request fails.

    Covers both transport failures (server unreachable, connection dropped)
    and protocol-level rejections (the server answered with an error
    payload).  ``status`` carries the HTTP status code when one was
    received, ``None`` for pure transport failures.
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status
