"""Exception taxonomy shared across the package.

Four failure families, kept distinct so the CLI can map them to exit codes:
usage problems are argparse's business (exit 2), domain/precondition/resource
problems exit 3, certification failures exit 4.  A step that finds too
little arc energy raises nothing: the driver returns that as its outcome.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A documented entry condition of an operation does not hold."""


class ResourceError(RuntimeError):
    """A table, grid, or budget is too small for the requested computation."""


class CertificationError(RuntimeError):
    """A trace step failed independent recounting."""
