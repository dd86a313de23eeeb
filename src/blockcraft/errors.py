"""Exception types shared across the package."""


class BlockcraftError(Exception):
    """Base class for all package-specific errors."""


class ResourceLimitError(BlockcraftError):
    """A computation was refused because its predicted work exceeds its budget."""


class UnsupportedRegimeError(BlockcraftError):
    """The requested parameters fall outside the regime the method is valid in."""


class CrossCheckError(BlockcraftError):
    """Two independent computation routes disagreed, or a guaranteed identity failed.

    This always indicates a bug (or a falsified mathematical claim), never bad
    user input.
    """


class UsageError(BlockcraftError):
    """Bad command-line arguments, unknown report format, or malformed config."""


class RefusalError(UsageError):
    """A check's parameters fail its precondition: an error on the CLI, a skip note in a sweep."""
