"""Exception types shared across the toolkit.

Exit-code mapping used by the CLI: InputError -> 2, ResourceLimitError -> 3.
A Turing-machine run that leaves its tape is no error: it is a valid run
that halts without accepting, reported by ``simulate_dtm`` as a verdict.
"""


class InputError(ValueError):
    """Malformed input or violated operation precondition."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap was exceeded; the message names the cap."""
