"""The package's one exception type.

Every check that rejects its input raises ``ElmDetectError`` with a message
that names the check and the value it rejected. Callers catch the type, not
the kind of fault: the CLI prints the message as one ``error:`` line and
``evaluation`` records it in place of a significance test, and neither would
do anything different for a finer type. A subclass per check would only
repeat what its message already says.
"""


class ElmDetectError(Exception):
    """A check in the package rejected its input; the message says which."""
