"""Exception types shared across the library."""


class DomcertError(Exception):
    """Base class for all library errors."""


class GraphConstructionError(DomcertError):
    """Invalid vertex ids, loops, or duplicate edges while building a graph."""


class Graph6FormatError(DomcertError):
    """Malformed graph6 input (bad length, byte range, or trailing garbage)."""


class EdgeListFormatError(DomcertError):
    """Malformed edge-list text input."""


class DisconnectedGraphError(DomcertError):
    """An operation that requires a connected graph received a disconnected one."""


class PreconditionError(DomcertError):
    """A documented operation precondition was violated by the caller."""


class SearchBudgetError(DomcertError):
    """An exact search visited more nodes than its caller allowed."""


class WitnessContradictionError(DomcertError):
    """A certified bound was violated yet no forbidden witness could be assembled.

    Raising this indicates a bug in the implementation, not bad input: the
    extraction procedure is guaranteed to succeed whenever a bound trips.
    """
