"""Exception types shared across the package."""


class BisqError(Exception):
    """Base class for package errors."""


class GraphParseError(BisqError):
    """Malformed edge-list input; message names the offending line."""


class DisjointnessError(BisqError):
    """A query violated the two-disjoint-sets contract."""


class NsDecodeError(BisqError):
    """Neighborhood-size decoding hit an empty count at the selected level."""


class RefineContractError(BisqError):
    """The query-free refinement phase touched the oracle."""
