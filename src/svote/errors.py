"""Exception types shared across the simulator."""


class SvoteError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SvoteError):
    """Invalid experiment configuration (bad key, type, range, or missing file)."""


class FormatError(SvoteError):
    """Malformed input file (IDX magic, truncation, count mismatch)."""


class ProtocolError(SvoteError):
    """Round-engine contract violation (empty aggregation, length mismatch, non-neighbor send)."""


class GraphError(SvoteError):
    """Topology generation failed."""


class MetricError(SvoteError):
    """Metric undefined for the given inputs (e.g. empty prediction set)."""


class CompareError(SvoteError):
    """Run comparison rejected (incompatible experiment configs)."""
