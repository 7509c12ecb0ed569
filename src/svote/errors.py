"""Exception types shared across the simulator, and the check of a count in a configuration."""

from numbers import Integral


class SvoteError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SvoteError):
    """Invalid experiment configuration (bad key, type, range, or missing file)."""


def is_count(value, floor: int) -> bool:
    """Whether value is an integer (a numpy integer included, a bool not) of at least floor.

    Not a float such as 2.0, which hashes as 2: a cache keyed on it would serve its float result to later 2s.
    """
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= floor


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
