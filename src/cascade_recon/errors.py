"""Exception types shared across the package."""


class CascadeReconError(Exception):
    """Base class for all errors raised by cascade_recon."""


class ParseError(CascadeReconError):
    """Malformed input file (edge list, cascade file, mask spec, config)."""


class DatasetError(CascadeReconError):
    """A dataset violates a fitting precondition (hidden sources,
    mismatched horizons or widths, empty dataset)."""


class CapacityError(CascadeReconError):
    """Problem size exceeds what a brute-force or memory-heavy routine is
    willing to do."""
