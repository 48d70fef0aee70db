"""Exception hierarchy shared across the package.

Two broad families matter to callers: validation failures (malformed or
inconsistent content) and missing-input failures (a referenced file does
not exist). The command line maps the former to exit code 1 and the
latter, together with OS-level errors, to exit code 2.
"""

from __future__ import annotations


class DcenormError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, *, path: object = None):
        if path is not None:
            message = f"{message} [{path}]"
        super().__init__(message)
        self.path = path


class ValidationError(DcenormError):
    """Content is present but malformed, inconsistent, or out of contract."""


class MissingInputError(DcenormError):
    """A required input file does not exist."""


class VolumeFormatError(ValidationError):
    """Volume sidecar or payload violates the file format contract."""


class NonFiniteDataError(VolumeFormatError):
    """Payload contains NaN or infinite values."""


class MaskError(ValidationError):
    """Tissue mask contains illegal labels or mismatched geometry."""


class ManifestError(ValidationError):
    """Dataset manifest is malformed."""


class SegmentationError(ValidationError):
    """A classical segmentation stage failed for a subject."""


class AnchorError(ValidationError):
    """Anchor extraction failed, typically due to an empty tissue."""


class DegenerateAnchorError(ValidationError):
    """Two anchor tissues share the same intensity value."""


class NonMonotoneModelError(ValidationError):
    """Anchor/model pairing would produce a decreasing mapping."""


class ModelFormatError(ValidationError):
    """Model file is unreadable or has an unknown format version."""


class ConfigError(ValidationError):
    """Configuration file contains unknown or invalid entries."""
