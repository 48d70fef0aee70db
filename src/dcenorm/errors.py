"""Exception hierarchy shared across the package.

Only classes that some code tells apart exist:

- ``cli.main`` maps ``MissingInputError`` (a referenced file does not
  exist) to exit code 2, together with OS-level errors, and any other
  ``DcenormError`` to exit code 1.
- ``ValidationError`` covers every content failure: malformed or
  inconsistent files, configs, manifests, masks, models and flags.
  ``load_mask`` catches it to add the payload file, and
  ``evaluation.feature_aucs`` to report a feature whose AUC is undefined.
- ``load_volume`` and ``apply_mapping`` catch ``NonFiniteDataError`` to
  add the file or the subject to its message.
- ``SubjectError`` is one subject's failure: a segmentation stage that
  finds no tissue, an empty anchor tissue, or anchors that tie or would
  make the map decrease. ``segment`` catches it and skips the subject;
  every other stage lets it end the run.
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


class NonFiniteDataError(ValidationError):
    """Payload contains NaN or infinite values."""


class SubjectError(ValidationError):
    """One subject cannot be segmented or mapped: an empty tissue or degenerate anchors."""
