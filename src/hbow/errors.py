"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and usage problems exit 1,
data and file-format problems exit 2, internal invariant violations and any
other exception, a plain ValueError included, exit 3.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A parameter combination that can never be valid (bad k, depth, threshold, ...)."""


class CorpusConsistencyError(ValueError):
    """Descriptors of mixed or unexpected width/dtype mixed into one operation."""


class InsufficientPointsError(ValueError):
    """Fewer points than requested clusters."""


class FormatError(ValueError):
    """Base class for file parsing problems."""


class DescriptorFileError(FormatError):
    """Malformed binary descriptor file."""


class VocabularyFileError(FormatError):
    """Malformed vocabulary file (text or JSON)."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee the library itself is responsible for was broken."""
