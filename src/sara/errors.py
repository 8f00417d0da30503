"""Exception types raised across the pair-selection pipeline."""


class SaraError(Exception):
    """Base class for all library errors."""


# dataset ingestion

class MissingFile(SaraError):
    """A manifest or feature file path does not exist."""


class CorruptFile(SaraError):
    """A file exists but cannot be parsed (bad magic, truncation, bad values)."""


class DuplicateImageId(SaraError):
    """Two manifest entries share an image id."""


class DimensionMismatch(SaraError):
    """Descriptor dimensions disagree between manifest and feature file."""


class NormalizationFailure(SaraError):
    """A descriptor is too far from unit norm to repair."""


class OutOfBoundsKeypoint(SaraError):
    """A keypoint lies outside the stated image bounds."""


# retrieval

class TooFewImages(SaraError):
    """Retrieval needs at least two images."""


class InvalidK(SaraError):
    """Neighbor count outside [1, N-1]."""


# two-view estimation: the robust search raises InsufficientCorrespondences,
# and returns NoModelFound or CheiralityAmbiguity as a search's result

class EstimationError(SaraError):
    """Base for two-view geometry failures."""


class InsufficientCorrespondences(EstimationError):
    """Fewer than eight correspondences supplied."""


class NoModelFound(EstimationError):
    """Every robust-search hypothesis was degenerate or under-supported."""


class CheiralityAmbiguity(EstimationError):
    """No pose decomposition places a majority of points in front of both cameras."""


# view graph

class EmptyScoreSet(SaraError):
    """Graph construction received no scored pairs."""


# synthetic scenes

class GenerationFailure(SaraError):
    """Scene generation could not satisfy visibility requirements."""
