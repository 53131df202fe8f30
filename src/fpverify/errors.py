"""Exception and warning types shared across the toolkit."""


class FingerprintError(Exception):
    """Base class for all toolkit errors."""


class MalformedHeader(FingerprintError):
    """Minutiae file does not start with the expected format header."""


class MalformedLine(FingerprintError):
    """A data line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicatePoint(FingerprintError):
    """Two minutiae share identical (x, y) coordinates."""

    def __init__(self, line_no: int, message: str = "duplicate minutia coordinates"):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptySet(FingerprintError):
    """An operation that requires points received an empty set."""


class BadThreshold(FingerprintError):
    """The MHD threshold tau is not a positive finite number."""


class MalformedImage(FingerprintError, ValueError):
    """A PGM image file is malformed. Also a ValueError, for callers that catch that."""


class ImageTooSmall(FingerprintError):
    """Image is smaller than one 16x16 block."""


class NoForeground(FingerprintError):
    """No 2x2 window of foreground blocks available for core detection."""


class EmptyTrainingSet(FingerprintError):
    """Map training was invoked without training vectors."""


class UntrainedMap(FingerprintError):
    """Classification requested on a map that was never trained or labeled."""


class TooFewPoints(FingerprintError):
    """Fewer minutiae than requested clusters."""


class MissingCore(FingerprintError):
    """Operation requires a core point but none is available."""


class SingletonGraph(FingerprintError):
    """Graph construction needs at least two centroids."""


class DuplicateId(FingerprintError):
    """A record with this id is already enrolled."""


class UnknownId(FingerprintError):
    """No enrolled record with this id."""


class ZeroTrials(FingerprintError):
    """Rate computation with zero trials."""


class ConfigInfeasible(FingerprintError):
    """Synthetic generation could not satisfy its constraints."""


class EmptyScenario(FingerprintError):
    """Evaluation scenario defines no trials."""


class LowConfidenceCoreWarning(UserWarning):
    """Core detector found no window with a singular-point signature."""


class NearTieWarning(UserWarning):
    """Distance ties close enough to threaten deterministic invariance."""
