"""Exception taxonomy.

Data problems (unusable files or input values) and numerical failures
(singular systems, overflow) live on separate branches so that callers --
the command line in particular -- can map them to distinct exit codes.
"""


class LogsaeError(Exception):
    """Base class for every error raised by this package."""


class DataError(LogsaeError):
    """A dataset or input value is unusable."""


class ParseError(DataError):
    """Input could not be read as areas, from a file or from columns; the
    message pinpoints where."""


class NonPositiveValue(DataError):
    """A raw-scale value that must be strictly positive is not."""


class NonPsdSigma(DataError):
    """A measurement-error covariance matrix is not symmetric PSD."""


class InsufficientAreas(DataError):
    """Too few areas for the requested computation."""


class NumericalError(LogsaeError):
    """A computation failed numerically.

    ``index``, when set, is the position of the first offending entry of
    the stacked area arrays the kernel was given, so that a caller holding
    area ids can name the area.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegenerateVariance(NumericalError):
    """Every variance component is zero, so shrinkage is undefined."""


class SingularMomentMatrix(NumericalError):
    """The weighted moment system is singular or numerically unsolvable."""


class PredictionOverflow(NumericalError):
    """An exponent left the representable double range.

    Results are reported as errors rather than silently saturated to 0 or
    inf, because a saturated prediction or variance term is meaningless.
    """
