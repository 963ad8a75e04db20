"""Exception types raised across the package."""


class ElmDetectError(Exception):
    """Base class for all package-specific errors."""


# corpus
class MalformedRowError(ElmDetectError):
    """A CSV row could not be parsed (bad quoting or wrong column count)."""


class MissingTextColumnError(ElmDetectError):
    """The dataset header has no column named 'text' (case-insensitive)."""


class TooFewDocumentsError(ElmDetectError):
    """A class has fewer members than the requested fold count."""


# text analysis
class MalformedLineError(ElmDetectError):
    """A lexicon line could not be parsed (reported with line number)."""


# features
class EmptyTrainingSetError(ElmDetectError):
    """An estimator was fitted or trained on zero rows."""


# network
class IndexOutOfVocabError(ElmDetectError):
    """A token id is outside the embedding table."""


class SequenceTooShortError(ElmDetectError):
    """Input sequence is shorter than the convolution kernel."""


class EmptySequenceError(ElmDetectError):
    """An LSTM input with zero timesteps."""


class DimensionMismatchError(ElmDetectError):
    """Layer input dimension does not match the layer's weights."""


class ShapeMismatchError(ElmDetectError):
    """Parameter and gradient shapes disagree."""


# trainer
class SingleClassTrainingSetError(ElmDetectError):
    """The training set contains only one class."""


# evaluator
class LengthMismatchError(ElmDetectError):
    """Score and label lists have different lengths."""


class EmptyEvaluationError(ElmDetectError):
    """Confusion or metrics requested for zero documents."""


class SingleClassLabelsError(ElmDetectError):
    """ROC/AUC is undefined when only one class is present."""


class NonFiniteScoreError(ElmDetectError):
    """A score is NaN or infinite, as the scores of a diverged model are."""


# stats
class TooFewPairsError(ElmDetectError):
    """A paired test needs at least two pairs."""


class AllZeroDifferencesError(ElmDetectError):
    """Every paired difference is zero; the signed-rank test is undefined."""


class ZeroVarianceError(ElmDetectError):
    """Paired differences have zero variance; the t statistic is undefined."""
