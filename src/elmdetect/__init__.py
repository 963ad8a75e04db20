"""elmdetect: health misinformation detection with dual-route text features
and a from-scratch CNN-LSTM classifier, plus the comparison harness around it."""

from .corpus import (
    Document,
    DocumentSet,
    FoldPlan,
    clean_text,
    load_dataset,
    stratified_folds,
)
from .features import (
    FEATURE_NAMES,
    FeatureExtractor,
    FeatureScaler,
)
from .evaluation import (
    auc,
    confusion,
    cross_validate,
    metrics,
    roc_curve,
)
from .significance import paired_t_test, wilcoxon_signed_rank
from .textstats import (
    count_sentences,
    count_syllables,
    load_lexicon,
    tokenize,
)
from .training import (
    TrainConfig,
    TrainedModel,
    adam_step,
    bce_loss,
    load_model,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Document", "DocumentSet", "FoldPlan", "clean_text", "load_dataset", "stratified_folds",
    "FEATURE_NAMES", "FeatureExtractor", "FeatureScaler",
    "confusion", "metrics", "roc_curve", "auc", "cross_validate",
    "wilcoxon_signed_rank", "paired_t_test",
    "tokenize", "count_sentences", "count_syllables", "load_lexicon",
    "TrainConfig", "TrainedModel", "train", "bce_loss", "adam_step",
    "save_model", "load_model",
]
