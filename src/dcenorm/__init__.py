"""dcenorm: piecewise-linear intensity normalization for breast DCE-MRI.

The pipeline measures four per-subject tissue anchor intensities (air,
fat, dense tissue, heart), picks an archetype subject whose anchors
define a common intensity space, and maps every subject into that space
with a monotone piecewise-linear transform shared by all of the
subject's sequences. Evaluation utilities quantify how well the
transform removes scanner-parameter effects from tissue statistics and
radiomics features.
"""

from .anchors import AnchorSet, extract_anchors
from .errors import DcenormError, MissingInputError, NonFiniteDataError, SubjectError, ValidationError
from .evaluation import GroupingSpec, build_report, group_subjects, ks_statistic, roc_auc
from .features import (
    FeatureVector,
    extract_features,
    major_axis_length,
    read_features_csv,
    ser_map,
    washin_map,
    write_features_csv,
)
from .manifest import StudySeries, SubjectEntry, load_manifest, load_series
from .mapping import MappingFunction, apply_mapping, build_mapping, evaluate, export_mapping_curve
from .model import NormalizationModel, load_model, rank_subjects, save_model, train_archetype
from .phantom import GroupSpec, PhantomConfig, generate_phantom
from .segmentation import SegmentationConfig, classical_mask
from .volume import (
    TissueMask,
    Volume,
    load_external_mask,
    load_mask,
    load_volume,
    median_filter,
    percentile,
    save_mask,
    save_volume,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet",
    "DcenormError",
    "FeatureVector",
    "GroupSpec",
    "GroupingSpec",
    "MappingFunction",
    "MissingInputError",
    "NonFiniteDataError",
    "NormalizationModel",
    "PhantomConfig",
    "SegmentationConfig",
    "StudySeries",
    "SubjectEntry",
    "SubjectError",
    "TissueMask",
    "ValidationError",
    "Volume",
    "apply_mapping",
    "build_mapping",
    "build_report",
    "classical_mask",
    "evaluate",
    "export_mapping_curve",
    "extract_anchors",
    "extract_features",
    "read_features_csv",
    "write_features_csv",
    "generate_phantom",
    "group_subjects",
    "ks_statistic",
    "load_external_mask",
    "load_manifest",
    "load_mask",
    "load_model",
    "load_series",
    "load_volume",
    "major_axis_length",
    "median_filter",
    "percentile",
    "rank_subjects",
    "roc_auc",
    "save_mask",
    "save_model",
    "save_volume",
    "ser_map",
    "train_archetype",
    "washin_map",
    "__version__",
]
