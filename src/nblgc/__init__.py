"""Non-binary local gradient contour features and classification.

Pipeline: normalize a PGM image to [0, 1] by its own maximum, tile into
non-overlapping 3x3 blocks, and reduce each block to one number: the
center-pixel membership weight (center divided by the window fuzzifier)
times the -G*ln(G) entropy of a gradient contour G summed along closed
loops over the block's 8-pixel ring. Classify the resulting vectors
with KNN under a logarithmic distance or a one-vs-one polynomial SVM.
"""

from .classify import (
    BinaryMachine,
    KnnModel,
    LabeledSample,
    SvmModel,
    check_svm_settings,
    distance_rows,
    knn_predict,
    load_model,
    save_model,
    svm_predict,
    svm_train,
)
from .contours import ContourVariant, contours
from .evaluation import (
    ClassifierConfig,
    EvalReport,
    RocPoint,
    SplitSpec,
    evaluate,
    kfold,
    roc_far_gar,
    split_per_class,
    write_folds_csv,
    write_report_csv,
    write_roc_csv,
)
from .features import (
    FeatureVector,
    block_features,
    block_values,
    entropy_features,
    extract,
    extract_many,
    read_features_csv,
    write_features_csv,
)
from .image_io import (
    DatasetEntry,
    DatasetError,
    GrayImage,
    PgmParseError,
    RawImage,
    load_dataset,
    normalize_unit,
    parse_pgm,
    resize_bilinear,
    write_pgm,
)
from .infoset import (
    FuzzifierRef,
    center_memberships,
    fuzzifiers,
    reference_values,
)

__version__ = "0.1.0"
