"""Non-binary local gradient contour features and classification.

Pipeline: normalize a PGM image to [0, 1] by its own maximum, tile into
non-overlapping 3x3 blocks, and reduce each block to one number: the
center-pixel membership weight (center divided by the window fuzzifier)
times the -G*ln(G) entropy of a gradient contour G summed along closed
loops over the block's 8-pixel ring. Classify the resulting vectors
with KNN under a logarithmic distance or a one-vs-one polynomial SVM.

Exports load on first use (PEP 562), so importing the package loads no
numpy: `from nblgc import X` imports only the module that defines X.
"""

import importlib

_EXPORTS = {
    "classify": ("BinaryMachine", "KnnModel", "LabeledSample", "SvmModel", "distance_rows", "knn_predict",
                 "load_model", "save_model", "svm_predict", "svm_train"),
    "evaluation": ("ClassifierConfig", "EvalReport", "RocPoint", "SplitSpec", "evaluate", "kfold", "roc_far_gar",
                   "split_per_class", "split_rows", "write_folds_csv", "write_report_csv", "write_roc_csv"),
    "features": ("FeatureVector", "block_features", "block_values", "entropy_features", "extract", "extract_dataset",
                 "extract_many", "read_features_csv", "write_features_csv"),
    "image_io": ("DatasetEntry", "GrayImage", "RawImage", "load_dataset", "normalize_unit", "parse_pgm",
                 "resize_bilinear", "write_pgm"),
    "infoset": ("center_memberships", "contours", "fuzzifiers", "reference_values"),
    "options": ("ContourVariant", "DatasetError", "FuzzifierRef", "PgmParseError", "check_svm_settings"),
}
# no export may share a submodule's name: importing the submodule would rebind it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
