"""Hierarchical binary bag-of-words vocabularies for place recognition.

Train a k-ary tree of binary centroids over bit-packed descriptors (three
strategies: Hamming k-majority, per-node binary-real-binary k-means, or a
global real-domain flow that binarizes only at the leaves), quantize images
into tf-idf weighted bag-of-words vectors, and retrieve matches through an
inverted index with L1 scoring.
"""

from .bow import BowVector, RetrievalDatabase, score_l1, transform, transform_set
from .clustering import (
    ClusterConfig,
    ClusterResult,
    brb_kmeans,
    kmajority,
    kmeanspp_seed,
    lloyd_real,
)
from .descriptors import (
    DescriptorSet,
    binarize_matrix,
    hamming_cdist,
    hamming_rows,
    hamming_to_all,
    majority_centroid,
    realize_matrix,
)
from .errors import (
    ConfigError,
    CorpusConsistencyError,
    DescriptorFileError,
    FormatError,
    InsufficientPointsError,
    InternalInvariantError,
    VocabularyFileError,
)
from .evaluation import (
    EVAL_COLUMNS,
    QuantReport,
    RetrievalReport,
    SynthConfig,
    SynthSequence,
    compare_strategies,
    quantization_report,
    retrieval_report,
    synth_sequence,
    write_rows_csv,
    write_rows_json,
)
from .io import (
    load_vocabulary,
    read_descriptors,
    read_vocab_json,
    read_vocab_text,
    save_vocabulary,
    write_descriptors,
    write_vocab_json,
    write_vocab_text,
)
from .vocabulary import (
    Strategy,
    TrainConfig,
    TrainResult,
    Vocabulary,
    assign_word_ids,
    compute_idf,
    lookup_words,
    train,
    train_result,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BowVector", "RetrievalDatabase", "score_l1", "transform", "transform_set",
    "ClusterConfig", "ClusterResult", "brb_kmeans", "kmajority", "kmeanspp_seed", "lloyd_real",
    "DescriptorSet", "binarize_matrix",
    "hamming_cdist", "hamming_rows", "hamming_to_all", "majority_centroid", "realize_matrix",
    "ConfigError", "CorpusConsistencyError", "DescriptorFileError", "FormatError",
    "InsufficientPointsError", "InternalInvariantError", "VocabularyFileError",
    "EVAL_COLUMNS", "QuantReport", "RetrievalReport", "SynthConfig", "SynthSequence",
    "compare_strategies", "quantization_report", "retrieval_report",
    "synth_sequence", "write_rows_csv", "write_rows_json",
    "load_vocabulary", "read_descriptors", "read_vocab_json", "read_vocab_text",
    "save_vocabulary", "write_descriptors", "write_vocab_json", "write_vocab_text",
    "Strategy", "TrainConfig", "TrainResult", "Vocabulary",
    "assign_word_ids", "compute_idf", "lookup_words",
    "train", "train_result", "validate_structure",
    "__version__",
]
