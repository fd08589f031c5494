import re
from pathlib import Path

import hbow

# The public surface, sorted. Adding or removing an export shows up here as a
# one-line diff.
PUBLIC_NAMES = [
    "BowVector", "ClusterConfig", "ClusterResult", "ConfigError", "CorpusConsistencyError",
    "DescriptorFileError", "DescriptorSet", "EVAL_COLUMNS", "FormatError",
    "InsufficientPointsError", "InternalInvariantError", "QuantReport", "RetrievalDatabase",
    "RetrievalReport", "Strategy", "SynthConfig", "SynthSequence", "TrainConfig",
    "TrainResult", "Vocabulary", "VocabularyFileError", "__version__", "assign_word_ids",
    "binarize_matrix", "brb_kmeans", "compare_strategies", "compute_idf", "hamming_cdist",
    "hamming_rows", "hamming_to_all", "kmajority", "kmeanspp_seed", "lloyd_real",
    "load_vocabulary", "lookup_words", "majority_centroid",
    "quantization_report", "read_descriptors", "read_vocab_json", "read_vocab_text",
    "realize_matrix", "retrieval_report", "save_vocabulary", "score_l1", "synth_sequence",
    "train", "train_result", "transform", "transform_set", "validate_structure",
    "write_descriptors", "write_rows_csv", "write_rows_json", "write_vocab_json",
    "write_vocab_text",
]


def test_public_surface_is_pinned_and_resolves():
    assert sorted(hbow.__all__) == PUBLIC_NAMES
    assert len(set(hbow.__all__)) == len(hbow.__all__)
    for name in hbow.__all__:
        assert hasattr(hbow, name), name


def test_readme_quick_start_runs(capsys):
    # the README's one python block is the documented library API; running it
    # keeps that API from going stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    words, hits = capsys.readouterr().out.splitlines()
    assert words.startswith("1000 words,")
    assert hits.startswith("[(7, 1.0), ")
