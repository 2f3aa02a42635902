"""Tag recommendation for Q&A posts, end to end.

Streaming dump ingestion, tag vocabulary construction, byte-level BPE,
a from-scratch transformer stack with reverse-mode autodiff, multi-label
training, and a ranking-metrics evaluation harness with significance tests
and a latency benchmark.
"""

from .encoder import Encoder, EncoderConfig, pool
from .eval import (
    EffectSize,
    EvalInstance,
    LatencyStats,
    MetricsReport,
    cliffs_delta,
    evaluate_corpus,
    f1_at_k,
    latency_bench,
    missed_tag_analysis,
    precision_at_k,
    recall_at_k,
    wilcoxon_signed_rank,
)
from .ingest import (
    DecomposedPost,
    ParseStats,
    RawPost,
    chronological_split,
    decompose,
    parse_dump,
    read_corpus,
    write_corpus,
)
from .model import (
    ModelConfig,
    Prediction,
    TripletModel,
    load_checkpoint,
    predict_top_k,
    save_checkpoint,
)
from .tokenizer import TokenSequence, Tokenizer, decode, encode, tokenize, train_tokenizer
from .train import TrainConfig, bce_loss, build_dataset, target_vector, train
from .vocab import TagVocabulary, build_tag_vocab, filter_posts

__version__ = "0.1.0"
