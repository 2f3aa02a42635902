"""Tag recommendation for Q&A posts, end to end.

Streaming dump ingestion, tag vocabulary construction, byte-level BPE,
a from-scratch transformer stack with reverse-mode autodiff, multi-label
training, and a ranking-metrics evaluation harness with significance tests
and a latency benchmark.
"""

__version__ = "0.1.0"
