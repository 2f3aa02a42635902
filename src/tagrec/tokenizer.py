"""Byte-level BPE tokenizer and fixed-length sequence packing.

The base alphabet is the 256 byte values plus four special tokens; merges are
learned greedily by highest pair count (ties broken by the lexicographically
smallest pair of token byte strings) and never cross whitespace-run
boundaries. Training is deterministic and seed-free: the same corpus and
target size always yield the same merge list.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

BYTE_TOKENS = 256
PAD_ID = 256
UNK_ID = 257
CLS_ID = 258
SEP_ID = 259
NUM_SPECIALS = 4
BASE_VOCAB = BYTE_TOKENS + NUM_SPECIALS

SPECIAL_IDS = {"pad": PAD_ID, "unk": UNK_ID, "cls": CLS_ID, "sep": SEP_ID}

TRUNCATION_STRATEGIES = ("head_only", "tail_only")

# Chunks are runs of non-space or space bytes; merges stay inside a chunk.
_CHUNK_RE = re.compile(r"\S+|\s+")

TOKENIZER_FORMAT_VERSION = 1


class TokenizerError(ValueError):
    """Invalid tokenizer configuration or serialized form."""


@dataclass
class TokenSequence:
    """Fixed-length encoded text: ids padded to max_len, mask true on real tokens."""

    ids: np.ndarray
    mask: np.ndarray

    @property
    def length(self) -> int:
        return int(self.mask.sum())


class Tokenizer:
    """Byte-level BPE with a fixed merge list."""

    def __init__(self, merges: list[tuple[int, int]]) -> None:
        self.merges = [tuple(m) for m in merges]
        self.vocab_size = BASE_VOCAB + len(self.merges)
        self._rank = {pair: i for i, pair in enumerate(self.merges)}
        self._token_bytes = _build_token_bytes(self.merges)

    def to_json(self) -> str:
        payload = {
            "format_version": TOKENIZER_FORMAT_VERSION,
            "vocab_size": self.vocab_size,
            "specials": SPECIAL_IDS,
            "merges": [list(m) for m in self.merges],
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Tokenizer":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TokenizerError(f"tokenizer file is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "merges" not in payload:
            raise TokenizerError("tokenizer file missing 'merges'")
        if payload.get("format_version") != TOKENIZER_FORMAT_VERSION:
            raise TokenizerError(f"unsupported tokenizer format_version {payload.get('format_version')!r}")
        merges = []
        for entry in payload["merges"]:
            if not (isinstance(entry, list) and len(entry) == 2 and all(type(v) is int for v in entry)):
                raise TokenizerError(f"malformed merge entry {entry!r}")
            merges.append((entry[0], entry[1]))
        tok = cls(merges)
        if payload.get("vocab_size") != tok.vocab_size:
            raise TokenizerError(
                f"vocab_size {payload.get('vocab_size')} does not match {len(merges)} merges"
            )
        return tok


def _build_token_bytes(merges: list[tuple[int, int]]) -> list[bytes]:
    table = [bytes([i]) for i in range(BYTE_TOKENS)]
    table += [b""] * NUM_SPECIALS
    for left, right in merges:
        # Each side names a byte or an earlier merge, never a special token.
        if not all(0 <= v < BYTE_TOKENS or BASE_VOCAB <= v < len(table) for v in (left, right)):
            raise TokenizerError(f"merge ({left}, {right}) references unknown token")
        table.append(table[left] + table[right])
    return table


def _merge_word(word: tuple[int, ...], pair: tuple[int, int], new_id: int) -> tuple[int, ...]:
    out: list[int] = []
    i = 0
    n = len(word)
    while i < n:
        if i + 1 < n and word[i] == pair[0] and word[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def train_tokenizer(corpus_text: str, vocab_size: int) -> Tokenizer:
    """Learn merges on corpus_text until the vocabulary reaches vocab_size.

    vocab_size below the 260-token floor is a configuration error. If the
    corpus runs out of repeatable pairs early the tokenizer simply has fewer
    merges than requested.
    """
    if vocab_size < BASE_VOCAB:
        raise TokenizerError(f"vocab_size {vocab_size} is below the {BASE_VOCAB}-token floor")

    # Aggregate identical chunks: pair statistics scale with distinct chunks,
    # not corpus length.
    words: dict[tuple[int, ...], int] = {}
    for chunk, count in Counter(_CHUNK_RE.findall(corpus_text)).items():
        words[tuple(chunk.encode("utf-8"))] = count

    token_bytes = _build_token_bytes([])

    pair_counts: Counter = Counter()
    pair_words: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    for word, count in words.items():
        for pair in zip(word, word[1:]):
            pair_counts[pair] += count
            pair_words.setdefault(pair, set()).add(word)

    merges: list[tuple[int, int]] = []
    while BASE_VOCAB + len(merges) < vocab_size:
        top = max(pair_counts.values(), default=0)
        if top == 0:
            log.warning(
                "tokenizer training exhausted pairs at vocab %d of requested %d",
                BASE_VOCAB + len(merges), vocab_size,
            )
            break
        # Spent pairs keep their zero count: dict order settles exact byte ties.
        tied = (p for p, c in pair_counts.items() if c == top)
        best = min(tied, key=lambda p: (token_bytes[p[0]], token_bytes[p[1]]))
        new_id = BASE_VOCAB + len(merges)
        merges.append(best)
        token_bytes.append(token_bytes[best[0]] + token_bytes[best[1]])

        # Merged-away words stay listed under their other pairs and are skipped
        # here: each held a merged pair, which no later merge can rebuild.
        for word in pair_words.pop(best):
            if word not in words:
                continue
            count = words.pop(word)
            for pair in zip(word, word[1:]):
                pair_counts[pair] -= count
            merged = _merge_word(word, best, new_id)
            words[merged] = words.get(merged, 0) + count
            for pair in zip(merged, merged[1:]):
                pair_counts[pair] += count
                pair_words.setdefault(pair, set()).add(merged)

    return Tokenizer(merges)


def tokenize(tok: Tokenizer, text: str) -> list[int]:
    """Text to content token ids (no specials, no padding)."""
    ids: list[int] = []
    for chunk in _CHUNK_RE.findall(text):
        ids.extend(_encode_chunk(tok, chunk.encode("utf-8")))
    return ids


def _encode_chunk(tok: Tokenizer, raw: bytes) -> list[int]:
    word = list(raw)
    if len(word) < 2:
        return word
    ranks = tok._rank
    while True:
        best_rank = None
        best_pair = None
        for pair in zip(word, word[1:]):
            r = ranks.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_pair = pair
        if best_pair is None:
            return word
        word = list(_merge_word(tuple(word), best_pair, BASE_VOCAB + best_rank))
        if len(word) < 2:
            return word


def decode(tok: Tokenizer, ids: list[int]) -> str:
    """Token ids back to text; specials vanish, stray bytes are replaced."""
    return b"".join(tok._token_bytes[i] for i in ids).decode("utf-8", errors="replace")


def encode(tok: Tokenizer, text: str, max_len: int, strategy: str = "head_only") -> TokenSequence:
    """Pack text into exactly max_len ids: CLS, truncated content, SEP, PAD fill.

    head_only keeps the first max_len - 2 content tokens, tail_only the last.
    """
    if strategy not in TRUNCATION_STRATEGIES:
        raise TokenizerError(f"unknown truncation strategy {strategy!r}")
    if max_len < 2:
        raise TokenizerError(f"max_len {max_len} cannot fit CLS and SEP")
    content = tokenize(tok, text)
    budget = max_len - 2
    if len(content) > budget:
        content = content[:budget] if strategy == "head_only" else content[len(content) - budget:]
    ids = np.full(max_len, PAD_ID, dtype=np.int32)
    ids[0] = CLS_ID
    ids[1 : 1 + len(content)] = content
    ids[1 + len(content)] = SEP_ID
    mask = np.zeros(max_len, dtype=bool)
    mask[: len(content) + 2] = True
    return TokenSequence(ids=ids, mask=mask)
