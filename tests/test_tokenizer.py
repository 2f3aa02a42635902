"""BPE training, encoding, truncation, and serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_bpe_merges
from tagrec.tokenizer import (
    BASE_VOCAB,
    CLS_ID,
    PAD_ID,
    SEP_ID,
    TokenizerError,
    Tokenizer,
    decode,
    encode,
    tokenize,
    train_tokenizer,
)


class TestTraining:
    def test_single_merge_on_aaaa(self):
        """'aaaa' at vocab 261 learns exactly the (a, a) merge."""
        tok = train_tokenizer("aaaa", 261)
        assert tok.merges == [(97, 97)]
        assert tok.vocab_size == 261
        assert tokenize(tok, "aaaa") == [260, 260]

    def test_deterministic_without_any_seed(self):
        corpus = "the cat sat on the mat and the cat ran"
        a = train_tokenizer(corpus, 280)
        b = train_tokenizer(corpus, 280)
        assert a.merges == b.merges

    def test_highest_count_pair_merges_first(self):
        # 'ab' occurs three times, 'cd' twice; first merge must be (a, b).
        tok = train_tokenizer("ab ab ab cd cd", 261)
        assert tok.merges == [(97, 98)]

    def test_count_ties_break_lexicographically(self):
        # 'zz' and 'aa' both occur twice; (a, a) sorts first.
        tok = train_tokenizer("zz aa zz aa", 261)
        assert tok.merges == [(97, 97)]

    def test_tie_heavy_corpus_matches_the_naive_recount(self):
        # Most picks are count ties. (aa, c) beats (b, c) because b"aa" < b"b",
        # though id 98 < 260: ties break on bytes, not ids.
        corpus = "aac bc aab abb baa bba\n\naac bc aab abb baa bba"
        merges = train_tokenizer(corpus, 290).merges
        assert merges == naive_bpe_merges(corpus, 290)
        assert merges == [
            (97, 97), (98, 98), (97, 261), (260, 98), (260, 99), (98, 260), (98, 99), (261, 97), (10, 10),
        ]

    def test_merges_never_cross_whitespace(self):
        # 'a b' repeated: the only adjacent pair inside any chunk is none,
        # so no merge can be learned from single-byte chunks.
        tok = train_tokenizer("a b a b a b", 270)
        assert tok.merges == []

    def test_early_stop_when_pairs_run_out(self):
        tok = train_tokenizer("xy", 300)
        assert tok.vocab_size < 300
        assert (120, 121) in tok.merges

    def test_floor_vocab_rejected(self):
        with pytest.raises(TokenizerError, match="floor"):
            train_tokenizer("abc", 259)

    def test_specials_reserved_below_first_merge(self):
        tok = train_tokenizer("hello hello", 262)
        assert {PAD_ID, CLS_ID, SEP_ID} == {256, 258, 259}
        for left, right in tok.merges:
            assert left < tok.vocab_size and right < tok.vocab_size
        assert min(BASE_VOCAB + i for i in range(len(tok.merges))) >= 260


class TestEncoding:
    def test_merges_apply_in_rank_order(self):
        tok = train_tokenizer("aaaa aaaa", 262)
        # First merge (a,a) -> 260, second merges the result.
        assert tok.merges[0] == (97, 97)
        assert tokenize(tok, "aaaa") == [261]

    def test_unseen_bytes_stay_single_tokens(self):
        tok = train_tokenizer("hello", 261)
        assert tokenize(tok, "xyz") == [120, 121, 122]

    def test_utf8_multibyte_round_trip(self):
        tok = train_tokenizer("naive cafe", 265)
        text = "café 你好"
        assert decode(tok, tokenize(tok, text)) == text

    def test_decode_drops_specials(self):
        tok = Tokenizer([])
        assert decode(tok, [CLS_ID, 104, 105, SEP_ID, PAD_ID]) == "hi"


class TestPacking:
    def test_layout_cls_content_sep_pad(self):
        tok = Tokenizer([])
        seq = encode(tok, "hi", max_len=6)
        assert seq.ids.tolist() == [CLS_ID, 104, 105, SEP_ID, PAD_ID, PAD_ID]
        assert seq.mask.tolist() == [True, True, True, True, False, False]
        assert seq.length == 4

    def test_exact_fit_has_no_padding(self):
        tok = Tokenizer([])
        seq = encode(tok, "abcd", max_len=6)
        assert seq.ids.tolist() == [CLS_ID, 97, 98, 99, 100, SEP_ID]
        assert seq.mask.all()

    def test_empty_text_is_cls_sep(self):
        tok = Tokenizer([])
        seq = encode(tok, "", max_len=4)
        assert seq.ids.tolist() == [CLS_ID, SEP_ID, PAD_ID, PAD_ID]
        assert seq.length == 2

    def test_head_keeps_first_tokens(self):
        tok = Tokenizer([])
        seq = encode(tok, "abcdefgh", max_len=6, strategy="head_only")
        assert seq.ids.tolist() == [CLS_ID, 97, 98, 99, 100, SEP_ID]

    def test_tail_keeps_last_tokens(self):
        tok = Tokenizer([])
        seq = encode(tok, "abcdefgh", max_len=6, strategy="tail_only")
        assert seq.ids.tolist() == [CLS_ID, 101, 102, 103, 104, SEP_ID]

    def test_600_token_document_truncation_boundaries(self):
        """A 600-token text at max_len 512 keeps tokens 0-509 (head) or 90-599 (tail)."""
        tok = Tokenizer([])
        text = "".join(chr(33 + (i % 91)) for i in range(600))
        full = tokenize(tok, text)
        assert len(full) == 600
        head = encode(tok, text, max_len=512, strategy="head_only")
        tail = encode(tok, text, max_len=512, strategy="tail_only")
        assert head.ids[1:511].tolist() == full[:510]
        assert tail.ids[1:511].tolist() == full[90:600]
        for seq in (head, tail):
            assert seq.ids[0] == CLS_ID
            assert seq.ids[511] == SEP_ID
            assert seq.mask.all()

    def test_unknown_strategy_and_tiny_max_len(self):
        tok = Tokenizer([])
        with pytest.raises(TokenizerError, match="strategy"):
            encode(tok, "x", max_len=8, strategy="middle")
        with pytest.raises(TokenizerError, match="max_len"):
            encode(tok, "x", max_len=1)


class TestSerialization:
    def test_round_trip_preserves_merges_and_behavior(self):
        tok = train_tokenizer("the cat sat on the mat", 290)
        clone = Tokenizer.from_json(tok.to_json())
        assert clone.merges == tok.merges
        assert tokenize(clone, "the mat") == tokenize(tok, "the mat")

    def test_rejects_malformed_payloads(self):
        with pytest.raises(TokenizerError):
            Tokenizer.from_json("not json")
        with pytest.raises(TokenizerError, match="merges"):
            Tokenizer.from_json('{"format_version":1}')
        with pytest.raises(TokenizerError, match="format_version"):
            Tokenizer.from_json('{"format_version":9,"merges":[]}')
        with pytest.raises(TokenizerError, match="vocab_size"):
            Tokenizer.from_json('{"format_version":1,"vocab_size":999,"merges":[]}')
        # A merge side must be a plain int naming a byte or an earlier merge.
        with pytest.raises(TokenizerError, match="unknown token"):
            Tokenizer.from_json('{"format_version":1,"vocab_size":261,"merges":[[-1,97]]}')
        with pytest.raises(TokenizerError, match="unknown token"):
            Tokenizer.from_json('{"format_version":1,"vocab_size":261,"merges":[[256,97]]}')
        with pytest.raises(TokenizerError, match="malformed merge"):
            Tokenizer.from_json('{"format_version":1,"vocab_size":261,"merges":[[true,97]]}')


# Few distinct letters, some repeated, plus whitespace: most picks are ties.
_TIE_HEAVY_TEXT = st.sampled_from(["aab  ", "ab\n", "aabb ", "abc \n"]).flatmap(
    lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=120).map("".join)
)


@settings(max_examples=100, deadline=None)
@given(_TIE_HEAVY_TEXT, st.integers(min_value=261, max_value=300))
def test_training_matches_the_naive_recount(text, vocab_size):
    assert train_tokenizer(text, vocab_size).merges == naive_bpe_merges(text, vocab_size)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_round_trip_any_text(text):
    tok = train_tokenizer("some training text for merges", 280)
    assert decode(tok, tokenize(tok, text)) == text


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=300), st.integers(min_value=2, max_value=64))
def test_packed_shape_invariants(text, max_len):
    tok = Tokenizer([])
    seq = encode(tok, text, max_len=max_len)
    assert seq.ids.shape == (max_len,) and seq.mask.shape == (max_len,)
    assert seq.ids[0] == CLS_ID
    n = seq.length
    assert 2 <= n <= max_len
    assert seq.ids[n - 1] == SEP_ID
    assert (seq.ids[n:] == PAD_ID).all()
    assert seq.mask[:n].all() and not seq.mask[n:].any()
