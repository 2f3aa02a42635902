"""Dump parsing, post decomposition, splitting, and corpus I/O."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_post
from tagrec.ingest import (
    CorpusError,
    DecomposedPost,
    DumpParseError,
    ParseStats,
    RawPost,
    chronological_split,
    decode_entities,
    decompose,
    parse_dump,
    read_corpus,
    write_corpus,
)

FIXTURES = Path(__file__).parent / "fixtures"


def parse_xml_bytes(payload: bytes, stats: ParseStats | None = None) -> list[RawPost]:
    return list(parse_dump(io.BytesIO(payload), stats))


def raw(body: str, **overrides) -> RawPost:
    defaults = dict(id=1, creation_date="2019-01-01T00:00:00", title="t", body=body, tags=("python",))
    defaults.update(overrides)
    return RawPost(**defaults)


class TestParseDump:
    def test_fixture_parses_20_questions_with_exact_stats(self):
        stats = ParseStats()
        posts = list(parse_dump(FIXTURES / "posts_fixture.xml", stats))
        assert [p.id for p in posts] == list(range(1, 21))
        assert stats.rows_total == 24
        assert stats.questions_yielded == 20
        assert stats.filtered_non_question == 1
        assert stats.filtered_untagged == 1
        assert stats.skipped_malformed == 2

    def test_tags_parsed_and_lowercased(self):
        posts = parse_xml_bytes(
            b'<posts><row Id="1" PostTypeId="1" CreationDate="2019-01-01T00:00:00" '
            b'Body="b" Tags="&lt;Python&gt;&lt;Django&gt;" /></posts>'
        )
        assert posts[0].tags == ("python", "django")

    def test_answers_filtered_untagged_filtered(self):
        stats = ParseStats()
        posts = parse_xml_bytes(
            b'<posts>'
            b'<row Id="1" PostTypeId="2" CreationDate="2019-01-01T00:00:00" Body="b" />'
            b'<row Id="2" PostTypeId="1" CreationDate="2019-01-01T00:00:00" Body="b" Tags="" />'
            b'</posts>',
            stats,
        )
        assert posts == []
        assert stats.filtered_non_question == 1
        assert stats.filtered_untagged == 1

    def test_missing_fields_skipped_and_counted(self, caplog):
        stats = ParseStats()
        posts = parse_xml_bytes(
            b'<posts>'
            b'<row Id="1" PostTypeId="1" Body="b" Tags="&lt;a&gt;" />'
            b'<row PostTypeId="1" CreationDate="2019-01-01T00:00:00" Body="b" Tags="&lt;a&gt;" />'
            b'<row Id="x" PostTypeId="1" CreationDate="2019-01-01T00:00:00" Body="b" Tags="&lt;a&gt;" />'
            b'<row Id="3" CreationDate="2019-01-01T00:00:00" Body="b" Tags="&lt;a&gt;" />'
            b'</posts>',
            stats,
        )
        assert posts == []
        assert stats.skipped_malformed == 4
        assert any("skipped" in r.message for r in caplog.records)

    def test_six_tags_is_malformed(self):
        stats = ParseStats()
        tags = "".join(f"&lt;t{i}&gt;" for i in range(6)).encode()
        posts = parse_xml_bytes(
            b'<posts><row Id="1" PostTypeId="1" CreationDate="2019-01-01T00:00:00" Body="b" Tags="'
            + tags
            + b'" /></posts>',
            stats,
        )
        assert posts == []
        assert stats.skipped_malformed == 1

    def test_malformed_xml_reports_byte_offset(self):
        with pytest.raises(DumpParseError, match="byte offset"):
            parse_xml_bytes(b'<posts><row Id="1" PostTypeId="1"')

    def test_streaming_yields_without_reading_everything_first(self):
        """The first post must arrive before the stream is exhausted."""
        header = b'<posts><row Id="1" PostTypeId="1" CreationDate="2019-01-01T00:00:00" Body="b" Tags="&lt;a&gt;" />'
        filler = b'<row Id="9" PostTypeId="2" CreationDate="2019-01-01T00:00:00" Body="b" />' * 20000
        stream = io.BytesIO(header + filler + b"</posts>")
        gen = parse_dump(stream)
        first = next(gen)
        assert first.id == 1
        assert stream.tell() < len(stream.getvalue())
        gen.close()


class TestDecompose:
    def test_single_block(self):
        post = decompose(raw("<p>Ask.</p><pre><code>x = 1\n</code></pre>"))
        assert post.description == "Ask."
        assert post.code == "x = 1\n"

    def test_multiple_blocks_joined_with_newline(self):
        post = decompose(raw("<pre><code>a</code></pre><p>mid</p><pre><code>b</code></pre>"))
        assert post.code == "a\nb"
        assert post.description == "mid"

    def test_no_code_and_all_code(self):
        assert decompose(raw("<p>words</p>")).code == ""
        only_code = decompose(raw("<pre><code>x\n</code></pre>"))
        assert only_code.description == ""
        assert only_code.code == "x\n"

    def test_inline_code_text_stays_in_description(self):
        post = decompose(raw("<p>Call <code>f()</code> twice.</p>"))
        assert post.description == "Call f() twice."

    def test_code_entities_decoded_whitespace_preserved(self):
        post = decompose(raw("<pre><code>if a &lt;= b:\n    pass\n\n</code></pre>"))
        assert post.code == "if a <= b:\n    pass\n\n"

    def test_description_whitespace_collapsed(self):
        post = decompose(raw("<p>a\n\n b\t\tc   d</p>"))
        assert post.description == "a b c d"

    def test_attributed_and_self_closing_tags_stripped(self):
        post = decompose(raw('<p class="x">one <br/> two <img src="y"/> three</p>'))
        assert post.description == "one two three"

    def test_fenced_block_requires_exact_pre_code_form(self):
        """A styled pre tag is not a fenced block; its text stays in the description."""
        post = decompose(raw('<pre class="lang-py"><code>x = 1</code></pre>'))
        assert post.code == ""
        assert post.description == "x = 1"

    def test_code_matching_is_non_greedy_across_blocks(self):
        post = decompose(raw("<pre><code>a</code></pre><pre><code>b</code></pre>"))
        assert post.code == "a\nb"


class TestDecodeEntities:
    def test_five_named_entities(self):
        assert decode_entities("&amp;&lt;&gt;&quot;&apos;") == "&<>\"'"

    def test_numeric_decimal_and_hex(self):
        assert decode_entities("&#65;&#x42;&#X43;") == "ABC"

    def test_single_pass_no_double_decoding(self):
        assert decode_entities("&amp;lt;") == "&lt;"

    def test_invalid_references_verbatim(self):
        assert decode_entities("&#1114112;") == "&#1114112;"
        assert decode_entities("&#xD800;") == "&#xD800;"
        assert decode_entities("&bogus;") == "&bogus;"
        assert decode_entities("&#;") == "&#;"


class TestChronologicalSplit:
    def test_matches_sort_then_take_oracle(self, rng):
        posts = [
            make_post(i, ("t",), date=f"2019-03-{(i % 28) + 1:02d}T00:00:00") for i in range(40)
        ]
        shuffled = [posts[i] for i in rng.permutation(40)]
        train, test = chronological_split(shuffled, 7)
        ordered = sorted(posts, key=lambda p: (p.creation_date, p.id))
        assert train == ordered[:-7]
        assert test == ordered[-7:]

    def test_every_train_date_at_most_every_test_date(self):
        posts = [make_post(i, ("t",), date=f"2019-01-{i + 1:02d}T00:00:00") for i in range(10)]
        train, test = chronological_split(posts, 4)
        assert max(p.creation_date for p in train) <= min(p.creation_date for p in test)

    def test_date_ties_send_higher_id_to_test(self):
        a = make_post(19, ("t",), date="2019-01-19T10:00:00")
        b = make_post(20, ("t",), date="2019-01-19T10:00:00")
        older = make_post(1, ("t",), date="2019-01-01T00:00:00")
        train, test = chronological_split([b, a, older], 1)
        assert [p.id for p in test] == [20]
        assert [p.id for p in train] == [1, 19]

    def test_zero_test_count_and_out_of_range(self):
        posts = [make_post(1, ("t",))]
        train, test = chronological_split(posts, 0)
        assert test == [] and len(train) == 1
        with pytest.raises(ValueError, match="test_count"):
            chronological_split(posts, 2)

    def test_fractional_second_dates_parse(self):
        a = make_post(1, ("t",), date="2019-01-01T00:00:00.250")
        b = make_post(2, ("t",), date="2019-01-01T00:00:00.500")
        _, test = chronological_split([b, a], 1)
        assert test[0].id == 2


class TestCorpusIO:
    def test_golden_file_byte_identical(self, tmp_path):
        posts = [decompose(p) for p in parse_dump(FIXTURES / "posts_fixture.xml")]
        out = tmp_path / "corpus.jsonl"
        assert write_corpus(posts, out) == 20
        assert out.read_bytes() == (FIXTURES / "posts_golden.jsonl").read_bytes()

    def test_round_trip(self, tmp_path):
        posts = [decompose(p) for p in parse_dump(FIXTURES / "posts_fixture.xml")]
        out = tmp_path / "corpus.jsonl"
        write_corpus(posts, out)
        assert read_corpus(out) == posts

    def test_read_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":1,"date":"d","title":"t","description":"x","code":""}\n')
        with pytest.raises(CorpusError, match="fields"):
            read_corpus(bad)
        bad.write_text("not json\n")
        with pytest.raises(CorpusError, match="invalid JSON"):
            read_corpus(bad)
        bad.write_text(json.dumps({"id": 1, "date": "d", "title": "t", "description": "", "code": "", "tags": []}) + "\n")
        with pytest.raises(CorpusError, match="tags"):
            read_corpus(bad)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120))
def test_decompose_never_leaves_element_tags_in_description(body_text):
    import re

    post = decompose(raw(f"<p>{body_text.replace('<', ' ').replace('>', ' ')}</p>"))
    assert not re.search(r"</?[A-Za-z][^>]*>", post.description)
    assert "  " not in post.description
    assert post.description == post.description.strip()
