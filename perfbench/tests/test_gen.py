"""The generator against a hand-written dump, and its truth against ingestion."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
from tagrec.ingest import ParseStats, decompose, parse_dump  # noqa: E402

QUESTION = gen.Post(
    kind=gen.QUESTION,
    id=1,
    date="2012-01-01T00:00:01.000",
    title='Compare <T> & "U" values',
    paragraphs=(
        (("", "Why is"), ("code", "a<b"), ("strong", "false?")),
        (("a", "see docs"), ("", "R&D")),
    ),
    blocks=('if (a < b && c) {\n    print("x")\n', "x = 1\n"),
    tags=("c++", ".net"),
)
ANSWER = gen.Post(
    kind=gen.ANSWER,
    id=2,
    date="2012-01-01T00:10:00.500",
    title="",
    paragraphs=((("", "Use &amp; literally."),),),
    blocks=(),
    tags=(),
    parent_id=1,
)
UNTAGGED = gen.Post(
    kind=gen.UNTAGGED, id=3, date="2012-01-02T00:00:00.000", title="No tags", paragraphs=((("", "Hi"),),), blocks=(), tags=()
)

# The same three rows written out by hand, escaped as real dumps escape them.
HAND_WRITTEN = (
    '<?xml version="1.0" encoding="utf-8"?>\n<posts>\n'
    '  <row Id="1" PostTypeId="1" CreationDate="2012-01-01T00:00:01.000" Score="1" Body="'
    "&lt;p&gt;Why is &lt;code&gt;a&amp;lt;b&lt;/code&gt; &lt;strong&gt;false?&lt;/strong&gt;&lt;/p&gt;&#xA;&#xA;"
    "&lt;pre&gt;&lt;code&gt;if (a &amp;lt; b &amp;amp;&amp;amp; c) {&#xA;    print(&quot;x&quot;)&#xA;&lt;/code&gt;&lt;/pre&gt;&#xA;&#xA;"
    "&lt;p&gt;&lt;a href=&quot;https://stackoverflow.com/q/8&quot;&gt;see docs&lt;/a&gt; R&amp;amp;D&lt;/p&gt;&#xA;&#xA;"
    "&lt;pre&gt;&lt;code&gt;x = 1&#xA;&lt;/code&gt;&lt;/pre&gt;&#xA;"
    '" Title="Compare &lt;T&gt; &amp; &quot;U&quot; values" Tags="&lt;c++&gt;&lt;.net&gt;" />\n'
    '  <row Id="2" PostTypeId="2" ParentId="1" CreationDate="2012-01-01T00:10:00.500" Score="2" Body="'
    '&lt;p&gt;Use &amp;amp;amp; literally.&lt;/p&gt;&#xA;" />\n'
    '  <row Id="3" PostTypeId="1" CreationDate="2012-01-02T00:00:00.000" Score="3" Body="'
    '&lt;p&gt;Hi&lt;/p&gt;&#xA;" Title="No tags" Tags="" />\n'
    "</posts>\n"
)


def _ingest(path: Path) -> tuple[list[dict], dict]:
    stats = ParseStats()
    records = [decompose(p).to_json_dict() for p in parse_dump(path, stats)]
    return records, stats.to_json_dict()


def test_render_matches_hand_written_dump():
    assert gen.render_dump([QUESTION, ANSWER, UNTAGGED]) == HAND_WRITTEN


def test_truth_of_hand_written_rows():
    assert QUESTION.corpus_record() == {
        "id": 1,
        "date": "2012-01-01T00:00:01.000",
        "title": 'Compare <T> & "U" values',
        "description": "Why is a<b false? see docs R&D",
        "code": 'if (a < b && c) {\n    print("x")\n\nx = 1\n',
        "tags": ["c++", ".net"],
    }
    assert gen.expected_stats([QUESTION, ANSWER, UNTAGGED]) == {
        "rows_total": 3,
        "questions_yielded": 1,
        "filtered_non_question": 1,
        "filtered_untagged": 1,
        "skipped_malformed": 0,
    }


def test_ingestion_of_hand_written_dump_recovers_truth(tmp_path):
    path = tmp_path / "Posts.xml"
    path.write_text(HAND_WRITTEN, encoding="utf-8")
    records, stats = _ingest(path)
    assert records == [QUESTION.corpus_record()]
    assert stats == gen.expected_stats([QUESTION, ANSWER, UNTAGGED])


def test_sampled_dump_ingests_to_its_truth(tmp_path):
    spec = gen.DumpSpec(questions=60, answers=20, untagged=6, overtagged=4, rare_share=0.3)
    posts = gen.sample_posts(spec, seed=5)
    path = tmp_path / "Posts.xml"
    path.write_text(gen.render_dump(posts), encoding="utf-8")
    records, stats = _ingest(path)
    assert records == [p.corpus_record() for p in posts if p.kind == gen.QUESTION]
    assert stats == gen.expected_stats(posts)
    assert stats["skipped_malformed"] == 4 and stats["filtered_untagged"] == 6


def test_seed_decides_the_dump():
    spec = gen.DumpSpec(questions=20)
    first = gen.render_dump(gen.sample_posts(spec, seed=1))
    assert gen.render_dump(gen.sample_posts(spec, seed=1)) == first
    assert gen.render_dump(gen.sample_posts(spec, seed=2)) != first
