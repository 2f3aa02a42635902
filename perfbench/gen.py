"""Seeded synthetic Stack Overflow ``Posts.xml`` dumps with their ground truth.

``sample_posts(spec, seed)`` draws every row of a dump and ``render_dump``
writes them the way real dumps do: the body is HTML stored in an XML
attribute, so markup is escaped once and entities inside code twice,
newlines are ``&#xA;``, fenced code is ``<pre><code>`` and inline code is
``<code>``. Each ``Post`` keeps its parts, and the text the pipeline should
recover from it (title, prose description, joined code, tags) is computed
from those parts, never by parsing the dump.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import accumulate

QUESTION, ANSWER, UNTAGGED, OVERTAGGED = "question", "answer", "untagged", "overtagged"

TAG_POOL = (
    "python", "javascript", "java", "c#", "php", "android", "html", "jquery",
    "c++", "css", "ios", "mysql", "sql", "r", "node.js", "arrays", "c",
    "reactjs", "asp.net", "json", "ruby-on-rails", ".net", "sql-server",
    "swift", "python-3.x", "objective-c", "django", "angular", "excel",
    "pandas", "regex", "angularjs", "iphone", "ruby", "linux", "ajax",
    "typescript", "xml", "vba", "spring", "laravel", "database", "wordpress",
    "string", "flutter", "postgresql", "mongodb", "wpf", "windows", "xcode",
    "bash", "git", "oracle", "vb.net", "list", "multithreading", "dataframe",
    "numpy", "docker", "eclipse",
)
# Zipf-like tag popularity: weight 1 / rank.
_TAG_CUM = tuple(accumulate(1.0 / (r + 1) for r in range(len(TAG_POOL))))
# Tags per question, 1..5.
_TAG_COUNT_WEIGHTS = (0.25, 0.32, 0.24, 0.12, 0.07)

_FUNCTION_WORDS = (
    "the", "a", "to", "i", "is", "in", "and", "of", "it", "this", "that", "how",
    "with", "for", "my", "when", "not", "on", "but", "can", "from", "get", "an",
    "use", "using", "do", "be", "have", "error", "value", "file", "data", "list",
    "function", "way", "there", "what", "why", "does", "if", "as", "code", "new",
    "want", "would", "like", "need", "all", "each", "one", "returns", "working",
    "works", "problem", "example", "object", "class", "method", "string", "set",
)
_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe", "ri",
    "so", "tu", "va", "we", "xi", "yo", "za", "bra", "cle", "dro", "fli", "gra",
    "ple", "qua", "stri", "tho", "ver", "lex", "mon", "tor", "par", "sen", "com",
)
_UNICODE_WORDS = ("naïve", "café", "größe", "señal", "日本語", "données", "übung", "ça")
_CODE_KEYWORDS = ("def", "return", "if", "else", "for", "while", "class", "import", "var", "let", "new", "null")
# About two thirds of posts carry code: 1-3 fenced blocks of 2-12 lines.
CODE_SHARE = 2 / 3
BLOCKS = (1, 3)
BLOCK_LINES = (2, 12)


def _fixed_words() -> tuple[tuple[str, ...], dict[str, tuple[str, ...]]]:
    """The language every workload shares: common words and per-tag keywords."""
    rng = random.Random(20240805)
    made = set(_FUNCTION_WORDS)
    common = list(_FUNCTION_WORDS)
    while len(common) < 600:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word not in made:
            made.add(word)
            common.append(word)
    keywords = {}
    for tag in TAG_POOL:
        extra = []
        while len(extra) < 3:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
            if word not in made:
                made.add(word)
                extra.append(word)
        keywords[tag] = (tag, *extra)
    return tuple(common), keywords


COMMON_WORDS, TAG_KEYWORDS = _fixed_words()
_COMMON_CUM = tuple(accumulate(1.0 / (r + 1) ** 0.9 for r in range(len(COMMON_WORDS))))


@dataclass(frozen=True)
class DumpSpec:
    """Row mix and length distributions of one synthetic dump.

    Word counts are drawn log-uniformly in their closed range, so short
    posts are more common than long ones, as on Stack Overflow.
    """

    questions: int
    answers: int = 0
    untagged: int = 0
    overtagged: int = 0
    title_words: tuple[int, int] = (5, 20)
    description_words: tuple[int, int] = (30, 300)
    rare_share: float = 0.03


@dataclass(frozen=True)
class Post:
    """One dump row: its parts, plus the truth derived from them.

    ``paragraphs`` holds (markup, text) spans; markup is "" for plain text or
    one of "code", "strong", "em", "a". ``blocks`` are the fenced code blocks,
    placed after the paragraph of the same index.
    """

    kind: str
    id: int
    date: str
    title: str
    paragraphs: tuple[tuple[tuple[str, str], ...], ...]
    blocks: tuple[str, ...]
    tags: tuple[str, ...]
    parent_id: int = 0

    @property
    def description(self) -> str:
        return " ".join(text for para in self.paragraphs for _, text in para)

    @property
    def code(self) -> str:
        return "\n".join(self.blocks)

    def body_html(self) -> str:
        parts = []
        for i in range(max(len(self.paragraphs), len(self.blocks))):
            if i < len(self.paragraphs):
                parts.append("<p>" + " ".join(_span_html(m, t) for m, t in self.paragraphs[i]) + "</p>")
            if i < len(self.blocks):
                parts.append("<pre><code>" + html_escape(self.blocks[i]) + "</code></pre>")
        return "\n\n".join(parts) + "\n"

    def corpus_record(self) -> dict:
        """The ``corpus.jsonl`` record ingestion must produce for a question."""
        return {
            "id": self.id,
            "date": self.date,
            "title": self.title,
            "description": self.description,
            "code": self.code,
            "tags": list(self.tags),
        }


def html_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def xml_attr_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
        .replace("\n", "&#xA;").replace("\t", "&#x9;")
    )


def _span_html(markup: str, text: str) -> str:
    if not markup:
        return html_escape(text)
    if markup == "a":
        return f'<a href="https://stackoverflow.com/q/{len(text)}">{html_escape(text)}</a>'
    return f"<{markup}>{html_escape(text)}</{markup}>"


def render_row(post: Post) -> str:
    attrs = [("Id", str(post.id))]
    if post.kind == ANSWER:
        attrs += [("PostTypeId", "2"), ("ParentId", str(post.parent_id))]
    else:
        attrs.append(("PostTypeId", "1"))
    attrs += [("CreationDate", post.date), ("Score", str(post.id % 7)), ("Body", post.body_html())]
    if post.kind != ANSWER:
        attrs.append(("Title", post.title))
        # Untagged questions alternate between an empty and a missing attribute.
        if post.tags or post.id % 2:
            attrs.append(("Tags", "".join(f"<{t}>" for t in post.tags)))
    return "  <row " + " ".join(f'{k}="{xml_attr_escape(v)}"' for k, v in attrs) + " />\n"


def render_dump(posts: list[Post]) -> str:
    return '<?xml version="1.0" encoding="utf-8"?>\n<posts>\n' + "".join(render_row(p) for p in posts) + "</posts>\n"


def expected_stats(posts: list[Post]) -> dict:
    """``ingest_stats.json`` as ingestion must report it for these rows."""
    kinds = [p.kind for p in posts]
    return {
        "rows_total": len(posts),
        "questions_yielded": kinds.count(QUESTION),
        "filtered_non_question": kinds.count(ANSWER),
        "filtered_untagged": kinds.count(UNTAGGED),
        "skipped_malformed": kinds.count(OVERTAGGED),
    }


class _Sampler:
    def __init__(self, spec: DumpSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng

    def log_uniform(self, lo: int, hi: int) -> int:
        return min(hi, int(math.exp(self.rng.uniform(math.log(lo), math.log(hi + 1)))))

    def tags(self, count: int) -> tuple[str, ...]:
        chosen: list[str] = []
        while len(chosen) < count:
            tag = self.rng.choices(TAG_POOL, cum_weights=_TAG_CUM)[0]
            if tag not in chosen:
                chosen.append(tag)
        return tuple(chosen)

    def rare(self) -> str:
        """A one-off token: identifier, number, hex literal, accented word or long word."""
        r = self.rng.getrandbits(40)
        kind, r = r % 5, r // 5
        a, b, c, d = r % 36, (r // 36) % 36, (r // 1296) % 36, r // 46656
        if kind == 0:
            return f"{_SYLLABLES[a]}{_SYLLABLES[b]}{_SYLLABLES[c].capitalize()}_{d % 1000}"
        if kind == 1:
            return str(r % 10**7)
        if kind == 2:
            return f"0x{r & 0xFFFFFF:06x}"
        if kind == 3:
            return _UNICODE_WORDS[a % len(_UNICODE_WORDS)] + str(d % 100)
        return _SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c] + _SYLLABLES[d % 36]

    def words(self, n: int, tags: tuple[str, ...]) -> list[str]:
        rng = self.rng
        out = rng.choices(COMMON_WORDS, cum_weights=_COMMON_CUM, k=n)
        for i in range(n):
            roll = rng.random()
            if roll < self.spec.rare_share:
                out[i] = self.rare()
            elif roll < self.spec.rare_share + 0.08 and tags:
                out[i] = rng.choice(TAG_KEYWORDS[rng.choice(tags)])
        return out

    def title(self, tags: tuple[str, ...]) -> str:
        words = self.words(self.log_uniform(*self.spec.title_words), tags)
        if tags:
            words[self.rng.randrange(len(words))] = TAG_KEYWORDS[tags[0]][0]
        text = " ".join(words)
        return text[0].upper() + text[1:] + ("?" if self.rng.random() < 0.5 else "")

    def paragraphs(self, tags: tuple[str, ...]) -> tuple[tuple[tuple[str, str], ...], ...]:
        rng = self.rng
        words = self.words(self.log_uniform(*self.spec.description_words), tags)
        spans = []
        for word in words:
            roll = rng.random()
            if roll < 0.04:
                spans.append(("code", f"{word}.{rng.choice(COMMON_WORDS)}()"))
            elif roll < 0.06:
                spans.append(("strong", word))
            elif roll < 0.07:
                spans.append(("em", word))
            elif roll < 0.075:
                spans.append(("a", f"see {word}"))
            elif roll < 0.085:
                spans.append(("", rng.choice(('a<b', 'R&D', '"quoted"', "x>=0", "&amp;", "it's"))))
            else:
                spans.append(("", word))
        paras = []
        while spans:
            size = rng.randint(15, 60)
            paras.append(tuple(spans[:size]))
            spans = spans[size:]
        return tuple(paras)

    def block(self, tags: tuple[str, ...]) -> str:
        rng = self.rng
        lines = []
        depth = 0
        for _ in range(rng.randint(*BLOCK_LINES)):
            a, b, c = self.words(3, tags)
            form = rng.randrange(7)
            if form == 0:
                line = f"{a} = {b}({c}, {rng.randrange(100)})"
            elif form == 1:
                line = f"if ({a} < {rng.randrange(50)} && {b} > 0) {{"
            elif form == 2:
                line = f"for {a} in {b}:"
            elif form == 3:
                line = f'print("{a} {b}")'
            elif form == 4:
                line = f"return {a}->{b};"
            elif form == 5:
                line = f"{rng.choice(_CODE_KEYWORDS)} {a}.{c}('{b}');"
            else:
                line = "}"
            lines.append("    " * depth + line)
            depth = max(0, min(3, depth + rng.choice((-1, 0, 1))))
        return "\n".join(lines) + "\n"

    def post(self, kind: str, post_id: int, date: str, parent_id: int) -> Post:
        rng = self.rng
        if kind == QUESTION:
            tags = self.tags(rng.choices(range(1, 6), weights=_TAG_COUNT_WEIGHTS)[0])
        elif kind == OVERTAGGED:
            tags = self.tags(rng.randint(6, 7))
        else:
            tags = ()
        topic = tags or self.tags(1)
        has_code = rng.random() < CODE_SHARE
        blocks = tuple(self.block(topic) for _ in range(rng.randint(*BLOCKS))) if has_code else ()
        return Post(
            kind=kind,
            id=post_id,
            date=date,
            title="" if kind == ANSWER else self.title(topic),
            paragraphs=self.paragraphs(topic),
            blocks=blocks,
            tags=tags,
            parent_id=parent_id,
        )


def sample_posts(spec: DumpSpec, seed: int) -> list[Post]:
    """Every row of the dump, in Id order, drawn from ``seed`` alone."""
    rng = random.Random(seed)
    kinds = [QUESTION] * spec.questions + [ANSWER] * spec.answers
    kinds += [UNTAGGED] * spec.untagged + [OVERTAGGED] * spec.overtagged
    rng.shuffle(kinds)
    sampler = _Sampler(spec, rng)
    when = datetime(2012, 1, 1)
    posts = []
    last_question = 0
    for post_id, kind in enumerate(kinds, start=1):
        when += timedelta(seconds=rng.randint(1, 3600), milliseconds=rng.randrange(1000))
        date = when.isoformat(timespec="milliseconds")
        posts.append(sampler.post(kind, post_id, date, last_question))
        if kind != ANSWER:
            last_question = post_id
    return posts
