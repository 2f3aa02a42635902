"""Streaming dump ingestion and post decomposition.

``parse_dump`` walks a Posts.xml-style dump incrementally (constant memory,
never the whole file) and yields tagged questions. ``decompose`` splits a
post body into the three model components: title, prose description, and the
concatenated fenced code blocks. ``chronological_split`` carves off the
newest posts as a test set.
"""

from __future__ import annotations

import json
import logging
import re
from collections import deque
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence
from xml.parsers import expat

log = logging.getLogger(__name__)

# Fenced code blocks exactly as the dump emits them.
CODE_BLOCK_RE = re.compile(r"<pre><code>([\s\S]*?)</code></pre>")
# Any remaining HTML element tag (inline <code> text itself is kept).
_ELEMENT_TAG_RE = re.compile(r"</?[A-Za-z][^>]*>")
# <tag-a><tag-b> form of the Tags attribute.
_TAG_LIST_RE = re.compile(r"<([^<>]+)>")
_ENTITY_RE = re.compile(r"&(?:(amp|lt|gt|quot|apos)|#(\d+)|#[xX]([0-9A-Fa-f]+));")
_WS_RE = re.compile(r"\s+")

_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

MAX_TAGS = 5

CORPUS_FIELDS = ("id", "date", "title", "description", "code", "tags")


class DumpParseError(ValueError):
    """The dump is not well-formed XML."""


class CorpusError(ValueError):
    """A corpus JSONL file does not match the expected schema."""


@dataclass(frozen=True)
class RawPost:
    """A tagged question exactly as the dump stores it (body still HTML)."""

    id: int
    creation_date: str
    title: str
    body: str
    tags: tuple[str, ...]


@dataclass(frozen=True)
class DecomposedPost:
    """Model-ready post: title, prose description, concatenated code."""

    id: int
    creation_date: str
    title: str
    description: str
    code: str
    tags: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "date": self.creation_date,
            "title": self.title,
            "description": self.description,
            "code": self.code,
            "tags": list(self.tags),
        }


@dataclass
class ParseStats:
    """Row accounting for one parse_dump pass."""

    rows_total: int = 0
    questions_yielded: int = 0
    filtered_non_question: int = 0
    filtered_untagged: int = 0
    skipped_malformed: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


def decode_entities(text: str) -> str:
    """Resolve the five XML entities and numeric character references.

    Single pass: already-decoded ampersands are not re-examined, so
    ``&amp;lt;`` becomes ``&lt;`` and stops there. Unknown names and invalid
    codepoints pass through verbatim.
    """

    def repl(m: re.Match) -> str:
        name, dec, hexa = m.groups()
        if name:
            return _NAMED_ENTITIES[name]
        cp = int(dec) if dec else int(hexa, 16)
        if 0 <= cp <= 0x10FFFF and not 0xD800 <= cp <= 0xDFFF:
            return chr(cp)
        return m.group(0)

    return _ENTITY_RE.sub(repl, text)


def parse_dump(source: str | Path | IO[bytes], stats: ParseStats | None = None) -> Iterator[RawPost]:
    """Stream tagged questions out of a dump file.

    Only rows with PostTypeId 1 and a non-empty Tags attribute are yielded.
    Rows missing Id, Body, or CreationDate (or carrying more than five tags)
    are skipped with a warning and counted in ``stats``. Malformed XML is
    fatal and reports the byte offset.
    """
    if stats is None:
        stats = ParseStats()
    own_handle = isinstance(source, (str, Path))
    handle: IO[bytes] = open(source, "rb") if own_handle else source
    try:
        parser = expat.ParserCreate()
        pending: deque[RawPost] = deque()

        def start_element(name: str, attrs: dict) -> None:
            if name != "row":
                return
            stats.rows_total += 1
            post_type = attrs.get("PostTypeId")
            if post_type is None:
                stats.skipped_malformed += 1
                log.warning("row %d skipped: missing PostTypeId", stats.rows_total)
                return
            if post_type != "1":
                stats.filtered_non_question += 1
                return
            missing = [k for k in ("Id", "Body", "CreationDate") if not attrs.get(k)]
            if missing:
                stats.skipped_malformed += 1
                log.warning("row %d skipped: missing %s", stats.rows_total, ", ".join(missing))
                return
            try:
                post_id = int(attrs["Id"])
            except ValueError:
                stats.skipped_malformed += 1
                log.warning("row %d skipped: non-integer Id %r", stats.rows_total, attrs["Id"])
                return
            tags = tuple(t.lower() for t in _TAG_LIST_RE.findall(attrs.get("Tags", "")))
            if not tags:
                stats.filtered_untagged += 1
                return
            if len(tags) > MAX_TAGS:
                stats.skipped_malformed += 1
                log.warning("row %d skipped: %d tags exceeds the %d-tag limit", stats.rows_total, len(tags), MAX_TAGS)
                return
            stats.questions_yielded += 1
            pending.append(
                RawPost(
                    id=post_id,
                    creation_date=attrs["CreationDate"],
                    title=attrs.get("Title", ""),
                    body=attrs["Body"],
                    tags=tags,
                )
            )

        parser.StartElementHandler = start_element
        while True:
            chunk = handle.read(1 << 16)
            try:
                parser.Parse(chunk, not chunk)
            except expat.ExpatError as exc:
                raise DumpParseError(f"malformed dump at byte offset {parser.ErrorByteIndex}: {exc}") from exc
            while pending:
                yield pending.popleft()
            if not chunk:
                break
    finally:
        if own_handle:
            handle.close()


def decompose(post: RawPost) -> DecomposedPost:
    """Split a post body into prose description and concatenated code.

    Code is every fenced block's contents joined by newlines, entity-decoded,
    whitespace preserved. The description is the remaining body with element
    tags stripped (inline code text kept), entities decoded, and whitespace
    collapsed to single spaces.
    """
    blocks = CODE_BLOCK_RE.findall(post.body)
    code = "\n".join(decode_entities(b) for b in blocks)
    prose = CODE_BLOCK_RE.sub(" ", post.body)
    prose = _ELEMENT_TAG_RE.sub("", prose)
    prose = decode_entities(prose)
    description = _WS_RE.sub(" ", prose).strip()
    return DecomposedPost(
        id=post.id,
        creation_date=post.creation_date,
        title=post.title,
        description=description,
        code=code,
        tags=post.tags,
    )


def decompose_all(posts: Iterable[RawPost]) -> list[DecomposedPost]:
    """Decompose a batch of raw posts, keeping their order."""
    return [decompose(p) for p in posts]


def _parse_date(value: str) -> datetime:
    try:
        return datetime.fromisoformat(value.rstrip("Z"))
    except ValueError as exc:
        raise CorpusError(f"unparseable creation date {value!r}") from exc


def chronological_split(posts: Sequence, test_count: int) -> tuple[list, list]:
    """Hold out the test_count newest posts by (creation_date, id).

    Both halves come back sorted oldest-first; boundary ties on the date go
    to the test side via the id order.
    """
    if not 0 <= test_count <= len(posts):
        raise ValueError(f"test_count {test_count} out of range for {len(posts)} posts")
    ordered = sorted(posts, key=lambda p: (_parse_date(p.creation_date), p.id))
    cut = len(ordered) - test_count
    return ordered[:cut], ordered[cut:]


def write_corpus(posts: Iterable[DecomposedPost], path: str | Path) -> int:
    """Write posts as JSONL; returns the number of records written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for post in posts:
            fh.write(json.dumps(post.to_json_dict(), separators=(",", ":"), ensure_ascii=False))
            fh.write("\n")
            count += 1
    return count


def read_corpus(path: str | Path) -> list[DecomposedPost]:
    """Read a JSONL corpus, validating the schema line by line."""
    posts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict) or set(rec) != set(CORPUS_FIELDS):
                raise CorpusError(f"{path}:{lineno}: expected fields {CORPUS_FIELDS}")
            if not isinstance(rec["id"], int):
                raise CorpusError(f"{path}:{lineno}: id must be an integer")
            if not all(isinstance(rec[k], str) for k in ("date", "title", "description", "code")):
                raise CorpusError(f"{path}:{lineno}: date/title/description/code must be strings")
            tags = rec["tags"]
            if not (isinstance(tags, list) and tags and all(isinstance(t, str) for t in tags) and len(tags) <= MAX_TAGS):
                raise CorpusError(f"{path}:{lineno}: tags must be a list of 1-{MAX_TAGS} strings")
            posts.append(
                DecomposedPost(
                    id=rec["id"],
                    creation_date=rec["date"],
                    title=rec["title"],
                    description=rec["description"],
                    code=rec["code"],
                    tags=tuple(tags),
                )
            )
    return posts
