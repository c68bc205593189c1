"""Documents, events, and corpora: the annotation data model plus section
extraction, per-patient dedup, sampling, splits, and the file boundary:
every file sdohkit reads or writes goes through ``read_text``/``write_text``.

Character offsets are Unicode code-point indices into the document text,
half-open ``[start, end)``. Corpus values are treated as immutable once
constructed; all operations return new corpora.
"""

from __future__ import annotations

import json
import random
import re
import warnings
from dataclasses import dataclass, field
from datetime import date

from .schema import Schema, validate_event


class CorpusError(ValueError):
    """Invalid corpus data or operation arguments."""


# Generic topical-heading patterns and the social-history subset. Both are
# matched against whole lines (trailing whitespace ignored) and are meant to
# be replaced per institution; these defaults only cover common layouts.
DEFAULT_HEADING_PATTERNS = [
    r"[A-Za-z][A-Za-z0-9 /\-]{0,58}:",
    r"[A-Z][A-Z /\-]{2,58}",
]
DEFAULT_SOCIAL_HISTORY_PATTERNS = [
    r"(?i)social\s+history\s*:?",
    r"(?i)social\s+hx\s*:?",
]


@dataclass(frozen=True)
class TextSpan:
    """A contiguous character span and its surface text."""

    start: int
    end: int
    text: str

    def overlap_len(self, other: "TextSpan") -> int:
        return max(0, min(self.end, other.end) - max(self.start, other.start))


@dataclass
class Event:
    """A trigger span with an event-type label and argument subtype labels.

    Arguments share the trigger's span, so they are stored as a plain
    name-to-subtype mapping with no spans of their own.
    """

    event_type: str
    trigger: TextSpan
    arguments: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Document:
    doc_id: str
    patient_id: str
    text: str
    note_date: str | None = None


@dataclass
class AnnotatedDocument:
    document: Document
    events: list[Event] = field(default_factory=list)
    annotator_id: str | None = None

    @property
    def doc_id(self) -> str:
        return self.document.doc_id


@dataclass
class Corpus:
    docs: list[AnnotatedDocument] = field(default_factory=list)
    split_assignment: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.docs)

    @property
    def doc_map(self) -> dict[str, AnnotatedDocument]:
        return {d.doc_id: d for d in self.docs}

    def doc_ids(self) -> list[str]:
        return [d.doc_id for d in self.docs]

    def split(self, name: str) -> "Corpus":
        """Sub-corpus of documents assigned to one split."""
        keep = [d for d in self.docs if self.split_assignment.get(d.doc_id) == name]
        return Corpus(keep, {d.doc_id: name for d in keep})


SPLIT_NAMES = ("train", "validation", "test")


def document_violations(adoc: AnnotatedDocument, schema: Schema | None = None) -> list[str]:
    """Structural invariant check for one annotated document.

    Verifies the field types (non-empty string doc_id, patient_id and text,
    a YYYY-MM-DD note_date or None, a string annotator_id or None), that
    every string, event labels included, encodes as UTF-8, that no argument
    name holds a '.' (which joins "Type.Argument" keys), that the doc_id
    can name a file inside a directory, trigger bounds, surface-text
    agreement with the document, and the one-event-per-(type, span)
    constraint; optionally also runs schema validation on each event.
    """
    doc = adoc.document
    out = [
        f"missing or empty string field {key!r}"
        for key in ("doc_id", "patient_id", "text")
        if not isinstance(getattr(doc, key), str) or not getattr(doc, key)
    ]
    if doc.note_date is not None:
        if not isinstance(doc.note_date, str):
            out.append("'note_date' must be a string or null")
        else:
            try:
                if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", doc.note_date):
                    raise ValueError
                date.fromisoformat(doc.note_date)
            except ValueError:
                out.append(f"'note_date' {doc.note_date!r} is not an ISO-8601 date")
    if adoc.annotator_id is not None and not isinstance(adoc.annotator_id, str):
        out.append("'annotator_id' must be a string or null")
    if out:
        return out
    for key, value in (("doc_id", doc.doc_id), ("patient_id", doc.patient_id), ("text", doc.text),
                       ("annotator_id", adoc.annotator_id or "")):
        if problem := _unwritable(value):
            out.append(f"{key!r} {problem}")
    if doc.doc_id in (".", "..") or any(c in doc.doc_id for c in "/\\\0"):
        out.append(f"doc_id {doc.doc_id!r} cannot name a file inside a directory")
    text = doc.text
    seen: set[tuple[str, int, int]] = set()
    for i, ev in enumerate(adoc.events):
        t = ev.trigger
        if not (0 <= t.start < t.end <= len(text)):
            out.append(f"event {i}: trigger span [{t.start},{t.end}) out of bounds")
            continue
        if text[t.start:t.end] != t.text:
            out.append(f"event {i}: trigger text does not match document at [{t.start},{t.end})")
        key = (ev.event_type, t.start, t.end)
        if key in seen:
            out.append(f"event {i}: duplicate ({ev.event_type}, [{t.start},{t.end})) trigger")
        seen.add(key)
        for label in (ev.event_type, *ev.arguments, *ev.arguments.values()):
            if problem := _unwritable(label):
                out.append(f"event {i}: label {label!r} {problem}")
        out += [f"event {i}: argument name {name!r} contains '.'"
                for name in ev.arguments if "." in name]
        if schema is not None:
            out.extend(f"event {i}: {v}" for v in validate_event(schema, ev))
    return out


def _unwritable(value: str) -> str | None:
    """Why no writer can store the string (a lone surrogate), or None."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"cannot be written as UTF-8 ({exc.reason} at index {exc.start})"
    return None


@dataclass(frozen=True)
class Section:
    """One topical section: the heading line plus the body that follows it.

    ``start``/``end`` delimit the whole section (heading line included) in the
    parent text; ``body`` is the text after the heading line, so
    ``parent[start:end]`` equals the heading line (with its newline, if any)
    followed by ``body``.
    """

    heading: str
    start: int
    end: int
    body: str


def _compile_rules(rules: list[str]) -> list[re.Pattern]:
    compiled = []
    with warnings.catch_warnings():
        # Refuse a pattern whose meaning a later Python changes ("possible nested set").
        warnings.simplefilter("error", FutureWarning)
        for pattern in rules:
            try:
                compiled.append(re.compile(pattern))
            except (re.error, FutureWarning) as exc:
                raise CorpusError(f"invalid rule pattern {pattern!r}: {exc}") from None
    return compiled


def _iter_lines(text: str):
    pos = 0
    for line in text.splitlines(keepends=True):
        yield pos, line
        pos += len(line)


def extract_sections(text: str, rules: list[str] | None = None) -> list[Section]:
    """Segment a note into sections at heading lines.

    A line is a heading when any rule pattern matches the whole line
    (trailing whitespace stripped). Each section runs from its heading to the
    next heading or the end of text; text before the first heading belongs to
    no section. No headings yields an empty list.
    """
    if rules is None:
        rules = DEFAULT_HEADING_PATTERNS
    if not rules:
        raise CorpusError("heading rule list must be non-empty")
    compiled = _compile_rules(rules)

    headings: list[tuple[int, int, str]] = []  # (line_start, body_start, heading_text)
    for pos, line in _iter_lines(text):
        stripped = line.rstrip()
        if stripped and any(rx.fullmatch(stripped) for rx in compiled):
            headings.append((pos, pos + len(line), line.rstrip("\r\n")))

    sections = []
    for i, (h_start, body_start, heading) in enumerate(headings):
        end = headings[i + 1][0] if i + 1 < len(headings) else len(text)
        body_start = min(body_start, end)
        sections.append(Section(heading, h_start, end, text[body_start:end]))
    return sections


def select_social_history(
    sections: list[Section], rules: list[str] | None = None
) -> Section | None:
    """First section whose heading matches a social-history pattern, if any."""
    if rules is None:
        rules = DEFAULT_SOCIAL_HISTORY_PATTERNS
    compiled = _compile_rules(rules)
    for sec in sections:
        heading = sec.heading.rstrip()
        if any(rx.fullmatch(heading) for rx in compiled):
            return sec
    return None


def _subset(corpus: Corpus, keep_ids: set[str]) -> Corpus:
    """The kept documents, in corpus order, with their split assignments."""
    docs = [d for d in corpus.docs if d.doc_id in keep_ids]
    assignment = {k: v for k, v in corpus.split_assignment.items() if k in keep_ids}
    return Corpus(docs, assignment)


def dedup_per_patient(corpus: Corpus, seed: int) -> Corpus:
    """Keep exactly one document per patient, chosen uniformly per seed."""
    by_patient: dict[str, list[AnnotatedDocument]] = {}
    for d in corpus.docs:
        by_patient.setdefault(d.document.patient_id, []).append(d)
    rng = random.Random(f"dedup:{seed}")
    keep_ids = set()
    for patient_id in sorted(by_patient):
        docs = sorted(by_patient[patient_id], key=lambda d: d.doc_id)
        keep_ids.add(rng.choice(docs).doc_id)
    return _subset(corpus, keep_ids)


def sample_corpus(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Uniform random subsample of n documents, deterministic per seed."""
    if n > len(corpus.docs):
        raise CorpusError(f"cannot sample {n} documents from a corpus of {len(corpus.docs)}")
    rng = random.Random(f"sample:{seed}")
    return _subset(corpus, set(rng.sample(sorted(d.doc_id for d in corpus.docs), n)))


def split_corpus(corpus: Corpus, sizes: tuple[int, int, int], seed: int) -> Corpus:
    """Randomly assign train/validation/test splits of the requested sizes."""
    n_train, n_val, n_test = sizes
    total = n_train + n_val + n_test
    if total > len(corpus.docs):
        raise CorpusError(
            f"requested split sizes sum to {total} but corpus has {len(corpus.docs)} documents"
        )
    ids = sorted(d.doc_id for d in corpus.docs)
    rng = random.Random(f"split:{seed}")
    rng.shuffle(ids)
    assignment: dict[str, str] = {}
    for doc_id in ids[:n_train]:
        assignment[doc_id] = "train"
    for doc_id in ids[n_train : n_train + n_val]:
        assignment[doc_id] = "validation"
    for doc_id in ids[n_train + n_val : total]:
        assignment[doc_id] = "test"
    return Corpus(list(corpus.docs), assignment)


# --- files and JSONL persistence -------------------------------------------

def read_text(path) -> str:
    """A file's text as stored: strict UTF-8, no newline translation, so
    offsets into it count every ``\\r``. CorpusError names the file and line
    of an undecodable byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusError(f"{path} line {line}: not UTF-8 ({exc.reason})") from None


def write_text(path, text: str) -> None:
    """Write text as UTF-8, exactly as given (no newline translation).

    Text that does not encode raises before the file is opened, so a failed
    write leaves no file behind."""
    data = text.encode("utf-8")
    with open(path, "wb") as f:
        f.write(data)


def json_value(text: str, where):
    """The one JSON decoder: CorpusError prefixed with ``where`` on invalid
    JSON, including JSON nested too deeply for the parser."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CorpusError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc


def doc_to_obj(adoc: AnnotatedDocument, split: str | None) -> dict:
    obj = {
        "doc_id": adoc.document.doc_id,
        "patient_id": adoc.document.patient_id,
        "note_date": adoc.document.note_date,
        "text": adoc.document.text,
        "annotator_id": adoc.annotator_id,
        "events": [
            {
                "type": ev.event_type,
                "trigger": {"start": ev.trigger.start, "end": ev.trigger.end, "text": ev.trigger.text},
                "args": dict(ev.arguments),
            }
            for ev in adoc.events
        ],
    }
    if split is not None:
        obj["split"] = split
    return obj


def jsonl_records(text: str, name: str | None = None):
    """Yield (where, object) for every non-blank JSONL line.

    ``where`` is "line N", or "<name> line N" when the file is named; every
    error about the line starts with it.
    """
    # Not splitlines(): U+2028 and the like may appear raw inside JSON strings.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{name} line {lineno}" if name else f"line {lineno}"
        obj = json_value(line, where)
        if not isinstance(obj, dict):
            raise CorpusError(f"{where}: expected a JSON object")
        yield where, obj


def jsonl_text(objs) -> str:
    """One compact UTF-8 JSON line per object."""
    return "".join(json.dumps(o, ensure_ascii=False, separators=(",", ":")) + "\n" for o in objs)


def corpus_to_jsonl(corpus: Corpus) -> str:
    return jsonl_text(doc_to_obj(d, corpus.split_assignment.get(d.doc_id)) for d in corpus.docs)


def write_corpus_jsonl(corpus: Corpus, path) -> None:
    write_text(path, corpus_to_jsonl(corpus))


def document_from_obj(
    obj: dict, events: list[Event], where: str, default_patient: bool = False
) -> tuple[AnnotatedDocument, str | None]:
    """The document one JSONL record describes, with the given events, and its split.

    ``default_patient`` (sidecar and notes lines) reads an absent or null
    patient_id as the doc_id. Raises CorpusError prefixed with ``where``.
    """
    patient_id = obj.get("patient_id")
    if patient_id is None and default_patient:
        patient_id = obj.get("doc_id")
    adoc = AnnotatedDocument(
        Document(obj.get("doc_id"), patient_id, obj.get("text"), obj.get("note_date")),
        events,
        obj.get("annotator_id"),
    )
    problems = document_violations(adoc)
    split = obj.get("split")
    if split is not None and split not in SPLIT_NAMES:
        problems.append(f"unknown split {split!r}")
    if problems:
        raise CorpusError(f"{where}: " + "; ".join(problems))
    return adoc, split


def _events_from_obj(obj: dict, where: str) -> list[Event]:
    events = []
    raw_events = obj.get("events", [])
    if not isinstance(raw_events, list):
        raise CorpusError(f"{where}: 'events' must be a list")
    for j, e in enumerate(raw_events):
        if not isinstance(e, dict) or not isinstance(e.get("type"), str):
            raise CorpusError(f"{where}: event {j}: missing string 'type'")
        trig = e.get("trigger")
        if (
            not isinstance(trig, dict)
            or type(trig.get("start")) is not int
            or type(trig.get("end")) is not int
            or not isinstance(trig.get("text"), str)
        ):
            raise CorpusError(f"{where}: event {j}: trigger must have int start/end and string text")
        args = e.get("args", {})
        if not isinstance(args, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in args.items()
        ):
            raise CorpusError(f"{where}: event {j}: args must map strings to strings")
        events.append(
            Event(e["type"], TextSpan(trig["start"], trig["end"], trig["text"]), dict(args))
        )
    return events


def jsonl_documents(text: str, default_patient: bool = False, name: str | None = None):
    """Yield (document, split) for every corpus line; CorpusError on a bad line or repeated doc_id.

    ``name``, the file the text came from, starts every error message."""
    seen_ids: set[str] = set()
    for where, obj in jsonl_records(text, name):
        adoc, split = document_from_obj(obj, _events_from_obj(obj, where), where, default_patient)
        if adoc.doc_id in seen_ids:
            raise CorpusError(f"{where}: duplicate doc_id {adoc.doc_id!r}")
        seen_ids.add(adoc.doc_id)
        yield adoc, split


def corpus_from_jsonl(text: str, name: str | None = None) -> Corpus:
    pairs = list(jsonl_documents(text, name=name))
    return Corpus([d for d, _ in pairs], {d.doc_id: s for d, s in pairs if s is not None})


def read_corpus_jsonl(path) -> Corpus:
    return corpus_from_jsonl(read_text(path), str(path))
