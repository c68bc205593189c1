"""Standoff annotation I/O (.ann files paired with .txt documents).

Only the three line kinds this annotation scheme produces are honored:
text-bound trigger spans (T), event lines binding a label to a trigger (E),
and attributes carrying argument subtypes (A). Note (#) and normalization
(N) lines are skipped silently; relation (R) lines and anything else are
structural errors, as are dangling references and wrong field counts.
Recoverable data problems (bad spans, surface-text drift, schema
violations, discontinuous spans) become warnings instead and never abort a
parse.
"""

from __future__ import annotations

import json
import os

from .corpus import AnnotatedDocument, Corpus, Document, Event, TextSpan, document_violations
from .schema import Schema, validate_event


class AnnFormatError(ValueError):
    """Structurally malformed .ann content."""


def parse_ann(
    ann_text: str, doc_text: str, schema: Schema | None = None
) -> tuple[list[Event], list[str]]:
    """Parse .ann content against its document text.

    Returns (events, warnings). Events whose spans are unusable are dropped
    with a warning; surface-text mismatches are repaired to the document
    substring and warned about; schema violations are warned but kept.
    """
    tb: dict[str, tuple[str, int, int, str, int]] = {}  # id -> (label, start, end, text, line)
    ev_lines: list[tuple[str, str, str, int]] = []  # (eid, label, tref, line)
    attrs: list[tuple[str, str, str, str, int]] = []  # (aid, name, eref, value, line)
    warnings: list[str] = []
    dropped_tb: set[str] = set()

    for lineno, line in enumerate(ann_text.splitlines(), start=1):
        if not line.strip():
            continue
        kind = line[0]
        if kind in "#N":
            continue
        if kind == "R":
            raise AnnFormatError(f"line {lineno}: relation lines are not part of this scheme")
        fields = line.split("\t")
        if kind == "T":
            if len(fields) != 3:
                raise AnnFormatError(f"line {lineno}: text-bound line needs 3 tab fields")
            tid, type_span, text = fields
            if ";" in type_span:
                warnings.append(f"line {lineno}: discontinuous span dropped ({tid})")
                dropped_tb.add(tid)
                continue
            parts = type_span.split(" ")
            if len(parts) != 3:
                raise AnnFormatError(f"line {lineno}: expected 'Label start end'")
            label, s, e = parts
            try:
                start, end = int(s), int(e)
            except ValueError:
                raise AnnFormatError(f"line {lineno}: non-integer offsets") from None
            if tid in tb:
                raise AnnFormatError(f"line {lineno}: duplicate id {tid}")
            tb[tid] = (label, start, end, text, lineno)
        elif kind == "E":
            if len(fields) != 2:
                raise AnnFormatError(f"line {lineno}: event line needs 2 tab fields")
            eid, binding = fields
            if " " in binding.strip():
                raise AnnFormatError(f"line {lineno}: event arguments beyond the trigger are not supported")
            if ":" not in binding:
                raise AnnFormatError(f"line {lineno}: event line needs 'Label:Tref'")
            label, tref = binding.split(":", 1)
            if any(e[0] == eid for e in ev_lines):
                raise AnnFormatError(f"line {lineno}: duplicate id {eid}")
            ev_lines.append((eid, label, tref, lineno))
        elif kind == "A":
            if len(fields) != 2:
                raise AnnFormatError(f"line {lineno}: attribute line needs 2 tab fields")
            aid, rest = fields
            parts = rest.split(" ", 2)
            if len(parts) != 3:
                raise AnnFormatError(f"line {lineno}: expected 'Name Eref Value'")
            name, eref, value = parts
            attrs.append((aid, name, eref, value, lineno))
        else:
            raise AnnFormatError(f"line {lineno}: unrecognized annotation kind {kind!r}")

    events: list[Event] = []
    by_eid: dict[str, Event] = {}
    seen_keys: set[tuple[str, int, int]] = set()
    for eid, label, tref, lineno in ev_lines:
        if tref in dropped_tb:
            warnings.append(f"line {lineno}: {eid} references dropped span {tref}")
            continue
        if tref not in tb:
            raise AnnFormatError(f"line {lineno}: {eid} references missing {tref}")
        t_label, start, end, text, t_line = tb[tref]
        if t_label != label:
            warnings.append(f"line {lineno}: {eid} label {label!r} differs from {tref} label {t_label!r}")
        if not (0 <= start < end <= len(doc_text)):
            warnings.append(f"line {t_line}: span [{start},{end}) out of bounds, {eid} dropped")
            continue
        actual = doc_text[start:end]
        if actual != text:
            warnings.append(
                f"line {t_line}: surface text differs from document at [{start},{end}), using document text"
            )
        key = (label, start, end)
        if key in seen_keys:
            warnings.append(f"line {lineno}: duplicate event ({label}, [{start},{end})), {eid} dropped")
            continue
        seen_keys.add(key)
        ev = Event(label, TextSpan(start, end, actual), {})
        events.append(ev)
        by_eid[eid] = ev

    for aid, name, eref, value, lineno in attrs:
        if eref not in by_eid:
            if any(e[0] == eref for e in ev_lines):
                # attribute on an event that was dropped above
                warnings.append(f"line {lineno}: {aid} attached to dropped event {eref}")
                continue
            raise AnnFormatError(f"line {lineno}: {aid} references missing {eref}")
        ev = by_eid[eref]
        if name in ev.arguments:
            warnings.append(f"line {lineno}: duplicate attribute {name} on {eref}, keeping first")
            continue
        ev.arguments[name] = value

    if schema is not None:
        for ev in events:
            for v in validate_event(schema, ev):
                warnings.append(f"event at [{ev.trigger.start},{ev.trigger.end}): {v}")
    return events, warnings


def write_ann(events: list[Event], doc_text: str) -> str:
    """Emit .ann lines with sequential ids in event order.

    ``parse_ann(write_ann(events, text), text)`` reproduces the events
    exactly (and warning-free) for any valid event list.
    """
    lines = []
    attr_n = 0
    for i, ev in enumerate(events, start=1):
        t = ev.trigger
        if not (0 <= t.start < t.end <= len(doc_text)):
            raise AnnFormatError(
                f"event {i}: trigger span [{t.start},{t.end}) out of bounds for document"
            )
        if doc_text[t.start:t.end] != t.text:
            raise AnnFormatError(f"event {i}: trigger text does not match document")
        lines.append(f"T{i}\t{ev.event_type} {t.start} {t.end}\t{t.text}")
        lines.append(f"E{i}\t{ev.event_type}:T{i}")
        for name, value in ev.arguments.items():
            attr_n += 1
            lines.append(f"A{attr_n}\t{name} E{i} {value}")
    return "".join(line + "\n" for line in lines)


# --- directory import/export ------------------------------------------------

_META_FILE = "metadata.jsonl"


def export_brat_dir(corpus: Corpus, dirpath) -> None:
    """Write <doc_id>.txt/.ann pairs plus a metadata sidecar.

    The sidecar preserves patient ids, note dates, annotator ids, and split
    assignments, which the standoff files themselves cannot carry. Every
    document is checked before anything is written.
    """
    for adoc in corpus.docs:
        problems = document_violations(adoc)
        if problems:
            raise AnnFormatError(f"{adoc.doc_id}: " + "; ".join(problems))
    os.makedirs(dirpath, exist_ok=True)
    meta_lines = []
    for adoc in corpus.docs:
        doc = adoc.document
        with open(os.path.join(dirpath, f"{doc.doc_id}.txt"), "w", encoding="utf-8") as f:
            f.write(doc.text)
        with open(os.path.join(dirpath, f"{doc.doc_id}.ann"), "w", encoding="utf-8") as f:
            f.write(write_ann(adoc.events, doc.text))
        meta_lines.append(
            json.dumps(
                {
                    "doc_id": doc.doc_id,
                    "patient_id": doc.patient_id,
                    "note_date": doc.note_date,
                    "annotator_id": adoc.annotator_id,
                    "split": corpus.split_assignment.get(doc.doc_id),
                },
                ensure_ascii=False,
                separators=(",", ":"),
            )
        )
    with open(os.path.join(dirpath, _META_FILE), "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in meta_lines))


def import_brat_dir(dirpath, schema: Schema | None = None) -> tuple[Corpus, list[str]]:
    """Read every .txt/.ann pair in a directory back into a corpus.

    Metadata comes from the sidecar when present; otherwise patient ids
    default to the document id. Returns (corpus, warnings).
    """
    meta: dict[str, dict] = {}
    meta_path = os.path.join(dirpath, _META_FILE)
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    obj = json.loads(line)
                    meta[obj["doc_id"]] = obj

    docs = []
    assignment: dict[str, str] = {}
    warnings: list[str] = []
    names = sorted(n for n in os.listdir(dirpath) if n.endswith(".txt"))
    for name in names:
        doc_id = name[: -len(".txt")]
        with open(os.path.join(dirpath, name), encoding="utf-8") as f:
            text = f.read()
        ann_path = os.path.join(dirpath, doc_id + ".ann")
        ann_text = ""
        if os.path.exists(ann_path):
            with open(ann_path, encoding="utf-8") as f:
                ann_text = f.read()
        try:
            events, warns = parse_ann(ann_text, text, schema)
        except AnnFormatError as exc:
            raise AnnFormatError(f"{doc_id}.ann: {exc}") from exc
        warnings.extend(f"{doc_id}.ann: {w}" for w in warns)
        m = meta.get(doc_id, {})
        adoc = AnnotatedDocument(
            Document(doc_id, m.get("patient_id") or doc_id, text, m.get("note_date")),
            events,
            m.get("annotator_id"),
        )
        problems = document_violations(adoc)
        if problems:
            raise AnnFormatError(f"{doc_id}: " + "; ".join(problems))
        docs.append(adoc)
        if m.get("split"):
            assignment[doc_id] = m["split"]
    return Corpus(docs, assignment), warnings
