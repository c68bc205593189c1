"""Standoff annotation I/O (.ann files paired with .txt documents).

Only the three line kinds this annotation scheme produces are honored:
text-bound trigger spans (T), event lines binding a label to a trigger (E),
and attributes carrying argument subtypes (A). Note (#) and normalization
(N) lines are skipped silently; relation (R) lines and anything else are
structural errors, as are ids repeated within a file, dangling references
and wrong field counts. Recoverable data problems (bad spans, surface-text
drift, schema violations, discontinuous spans) become warnings instead and
never abort a parse.
"""

from __future__ import annotations

import os

from .corpus import Corpus, CorpusError, Event, TextSpan, doc_to_obj, document_from_obj
from .corpus import document_violations, jsonl_records, jsonl_text, read_text, write_text
from .schema import Schema, validate_event


class AnnFormatError(ValueError):
    """Structurally malformed .ann content."""


# A tab or line break (any that str.splitlines breaks at) inside a trigger
# would split its T line, so the T text field carries a space in its place.
_BREAKS = "\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_FIELD_SAFE = str.maketrans(dict.fromkeys(_BREAKS, " "))
# line kind -> (tab fields, name in errors)
_FIELDS = {"T": (3, "text-bound"), "E": (2, "event"), "A": (2, "attribute")}


def parse_ann(
    ann_text: str, doc_text: str, schema: Schema | None = None
) -> tuple[list[Event], list[str]]:
    """Parse .ann content against its document text.

    Returns (events, warnings). Events whose spans are unusable are dropped
    with a warning; surface-text mismatches (after mapping tabs and line
    breaks to spaces, as ``write_ann`` does) are repaired to the document
    substring and warned about; schema violations are warned but kept.
    """
    # id -> (label, start, end, text, line), or None for a dropped discontinuous span
    tb: dict[str, tuple[str, int, int, str, int] | None] = {}
    ev_lines: dict[str, tuple[str, str, int]] = {}  # eid -> (label, tref, line)
    attrs: dict[str, tuple[str, str, str, int]] = {}  # aid -> (name, eref, value, line)
    by_id = {"T": tb, "E": ev_lines, "A": attrs}  # a line kind's ids start with its letter
    warnings: list[str] = []

    for lineno, line in enumerate(ann_text.splitlines(), start=1):
        if not line.strip():
            continue
        kind = line[0]
        if kind in "#N":
            continue
        if kind == "R":
            raise AnnFormatError(f"line {lineno}: relation lines are not part of this scheme")
        if kind not in _FIELDS:
            raise AnnFormatError(f"line {lineno}: unrecognized annotation kind {kind!r}")
        fields = line.split("\t")
        n_fields, what = _FIELDS[kind]
        if len(fields) != n_fields:
            raise AnnFormatError(f"line {lineno}: {what} line needs {n_fields} tab fields")
        if fields[0] in by_id[kind]:
            raise AnnFormatError(f"line {lineno}: duplicate id {fields[0]}")
        if kind == "T":
            tid, type_span, text = fields
            if ";" in type_span:
                warnings.append(f"line {lineno}: discontinuous span dropped ({tid})")
                tb[tid] = None
                continue
            parts = type_span.split(" ")
            if len(parts) != 3:
                raise AnnFormatError(f"line {lineno}: expected 'Label start end'")
            label, s, e = parts
            try:
                start, end = int(s), int(e)
            except ValueError:
                raise AnnFormatError(f"line {lineno}: non-integer offsets") from None
            tb[tid] = (label, start, end, text, lineno)
        elif kind == "E":
            eid, binding = fields
            if " " in binding.strip():
                raise AnnFormatError(f"line {lineno}: event arguments beyond the trigger are not supported")
            if ":" not in binding:
                raise AnnFormatError(f"line {lineno}: event line needs 'Label:Tref'")
            label, tref = binding.split(":", 1)
            ev_lines[eid] = (label, tref, lineno)
        else:
            aid, rest = fields
            parts = rest.split(" ", 2)
            if len(parts) != 3:
                raise AnnFormatError(f"line {lineno}: expected 'Name Eref Value'")
            name, eref, value = parts
            attrs[aid] = (name, eref, value, lineno)

    events: list[Event] = []
    by_eid: dict[str, Event] = {}
    seen_keys: set[tuple[str, int, int]] = set()
    for eid, (label, tref, lineno) in ev_lines.items():
        if tref not in tb:
            raise AnnFormatError(f"line {lineno}: {eid} references missing {tref}")
        if tb[tref] is None:
            warnings.append(f"line {lineno}: {eid} references dropped span {tref}")
            continue
        t_label, start, end, text, t_line = tb[tref]
        if t_label != label:
            warnings.append(f"line {lineno}: {eid} label {label!r} differs from {tref} label {t_label!r}")
        if not (0 <= start < end <= len(doc_text)):
            warnings.append(f"line {t_line}: span [{start},{end}) out of bounds, {eid} dropped")
            continue
        actual = doc_text[start:end]
        if actual.translate(_FIELD_SAFE) != text:
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

    for aid, (name, eref, value, lineno) in attrs.items():
        if eref not in by_eid:
            if eref in ev_lines:
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

    A tab or line break inside a trigger appears as a space in the T line's
    text field; the offsets still index the document exactly. So
    ``parse_ann(write_ann(events, text), text)`` reproduces the events
    exactly and warning-free for any events that ``document_violations``
    and ``_label_violations`` accept.
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
        lines.append(f"T{i}\t{ev.event_type} {t.start} {t.end}\t{t.text.translate(_FIELD_SAFE)}")
        lines.append(f"E{i}\t{ev.event_type}:T{i}")
        for name, value in ev.arguments.items():
            attr_n += 1
            lines.append(f"A{attr_n}\t{name} E{i} {value}")
    return "".join(line + "\n" for line in lines)


def _label_violations(events: list[Event]) -> list[str]:
    """Labels no standoff line can carry: the T line splits "Label start end"
    at spaces, the E line "Label:Tref" at its first ':', the A line
    "Name Eref Value" at its first two spaces, and a tab or line break ends
    a field or a line."""
    out = []
    for i, ev in enumerate(events):
        labels = [("event type", ev.event_type, _BREAKS + " :")]
        labels += [("argument name", name, _BREAKS + " ") for name in ev.arguments]
        labels += [("argument value", value, _BREAKS) for value in ev.arguments.values()]
        out += [f"event {i}: {what} {label!r} cannot be written to a standoff line"
                for what, label, bad in labels if any(c in bad for c in label)]
    return out


# --- directory import/export ------------------------------------------------

_META_FILE = "metadata.jsonl"
_META_KEYS = ("doc_id", "patient_id", "note_date", "annotator_id", "split")


def export_brat_dir(corpus: Corpus, dirpath) -> None:
    """Write a metadata sidecar, then <doc_id>.txt/.ann pairs.

    The sidecar preserves patient ids, note dates, annotator ids, and splits,
    which the standoff files themselves cannot carry; its lines are corpus
    lines without text and events, with an explicit null split. Every
    document (its split included) against ``document_violations``, and every
    label against ``_label_violations``, is checked before anything is written.
    """
    for adoc in corpus.docs:
        problems = document_violations(adoc) or _label_violations(adoc.events)
        if problems:
            raise AnnFormatError(f"{adoc.doc_id}: " + "; ".join(problems))
    os.makedirs(dirpath, exist_ok=True)
    meta = [{key: obj.get(key) for key in _META_KEYS} for obj in map(doc_to_obj, corpus.docs)]
    write_text(os.path.join(dirpath, _META_FILE), jsonl_text(meta))
    for adoc in corpus.docs:
        doc = adoc.document
        write_text(os.path.join(dirpath, f"{doc.doc_id}.txt"), doc.text)
        write_text(os.path.join(dirpath, f"{doc.doc_id}.ann"), write_ann(adoc.events, doc.text))


def import_brat_dir(dirpath, schema: Schema | None = None) -> tuple[Corpus, list[str]]:
    """Read every .txt/.ann pair in a directory back into a corpus.

    Metadata comes from the sidecar when present; a document without a
    sidecar line, or whose line leaves patient_id out, takes its doc_id as
    patient id. Sidecar lines naming no document in the directory are
    ignored. Returns (corpus, warnings).
    """
    meta: dict[str, tuple[str, dict]] = {}  # doc_id -> (where, sidecar record)
    meta_path = os.path.join(dirpath, _META_FILE)
    if os.path.exists(meta_path):
        for where, obj in jsonl_records(read_text(meta_path), _META_FILE):
            doc_id = obj.get("doc_id")
            if not isinstance(doc_id, str) or doc_id in meta:
                raise CorpusError(f"{where}: need a unique string 'doc_id'")
            meta[doc_id] = (where, obj)

    docs = []
    warnings: list[str] = []
    names = sorted(n for n in os.listdir(dirpath) if n.endswith(".txt"))
    for name in names:
        doc_id = name[: -len(".txt")]
        text = read_text(os.path.join(dirpath, name))
        ann_path = os.path.join(dirpath, doc_id + ".ann")
        ann_text = read_text(ann_path) if os.path.exists(ann_path) else ""
        try:
            events, warns = parse_ann(ann_text, text, schema)
        except AnnFormatError as exc:
            raise AnnFormatError(f"{doc_id}.ann: {exc}") from exc
        warnings.extend(f"{doc_id}.ann: {w}" for w in warns)
        where, m = meta.get(doc_id, (name, {}))
        record = {**m, "doc_id": doc_id, "text": text}
        docs.append(document_from_obj(record, events, where, default_patient=True))
    return Corpus(docs), warnings
