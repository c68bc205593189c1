"""Structured text encoding of events and tolerant parsing of model output.

The canonical encoding of a document's events is::

    NONE
    TypeName [trigger text] | Arg = subtype [trigger text]
    Event AND Event AND ...

i.e. events joined by " AND ", each event naming its type, its trigger text
in square brackets, then one " | "-separated clause per argument that
repeats the trigger text. Trigger texts containing a reserved token
("[", "]", " AND ", " | ", or a newline) cannot be encoded and are rejected
at serialize time.

Parsing is total over arbitrary strings: fragments that fail the grammar,
cannot be grounded to the document, or violate the schema are collected as
invalid records with a reason, and never abort the parse. Grounding maps a
trigger text to its first exact occurrence in the document not already
claimed by an earlier event of the same type; optionally, near-miss texts
are repaired to the closest document substring.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field

from .corpus import Event, TextSpan
from .schema import Schema, validate_event

RESERVED_TOKENS = (" AND ", " | ", "[", "]", "\n")

_EVENT_RE = re.compile(r"(?P<type>\S+) \[(?P<trig>[^\[\]]*)\](?P<rest>.*)", re.DOTALL)
_CLAUSE_RE = re.compile(r"(?P<name>\S+) = (?P<subtype>.+) \[(?P<trig>[^\[\]]*)\]", re.DOTALL)

_STRIP_CHARS = string.punctuation + string.whitespace


class SerializeError(ValueError):
    """Events that cannot be represented in the output grammar."""


def contains_reserved(text: str) -> bool:
    return any(tok in text for tok in RESERVED_TOKENS)


def serialize_events(events: list[Event], schema: Schema) -> str:
    """Encode events in trigger start order; "NONE" when there are none.

    Within an event, required arguments come before optional ones, each
    group in schema declaration order.
    """
    if not events:
        return "NONE"
    parts = []
    for ev in sorted(events, key=lambda e: (e.trigger.start, e.trigger.end, e.event_type)):
        violations = validate_event(schema, ev)
        if violations:
            raise SerializeError(f"event {ev.event_type!r}: {violations[0]}")
        if contains_reserved(ev.trigger.text):
            raise SerializeError(
                f"trigger text {ev.trigger.text!r} contains a reserved token"
            )
        et = schema.event_type(ev.event_type)
        ordered = [a.name for a in et.required_arguments if a.name in ev.arguments]
        ordered += [a.name for a in et.optional_arguments if a.name in ev.arguments]
        clauses = [f"{ev.event_type} [{ev.trigger.text}]"]
        for name in ordered:
            subtype = ev.arguments[name]
            if contains_reserved(subtype):
                raise SerializeError(f"subtype {subtype!r} contains a reserved token")
            clauses.append(f"{name} = {subtype} [{ev.trigger.text}]")
        parts.append(" | ".join(clauses))
    return " AND ".join(parts)


@dataclass(frozen=True)
class InvalidRecord:
    fragment: str
    reason: str  # format | span-not-found | unknown-type | unknown-subtype
    level: str  # trigger | argument
    detail: str = ""


@dataclass
class ParseOutcome:
    events: list[Event] = field(default_factory=list)
    invalid_records: list[InvalidRecord] = field(default_factory=list)
    repaired_count: int = 0


def is_none_answer(output: str) -> bool:
    """True for an empty answer or NONE (any case, trailing periods allowed)."""
    text = output.strip()
    return not text or text.rstrip(".").strip().upper() == "NONE"


def ground_span(
    trigger_text: str,
    doc_text: str,
    claimed_starts: set[int],
    repair: bool = True,
    max_norm_dist: float = 0.2,
) -> tuple[TextSpan | None, bool]:
    """Locate a trigger text in the document.

    Exact match first (earliest occurrence whose start is unclaimed), then
    optional repair. Returns (span, was_repaired). A text found exactly, but
    only at claimed starts, repeats a claimed trigger: (None, False), unrepaired."""
    pos = 0
    while trigger_text:
        hit = doc_text.find(trigger_text, pos)
        if hit < 0:
            break
        if hit not in claimed_starts:
            return TextSpan(hit, hit + len(trigger_text), trigger_text), False
        pos = hit + 1
    if repair and not pos:
        span = repair_span(trigger_text, doc_text, max_norm_dist)
        if span is not None and span.start not in claimed_starts:
            return span, True
    return None, False


def parse_events(
    output: str,
    doc_text: str,
    schema: Schema,
    repair: bool = True,
    max_norm_dist: float = 0.2,
) -> ParseOutcome:
    """Parse a model's linearized output back into grounded events."""
    outcome = ParseOutcome()
    if is_none_answer(output):
        return outcome

    claimed: dict[str, set[int]] = {}
    for fragment in output.strip().split(" AND "):
        fragment = fragment.strip()
        if not fragment:
            outcome.invalid_records.append(InvalidRecord(fragment, "format", "trigger", "empty fragment"))
            continue
        m = _EVENT_RE.fullmatch(fragment)
        if m is None:
            outcome.invalid_records.append(InvalidRecord(fragment, "format", "trigger"))
            continue
        event_type, trig_text, rest = m.group("type"), m.group("trig"), m.group("rest")
        et = schema.event_type(event_type)
        if et is None:
            outcome.invalid_records.append(
                InvalidRecord(fragment, "unknown-type", "trigger", event_type)
            )
            continue
        span, repaired = ground_span(
            trig_text, doc_text, claimed.setdefault(event_type, set()), repair, max_norm_dist
        )
        if span is None:
            if trig_text and trig_text in doc_text:
                record = InvalidRecord(fragment, "format", "trigger", "duplicate event span")
            else:
                record = InvalidRecord(fragment, "span-not-found", "trigger", trig_text)
            outcome.invalid_records.append(record)
            continue

        arguments: dict[str, str] = {}
        arg_records: list[InvalidRecord] = []
        ok_rest = True
        if rest:
            if not rest.startswith(" | "):
                outcome.invalid_records.append(
                    InvalidRecord(fragment, "format", "trigger", "malformed argument list")
                )
                ok_rest = False
            else:
                for clause in rest[3:].split(" | "):
                    cm = _CLAUSE_RE.fullmatch(clause)
                    if cm is None:
                        arg_records.append(InvalidRecord(clause, "format", "argument"))
                        continue
                    name, subtype, echo = cm.group("name"), cm.group("subtype"), cm.group("trig")
                    if echo != trig_text:
                        arg_records.append(
                            InvalidRecord(clause, "format", "argument", "trigger echo mismatch")
                        )
                        continue
                    adef = et.argument(name)
                    if adef is None:
                        arg_records.append(InvalidRecord(clause, "unknown-type", "argument", name))
                        continue
                    if subtype not in adef.subtypes:
                        arg_records.append(
                            InvalidRecord(clause, "unknown-subtype", "argument", subtype)
                        )
                        continue
                    if name in arguments:
                        arg_records.append(
                            InvalidRecord(clause, "format", "argument", "duplicate argument")
                        )
                        continue
                    arguments[name] = subtype
        if not ok_rest:
            continue
        outcome.invalid_records.extend(arg_records)

        missing = [a.name for a in et.required_arguments if a.name not in arguments]
        if missing:
            outcome.invalid_records.append(
                InvalidRecord(
                    fragment, "format", "trigger", f"missing required argument {missing[0]}"
                )
            )
            continue

        claimed[event_type].add(span.start)
        outcome.events.append(Event(event_type, span, arguments))
        if repaired:
            outcome.repaired_count += 1
    return outcome


# --- span repair --------------------------------------------------------------

def _normalize(s: str) -> str:
    collapsed = " ".join(s.casefold().split())
    return collapsed.strip(_STRIP_CHARS)


def _lev_within(a: str, b: str, k: int) -> int | None:
    """Levenshtein distance if it is <= k, else None (banded DP)."""
    if abs(len(a) - len(b)) > k:
        return None
    if k < 0:
        return None
    if a == b:
        return 0
    big = k + 1
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [big] * (len(b) + 1)
        lo = max(1, i - k)
        hi = min(len(b), i + k)
        if i - k <= 0:
            cur[0] = i
        ca = a[i - 1]
        row_min = cur[0] if cur[0] <= k else big
        for j in range(lo, hi + 1):
            cost = 0 if ca == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            cur[j] = v
            if v < row_min:
                row_min = v
        if row_min > k:
            return None
        prev = cur
    return prev[len(b)] if prev[len(b)] <= k else None


def repair_span(claimed: str, doc_text: str, max_norm_dist: float = 0.2) -> TextSpan | None:
    """Recover a document span for a near-miss trigger text.

    Stage 1 looks for a normalization-equivalent match (casefolded,
    whitespace collapsed, edge punctuation stripped) over word-aligned
    windows. Stage 2 scans substrings within +/-50% of the claimed length
    and takes the minimum-Levenshtein candidate (casefolded comparison)
    whose distance divided by the longer length is at most max_norm_dist.
    Annotated spans start and end on word characters, so distance ties
    prefer candidates whose edges do not split or pad a word, then the
    smallest start offset, then the length closest to the claimed text.
    """
    if not claimed:
        return None

    norm_claimed = _normalize(claimed)
    if norm_claimed:
        k = len(norm_claimed.split())
        tokens = [(m.start(), m.end()) for m in re.finditer(r"\S+", doc_text)]
        for i in range(len(tokens) - k + 1):
            s, e = tokens[i][0], tokens[i + k - 1][1]
            if _normalize(doc_text[s:e]) == norm_claimed:
                while s < e and doc_text[s] in _STRIP_CHARS:
                    s += 1
                while e > s and doc_text[e - 1] in _STRIP_CHARS:
                    e -= 1
                if s < e:
                    return TextSpan(s, e, doc_text[s:e])

    c = claimed.casefold()
    L = len(claimed)
    min_len = max(1, int(L * 0.5))
    max_len = int(L * 1.5 + 0.999)
    doc_fold = doc_text.casefold()
    # casefolding may change string length (rare); fall back to raw text so
    # offsets always index the original document
    if len(doc_fold) != len(doc_text):
        doc_fold = doc_text
        c = claimed

    claim_count: dict[str, int] = {}
    for ch in c:
        claim_count[ch] = claim_count.get(ch, 0) + 1

    best_d: int | None = None
    ties: list[tuple[int, int]] = []  # (start, length) at distance best_d
    n = len(doc_fold)
    for start in range(n):
        counts: dict[str, int] = {}
        missing = L
        extra = 0
        limit = min(max_len, n - start)
        for off in range(limit):
            ch = doc_fold[start + off]
            have = counts.get(ch, 0)
            if have < claim_count.get(ch, 0):
                missing -= 1
            else:
                extra += 1
            counts[ch] = have + 1
            length = off + 1
            if length < min_len:
                continue
            k_allow = int(max_norm_dist * max(length, L))
            if best_d is not None:
                k_allow = min(k_allow, best_d)
            if k_allow < 0 or max(missing, extra) > k_allow:
                continue
            d = _lev_within(c, doc_fold[start : start + length], k_allow)
            if d is None:
                continue
            if best_d is None or d < best_d:
                best_d = d
                ties = [(start, length)]
            elif d == best_d:
                ties.append((start, length))
    if best_d is None:
        return None

    def word_aligned(start: int, length: int) -> int:
        end = start + length
        left = doc_text[start].isalnum() and (start == 0 or not doc_text[start - 1].isalnum())
        right = doc_text[end - 1].isalnum() and (end == len(doc_text) or not doc_text[end].isalnum())
        return int(left) + int(right)

    start, length = min(
        ties, key=lambda t: (-word_aligned(*t), t[0], abs(t[1] - L), t[1])
    )
    return TextSpan(start, start + length, doc_text[start : start + length])
