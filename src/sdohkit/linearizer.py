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
        span = repair_span(trigger_text, doc_text)
        if span is not None and span.start not in claimed_starts:
            return span, True
    return None, False


def parse_events(
    output: str,
    doc_text: str,
    schema: Schema,
    repair: bool = True,
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
            trig_text, doc_text, claimed.setdefault(event_type, set()), repair
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


def _char_masks(pattern: str) -> dict[str, int]:
    """Bit i of masks[ch] is set where pattern[i] == ch."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks


def _myers_distances(masks: dict[str, int], m: int, text: str, anchored: bool) -> list[int]:
    """Edit distances of a length-m pattern at every end of ``text``.

    Myers' bit-vector algorithm (Myers 1999, J. ACM 46(3), in Hyyrö's
    formulation) with Python ints as m-bit column vectors: entry j-1 is
    lev(pattern, text[:j]) when ``anchored``, else the smallest
    lev(pattern, text[s:j]) over all starts s.
    """
    ones = (1 << m) - 1
    high = 1 << (m - 1)
    carry = int(anchored)  # row 0 of the DP: j when anchored, 0 when any start is free
    pv, mv, score = ones, 0, m
    out = []
    for ch in text:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | carry
        pv = ((mh << 1) | ~(xv | ph)) & ones
        mv = ph & xv
        out.append(score)
    return out


def repair_span(claimed: str, doc_text: str, max_norm_dist: float = 0.2) -> TextSpan | None:
    """Recover a document span for a near-miss trigger text.

    Stage 1 looks for a normalization-equivalent match (casefolded,
    whitespace collapsed, edge punctuation stripped) over word-aligned
    windows. Stage 2 considers every substring within +/-50% of the claimed
    length L and takes the minimum-Levenshtein candidate (casefolded
    comparison) whose distance d satisfies
    ``d <= int(max_norm_dist * max(length, L))``. Annotated spans start and
    end on word characters, so distance ties prefer candidates whose edges
    do not split or pad a word, then the smallest start offset, then the
    length closest to the claimed text, then the shorter one.

    Stage 2 is bit-parallel: one Myers pass of the claim over the note gives
    the best distance ending at each position, and only ends within the
    largest allowed distance get a second, anchored pass of the reversed
    claim over the reversed window before them, which gives the distance
    from every start. A note with no such end, the usual miss, costs
    O(n * ceil(m / w)) big-int operations for an n-char note, an m-char
    claim and w-bit machine words.
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

    # bound[length]: the largest distance a candidate of that length may have
    bound = [int(max_norm_dist * max(length, L)) for length in range(max_len + 1)]
    k_max = max(bound[min_len:])
    # The best distance ending at j bounds every candidate ending there from below.
    ends = sorted(
        (d, j)
        for j, d in enumerate(_myers_distances(_char_masks(c), len(c), doc_fold, False), 1)
        if d <= k_max
    )
    reversed_masks = _char_masks(c[::-1])
    best = k_max
    ties: list[tuple[int, int]] = []  # (start, length) at distance best
    for d_end, j in ends:
        if d_end > best:
            break
        window = doc_fold[max(0, j - max_len) : j][::-1]
        for length, d in enumerate(_myers_distances(reversed_masks, len(c), window, True), 1):
            if length < min_len or d > bound[length] or d > best:
                continue
            if d < best:
                best, ties = d, []
            ties.append((j - length, length))
    if not ties:
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
