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
from itertools import accumulate
from operator import sub

from .corpus import Event, TextSpan
from .schema import Schema, validate_event

RESERVED_TOKENS = (" AND ", " | ", "[", "]", "\n")

_EVENT_RE = re.compile(r"(?P<type>\S+) \[(?P<trig>[^\[\]]*)\](?P<rest>.*)", re.DOTALL)
_CLAUSE_RE = re.compile(r"(?P<name>\S+) = (?P<subtype>.+) \[(?P<trig>[^\[\]]*)\]", re.DOTALL)

_STRIP_CHARS = string.punctuation + string.whitespace
_BLOCK = (1 << 64) - 1
# a word start: [^\W_] is exactly str.isalnum(), not preceded by another such char
_WORD_START = re.compile(r"(?<![^\W_])[^\W_]")


class SerializeError(ValueError):
    """Events that cannot be represented in the output grammar."""


def contains_reserved(text: str) -> bool:
    return any(tok in text for tok in RESERVED_TOKENS)


def serialize_events(events: list[Event], schema: Schema, where: str = "") -> str:
    """Encode events in trigger start order; "NONE" when there are none.

    Within an event, required arguments come before optional ones, each
    group in schema declaration order. A SerializeError starts with ``where``
    and names the event by index, type and offsets, never by its text.
    """
    if not events:
        return "NONE"
    parts = []
    for i, ev in sorted(
        enumerate(events), key=lambda p: (p[1].trigger.start, p[1].trigger.end, p[1].event_type)
    ):
        what = f"{where}event {i} {ev.event_type!r} [{ev.trigger.start},{ev.trigger.end})"
        violations = validate_event(schema, ev)
        if violations:
            raise SerializeError(f"{what}: {violations[0]}")
        if contains_reserved(ev.trigger.text):
            raise SerializeError(f"{what}: trigger text contains a reserved token")
        et = schema.event_type(ev.event_type)
        ordered = [a.name for a in et.required_arguments if a.name in ev.arguments]
        ordered += [a.name for a in et.optional_arguments if a.name in ev.arguments]
        clauses = [f"{ev.event_type} [{ev.trigger.text}]"]
        for name in ordered:
            subtype = ev.arguments[name]
            if contains_reserved(subtype):
                raise SerializeError(f"{what}: subtype {subtype!r} contains a reserved token")
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

        if rest and not rest.startswith(" | "):
            outcome.invalid_records.append(
                InvalidRecord(fragment, "format", "trigger", "malformed argument list")
            )
            continue
        arguments: dict[str, str] = {}
        for clause in rest[3:].split(" | ") if rest else ():
            cm = _CLAUSE_RE.fullmatch(clause)
            if cm is None:
                record = InvalidRecord(clause, "format", "argument")
            elif cm.group("trig") != trig_text:
                record = InvalidRecord(clause, "format", "argument", "trigger echo mismatch")
            elif (adef := et.argument(cm.group("name"))) is None:
                record = InvalidRecord(clause, "unknown-type", "argument", cm.group("name"))
            elif cm.group("subtype") not in adef.subtypes:
                record = InvalidRecord(clause, "unknown-subtype", "argument", cm.group("subtype"))
            elif cm.group("name") in arguments:
                record = InvalidRecord(clause, "format", "argument", "duplicate argument")
            else:
                arguments[cm.group("name")] = cm.group("subtype")
                continue
            outcome.invalid_records.append(record)

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


def _myers_distances(pattern: str, text: str, anchored: bool, k: int) -> list[tuple[int, int]]:
    """(end, distance) for each end of ``text`` where ``pattern`` is within ``k``.

    Myers' bit-vector algorithm (Myers 1999, J. ACM 46(3), in Hyyrö's form),
    transposed: each pattern character steps a DP row over the text, held in
    Python ints with one bit per text position. The distance at end j is
    lev(pattern, text[:j]) when ``anchored``, else min over starts s of
    lev(pattern, text[s:j]). Ends come in increasing order.
    """
    n = len(text)
    ones = (1 << n) - 1
    # bit j of masks[ch] is set where text[j] == ch: the reversed text as binary digits
    backwards = text[::-1]
    chars = set(text)
    digits = dict.fromkeys(map(ord, chars), "0")
    masks: dict[str, int] = {}
    for ch in chars.intersection(pattern):
        digits[ord(ch)] = "1"
        masks[ch] = int(backwards.translate(digits), 2)
        digits[ord(ch)] = "0"
    # pv and mv mark a row's +1 and -1 steps along the text. Row 0 is j when
    # anchored, else 0; column 0 is i, so each new row carries +1 in at bit 0.
    pv, mv = ones if anchored else 0, 0
    for ch in pattern:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | (ones ^ (xh | pv))) << 1) | 1
        pv = (((pv & xh) << 1) | (ones ^ (xv | ph))) & ones
        mv = ph & xv
    # The last row is m plus the prefix sums of its steps (b"1" - b"0" == 1). A
    # block of 64 ends falls at most its count of -1 steps below its start d, so
    # a block that cannot reach k is skipped unread.
    found, d = [], len(pattern)
    for lo in range(0, n, 64):
        up, down = (pv >> lo) & _BLOCK, (mv >> lo) & _BLOCK
        if d - down.bit_count() <= k:
            plus, minus = (format(v, f"0{min(64, n - lo)}b")[::-1].encode() for v in (up, down))
            found += [(j, d + s) for j, s in enumerate(accumulate(map(sub, plus, minus)), lo + 1)
                      if s <= k - d]
        d += up.bit_count() - down.bit_count()
    return found


def repair_span(claimed: str, doc_text: str, max_norm_dist: float = 0.2) -> TextSpan | None:
    """Recover a document span for a near-miss trigger text.

    Stage 1 looks for a normalization-equivalent match (casefolded,
    whitespace collapsed, edge punctuation stripped) over word-aligned
    windows. Stage 2 considers every substring within +/-50% of the claimed
    length L whose casefolded Levenshtein distance d satisfies
    ``d <= int(max_norm_dist * max(length, L))``, and takes the one with the
    least key ``(d, -alignment, start, |length - L|, length)``. Annotated
    spans start and end on word characters, so alignment counts the edges
    that do not split or pad a word: a word start at start, a word end at
    start + length.

    Stage 2 is bit-parallel: one Myers pass of the claim over the note gives
    the best distance d_end ending at each position j, and the ends within
    the largest allowed distance, in (d_end, j) order, get a second, anchored
    pass of the reversed claim over the reversed window before them, which
    gives the distance from every start. Each pass steps once per claim
    character: O(m * ceil(n / w)) big-int operations for an n-char note, an
    m-char claim and w-bit machine words. The last row is read 64 ends at a
    time, and a block whose -1 steps cannot bring it within the bound is
    skipped unread; a row that dips often can still have every block read,
    so the read-out stays O(n) in the worst case. The visit stops at the
    first d_end above the best key's distance. It skips an end at that
    distance whose candidates all start past the best's and cannot beat its
    alignment. That bound is loose: where word starts lie in every window but
    no tie uses one, each tying end still gets its own anchored pass.
    """
    if not claimed:
        return None

    norm_claimed = _normalize(claimed)
    words = norm_claimed.split()
    doc_fold = doc_text.casefold()
    # Each window normalizes to a substring of this, as str.split and the regex
    # \S agree on whitespace and casefold neither creates nor changes any. A
    # word holds no whitespace, so it lies inside one token of doc_fold.
    if words and all(w in doc_fold for w in words) and norm_claimed in " ".join(doc_fold.split()):
        k = len(words)
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
    # casefolding may change string length (rare: "ß", "ﬁ"); then fold only the
    # characters that fold to one, so offsets always index the original document
    if len(doc_fold) != len(doc_text):
        doc_fold, c = ("".join(ch.casefold() if len(ch.casefold()) == 1 else ch for ch in t)
                       for t in (doc_text, claimed))

    # A candidate of each length may have distance int(max_norm_dist * max(length, L)),
    # monotone in length, so the largest bound is at one end of [L, max_len].
    k_max = max(int(max_norm_dist * L), int(max_norm_dist * max_len))
    # The best distance ending at j bounds every candidate ending there from below.
    ends = sorted((d, j) for j, d in _myers_distances(c, doc_fold, False, k_max))
    best: tuple[int, ...] = (k_max + 1,)  # the least key so far
    for d_end, j in ends:
        if d_end > best[0]:
            break
        lo = max(0, j - max_len)  # every candidate ending at j starts in [lo, j - min_len]
        right = doc_text[j - 1].isalnum() and (j == len(doc_text) or not doc_text[j].isalnum())
        # a tie starting past best's wins only by alignment: right plus a word start
        if d_end == best[0] and lo > best[2] and -best[1] >= right + (
            _WORD_START.search(doc_text, lo, j - min_len + 1) is not None
        ):
            continue
        for length, d in _myers_distances(c[::-1], doc_fold[lo:j][::-1], True, best[0]):
            if length >= min_len and d <= int(max_norm_dist * max(length, L)):
                left = _WORD_START.match(doc_text, j - length) is not None
                best = min(best, (d, -(left + right), j - length, abs(length - L), length))
    if len(best) == 1:
        return None
    start, length = best[2], best[4]
    return TextSpan(start, start + length, doc_text[start : start + length])
