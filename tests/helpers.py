"""Test-side oracles and generators, independent of the library internals.

The matching oracle enumerates one-to-one matchings exhaustively, so it is
only usable on small documents; the scorer must agree with it on randomly
generated instances. The span-repair, bootstrap, F1, per-document scoring,
standoff parsing and few-shot sampling references are the straightforward
implementations the library's faster or shorter ones must match. ``loopback_endpoint`` is a chat endpoint on
127.0.0.1 for tests of the real HTTP transport.
"""

import contextlib
import random
import re
import string
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from sdohkit.brat import _FIELD_SAFE, AnnFormatError
from sdohkit.corpus import AnnotatedDocument, Corpus, Document, Event, TextSpan
from sdohkit.qa import FewShotError, FewShotExample, FewShotSet
from sdohkit.schema import Schema, validate_event
from sdohkit.scoring import Counts, match_triggers, prf, score_corpus


def _enumerate_matchings(edges: list[list[int]], gi: int, used: int, size: int, arg_tp: int,
                         arg_tp_fn, state: dict) -> None:
    if gi == len(edges):
        if size > state["max_size"]:
            state["max_size"] = size
            state["best_arg_tp"] = arg_tp
        elif size == state["max_size"] and arg_tp > state["best_arg_tp"]:
            state["best_arg_tp"] = arg_tp
        return
    # gold gi unmatched
    _enumerate_matchings(edges, gi + 1, used, size, arg_tp, arg_tp_fn, state)
    for pi in edges[gi]:
        if not used & (1 << pi):
            _enumerate_matchings(
                edges, gi + 1, used | (1 << pi), size + 1, arg_tp + arg_tp_fn(gi, pi),
                arg_tp_fn, state,
            )


def _solve(golds: list[Event], preds: list[Event], edge_ok, arg_tp_fn) -> tuple[int, int]:
    """(max matching size, max summed arg TP over maximum matchings)."""
    edges = [[pi for pi, p in enumerate(preds) if edge_ok(g, p)] for g in golds]
    state = {"max_size": 0, "best_arg_tp": 0}
    _enumerate_matchings(edges, 0, 0, 0, 0, arg_tp_fn, state)
    return state["max_size"], state["best_arg_tp"]


def _overlap_ok(g: Event, p: Event) -> bool:
    return g.event_type == p.event_type and g.trigger.overlap_len(p.trigger) >= 1


def oracle_doc_tp(gold: list[Event], pred: list[Event]) -> dict:
    """Exhaustive-matching TP counts per event type at each level.

    trigger: maximum one-to-one matching over equivalent pairs.
    event: maximum matching over pairs that are equivalent and have equal
    argument maps. argument: the largest total of agreeing arguments
    achievable by any maximum-cardinality trigger matching.
    """
    out = {"trigger": {}, "argument": {}, "event": {}}
    types = sorted({e.event_type for e in gold} | {e.event_type for e in pred})
    for t in types:
        g = [e for e in gold if e.event_type == t]
        p = [e for e in pred if e.event_type == t]

        def arg_agree(gi, pi, g=g, p=p):
            return sum(1 for k, v in p[pi].arguments.items() if g[gi].arguments.get(k) == v)

        trig_tp, arg_tp = _solve(g, p, _overlap_ok, arg_agree)
        event_tp, _ = _solve(
            g, p, lambda a, b: _overlap_ok(a, b) and a.arguments == b.arguments, lambda gi, pi: 0
        )
        out["trigger"][t] = trig_tp
        out["argument"][t] = arg_tp
        out["event"][t] = event_tp
    return out


def perturb_events(doc: AnnotatedDocument, schema: Schema, rng: random.Random) -> list[Event]:
    """A plausible prediction for one document: mostly-right events with
    span jitter, label noise, argument noise, drops, and spurious extras."""
    text = doc.document.text
    preds = []
    for ev in doc.events:
        if rng.random() < 0.12:
            continue
        event_type = ev.event_type
        if rng.random() < 0.08:
            event_type = rng.choice(schema.event_types).name
        start, end = ev.trigger.start, ev.trigger.end
        if rng.random() < 0.35:
            start = max(0, start + rng.randint(-3, 3))
            end = min(len(text), max(start + 1, end + rng.randint(-3, 3)))
        args = dict(ev.arguments)
        if args and rng.random() < 0.25:
            name = rng.choice(sorted(args))
            adef = schema.event_type(ev.event_type).argument(name)
            if adef is not None:
                args[name] = rng.choice(adef.subtypes)
        if args and rng.random() < 0.15:
            args.pop(rng.choice(sorted(args)))
        preds.append(Event(event_type, TextSpan(start, end, text[start:end]), args))
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 2)):
            et = rng.choice(schema.event_types)
            s = rng.randrange(0, max(1, len(text) - 8))
            e = min(len(text), s + rng.randint(2, 8))
            args = {a.name: rng.choice(a.subtypes) for a in et.required_arguments}
            preds.append(Event(et.name, TextSpan(s, e, text[s:e]), args))
    out, seen = [], set()
    for e in preds:
        key = (e.event_type, e.trigger.start, e.trigger.end)
        if e.trigger.start < e.trigger.end and key not in seen:
            seen.add(key)
            out.append(e)
    return out[:5]


def as_pred_corpus(gold: Corpus, pred_events: dict) -> Corpus:
    return Corpus(
        [AnnotatedDocument(d.document, pred_events.get(d.doc_id, [])) for d in gold.docs]
    )


def bootstrap_reference(gold: Corpus, pred_a: Corpus, pred_b: Corpus,
                        level: str, n_resamples: int, seed: int) -> tuple[float, float]:
    """From-scratch paired bootstrap: every resample rebuilds the drawn corpus
    (fresh doc ids for duplicates) and re-scores it with the full matcher.
    Returns (observed delta, p)."""

    def micro(g: Corpus, p: Corpus) -> Counts:
        return score_corpus(g, p).micro[level].counts

    doc_ids = sorted(gold.doc_ids())
    gold_map, a_map, b_map = gold.doc_map, pred_a.doc_map, pred_b.doc_map
    delta = prf(micro(gold, pred_a))[2] - prf(micro(gold, pred_b))[2]
    if delta <= 0:
        return delta, 1.0

    exceed = 0
    children = np.random.SeedSequence(seed).spawn(n_resamples)
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, len(doc_ids), size=len(doc_ids))

        def resampled(src_map):
            docs = []
            for j, i in enumerate(idx):
                orig = src_map.get(doc_ids[i])
                base = gold_map[doc_ids[i]].document
                doc = Document(f"rs-{j}", base.patient_id, base.text, base.note_date)
                docs.append(AnnotatedDocument(doc, list(orig.events) if orig else []))
            return Corpus(docs)

        g = resampled(gold_map)
        da = prf(micro(g, resampled(a_map)))[2] - prf(micro(g, resampled(b_map)))[2]
        if da > 2 * delta:
            exceed += 1
    return delta, (exceed + 1) / (n_resamples + 1)


def precision_recall_f1_reference(tp, fp, fn) -> tuple[float, float, float]:
    """Precision, recall, F1 of scalar counts, one conditional per zero
    denominator; the library's branch-free form must equal it bit for bit."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def bootstrap_deltas_reference(counts: np.ndarray, seed: int, n_resamples: int) -> np.ndarray:
    """The per-child resampling loop over (n_docs, 6) rows [tp, fp, fn] x 2: each
    spawned child builds its own Generator, draws n_docs row indices, and
    F1(A) - F1(B) is recomputed from the summed rows. One delta per resample."""
    n_docs = len(counts)
    deltas = []
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        totals = counts[np.random.default_rng(child).integers(0, n_docs, size=n_docs)].sum(axis=0)
        deltas.append(precision_recall_f1_reference(*totals[:3])[2]
                      - precision_recall_f1_reference(*totals[3:])[2])
    return np.array(deltas, dtype=np.float64)


# --- standoff parsing reference ----------------------------------------------

def parse_ann_reference(
    ann_text: str, doc_text: str, schema: Schema | None = None
) -> tuple[list[Event], list[str]]:
    """``brat.parse_ann`` as it was when it rescanned the E lines for every
    duplicate-id check and for every attribute on a dropped event.

    Parse .ann content against its document text.

    Returns (events, warnings). Events whose spans are unusable are dropped
    with a warning; surface-text mismatches (after mapping tabs and line
    breaks to spaces, as ``write_ann`` does) are repaired to the document
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


# --- span repair reference ---------------------------------------------------

_STRIP_CHARS = string.punctuation + string.whitespace


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


def repair_span_reference(claimed: str, doc_text: str, max_norm_dist: float = 0.2) -> TextSpan | None:
    """``linearizer.repair_span`` computed the direct way: stage 2 runs a
    banded Levenshtein DP from every start offset.

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


# --- per-document scoring reference --------------------------------------------

def _bump(table: dict, key, tp=0, fp=0, fn=0) -> None:
    c = table.get(key, Counts())
    table[key] = c + Counts(tp, fp, fn)


def score_document_reference(gold: list[Event], pred: list[Event]) -> dict:
    """``scoring.score_document`` computed the direct way: one loop per level
    and side, one ``Counts`` addition per increment. Keys enter each table in
    the order the library must keep: trigger level matched, unmatched gold,
    unmatched predictions; argument and event levels predictions, then gold."""
    matches = match_triggers(gold, pred)
    by_gold = {m.gold_index: m for m in matches}
    by_pred = {m.pred_index: m for m in matches}

    trigger: dict[str, Counts] = {}
    argument: dict[tuple[str, str], Counts] = {}
    event: dict[str, Counts] = {}

    for m in matches:
        _bump(trigger, gold[m.gold_index].event_type, tp=1)
    for gi, g in enumerate(gold):
        if gi not in by_gold:
            _bump(trigger, g.event_type, fn=1)
    for pi, p in enumerate(pred):
        if pi not in by_pred:
            _bump(trigger, p.event_type, fp=1)

    for pi, p in enumerate(pred):
        m = by_pred.get(pi)
        g = gold[m.gold_index] if m else None
        for name, subtype in p.arguments.items():
            if g is not None and g.arguments.get(name) == subtype:
                _bump(argument, (p.event_type, name), tp=1)
            else:
                _bump(argument, (p.event_type, name), fp=1)
    for gi, g in enumerate(gold):
        m = by_gold.get(gi)
        p = pred[m.pred_index] if m else None
        for name, subtype in g.arguments.items():
            if p is None or p.arguments.get(name) != subtype:
                _bump(argument, (g.event_type, name), fn=1)

    for pi, p in enumerate(pred):
        m = by_pred.get(pi)
        if m is not None and gold[m.gold_index].arguments == p.arguments:
            _bump(event, p.event_type, tp=1)
        else:
            _bump(event, p.event_type, fp=1)
    for gi, g in enumerate(gold):
        m = by_gold.get(gi)
        if m is None or pred[m.pred_index].arguments != g.arguments:
            _bump(event, g.event_type, fn=1)

    return {"trigger": trigger, "argument": argument, "event": event}


# --- few-shot sampling reference -----------------------------------------------

def _events_of_type(doc: AnnotatedDocument, event_type: str) -> list[Event]:
    return sorted(
        (e for e in doc.events if e.event_type == event_type),
        key=lambda e: (e.trigger.start, e.trigger.end),
    )


def _trigger_answer(doc: AnnotatedDocument, event_type: str) -> str:
    events = _events_of_type(doc, event_type)
    return "\n".join(e.trigger.text for e in events) if events else "NONE"


def sample_fewshot_reference(train: Corpus, target, kind: str, seed) -> FewShotSet:
    """The per-query scan: re-sorts the corpus and re-filters every doc.

    Draws three constraint-satisfying examples from the train corpus.

    ``kind="trigger"`` (target: event type): one note with zero, one with
    exactly one, and one with more than one trigger of the type, in that
    order. ``kind="required-arg"`` (target: (event type, argument)): three
    notes with an event carrying the argument. ``kind="optional-arg"``: two
    such positives plus one note whose event of the type lacks the argument,
    answered "none". Selection is uniform within each class per seed.
    """
    rng = random.Random(f"fewshot:{kind}:{target}:{seed}")
    docs = sorted(train.docs, key=lambda d: d.doc_id)

    if kind == "trigger":
        event_type = target
        buckets: dict[str, list[AnnotatedDocument]] = {
            "zero-triggers": [],
            "one-trigger": [],
            "many-triggers": [],
        }
        for d in docs:
            n = len(_events_of_type(d, event_type))
            if n == 0:
                buckets["zero-triggers"].append(d)
            elif n == 1:
                buckets["one-trigger"].append(d)
            else:
                buckets["many-triggers"].append(d)
        examples = []
        for name in ("zero-triggers", "one-trigger", "many-triggers"):
            if not buckets[name]:
                raise FewShotError(f"class {name} empty for event type {event_type}")
            doc = rng.choice(buckets[name])
            examples.append(FewShotExample(doc.document.text, _trigger_answer(doc, event_type)))
        return FewShotSet(examples, "zero-one-many")

    if kind not in ("required-arg", "optional-arg"):
        raise ValueError(f"unknown few-shot kind {kind!r}")
    event_type, arg_name = target
    positives = []
    negatives = []
    for d in docs:
        evs = _events_of_type(d, event_type)
        if any(arg_name in e.arguments for e in evs):
            positives.append(d)
        if any(arg_name not in e.arguments for e in evs):
            negatives.append(d)

    def pick_example(doc: AnnotatedDocument, want_argument: bool) -> FewShotExample:
        pool = [
            e
            for e in _events_of_type(doc, event_type)
            if (arg_name in e.arguments) == want_argument
        ]
        ev = rng.choice(pool)
        answer = ev.arguments[arg_name] if want_argument else "none"
        return FewShotExample(doc.document.text, answer, ev.trigger)

    if kind == "required-arg":
        if len(positives) < 3:
            raise FewShotError(
                f"class positive has {len(positives)} documents for {event_type}.{arg_name}, need 3"
            )
        chosen = rng.sample(positives, 3)
        return FewShotSet([pick_example(d, True) for d in chosen], "three-positive")

    if not negatives:
        raise FewShotError(f"class negative empty for {event_type}.{arg_name}")
    neg_doc = rng.choice(negatives)
    pos_pool = [d for d in positives if d.doc_id != neg_doc.doc_id]
    if len(pos_pool) < 2:
        raise FewShotError(
            f"class positive has {len(pos_pool)} documents for {event_type}.{arg_name}, need 2"
        )
    pos_docs = rng.sample(pos_pool, 2)
    examples = [pick_example(pos_docs[0], True), pick_example(pos_docs[1], True),
                pick_example(neg_doc, False)]
    return FewShotSet(examples, "two-positive-one-negative")


@contextlib.contextmanager
def loopback_endpoint(reply):
    """Serve POSTs on 127.0.0.1 until the block ends; yields ``(url, seen)``.

    ``reply(headers, body)`` answers each request with ``(status, headers,
    body bytes)``, written as given (a ``Content-Length`` header overrides the
    body's own length), or with None to close the connection unanswered.
    ``seen`` collects each request's ``(path, headers, body)``.
    """
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append((self.path, self.headers, body))
            answer = reply(self.headers, body)
            if answer is not None:
                status, headers, data = answer
                head = {"Content-Length": len(data), **headers}
                lines = [f"HTTP/1.0 {status} Reply", *(f"{k}: {v}" for k, v in head.items())]
                self.wfile.write("\r\n".join(lines + ["", ""]).encode() + data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = False  # so server_close waits for every handler
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
