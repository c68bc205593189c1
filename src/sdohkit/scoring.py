"""Event scoring: trigger, argument, and event-level precision/recall/F1.

Two triggers are equivalent when they carry the same event type and their
spans share at least one character. Matching between gold and predicted
events is one-to-one and greedy: candidate pairs are processed in order of
(overlap length desc, gold start asc, pred start asc, gold end asc, pred end
asc), and then in gold and pred input order. This is deterministic and
agrees with an exhaustive maximum matching on all but adversarially
overlapping inputs.

Level definitions, given the trigger matching:

* trigger: each matched pair is a TP for its event type; unmatched
  predictions are FP, unmatched gold events FN.
* argument: a predicted argument is TP when its event's trigger is matched
  and the gold event carries the same argument name with the same subtype;
  arguments on unmatched triggers or with a differing subtype are FP, and
  gold arguments not recovered that way are FN.
* event: a prediction is TP only when its trigger is matched and its whole
  argument map equals the gold event's, optional arguments included.

Within one document, keys enter each level's table in a fixed order: at the
trigger level matched events, then unmatched gold, then unmatched
predictions; at the argument and event levels predictions, then gold.
``aggregate`` sums the macro averages in the order it first meets each key,
so another order changes those float sums in the last digit.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

from .corpus import Corpus, Event
from .schema import Schema

LEVELS = ("trigger", "argument", "event")


class ScoringError(ValueError):
    """Gold/pred corpora that cannot be scored against each other."""


@dataclass(frozen=True)
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    @property
    def support(self) -> int:
        return self.tp + self.fp + self.fn


def precision_recall_f1(tp, fp, fn):
    """Precision, recall, F1 of non-negative int counts, or of equal-shaped int
    arrays. A zero denominator has a zero numerator, so dividing by
    ``den + (den == 0)`` gives 0.0 there without a branch."""
    p = tp / (tp + fp + (tp + fp == 0))
    r = tp / (tp + fn + (tp + fn == 0))
    return p, r, 2 * p * r / (p + r + (p + r == 0))


def match_triggers(gold: list[Event], pred: list[Event]) -> dict[int, int]:
    """One-to-one greedy matching of equivalent triggers within a document,
    as {gold index: pred index} in matching order."""
    # (-overlap, gold start, pred start, gold end, pred end, gi, pi): sorts into processing order
    candidates = []
    for gi, g in enumerate(gold):
        gt = g.trigger
        for pi, p in enumerate(pred):
            if g.event_type != p.event_type:
                continue
            pt = p.trigger
            ov = gt.overlap_len(pt)
            if ov >= 1:
                candidates.append((-ov, gt.start, pt.start, gt.end, pt.end, gi, pi))
    candidates.sort()
    matches: dict[int, int] = {}
    matched_pred: set[int] = set()
    for _, _, _, _, _, gi, pi in candidates:
        if gi not in matches and pi not in matched_pred:
            matches[gi] = pi
            matched_pred.add(pi)
    return matches


# Per-document counts by report key: event type for trigger/event, and for
# argument "EventType.Argument", the key reports print and the bootstrap takes.
DocCounts = dict  # level -> {key -> Counts}

_TP, _FP, _FN = range(3)


def score_document(gold: list[Event], pred: list[Event]) -> DocCounts:
    """Counts at all three levels for one document."""
    matches = match_triggers(gold, pred)
    gold_of = {pi: gold[gi] for gi, pi in matches.items()}
    pred_of = {gi: pred[pi] for gi, pi in matches.items()}
    # key -> [tp, fp, fn] per level
    trigger, argument, event = (defaultdict(lambda: [0, 0, 0]) for _ in LEVELS)

    for gi in matches:
        trigger[gold[gi].event_type][_TP] += 1
    for gi, g in enumerate(gold):
        if gi not in pred_of:
            trigger[g.event_type][_FN] += 1
    for pi, p in enumerate(pred):
        g = gold_of.get(pi)
        if g is None:
            trigger[p.event_type][_FP] += 1
        for name, subtype in p.arguments.items():
            agrees = g is not None and g.arguments.get(name) == subtype
            argument[f"{p.event_type}.{name}"][_TP if agrees else _FP] += 1
        exact = g is not None and g.arguments == p.arguments
        event[p.event_type][_TP if exact else _FP] += 1
    for gi, g in enumerate(gold):
        p = pred_of.get(gi)
        for name, subtype in g.arguments.items():
            if p is None or p.arguments.get(name) != subtype:
                argument[f"{g.event_type}.{name}"][_FN] += 1
        if p is None or p.arguments != g.arguments:
            event[g.event_type][_FN] += 1

    tables = zip(LEVELS, (trigger, argument, event))
    return {level: {key: Counts(*c) for key, c in table.items()} for level, table in tables}


def corpus_doc_counts(gold: Corpus, pred: Corpus) -> dict[str, DocCounts]:
    """Per-document counts over a whole corpus.

    Predictions may omit documents (their gold events all become FN), but a
    predicted doc_id unknown to gold or with other text than gold's, or a
    doc_id repeated in either corpus, is an error.
    """
    gold_map = gold.doc_map
    pred_map = pred.doc_map
    for what, corpus, doc_map in (("gold", gold, gold_map), ("predictions", pred, pred_map)):
        if len(doc_map) != len(corpus):
            repeated = sorted(k for k, n in Counter(corpus.doc_ids()).items() if n > 1)
            raise ScoringError(f"repeated doc_ids in {what}: {', '.join(repeated)}")
    unknown = sorted(set(pred_map) - set(gold_map))
    if unknown:
        raise ScoringError(f"predictions reference unknown documents: {', '.join(unknown)}")
    differ = sorted(k for k, d in pred_map.items() if d.document.text != gold_map[k].document.text)
    if differ:
        raise ScoringError(f"predicted documents whose text differs from gold: {', '.join(differ)}")
    return {
        doc_id: score_document(gdoc.events, pred_map[doc_id].events if doc_id in pred_map else [])
        for doc_id, gdoc in gold_map.items()
    }


def _sum_level(per_doc: dict[str, DocCounts], level: str) -> dict:
    out: dict = {}
    for dc in per_doc.values():
        for key, c in dc[level].items():
            out[key] = out.get(key, Counts()) + c
    return out


def per_document_counts(
    gold: Corpus, pred: Corpus, level: str, key: str | None = None
) -> tuple[list[str], list[Counts]]:
    """Counts per document at one level, pooled over keys (micro) or for one
    key; documents are returned in sorted doc_id order. Used by the bootstrap
    test so resampling can re-sum cached counts instead of re-matching.
    ``key`` is a report key, looked up as it is: an event type, or at the
    argument level "EventType.Argument", which must hold a '.'."""
    if level not in LEVELS:
        raise ScoringError(f"unknown level {level!r}")
    if key is not None and level == "argument":
        if "." not in key:
            raise ScoringError(f"key {key!r} does not fit the argument level, which takes "
                               "EventType.Argument")
    per_doc = corpus_doc_counts(gold, pred)
    doc_ids = sorted(per_doc)
    rows = []
    for doc_id in doc_ids:
        table = per_doc[doc_id][level]
        rows.append(sum(table.values(), Counts()) if key is None else table.get(key, Counts()))
    return doc_ids, rows


# --- report assembly --------------------------------------------------------

@dataclass(frozen=True)
class Row:
    counts: Counts
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(c: Counts) -> "Row":
        return Row(c, *precision_recall_f1(c.tp, c.fp, c.fn))


@dataclass
class ScoreReport:
    """Per-key, per-group, micro, and macro scores for each level present."""

    per_key: dict = field(default_factory=dict)   # (level, key) -> Row
    micro: dict = field(default_factory=dict)     # level -> Row
    macro: dict = field(default_factory=dict)     # level -> (p, r, f1)
    groups: dict = field(default_factory=dict)    # (level, group) -> Row

    def levels(self) -> list[str]:
        return [lv for lv in LEVELS if lv in self.micro]

    def to_obj(self) -> dict:
        """JSON-ready form with deterministic key ordering.

        Equal rows share one dict, so treat the result as read-only. A report
        repeats many rows (zero rows, and each group of one event type); a
        caller that keeps reports, such as a benchmark keeping every pass's
        output, holds half as many dicts."""
        row_objs: dict[Row, dict] = {}

        def row_obj(row: Row) -> dict:
            if row not in row_objs:
                row_objs[row] = {
                    **asdict(row.counts),
                    "precision": row.precision,
                    "recall": row.recall,
                    "f1": row.f1,
                }
            return row_objs[row]

        obj: dict = {"levels": {}}
        for level in self.levels():
            keys = sorted(k for (lv, k) in self.per_key if lv == level)
            group_names = sorted(g for (lv, g) in self.groups if lv == level)
            p, r, f1 = self.macro[level]
            obj["levels"][level] = {
                "per_key": {k: row_obj(self.per_key[(level, k)]) for k in keys},
                "groups": {g: row_obj(self.groups[(level, g)]) for g in group_names},
                "micro": row_obj(self.micro[level]),
                "macro": {"precision": p, "recall": r, "f1": f1},
            }
        return obj


def aggregate(counts_by_level: dict, schema: Schema | None = None) -> ScoreReport:
    """Fill per-key P/R/F1, report-group rows, and micro/macro aggregates.

    ``counts_by_level`` maps level name to {report key: Counts}; an argument
    key's event type is the text before its last '.'. Macro averages skip keys
    with zero gold and zero predicted support. Group rows pool the counts of
    every key whose event type belongs to the group.
    """
    report = ScoreReport()
    for level, table in counts_by_level.items():
        if level not in LEVELS:
            raise ScoringError(f"unknown level {level!r}")
        micro_c = Counts()
        supported_rows = []
        group_counts: dict[str, Counts] = {}
        for key, c in table.items():
            row = Row.from_counts(c)
            report.per_key[(level, key)] = row
            micro_c = micro_c + c
            if c.support > 0:
                supported_rows.append(row)
            event_type = key.rpartition(".")[0] if level == "argument" else key
            et = schema.event_type(event_type) if schema is not None else None
            group = et.report_group if et is not None else event_type
            group_counts[group] = group_counts.get(group, Counts()) + c
        for group, c in group_counts.items():
            report.groups[(level, group)] = Row.from_counts(c)
        report.micro[level] = Row.from_counts(micro_c)
        if supported_rows:
            n = len(supported_rows)
            report.macro[level] = (
                sum(r.precision for r in supported_rows) / n,
                sum(r.recall for r in supported_rows) / n,
                sum(r.f1 for r in supported_rows) / n,
            )
        else:
            report.macro[level] = (0.0, 0.0, 0.0)
    return report


def score_corpus(gold: Corpus, pred: Corpus, schema: Schema | None = None) -> ScoreReport:
    """Full three-level report for a prediction corpus against gold."""
    per_doc = corpus_doc_counts(gold, pred)
    return aggregate({lv: _sum_level(per_doc, lv) for lv in LEVELS}, schema)


def render_table(report: ScoreReport, levels: list[str] | None = None) -> str:
    """Aligned text table: one row per report group per level, plus micro and
    macro rows; percentages to one decimal place."""
    levels = levels or report.levels()
    rows: list[tuple[str, str, str, str, str]] = [("level", "key", "P", "R", "F1")]
    for level in levels:
        groups = sorted(g for (lv, g) in report.groups if lv == level)
        named = [(g, report.groups[(level, g)]) for g in groups] + [("micro", report.micro[level])]
        scores = [(name, (row.precision, row.recall, row.f1)) for name, row in named]
        for name, values in scores + [("macro", report.macro[level])]:
            rows.append((level, name, *(f"{v * 100:.1f}" for v in values)))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for r in rows:
        lines.append(
            "  ".join(
                val.ljust(widths[i]) if i < 2 else val.rjust(widths[i]) for i, val in enumerate(r)
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


# --- inter-annotator agreement ----------------------------------------------

@dataclass
class IaaReport:
    """Agreement between two annotation sets, one treated as reference."""

    report: ScoreReport
    trigger_micro_f1: float
    argument_micro_f1: float
    combined_micro_f1: float
    combined_counts: Counts

    def summary_line(self) -> str:
        return (
            "IAA micro-averaged F1 (%): "
            f"triggers {self.trigger_micro_f1 * 100:.1f}, "
            f"arguments {self.argument_micro_f1 * 100:.1f}, "
            f"triggers plus arguments {self.combined_micro_f1 * 100:.1f}"
        )


def compute_iaa(ann_a: Corpus, ann_b: Corpus, schema: Schema | None = None) -> IaaReport:
    """Score annotator B against annotator A over the same documents.

    The combined figure pools the raw trigger and argument counts before
    computing F1. Swapping the annotators swaps FP with FN and leaves every
    F1 unchanged.
    """
    ids_a, ids_b = set(ann_a.doc_ids()), set(ann_b.doc_ids())
    if ids_a != ids_b:
        missing = sorted(ids_a ^ ids_b)
        raise ScoringError(f"annotator document sets differ: {', '.join(missing[:5])}")
    report = score_corpus(ann_a, ann_b, schema)
    trig = report.micro["trigger"]
    arg = report.micro["argument"]
    combined_counts = trig.counts + arg.counts
    combined_f1 = precision_recall_f1(combined_counts.tp, combined_counts.fp, combined_counts.fn)[2]
    return IaaReport(report, trig.f1, arg.f1, combined_f1, combined_counts)


def f1_drop(from_pct: float, to_pct: float) -> float:
    """Drop between two percentage scores, rounded to one decimal place."""
    return round(from_pct - to_pct, 1)
