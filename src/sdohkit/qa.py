"""Prompt construction, response parsing, few-shot sampling, and the
end-to-end extraction pipeline.

Four strategies are supported:

* ``event``: one query per note; the model emits the full linearized event
  encoding, parsed by the linearizer.
* ``2sqa-base``: per note and event type, step one asks for trigger spans
  (one per line, or NONE); step two resolves each argument of each predicted
  trigger as a multiple-choice question, with "none" offered exactly for
  optional arguments.
* ``2sqa-guide``: step prompts additionally carry a guideline description of
  the target event type or argument, supplied via a guide file.
* ``2sqa-guide3shot``: additionally inserts three worked examples as
  user/assistant message pairs before the real query, resampled per query
  under class constraints (zero/one/many trigger notes; three positive
  argument examples; two positives and one negative for optional arguments).

Prompt layouts are fixed and machine-parseable ("Event type:", "Argument:",
"Trigger:", "Note:" markers), which also lets the gold-oracle mock client
answer any prompt from gold annotations for closed-loop testing.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .corpus import AnnotatedDocument, Corpus, Document, Event, TextSpan
from .linearizer import InvalidRecord, ground_span, is_none_answer, parse_events, serialize_events
from .llm import ChatMessage, Completion, TransportError
from .schema import ArgumentDef, Schema

# The prompt mode of each strategy; the single-step "event" strategy has none.
# Every mode but "base" carries guide text, and "guide+3shot" also carries
# three few-shot examples.
STRATEGY_MODE = {
    "event": None,
    "2sqa-base": "base",
    "2sqa-guide": "guide",
    "2sqa-guide3shot": "guide+3shot",
}
STRATEGIES = tuple(STRATEGY_MODE)
MODES = tuple(mode for mode in STRATEGY_MODE.values() if mode)


class PromptError(ValueError):
    """Prompt construction preconditions not met."""


@dataclass
class PromptBundle:
    messages: list[ChatMessage]
    purpose: str  # event-extraction | trigger-step | argument-step
    target: object = None
    options: list[str] | None = None


@dataclass(frozen=True)
class FewShotExample:
    text: str
    answer: str
    trigger: TextSpan | None = None  # set for argument-step examples


@dataclass
class FewShotSet:
    examples: list[FewShotExample]
    constraint_tag: str


def _text_of(doc) -> str:
    if isinstance(doc, str):
        return doc
    if isinstance(doc, AnnotatedDocument):
        return doc.document.text
    if isinstance(doc, Document):
        return doc.text
    raise TypeError(f"cannot get text from {type(doc).__name__}")


def schema_inventory(schema: Schema) -> str:
    """Human-readable listing of every event type and argument."""
    lines = []
    for et in schema.event_types:
        if et.arguments:
            args = "; ".join(
                f"{a.name} ({'required' if a.required else 'optional'}: "
                + ", ".join(a.subtypes)
                + ")"
                for a in et.arguments
            )
            lines.append(f"- {et.name}: {args}")
        else:
            lines.append(f"- {et.name}")
    return "\n".join(lines)


_EVENT_TASK = (
    "Extract every social-history event from the note. Encode each event as\n"
    "TypeName [trigger text] | Argument = subtype [trigger text]\n"
    "repeating the trigger text with every argument, and join multiple events "
    'with " AND ". Copy trigger text exactly from the note. Answer NONE when '
    "the note contains no events."
)

_TRIGGER_TASK = (
    "You identify event triggers in clinical social-history notes. List every "
    "trigger span for the requested event type, one per line, copied exactly "
    "from the note. Answer NONE if the note has no event of that type."
)

_ARGUMENT_TASK = (
    "You resolve event arguments in clinical social-history notes. Answer the "
    "multiple-choice question with exactly one of the listed options and "
    "nothing else."
)


def _event_header(schema: Schema) -> str:
    return _EVENT_TASK + "\n\nEvent types and their arguments:\n" + schema_inventory(schema)


def build_event_prompt(doc, schema: Schema, example_doc: AnnotatedDocument) -> PromptBundle:
    """Single-step prompt: full inventory, one worked example, then the note."""
    if not example_doc.events:
        raise PromptError("example document must contain at least one event")
    system = (
        _event_header(schema)
        + "\n\nExample note:\n"
        + example_doc.document.text
        + "\n\nExample output:\n"
        + serialize_events(example_doc.events, schema)
    )
    user = "Note:\n" + _text_of(doc)
    return PromptBundle(
        [ChatMessage("system", system), ChatMessage("user", user)], "event-extraction"
    )


def _step_preamble(
    task: str, mode: str, guide_topic: str, guide_text: str | None, fewshot: FewShotSet | None
) -> tuple[list[ChatMessage], list[FewShotExample]]:
    """Check a step prompt's inputs against its mode; return the system
    message and the few-shot examples the mode uses."""
    if mode not in MODES:
        raise PromptError(f"unknown mode {mode!r}")
    system = task
    if mode != "base":
        if not guide_text:
            raise PromptError(f"mode {mode!r} requires guide text")
        system += f"\n\nGuideline for {guide_topic}:\n{guide_text}"
    if mode != "guide+3shot":
        return [ChatMessage("system", system)], []
    if fewshot is None or len(fewshot.examples) != 3:
        raise PromptError("mode 'guide+3shot' requires a few-shot set of size 3")
    return [ChatMessage("system", system)], fewshot.examples


def _trigger_user_message(event_type: str, text: str) -> str:
    return f"Event type: {event_type}\nNote:\n{text}"


def build_trigger_prompt(
    doc,
    event_type: str,
    mode: str = "base",
    guide_text: str | None = None,
    fewshot: FewShotSet | None = None,
) -> PromptBundle:
    """Step-one prompt asking for the trigger spans of one event type."""
    messages, shots = _step_preamble(_TRIGGER_TASK, mode, event_type, guide_text, fewshot)
    for ex in shots:
        messages.append(ChatMessage("user", _trigger_user_message(event_type, ex.text)))
        messages.append(ChatMessage("assistant", ex.answer))
    messages.append(ChatMessage("user", _trigger_user_message(event_type, _text_of(doc))))
    return PromptBundle(messages, "trigger-step", target=event_type)


def _argument_user_message(
    event_type: str, arg_name: str, trigger: TextSpan, options: list[str], text: str
) -> str:
    return (
        f"Event type: {event_type}\n"
        f"Argument: {arg_name}\n"
        f'Trigger: "{trigger.text}" (characters {trigger.start}-{trigger.end})\n'
        f"Options: {', '.join(options)}\n"
        f"Note:\n{text}"
    )


def build_argument_prompt(
    doc,
    event_type: str,
    trigger: TextSpan,
    argument: ArgumentDef,
    schema: Schema,
    mode: str = "base",
    guide_text: str | None = None,
    fewshot: FewShotSet | None = None,
) -> PromptBundle:
    """Step-two prompt resolving one argument of one predicted trigger.

    Options are the argument's subtypes in schema order, with "none"
    appended exactly when the argument is optional.
    """
    messages, shots = _step_preamble(
        _ARGUMENT_TASK, mode, f"{event_type}.{argument.name}", guide_text, fewshot
    )
    et = schema.event_type(event_type)
    if et is None or et.argument(argument.name) != argument:
        raise PromptError(f"argument {argument.name!r} does not belong to {event_type!r}")
    options = list(argument.subtypes)
    if not argument.required and "none" not in options:
        options.append("none")
    for ex in shots:
        if ex.trigger is None:
            raise PromptError("argument few-shot examples must carry a trigger")
        messages.append(
            ChatMessage(
                "user",
                _argument_user_message(event_type, argument.name, ex.trigger, options, ex.text),
            )
        )
        messages.append(ChatMessage("assistant", ex.answer))
    messages.append(
        ChatMessage(
            "user", _argument_user_message(event_type, argument.name, trigger, options, _text_of(doc))
        )
    )
    return PromptBundle(
        messages, "argument-step", target=(event_type, argument.name, trigger), options=options
    )


# --- response parsing ---------------------------------------------------------

_BULLET_RE = re.compile(r"^(?:[-*•]|\d{1,3}[.)])\s+")
_OPTION_PREFIX_RE = re.compile(r"^\(?[A-Za-z0-9]\)?[.):]\s+")


def _strip_quotes(s: str) -> str:
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def parse_trigger_response(
    response: str, doc_text: str, repair: bool = True, max_norm_dist: float = 0.2
) -> tuple[list[TextSpan], list[InvalidRecord], int]:
    """Ground a one-trigger-per-line response; NONE means no triggers.

    Returns (triggers, invalid records, number of triggers found by span
    repair). Lines that cannot be grounded (even with repair, when enabled)
    are returned as invalid records. Duplicate grounded spans are merged.
    """
    if is_none_answer(response):
        return [], [], 0
    triggers: list[TextSpan] = []
    records: list[InvalidRecord] = []
    n_repaired = 0
    claimed: set[int] = set()
    seen: set[tuple[int, int]] = set()
    for raw_line in response.strip().splitlines():
        line = _strip_quotes(_BULLET_RE.sub("", raw_line.strip()))
        if not line:
            continue
        span, repaired = ground_span(line, doc_text, claimed, repair, max_norm_dist)
        if span is None:
            records.append(InvalidRecord(raw_line, "span-not-found", "trigger", line))
            continue
        if (span.start, span.end) in seen:
            continue
        seen.add((span.start, span.end))
        claimed.add(span.start)
        triggers.append(span)
        n_repaired += repaired
    return triggers, records, n_repaired


def parse_argument_response(response: str, options: list[str]) -> str | None:
    """Match a free-text answer to one option; None when ambiguous or absent.

    Tolerates surrounding whitespace and quotes, an option-letter prefix
    ("A.", "(b)", "1)"), a trailing period, and case differences.
    """
    if not options:
        raise ValueError("options must be non-empty")
    text = _strip_quotes(response.strip())
    text = _OPTION_PREFIX_RE.sub("", text)
    text = _strip_quotes(text.strip()).rstrip(".").strip()
    folded = text.casefold()
    for opt in options:
        if folded == opt.casefold():
            return opt
    hits = [
        opt
        for opt in options
        if re.search(rf"(?<!\w){re.escape(opt.casefold())}(?!\w)", folded)
    ]
    return hits[0] if len(hits) == 1 else None


# --- few-shot sampling ---------------------------------------------------------

class FewShotError(ValueError):
    """A required sampling class has no candidates in the train corpus."""


def _events_of_type(doc: AnnotatedDocument, event_type: str) -> list[Event]:
    return sorted(
        (e for e in doc.events if e.event_type == event_type),
        key=lambda e: (e.trigger.start, e.trigger.end),
    )


def _trigger_answer(doc: AnnotatedDocument, event_type: str) -> str:
    events = _events_of_type(doc, event_type)
    return "\n".join(e.trigger.text for e in events) if events else "NONE"


def sample_fewshot(train: Corpus, target, kind: str, seed) -> FewShotSet:
    """Draw three constraint-satisfying examples from the train corpus.

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


# --- guide files ---------------------------------------------------------------

_GUIDE_HEADER_RE = re.compile(r"^\[([A-Za-z0-9_.\-]+)\]\s*$")


def parse_guide_file(text: str) -> dict[str, str]:
    """Parse a sectioned guide file into {"Type": text, "Type.Arg": text}."""
    blocks: dict[str, str] = {}
    current: str | None = None
    lines: list[str] = []

    def flush():
        if current is not None:
            blocks[current] = "\n".join(lines).strip()

    for line in text.splitlines():
        m = _GUIDE_HEADER_RE.match(line.strip())
        if m:
            flush()
            current = m.group(1)
            lines = []
        elif current is not None:
            lines.append(line)
    flush()
    return blocks


def guide_stub(schema: Schema) -> str:
    """Placeholder guide covering every event type and argument.

    Real deployments replace this with distilled annotation guidance; the
    stub keeps guide-dependent strategies runnable out of the box.
    """
    parts = []
    for et in schema.event_types:
        parts.append(f"[{et.name}]")
        parts.append(
            f"Mark the span that anchors a {et.name} finding about the patient "
            "or their caregivers. Annotate only when every required argument "
            "can be resolved from the note."
        )
        parts.append("")
        for a in et.arguments:
            parts.append(f"[{et.name}.{a.name}]")
            req = "required" if a.required else "optional"
            parts.append(
                f"{a.name} is {req} for {et.name}; choose the option that best "
                f"matches the note ({', '.join(a.subtypes)})."
            )
            parts.append("")
    return "\n".join(parts)


def check_guide_coverage(guide: dict[str, str], schema: Schema) -> list[str]:
    """Keys a guide is missing for full schema coverage."""
    missing = []
    for et in schema.event_types:
        if not guide.get(et.name):
            missing.append(et.name)
        for a in et.arguments:
            if not guide.get(f"{et.name}.{a.name}"):
                missing.append(f"{et.name}.{a.name}")
    return missing


# --- mock clients ---------------------------------------------------------------

_TRIGGER_OFFSET_RE = re.compile(r"\(characters (\d+)-(\d+)\)")
_EVENT_TYPE_RE = re.compile(r"^Event type: (\S+)$", re.MULTILINE)
_ARGUMENT_RE = re.compile(r"^Argument: (\S+)$", re.MULTILINE)
_NOTE_MARK = "Note:\n"


class GoldOracleClient:
    """Mock client that answers every pipeline prompt from gold annotations.

    Documents are recognized by their note text, so the gold corpus must
    have distinct texts (synthetic corpora guarantee this). Drives the
    closed-loop tests: predictions scored against the same gold reach F1 1.0.
    """

    def __init__(self, gold: Corpus, schema: Schema):
        self.schema = schema
        self._by_text: dict[str, AnnotatedDocument] = {}
        for d in gold.docs:
            if d.document.text in self._by_text:
                raise ValueError(f"duplicate document text for {d.doc_id}")
            self._by_text[d.document.text] = d
        self.calls = 0

    def _doc_for(self, note: str) -> AnnotatedDocument:
        doc = self._by_text.get(note)
        if doc is None:
            raise TransportError("oracle does not know this note")
        return doc

    def complete(self, messages: list[ChatMessage]) -> Completion:
        self.calls += 1
        user = [m for m in messages if m.role == "user"][-1]
        content = user.content
        idx = content.find(_NOTE_MARK)
        if idx < 0:
            raise TransportError("prompt has no note marker")
        header, note = content[:idx], content[idx + len(_NOTE_MARK):]
        doc = self._doc_for(note)

        arg_m = _ARGUMENT_RE.search(header)
        type_m = _EVENT_TYPE_RE.search(header)
        if arg_m and type_m:
            off_m = _TRIGGER_OFFSET_RE.search(header)
            if not off_m:
                raise TransportError("argument prompt has no trigger offsets")
            start, end = int(off_m.group(1)), int(off_m.group(2))
            for ev in doc.events:
                if (
                    ev.event_type == type_m.group(1)
                    and ev.trigger.start == start
                    and ev.trigger.end == end
                ):
                    return Completion(ev.arguments.get(arg_m.group(1), "none"))
            return Completion("none")
        if type_m:
            return Completion(_trigger_answer(doc, type_m.group(1)))
        return Completion(serialize_events(doc.events, self.schema))


class NonsenseClient:
    """Returns the same ungroundable garbage for every prompt."""

    def __init__(self, text: str = "zzqx gibberish ]] output [[ vvk"):
        self.text = text
        self.calls = 0

    def complete(self, messages: list[ChatMessage]) -> Completion:
        self.calls += 1
        return Completion(self.text)


# --- pipeline -------------------------------------------------------------------

@dataclass
class RunMetrics:
    strategy: str
    seed: int
    n_docs: int = 0
    queries_total: int = 0
    queries_step1: int = 0
    queries_step2: int = 0
    retries_total: int = 0
    failures: list[str] = field(default_factory=list)
    trigger_valid: int = 0
    trigger_invalid: dict[str, int] = field(default_factory=dict)
    argument_valid: int = 0
    argument_invalid: dict[str, int] = field(default_factory=dict)
    events_dropped_missing_required: int = 0
    repaired_spans: int = 0

    def _level_obj(self, valid: int, invalid: dict[str, int]) -> dict:
        n_invalid = sum(invalid.values())
        total = valid + n_invalid
        return {
            "total": total,
            "invalid": n_invalid,
            "rate": n_invalid / total if total else 0.0,
            "by_reason": dict(sorted(invalid.items())),
        }

    def to_obj(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "n_docs": self.n_docs,
            "queries": {
                "total": self.queries_total,
                "step1": self.queries_step1,
                "step2": self.queries_step2,
            },
            "retries_total": self.retries_total,
            "failures": list(self.failures),
            "invalid_rates": {
                "trigger": self._level_obj(self.trigger_valid, self.trigger_invalid),
                "argument": self._level_obj(self.argument_valid, self.argument_invalid),
            },
            "events_dropped_missing_required": self.events_dropped_missing_required,
            "repaired_spans": self.repaired_spans,
        }


def _count_reasons(metrics_dict: dict[str, int], records: list[InvalidRecord], level: str) -> None:
    for r in records:
        if r.level == level:
            metrics_dict[r.reason] = metrics_dict.get(r.reason, 0) + 1


def run_pipeline(
    corpus: Corpus,
    schema: Schema,
    client,
    strategy: str,
    seed: int,
    train: Corpus | None = None,
    guide: dict[str, str] | None = None,
    repair: bool = True,
) -> tuple[Corpus, RunMetrics]:
    """Run one extraction strategy over a corpus through a chat client.

    Returns the prediction corpus (every input document appears; failed
    documents come back empty and are listed in the metrics) and run
    metrics. Few-shot examples and the single-step illustration are
    resampled per query with randomness derived from (seed, doc_id, target),
    so runs are deterministic for a deterministic client.
    """
    if strategy not in STRATEGY_MODE:
        raise ValueError(f"unknown strategy {strategy!r}")
    mode = STRATEGY_MODE[strategy]
    if mode in (None, "guide+3shot") and train is None:
        raise PromptError(f"strategy {strategy!r} requires a train corpus")
    if mode not in (None, "base"):
        missing = check_guide_coverage(guide or {}, schema)
        if missing:
            raise PromptError(f"guide file missing entries: {', '.join(missing[:5])}")

    example_pool: list[AnnotatedDocument] = []
    if mode is None:
        example_pool = sorted(
            (d for d in train.docs if d.events), key=lambda d: d.doc_id
        )
        if not example_pool:
            raise PromptError("train corpus has no documents with events")

    metrics = RunMetrics(strategy, seed, n_docs=len(corpus.docs))

    def call(bundle: PromptBundle) -> Completion:
        completion = client.complete(bundle.messages)
        metrics.queries_total += 1
        metrics.retries_total += getattr(completion, "retries", 0)
        return completion

    pred_docs = []
    for adoc in corpus.docs:
        doc = adoc.document
        try:
            if mode is None:
                events = _run_event_doc(doc, schema, call, metrics, example_pool, seed, repair)
            else:
                events = _run_2sqa_doc(
                    doc, schema, call, metrics, mode, guide, train, seed, repair
                )
        except TransportError:
            metrics.failures.append(doc.doc_id)
            events = []
        events.sort(key=lambda e: (e.trigger.start, e.trigger.end, e.event_type))
        pred_docs.append(AnnotatedDocument(doc, events))
    return Corpus(pred_docs), metrics


def _run_event_doc(doc, schema, call, metrics, example_pool, seed, repair) -> list[Event]:
    rng = random.Random(f"event-example:{seed}:{doc.doc_id}")
    example = rng.choice(example_pool)
    bundle = build_event_prompt(doc, schema, example)
    completion = call(bundle)
    outcome = parse_events(completion.text, doc.text, schema, repair)
    metrics.trigger_valid += len(outcome.events)
    metrics.argument_valid += sum(len(e.arguments) for e in outcome.events)
    _count_reasons(metrics.trigger_invalid, outcome.invalid_records, "trigger")
    _count_reasons(metrics.argument_invalid, outcome.invalid_records, "argument")
    metrics.repaired_spans += outcome.repaired_count
    return list(outcome.events)


def _run_2sqa_doc(doc, schema, call, metrics, mode, guide, train, seed, repair) -> list[Event]:
    guide = guide or {}
    events: list[Event] = []
    for et in schema.event_types:
        fewshot = None
        if mode == "guide+3shot":
            fewshot = sample_fewshot(train, et.name, "trigger", f"{seed}:{doc.doc_id}")
        bundle = build_trigger_prompt(doc, et.name, mode, guide.get(et.name), fewshot)
        metrics.queries_step1 += 1
        completion = call(bundle)
        triggers, records, n_repaired = parse_trigger_response(completion.text, doc.text, repair)
        metrics.trigger_valid += len(triggers)
        metrics.repaired_spans += n_repaired
        _count_reasons(metrics.trigger_invalid, records, "trigger")

        for trigger in triggers:
            arguments: dict[str, str] = {}
            dropped = False
            for adef in et.arguments:
                kind = "required-arg" if adef.required else "optional-arg"
                fs = None
                if mode == "guide+3shot":
                    fs = sample_fewshot(
                        train, (et.name, adef.name), kind, f"{seed}:{doc.doc_id}"
                    )
                bundle = build_argument_prompt(
                    doc,
                    et.name,
                    trigger,
                    adef,
                    schema,
                    mode,
                    guide.get(f"{et.name}.{adef.name}"),
                    fs,
                )
                metrics.queries_step2 += 1
                completion = call(bundle)
                choice = parse_argument_response(completion.text, bundle.options)
                if choice is None:
                    metrics.argument_invalid["unparseable"] = (
                        metrics.argument_invalid.get("unparseable", 0) + 1
                    )
                    if adef.required:
                        dropped = True
                        break
                    continue
                metrics.argument_valid += 1
                if choice == "none" and not adef.required:
                    continue
                arguments[adef.name] = choice
            if dropped:
                metrics.events_dropped_missing_required += 1
                continue
            events.append(Event(et.name, trigger, arguments))
    return events


# --- fine-tuning export -----------------------------------------------------------

def _flatten(messages: list[ChatMessage]) -> str:
    return "\n\n".join(m.content for m in messages)


def export_finetune_pairs(corpus: Corpus, schema: Schema, strategy: str) -> list[dict]:
    """Supervision pairs for fine-tuning, from gold annotations.

    ``event`` yields one (instruction + note, linearized events) pair per
    document. ``2sqa`` yields a trigger-step pair per (document, event type)
    and an argument-step pair per (gold event, argument), including "none"
    targets for absent optional arguments.
    """
    if strategy == "event":
        pairs = []
        for adoc in corpus.docs:
            prompt = _event_header(schema) + "\n\nNote:\n" + adoc.document.text
            pairs.append({"input": prompt, "target": serialize_events(adoc.events, schema)})
        return pairs
    if strategy != "2sqa":
        raise ValueError(f"unknown export strategy {strategy!r} (expected 'event' or '2sqa')")

    pairs = []
    for adoc in corpus.docs:
        for et in schema.event_types:
            bundle = build_trigger_prompt(adoc, et.name)
            pairs.append(
                {"input": _flatten(bundle.messages), "target": _trigger_answer(adoc, et.name)}
            )
        for ev in sorted(adoc.events, key=lambda e: (e.trigger.start, e.trigger.end, e.event_type)):
            et = schema.event_type(ev.event_type)
            if et is None:
                continue
            for adef in et.arguments:
                bundle = build_argument_prompt(adoc, et.name, ev.trigger, adef, schema)
                target = ev.arguments.get(adef.name, "none" if not adef.required else None)
                if target is None:
                    continue
                pairs.append({"input": _flatten(bundle.messages), "target": target})
    return pairs
