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

The strategy is the only switch, read once by ``run_pipeline``: the step
prompts render exactly the guideline text and worked examples they are given.

Prompt layouts are fixed and machine-parseable ("Event type:", "Argument:",
"Trigger:", "Note:" markers), which also lets the gold-oracle mock client
answer any prompt from gold annotations for closed-loop testing.
"""

from __future__ import annotations

import random
import re
import threading
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import partial

from .corpus import AnnotatedDocument, Corpus, Document, Event, TextSpan
from .linearizer import InvalidRecord, ground_span, is_none_answer, parse_events, serialize_events
from .llm import ChatMessage, Completion, TransportError
from .schema import ArgumentDef, Schema

STRATEGIES = ("event", "2sqa-base", "2sqa-guide", "2sqa-guide3shot")


class PromptError(ValueError):
    """Prompt construction preconditions not met."""


@dataclass
class PromptBundle:
    messages: list[ChatMessage]
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
    return PromptBundle([ChatMessage("system", system), ChatMessage("user", user)])


def _step_messages(
    task: str, guide_topic: str, guide_text: str | None, shots: list[tuple[str, str]], query: str
) -> list[ChatMessage]:
    """The task (plus the guideline, if given), a user/assistant pair per shot, then the query."""
    if guide_text is not None:
        task += f"\n\nGuideline for {guide_topic}:\n{guide_text}"
    messages = [ChatMessage("system", task)]
    for user, answer in shots:
        messages += [ChatMessage("user", user), ChatMessage("assistant", answer)]
    messages.append(ChatMessage("user", query))
    return messages


def _trigger_user_message(event_type: str, text: str) -> str:
    return f"Event type: {event_type}\nNote:\n{text}"


def build_trigger_prompt(
    doc,
    event_type: str,
    guide_text: str | None = None,
    fewshot: FewShotSet | None = None,
) -> PromptBundle:
    """Step-one prompt asking for the trigger spans of one event type."""
    examples = fewshot.examples if fewshot is not None else []
    shots = [(_trigger_user_message(event_type, ex.text), ex.answer) for ex in examples]
    query = _trigger_user_message(event_type, _text_of(doc))
    return PromptBundle(_step_messages(_TRIGGER_TASK, event_type, guide_text, shots, query))


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
    guide_text: str | None = None,
    fewshot: FewShotSet | None = None,
) -> PromptBundle:
    """Step-two prompt resolving one argument of one predicted trigger.

    Options are the argument's subtypes in schema order, with "none"
    appended exactly when the argument is optional.
    """
    et = schema.event_type(event_type)
    if et is None or et.argument(argument.name) != argument:
        raise PromptError(f"argument {argument.name!r} does not belong to {event_type!r}")
    options = list(argument.subtypes)
    if not argument.required:
        options.append("none")
    examples = fewshot.examples if fewshot is not None else []
    if any(ex.trigger is None for ex in examples):
        raise PromptError("argument few-shot examples must carry a trigger")
    ask = partial(_argument_user_message, event_type, argument.name)
    shots = [(ask(ex.trigger, options, ex.text), ex.answer) for ex in examples]
    query = ask(trigger, options, _text_of(doc))
    topic = f"{event_type}.{argument.name}"
    return PromptBundle(_step_messages(_ARGUMENT_TASK, topic, guide_text, shots, query), options)


# --- response parsing ---------------------------------------------------------

_BULLET_RE = re.compile(r"^(?:[-*•]|\d{1,3}[.)])\s+")
_OPTION_PREFIX_RE = re.compile(r"^\(?[A-Za-z0-9]\)?[.):]\s+")


def _strip_quotes(s: str) -> str:
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def parse_trigger_response(
    response: str, doc_text: str, repair: bool = True
) -> tuple[list[TextSpan], list[InvalidRecord], int]:
    """Ground a one-trigger-per-line response; NONE means no triggers.

    Returns (triggers, invalid records, number of triggers found by span
    repair). Lines that cannot be grounded (even with repair, when enabled)
    are returned as invalid records. A line repeating an earlier trigger
    (its exact text occurs only at claimed starts) is merged into it.
    """
    if is_none_answer(response):
        return [], [], 0
    triggers: list[TextSpan] = []
    records: list[InvalidRecord] = []
    n_repaired = 0
    claimed: set[int] = set()
    for raw_line in response.strip().splitlines():
        line = _strip_quotes(_BULLET_RE.sub("", raw_line.strip()))
        if not line:
            continue
        span, repaired = ground_span(line, doc_text, claimed, repair)
        if span is None:
            if line not in doc_text:
                records.append(InvalidRecord(raw_line, "span-not-found", "trigger", line))
            continue
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


def _listing(events) -> str:
    """A trigger answer: one trigger text per line, or NONE."""
    return "\n".join(e.trigger.text for e in events) if events else "NONE"


def _trigger_answer(doc: AnnotatedDocument, event_type: str) -> str:
    return _listing(_events_of_type(doc, event_type))


_Typed = tuple[AnnotatedDocument, tuple[Event, ...]]  # a train doc and its events of one type


class FewShotPool:
    """The sampling classes of one train corpus, indexed once per run.

    The docs are sorted by doc_id once. Each class list is built on the
    first query that needs it and then kept: a doc's events per event type,
    the zero/one/many buckets per event type, and the positive/negative
    lists per (event type, argument). A list is fully built before it is
    stored, so threads that fill the same key store equal lists.
    """

    def __init__(self, train: Corpus):
        self._docs = sorted(train.docs, key=lambda d: d.doc_id)
        self._typed: dict[str, list[_Typed]] = {}
        self._counts: dict[str, tuple[list[_Typed], list[_Typed], list[_Typed]]] = {}
        self._args: dict[tuple[str, str], tuple[list[_Typed], list[_Typed]]] = {}

    def _of_type(self, event_type: str) -> list[_Typed]:
        """Every doc, in doc_id order, with its events of the type."""
        typed = self._typed.get(event_type)
        if typed is None:
            # A tuple, so that the many docs without the type share the empty one.
            typed = [(d, tuple(_events_of_type(d, event_type))) for d in self._docs]
            self._typed[event_type] = typed
        return typed

    def by_count(self, event_type: str) -> tuple[list[_Typed], list[_Typed], list[_Typed]]:
        """The docs with zero, one and several events of the type."""
        buckets = self._counts.get(event_type)
        if buckets is None:
            buckets = ([], [], [])
            for item in self._of_type(event_type):
                buckets[min(len(item[1]), 2)].append(item)
            self._counts[event_type] = buckets
        return buckets

    def by_argument(self, event_type: str, arg_name: str) -> tuple[list[_Typed], list[_Typed]]:
        """The docs with an event of the type that has the argument, and
        those with one that lacks it (a doc can be in both)."""
        classes = self._args.get((event_type, arg_name))
        if classes is None:
            classes = ([], [])
            for item in self._of_type(event_type):
                if any(arg_name in e.arguments for e in item[1]):
                    classes[0].append(item)
                if any(arg_name not in e.arguments for e in item[1]):
                    classes[1].append(item)
            self._args[(event_type, arg_name)] = classes
        return classes


def sample_fewshot(train: Corpus | FewShotPool, target, kind: str, seed) -> FewShotSet:
    """Draw three constraint-satisfying examples from the train corpus.

    ``kind="trigger"`` (target: event type): one note with zero, one with
    exactly one, and one with more than one trigger of the type, in that
    order. ``kind="required-arg"`` (target: (event type, argument)): three
    notes with an event carrying the argument. ``kind="optional-arg"``: two
    such positives plus one note whose event of the type lacks the argument,
    answered "none". Selection is uniform within each class per seed: the
    draws come from ``random.Random(f"fewshot:{kind}:{target}:{seed}")`` over
    classes in doc_id order. A plain corpus is indexed for this call only;
    a run passes one ``FewShotPool`` to every query.
    """
    pool = train if isinstance(train, FewShotPool) else FewShotPool(train)
    rng = random.Random(f"fewshot:{kind}:{target}:{seed}")

    if kind == "trigger":
        event_type = target
        examples = []
        names = ("zero-triggers", "one-trigger", "many-triggers")
        for name, bucket in zip(names, pool.by_count(event_type)):
            if not bucket:
                raise FewShotError(f"class {name} empty for event type {event_type}")
            doc, events = rng.choice(bucket)
            examples.append(FewShotExample(doc.document.text, _listing(events)))
        return FewShotSet(examples, "zero-one-many")

    if kind not in ("required-arg", "optional-arg"):
        raise ValueError(f"unknown few-shot kind {kind!r}")
    event_type, arg_name = target
    positives, negatives = pool.by_argument(event_type, arg_name)

    def pick_example(item: _Typed, want_argument: bool) -> FewShotExample:
        doc, events = item
        ev = rng.choice([e for e in events if (arg_name in e.arguments) == want_argument])
        answer = ev.arguments[arg_name] if want_argument else "none"
        return FewShotExample(doc.document.text, answer, ev.trigger)

    if kind == "required-arg":
        if len(positives) < 3:
            raise FewShotError(
                f"class positive has {len(positives)} documents for {event_type}.{arg_name}, need 3"
            )
        chosen = rng.sample(positives, 3)
        return FewShotSet([pick_example(item, True) for item in chosen], "three-positive")

    if not negatives:
        raise FewShotError(f"class negative empty for {event_type}.{arg_name}")
    neg = rng.choice(negatives)
    pos_pool = [item for item in positives if item[0].doc_id != neg[0].doc_id]
    if len(pos_pool) < 2:
        raise FewShotError(
            f"class positive has {len(pos_pool)} documents for {event_type}.{arg_name}, need 2"
        )
    pos = rng.sample(pos_pool, 2)
    examples = [pick_example(pos[0], True), pick_example(pos[1], True), pick_example(neg, False)]
    return FewShotSet(examples, "two-positive-one-negative")


# --- guide files ---------------------------------------------------------------

_GUIDE_HEADER_RE = re.compile(r"^\[(\S+)\]\s*$")


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

    def _doc_for(self, note: str) -> AnnotatedDocument:
        doc = self._by_text.get(note)
        if doc is None:
            raise TransportError("oracle does not know this note")
        return doc

    def complete(self, messages: list[ChatMessage]) -> Completion:
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

    def complete(self, messages: list[ChatMessage]) -> Completion:
        return Completion(self.text)


# --- pipeline -------------------------------------------------------------------

@dataclass
class RunMetrics:
    """One document's tally, or a run's: the sum of its documents' tallies."""

    strategy: str
    seed: int
    n_docs: int = 0
    queries_total: int = 0
    queries_step1: int = 0
    queries_step2: int = 0
    retries_total: int = 0
    failures: list[str] = field(default_factory=list)
    trigger_valid: int = 0
    trigger_invalid: Counter[str] = field(default_factory=Counter)
    argument_valid: int = 0
    argument_invalid: Counter[str] = field(default_factory=Counter)
    events_dropped_missing_required: int = 0
    repaired_spans: int = 0

    def add(self, other: RunMetrics) -> None:
        """Add another tally into this one; strategy and seed stay."""
        for f in fields(self)[2:]:
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

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


def _ask(client, bundle: PromptBundle, tally: RunMetrics) -> str:
    """Send one query. It is counted before the call, so a failed one counts."""
    tally.queries_total += 1
    completion = client.complete(bundle.messages)
    tally.retries_total += getattr(completion, "retries", 0)
    return completion.text


@dataclass(frozen=True)
class _Plan:
    """What a strategy fixes for every document of a run. Each step extracts
    one document into that document's own tally and touches nothing shared."""

    schema: Schema
    seed: int
    repair: bool
    guide: dict[str, str]  # {} when the strategy carries no guideline
    fewshot: FewShotPool | None  # None when the strategy uses no worked examples
    examples: list[AnnotatedDocument]  # the single-step illustrations

    def _fewshot(self, doc: Document, target, kind: str) -> FewShotSet | None:
        if self.fewshot is None:
            return None
        return sample_fewshot(self.fewshot, target, kind, f"{self.seed}:{doc.doc_id}")

    def event_step(self, doc: Document, client, tally: RunMetrics) -> list[Event]:
        rng = random.Random(f"event-example:{self.seed}:{doc.doc_id}")
        bundle = build_event_prompt(doc, self.schema, rng.choice(self.examples))
        outcome = parse_events(_ask(client, bundle, tally), doc.text, self.schema, self.repair)
        tally.trigger_valid += len(outcome.events)
        tally.argument_valid += sum(len(e.arguments) for e in outcome.events)
        records = outcome.invalid_records
        tally.trigger_invalid.update(r.reason for r in records if r.level == "trigger")
        tally.argument_invalid.update(r.reason for r in records if r.level == "argument")
        tally.repaired_spans += outcome.repaired_count
        return list(outcome.events)

    def two_step(self, doc: Document, client, tally: RunMetrics) -> list[Event]:
        events: list[Event] = []
        for et in self.schema.event_types:
            fewshot = self._fewshot(doc, et.name, "trigger")
            bundle = build_trigger_prompt(doc, et.name, self.guide.get(et.name), fewshot)
            tally.queries_step1 += 1
            text = _ask(client, bundle, tally)
            triggers, records, n_repaired = parse_trigger_response(text, doc.text, self.repair)
            tally.trigger_valid += len(triggers)
            tally.repaired_spans += n_repaired
            tally.trigger_invalid.update(r.reason for r in records)

            for trigger in triggers:
                arguments: dict[str, str] = {}
                for adef in et.arguments:
                    kind = "required-arg" if adef.required else "optional-arg"
                    fewshot = self._fewshot(doc, (et.name, adef.name), kind)
                    guide_text = self.guide.get(f"{et.name}.{adef.name}")
                    bundle = build_argument_prompt(
                        doc, et.name, trigger, adef, self.schema, guide_text, fewshot
                    )
                    tally.queries_step2 += 1
                    choice = parse_argument_response(_ask(client, bundle, tally), bundle.options)
                    if choice is not None:
                        tally.argument_valid += 1
                        if choice != "none" or adef.required:
                            arguments[adef.name] = choice
                        continue
                    tally.argument_invalid["unparseable"] += 1
                    if adef.required:
                        tally.events_dropped_missing_required += 1
                        break
                else:
                    events.append(Event(et.name, trigger, arguments))
        return events


def _map_in_order(fn, items: list, budget: int):
    """``fn`` over ``items``, results in item order, on up to ``budget`` threads.

    Once an item raises, a worker skips every later item it has not yet
    started, so no work is spent past the first failure, and the error
    raised is the first failing item's, as with the builtin ``map``.
    """
    workers = min(budget, len(items))
    if workers <= 1:
        return map(fn, items)
    # Imported here: a sequential run would pay its ~0.4 MB for nothing.
    from concurrent.futures import ThreadPoolExecutor

    first_failed = len(items)
    lock = threading.Lock()

    def guarded(i: int):
        nonlocal first_failed
        if i > first_failed:  # unlocked: a stale read only runs an item it could skip
            return None  # never read: the earlier item's error is raised first
        try:
            return fn(items[i])
        except BaseException:
            with lock:
                first_failed = min(first_failed, i)
            raise

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(guarded, range(len(items))))


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
    metrics, the document-order sum of each document's tally. Few-shot
    examples and the single-step illustration are resampled per query with
    randomness derived from (seed, doc_id, target), so runs are
    deterministic for a deterministic client. Documents are extracted on as
    many threads as the client's ``max_in_flight`` allows (one when it
    declares none) and folded in document order, so no output depends on it.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy in ("event", "2sqa-guide3shot") and train is None:
        raise PromptError(f"strategy {strategy!r} requires a train corpus")
    guided = strategy in ("2sqa-guide", "2sqa-guide3shot")
    guide = (guide or {}) if guided else {}
    missing = check_guide_coverage(guide, schema) if guided else []
    if missing:
        raise PromptError(f"guide file missing entries: {', '.join(missing[:5])}")

    examples: list[AnnotatedDocument] = []
    if strategy == "event":
        examples = sorted((d for d in train.docs if d.events), key=lambda d: d.doc_id)
        if not examples:
            raise PromptError("train corpus has no documents with events")
    fewshot_pool = FewShotPool(train) if strategy == "2sqa-guide3shot" else None
    plan = _Plan(schema, seed, repair, guide, fewshot_pool, examples)
    step = plan.event_step if strategy == "event" else plan.two_step

    def extract(adoc: AnnotatedDocument) -> tuple[AnnotatedDocument, RunMetrics]:
        doc = adoc.document
        tally = RunMetrics(strategy, seed, n_docs=1)
        try:
            events = step(doc, client, tally)
        except TransportError:
            tally.failures.append(doc.doc_id)
            events = []
        events.sort(key=lambda e: (e.trigger.start, e.trigger.end, e.event_type))
        return AnnotatedDocument(doc, events), tally

    metrics = RunMetrics(strategy, seed)
    pred_docs = []
    budget = getattr(client, "max_in_flight", 1)  # declared by HttpChatClient only
    for pred_doc, tally in _map_in_order(extract, corpus.docs, budget):
        metrics.add(tally)
        pred_docs.append(pred_doc)
    return Corpus(pred_docs), metrics


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
