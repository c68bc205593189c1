import dataclasses
import hashlib
import http.client
import json
import os
import re
import sys
import threading
import time
import zlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdohkit import linearizer, qa
from sdohkit.corpus import AnnotatedDocument, Corpus, Document, Event, TextSpan, corpus_to_jsonl
from sdohkit.linearizer import parse_events
from sdohkit.llm import ChatMessage, ClientConfig, Completion, HttpChatClient, ScriptedMockClient
from sdohkit.llm import TransportError, fingerprint
from sdohkit.qa import (
    FewShotError,
    FewShotPool,
    FewShotSet,
    GoldOracleClient,
    NonsenseClient,
    STRATEGIES,
    PromptError,
    RunMetrics,
    build_argument_prompt,
    build_event_prompt,
    build_trigger_prompt,
    check_guide_coverage,
    export_finetune_pairs,
    guide_stub,
    parse_argument_response,
    parse_guide_file,
    parse_trigger_response,
    run_pipeline,
    sample_fewshot,
)
from sdohkit.schema import ArgumentDef, EventTypeDef, Schema, SchemaError
from sdohkit.scoring import score_corpus
from sdohkit.synth import generate_fewshot_train, generate_synthetic

from helpers import loopback_endpoint, sample_fewshot_reference


@pytest.fixture(scope="module")
def corpus(schema):
    return generate_synthetic(schema, 25, 401)


@pytest.fixture(scope="module")
def train(schema):
    return generate_fewshot_train(schema, 402)


@pytest.fixture(scope="module")
def guide(schema):
    return parse_guide_file(guide_stub(schema))


def _doc_with_events(c, n=1):
    return next(d for d in c.docs if len(d.events) >= n)


# --- prompt construction -------------------------------------------------------

def test_event_prompt_structure(schema, corpus):
    example = _doc_with_events(corpus)
    target = corpus.docs[0]
    bundle = build_event_prompt(target, schema, example)
    assert [m.role for m in bundle.messages] == ["system", "user"]
    system = bundle.messages[0].content
    for et in schema.event_types:
        assert et.name in system
    assert example.document.text in system
    assert bundle.messages[1].content.endswith(target.document.text)


def test_event_prompt_illustration_parses(schema, corpus):
    example = _doc_with_events(corpus)
    bundle = build_event_prompt(corpus.docs[0], schema, example)
    system = bundle.messages[0].content
    illustration = system.split("Example output:\n", 1)[1]
    res = parse_events(illustration, example.document.text, schema)
    assert res.invalid_records == []
    assert len(res.events) == len(example.events)


def test_event_prompt_requires_events(schema, corpus):
    empty = next(d for d in corpus.docs if not d.events)
    with pytest.raises(PromptError):
        build_event_prompt(corpus.docs[0], schema, empty)


def test_trigger_prompt_base(schema, corpus):
    bundle = build_trigger_prompt(corpus.docs[0], "Alcohol")
    assert [m.role for m in bundle.messages] == ["system", "user"]
    assert "Event type: Alcohol" in bundle.messages[1].content


def test_trigger_prompt_guide(corpus, guide):
    bundle = build_trigger_prompt(corpus.docs[0], "Alcohol", guide["Alcohol"])
    assert guide["Alcohol"] in bundle.messages[0].content
    plain = build_trigger_prompt(corpus.docs[0], "Alcohol")
    assert "Guideline" not in plain.messages[0].content


def test_trigger_prompt_fewshot_message_count(corpus, train, guide):
    fewshot = sample_fewshot(train, "Alcohol", "trigger", 7)
    bundle = build_trigger_prompt(corpus.docs[0], "Alcohol", guide["Alcohol"], fewshot)
    assert len(bundle.messages) == 8
    roles = [m.role for m in bundle.messages]
    assert roles == ["system", "user", "assistant", "user", "assistant", "user", "assistant", "user"]


def test_trigger_fewshot_answers_parse_as_trigger_lists(train, guide, corpus):
    fewshot = sample_fewshot(train, "LivingArrangement", "trigger", 3)
    for ex in fewshot.examples:
        spans, bad, _ = parse_trigger_response(ex.answer, ex.text, repair=False)
        assert bad == []
    assert fewshot.examples[0].answer == "NONE"


def test_argument_prompt_options(schema, corpus):
    doc = corpus.docs[0]
    la = schema.event_type("LivingArrangement")
    trigger = TextSpan(0, 7, doc.document.text[0:7])
    required = build_argument_prompt(doc, "LivingArrangement", trigger, la.argument("Type"), schema)
    assert required.options == list(la.argument("Type").subtypes)
    optional = build_argument_prompt(
        doc, "LivingArrangement", trigger, la.argument("Residence"), schema
    )
    assert optional.options[-1] == "none"
    assert optional.options[:-1] == list(la.argument("Residence").subtypes)


def test_none_option_iff_optional_over_random_schemas():
    rng = __import__("random").Random(99)
    subtype_pool = ["red", "blue", "green", "high", "low", "on", "off"]
    for trial in range(20):
        types = []
        for t in range(rng.randint(1, 4)):
            args = tuple(
                ArgumentDef(
                    f"Arg{a}",
                    rng.random() < 0.5,
                    tuple(rng.sample(subtype_pool, rng.randint(1, 4))),
                )
                for a in range(rng.randint(1, 3))
            )
            types.append(EventTypeDef(f"Type{t}", args))
        rand_schema = Schema(f"rand-{trial}", tuple(types))
        doc = Document("d", "p", "some note text for type checks")
        for et in rand_schema.event_types:
            for adef in et.arguments:
                bundle = build_argument_prompt(
                    doc, et.name, TextSpan(0, 4, "some"), adef, rand_schema
                )
                assert ("none" in bundle.options) == (not adef.required)
                assert bundle.options[: len(adef.subtypes)] == list(adef.subtypes)


def test_argument_prompt_requires_membership(schema, corpus):
    doc = corpus.docs[0]
    status = schema.event_type("Alcohol").argument("Status")
    with pytest.raises(PromptError):
        build_argument_prompt(doc, "LivingArrangement", TextSpan(0, 3, "Pat"), status, schema)


def test_step_prompts_render_exactly_the_guide_and_examples_given(schema, corpus, train):
    doc = corpus.docs[0]
    status = schema.event_type("Alcohol").argument("Status")
    trigger = TextSpan(0, 3, doc.document.text[:3])
    trig_shots = sample_fewshot(train, "Alcohol", "trigger", 1)
    arg_shots = sample_fewshot(train, ("Alcohol", "Status"), "required-arg", 1)
    builders = [
        lambda *a: build_trigger_prompt(doc, "Alcohol", *a),
        lambda *a: build_argument_prompt(doc, "Alcohol", trigger, status, schema, *a),
    ]
    for build, shots in zip(builders, (trig_shots, arg_shots)):
        for guide_text in (None, "some guide"):
            for k in range(len(shots.examples) + 1):
                fewshot = FewShotSet(shots.examples[:k], "first-k") if k else None
                messages = build(guide_text, fewshot).messages
                system = messages[0].content
                assert ("Guideline for" in system) == (guide_text is not None)
                assert system.endswith(f":\n{guide_text}") == (guide_text is not None)
                assert [m.role for m in messages] == (
                    ["system"] + ["user", "assistant"] * k + ["user"]
                )
                answers = [m.content for m in messages if m.role == "assistant"]
                assert answers == [ex.answer for ex in shots.examples[:k]]


def test_argument_prompt_rejects_example_without_trigger(schema, corpus, train):
    doc = corpus.docs[0]
    status = schema.event_type("Alcohol").argument("Status")
    untriggered = FewShotSet(sample_fewshot(train, "Alcohol", "trigger", 1).examples, "trigger")
    with pytest.raises(PromptError, match="^argument few-shot examples must carry a trigger$"):
        build_argument_prompt(
            doc, "Alcohol", TextSpan(0, 3, doc.document.text[:3]), status, schema, None, untriggered
        )


def test_argument_prompt_quotes_trigger(schema, corpus):
    doc = _doc_with_events(corpus)
    ev = doc.events[0]
    adef = schema.event_type(ev.event_type).arguments[0]
    bundle = build_argument_prompt(doc, ev.event_type, ev.trigger, adef, schema)
    content = bundle.messages[-1].content
    assert f'Trigger: "{ev.trigger.text}"' in content
    assert f"(characters {ev.trigger.start}-{ev.trigger.end})" in content


# --- response parsing ------------------------------------------------------------

def test_parse_trigger_response_none():
    assert parse_trigger_response("NONE", "whatever") == ([], [], 0)


def test_parse_trigger_response_lines(corpus):
    doc = _doc_with_events(corpus, 2)
    text = doc.document.text
    lines = "\n".join(e.trigger.text for e in doc.events)
    spans, bad, n_repaired = parse_trigger_response(lines, text)
    assert bad == []
    assert n_repaired == 0
    assert [ (s.start, s.end) for s in spans ] == [
        (e.trigger.start, e.trigger.end) for e in doc.events
    ]


def test_parse_trigger_response_bullets_and_quotes(corpus):
    doc = _doc_with_events(corpus)
    t = doc.events[0].trigger
    spans, bad, _ = parse_trigger_response(f'- "{t.text}"', doc.document.text)
    assert bad == []
    assert spans == [t]


def test_parse_trigger_response_counts_repaired_triggers():
    text = "lives with her mother, drinks wine"
    spans, bad, n_repaired = parse_trigger_response("LIVES\ndrinks wine", text)
    assert bad == []
    assert [(s.start, s.end) for s in spans] == [(0, 5), (23, 34)]
    assert n_repaired == 1


def test_parse_trigger_response_absent_line():
    spans, bad, _ = parse_trigger_response("not in the doc", "something else", repair=False)
    assert spans == []
    assert bad[0].reason == "span-not-found"


def test_parse_trigger_response_merges_a_repeated_line(monkeypatch):
    repairs = []
    monkeypatch.setattr(linearizer, "repair_span", lambda *args: repairs.append(args))
    spans, bad, n_repaired = parse_trigger_response("drinks wine\ndrinks wine", "he drinks wine daily")
    assert [(s.start, s.end) for s in spans] == [(3, 14)]
    assert (bad, n_repaired, repairs) == ([], 0, [])


def test_parse_trigger_response_repeated_line_takes_the_next_occurrence():
    spans, bad, _ = parse_trigger_response("wine\nwine", "wine at noon, wine at night")
    assert [(s.start, s.end) for s in spans] == [(0, 4), (14, 18)]
    assert bad == []


def test_parse_argument_response_exact():
    assert parse_argument_response("current", ["past", "current"]) == "current"


def test_parse_argument_response_normalized():
    assert parse_argument_response(" Current. ", ["past", "current"]) == "current"
    assert parse_argument_response('"past"', ["past", "current"]) == "past"
    assert parse_argument_response("B. past", ["past", "current"]) == "past"


def test_parse_argument_response_ambiguous():
    assert parse_argument_response("maybe past or current", ["past", "current"]) is None
    assert parse_argument_response("neither", ["past", "current"]) is None


def test_parse_argument_response_substring_safe():
    # "none" inside another word must not count as a mention
    assert parse_argument_response("nonetheless unclear", ["past", "none"]) is None


# --- few-shot sampling --------------------------------------------------------------

def test_sample_fewshot_trigger_constraints(train, schema):
    fs = sample_fewshot(train, "Employment", "trigger", 11)
    assert fs.constraint_tag == "zero-one-many"
    by_text = {d.document.text: d for d in train.docs}
    counts = [
        sum(1 for e in by_text[ex.text].events if e.event_type == "Employment")
        for ex in fs.examples
    ]
    assert counts[0] == 0 and counts[1] == 1 and counts[2] > 1


def test_sample_fewshot_required_arg(train, schema):
    fs = sample_fewshot(train, ("Employment", "Status"), "required-arg", 13)
    assert fs.constraint_tag == "three-positive"
    assert len({ex.text for ex in fs.examples}) == 3
    subtypes = schema.event_type("Employment").argument("Status").subtypes
    for ex in fs.examples:
        assert ex.answer in subtypes
        assert ex.trigger is not None


def test_sample_fewshot_optional_arg(train):
    fs = sample_fewshot(train, ("LivingArrangement", "Residence"), "optional-arg", 17)
    assert fs.constraint_tag == "two-positive-one-negative"
    answers = [ex.answer for ex in fs.examples]
    assert answers.count("none") == 1
    assert answers[-1] == "none"


def test_sample_fewshot_determinism(train):
    a = sample_fewshot(train, "Drug", "trigger", 19)
    b = sample_fewshot(train, "Drug", "trigger", 19)
    assert a == b


def test_sample_fewshot_empty_class(schema):
    thin = generate_synthetic(schema, 0, 1)
    with pytest.raises(FewShotError, match="zero-triggers"):
        sample_fewshot(thin, "Alcohol", "trigger", 1)


def test_sample_fewshot_missing_many_class(schema):
    docs = generate_fewshot_train(schema, 1).docs
    # keep only docs with at most one Tobacco event
    thin = Corpus([d for d in docs if sum(e.event_type == "Tobacco" for e in d.events) <= 1])
    with pytest.raises(FewShotError, match="many-triggers"):
        sample_fewshot(thin, "Tobacco", "trigger", 1)


def _fewshot_outcome(sample, train, target, kind, seed):
    try:
        return sample(train, target, kind, seed)
    except FewShotError as exc:
        return f"FewShotError: {exc}"


# Small corpora over three event types and three argument names: every class
# is sometimes empty, sometimes a single doc, and doc_ids can repeat.
_fewshot_docs = st.lists(
    st.tuples(
        st.sampled_from(["d1", "d2", "d3", "d4", "d5", "d6"]),
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C"]),
                st.integers(0, 4),
                st.integers(1, 2),
                st.dictionaries(st.sampled_from(["x", "y", "z"]), st.sampled_from(["p", "q"]),
                                max_size=3),
            ),
            max_size=4,
        ),
    ),
    max_size=9,
)
_fewshot_query = st.one_of(
    st.tuples(st.sampled_from(["A", "B", "C"]), st.just("trigger")),
    st.tuples(
        st.tuples(st.sampled_from(["A", "B", "C"]), st.sampled_from(["x", "y", "z"])),
        st.sampled_from(["required-arg", "optional-arg"]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_fewshot_docs, st.lists(st.tuples(_fewshot_query, st.integers(0, 50)), min_size=1, max_size=12))
def test_sample_fewshot_matches_reference(raw_docs, queries):
    docs = []
    for i, (doc_id, raw_events) in enumerate(raw_docs):
        events = [Event(t, TextSpan(s, s + n, f"{t}{s}-{s + n}"), args) for t, s, n, args in raw_events]
        docs.append(AnnotatedDocument(Document(doc_id, "p", f"note {i}"), events))
    train = Corpus(docs)
    pool = FewShotPool(train)  # one pool serves every query, as in a run
    for (target, kind), seed in queries:
        want = _fewshot_outcome(sample_fewshot_reference, train, target, kind, seed)
        assert _fewshot_outcome(sample_fewshot, pool, target, kind, seed) == want
        assert _fewshot_outcome(sample_fewshot, train, target, kind, seed) == want


# --- guide files -----------------------------------------------------------------------

def test_guide_stub_covers_schema(schema, guide):
    assert check_guide_coverage(guide, schema) == []


_ascii_name = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=8)


@given(st.lists(_ascii_name, min_size=1, max_size=3, unique=True),
       _ascii_name.filter(lambda name: "." not in name))
@example(["Food/Insecurity", "Living[Arrangement]"], "Kind:Type")
@example(["Food", "Food.Insecurity"], "Status")
@example(["Food", "Food.Status"], "Status")
def test_guide_stub_covers_schema_names_with_punctuation(type_names, arg_name):
    types = tuple(EventTypeDef(n, (ArgumentDef(arg_name, True, ("a",)),)) for n in type_names)
    if any(f"{n}.{arg_name}" in type_names for n in type_names):
        with pytest.raises(SchemaError, match="share the key"):
            Schema("v", types)
        return
    schema = Schema("v", types)
    guide = parse_guide_file(guide_stub(schema))
    assert check_guide_coverage(guide, schema) == []
    assert len(guide) == 2 * len(type_names)  # one key per type and per argument


@given(st.text())
def test_parse_guide_file_fuzz(text):
    blocks = parse_guide_file(text)
    for key, body in blocks.items():
        assert f"[{key}]" in text
        assert body == body.strip()


def test_parse_guide_file_blocks():
    guide = parse_guide_file("[A]\nfirst block\nmore\n\n[A.X]\nsecond\n")
    assert guide["A"] == "first block\nmore"
    assert guide["A.X"] == "second"


def test_check_guide_coverage_missing(schema):
    missing = check_guide_coverage({}, schema)
    assert "Alcohol" in missing and "LivingArrangement.Residence" in missing


# --- pipeline ----------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["event", "2sqa-base", "2sqa-guide", "2sqa-guide3shot"])
def test_closed_loop_perfect_f1(schema, corpus, train, guide, strategy):
    oracle = GoldOracleClient(corpus, schema)
    pred, metrics = run_pipeline(
        corpus, schema, oracle, strategy, seed=5, train=train, guide=guide
    )
    report = score_corpus(corpus, pred, schema)
    for level in ("trigger", "argument", "event"):
        assert report.micro[level].f1 == 1.0
    assert metrics.failures == []
    assert metrics.queries_total > 0


def test_pipeline_query_count_arithmetic():
    schema = Schema(
        "two",
        (
            EventTypeDef(
                "Alpha",
                (
                    ArgumentDef("Status", True, ("on", "off")),
                    ArgumentDef("Level", True, ("low", "high")),
                ),
            ),
            EventTypeDef(
                "Beta",
                (
                    ArgumentDef("Status", True, ("on", "off")),
                    ArgumentDef("Level", True, ("low", "high")),
                ),
            ),
        ),
    )
    text = "alpha marker here\nbeta marker there"
    events = [
        Event("Alpha", TextSpan(0, 12, "alpha marker"), {"Status": "on", "Level": "low"}),
        Event("Beta", TextSpan(18, 29, "beta marker"), {"Status": "off", "Level": "high"}),
    ]
    corpus = Corpus([AnnotatedDocument(Document("d1", "p1", text), events)])
    oracle = GoldOracleClient(corpus, schema)
    pred, metrics = run_pipeline(corpus, schema, oracle, "2sqa-base", seed=1)
    assert metrics.queries_step1 == 2
    assert metrics.queries_step2 == 4
    assert metrics.queries_total == 6
    assert score_corpus(corpus, pred).micro["event"].f1 == 1.0


def test_pipeline_determinism(schema, corpus, train, guide):
    oracle = GoldOracleClient(corpus, schema)
    a, _ = run_pipeline(corpus, schema, oracle, "2sqa-guide3shot", seed=9, train=train, guide=guide)
    b, _ = run_pipeline(corpus, schema, oracle, "2sqa-guide3shot", seed=9, train=train, guide=guide)
    assert [d.events for d in a.docs] == [d.events for d in b.docs]


def test_pipeline_nonsense_populates_invalid_rates(schema, corpus):
    pred, metrics = run_pipeline(corpus, schema, NonsenseClient(), "2sqa-base", seed=1)
    assert sum(len(d.events) for d in pred.docs) == 0
    obj = metrics.to_obj()
    assert obj["invalid_rates"]["trigger"]["invalid"] > 0
    assert obj["invalid_rates"]["trigger"]["rate"] == 1.0


def test_pipeline_output_satisfies_invariants(schema, corpus, train, guide):
    from sdohkit.corpus import document_violations

    oracle = GoldOracleClient(corpus, schema)
    pred, _ = run_pipeline(corpus, schema, oracle, "2sqa-guide", seed=2, guide=guide)
    for d in pred.docs:
        assert document_violations(d, schema) == []


def test_pipeline_transport_failure_recorded(schema, corpus):
    from sdohkit.llm import TransportError

    class FlakyOracle:
        def __init__(self, inner, fail_doc_text):
            self.inner = inner
            self.fail_doc_text = fail_doc_text

        def complete(self, messages):
            if self.fail_doc_text in messages[-1].content:
                raise TransportError("boom")
            return self.inner.complete(messages)

    oracle = GoldOracleClient(corpus, schema)
    victim = corpus.docs[3]
    client = FlakyOracle(oracle, victim.document.text)
    pred, metrics = run_pipeline(corpus, schema, client, "2sqa-base", seed=1)
    assert metrics.failures == [victim.doc_id]
    assert pred.doc_map[victim.doc_id].events == []
    assert len(pred.docs) == len(corpus.docs)


def test_pipeline_survives_a_deeply_nested_reply(schema, corpus, monkeypatch):
    """A reply nested past the JSON decoder's recursion limit fails its
    document; it does not abort the run."""
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    few = Corpus(corpus.docs[:2])
    with loopback_endpoint(lambda *request: (200, {}, b"[" * 100_000)) as (url, _):
        client = HttpChatClient(ClientConfig(url, "m", max_retries=0), sleep=lambda s: None)
        pred, metrics = run_pipeline(few, schema, client, "2sqa-base", seed=1)
    assert metrics.failures == few.doc_ids()
    assert pred.doc_ids() == few.doc_ids() and all(d.events == [] for d in pred.docs)


@pytest.mark.parametrize("content", [None, 5, ["NONE"], {"text": "NONE"}])
def test_pipeline_reply_content_that_is_not_text_fails_the_document(
    schema, corpus, monkeypatch, content
):
    from sdohkit.llm import ClientConfig, HttpChatClient

    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    victim = corpus.docs[3]

    def transport(url, headers, body, timeout):
        text = content if victim.document.text in body["messages"][-1]["content"] else "NONE"
        return {"choices": [{"message": {"content": text}}]}

    client = HttpChatClient(ClientConfig("http://localhost:9/v1", "m"), transport=transport)
    pred, metrics = run_pipeline(corpus, schema, client, "2sqa-base", seed=1)
    assert metrics.failures == [victim.doc_id]
    assert pred.doc_ids() == corpus.doc_ids()


def test_pipeline_query_counters_agree_when_documents_fail(schema, corpus):
    class EverySeventhCallFails:
        def __init__(self, inner):
            self.inner, self.calls = inner, 0

        def complete(self, messages):
            self.calls += 1
            if self.calls % 7 == 0:
                raise TransportError("boom")
            return self.inner.complete(messages)

    five = Corpus(corpus.docs[:5])
    client = EverySeventhCallFails(GoldOracleClient(five, schema))
    _, metrics = run_pipeline(five, schema, client, "2sqa-base", seed=1)
    assert metrics.failures
    assert metrics.queries_total == metrics.queries_step1 + metrics.queries_step2 == client.calls


def test_pipeline_failing_run_metrics_are_exact(schema, corpus):
    class EverySeventhCallFails:
        def __init__(self, inner):
            self.inner, self.calls = inner, 0

        def complete(self, messages):
            self.calls += 1
            if self.calls % 7 == 0:
                raise TransportError("boom")
            return self.inner.complete(messages)

    five = Corpus(corpus.docs[:5])
    client = EverySeventhCallFails(GoldOracleClient(five, schema))
    _, metrics = run_pipeline(five, schema, client, "2sqa-base", seed=1)
    empty = {"total": 0, "invalid": 0, "rate": 0.0, "by_reason": {}}
    assert metrics.to_obj() == {
        "strategy": "2sqa-base",
        "seed": 1,
        "n_docs": 5,
        "queries": {"total": 35, "step1": 31, "step2": 4},
        "retries_total": 0,
        "failures": [d.doc_id for d in five.docs],
        # What the failed documents parsed before their failing query.
        "invalid_rates": {"trigger": {**empty, "total": 4}, "argument": {**empty, "total": 4}},
        "events_dropped_missing_required": 0,
        "repaired_spans": 0,
    }


class _ContentKeyedClient:
    """Oracle front that fails, answers nonsense, retries and upper-cases
    triggers by a sha256 of the last message, so a query's fate does not
    depend on call order."""

    def __init__(self, oracle):
        self.oracle = oracle

    def complete(self, messages):
        last = messages[-1].content
        digest = hashlib.sha256(last.encode("utf-8")).digest()
        if digest[0] % 13 == 0:
            raise TransportError("boom")
        if digest[0] % 13 == 1:
            return Completion("zzqx gibberish", retries=1)
        text = self.oracle.complete(messages).text
        if last.startswith("Event type:") and "\nArgument:" not in last:
            text = text.upper()
        elif not last.startswith("Event type:"):
            text = re.sub(r"\[[^\]]*\]", lambda m: m.group(0).upper(), text)
        return Completion(text, retries=digest[1] % 3)


def _fold_metrics(parts, strategy, seed):
    total = RunMetrics(strategy, seed)
    for part in parts:
        for f in dataclasses.fields(RunMetrics):
            value = getattr(part, f.name)
            if isinstance(value, dict):
                acc = getattr(total, f.name)
                for k, v in value.items():
                    acc[k] = acc.get(k, 0) + v
            elif isinstance(value, list):
                getattr(total, f.name).extend(value)
            elif f.name not in ("strategy", "seed"):
                setattr(total, f.name, getattr(total, f.name) + value)
    return total


@pytest.mark.parametrize("strategy", ["event", "2sqa-base", "2sqa-guide3shot"])
def test_run_metrics_are_the_fold_of_single_document_runs(schema, corpus, train, guide, strategy):
    client = _ContentKeyedClient(GoldOracleClient(corpus, schema))
    kw = dict(seed=4, train=train, guide=guide)
    pred, metrics = run_pipeline(corpus, schema, client, strategy, **kw)
    singles = [run_pipeline(Corpus([d]), schema, client, strategy, **kw) for d in corpus.docs]
    assert [d.events for d in pred.docs] == [p.docs[0].events for p, _ in singles]
    obj = metrics.to_obj()
    assert obj == _fold_metrics([m for _, m in singles], strategy, 4).to_obj()
    assert 0 < len(obj["failures"]) < len(corpus.docs)
    assert obj["retries_total"] > 0 and obj["repaired_spans"] > 0
    assert obj["invalid_rates"]["trigger"]["invalid"] > 0


class _UpperCaseTriggers:
    """Upper-cases the oracle's trigger answers, so that every trigger with
    a lower-case letter must go through span repair."""

    def __init__(self, oracle):
        self.oracle = oracle

    def complete(self, messages):
        completion = self.oracle.complete(messages)
        last = messages[-1].content
        if last.startswith("Event type:") and "\nArgument:" not in last:
            return Completion(completion.text.upper())
        return completion


@pytest.mark.parametrize("strategy", ["2sqa-base", "2sqa-guide", "2sqa-guide3shot"])
def test_pipeline_counts_repaired_triggers(schema, corpus, train, guide, strategy):
    gold = Corpus(corpus.docs[:5])
    oracle = GoldOracleClient(gold, schema)
    _, plain = run_pipeline(gold, schema, oracle, strategy, seed=3, train=train, guide=guide)
    assert plain.repaired_spans == 0

    pred, metrics = run_pipeline(
        gold, schema, _UpperCaseTriggers(oracle), strategy, seed=3, train=train, guide=guide
    )
    n_repairable = sum(
        e.trigger.text.upper() != e.trigger.text for d in gold.docs for e in d.events
    )
    assert n_repairable > 0
    assert metrics.repaired_spans == n_repairable
    assert metrics.to_obj()["repaired_spans"] == n_repairable
    assert score_corpus(gold, pred, schema).micro["event"].f1 == 1.0


def test_pipeline_requires_train_when_needed(schema, corpus, guide):
    oracle = GoldOracleClient(corpus, schema)
    with pytest.raises(PromptError):
        run_pipeline(corpus, schema, oracle, "event", seed=1)
    with pytest.raises(PromptError):
        run_pipeline(corpus, schema, oracle, "2sqa-guide3shot", seed=1, guide=guide)


class _Rendezvous(list):
    """Events whose iteration waits until two threads iterate them at once."""

    def __init__(self, items, barrier):
        super().__init__(items)
        self.barrier = barrier

    def __iter__(self):
        self.barrier.wait(timeout=10)
        return super().__iter__()


def test_fewshot_pool_threads_filling_one_key_keep_equal_classes():
    def doc(i, n):
        events = [Event("A", TextSpan(j, j + 1, f"a{j}"), {"x": "p"}) for j in range(n)]
        return AnnotatedDocument(Document(f"d{i}", "p", f"note {i}"), events)

    docs = [doc(i, n) for i, n in enumerate([0, 1, 2, 0, 3, 1])]
    barrier = threading.Barrier(2)
    docs[0].events = _Rendezvous(docs[0].events, barrier)
    pool = FewShotPool(Corpus(docs))
    results = [None, None]

    def query(slot):
        results[slot] = (sample_fewshot(pool, "A", "trigger", 3), pool.by_count("A"))

    threads = [threading.Thread(target=query, args=(slot,)) for slot in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not barrier.broken  # both threads built the class before either stored it
    docs[0].events = docs[0].events[:]  # a plain list again, for the reference
    want = sample_fewshot_reference(Corpus(docs[1:] + docs[:1]), "A", "trigger", 3)
    assert results[0][0] == results[1][0] == want
    assert results[0][1] == results[1][1] == pool.by_count("A")


class _CountingOracle:
    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = 0

    def complete(self, messages):
        self.calls += 1
        return self.oracle.complete(messages)


def test_pipeline_raises_at_the_query_whose_class_is_empty(schema, corpus, guide, monkeypatch):
    docs = generate_fewshot_train(schema, 1).docs
    thin = Corpus([d for d in docs if sum(e.event_type == "Tobacco" for e in d.events) <= 1])

    def run():
        client = _CountingOracle(GoldOracleClient(corpus, schema))
        with pytest.raises(FewShotError) as exc:
            run_pipeline(corpus, schema, client, "2sqa-guide3shot", seed=4, train=thin, guide=guide)
        return str(exc.value), client.calls

    got = run()
    monkeypatch.setattr(qa, "sample_fewshot", lambda pool, *a: sample_fewshot_reference(thin, *a))
    assert got == run()
    assert got[0] == "class many-triggers empty for event type Tobacco"
    assert got[1] > 0  # Alcohol and Drug were asked first


def test_pipeline_requires_guide_coverage(schema, corpus, train):
    oracle = GoldOracleClient(corpus, schema)
    with pytest.raises(PromptError, match="guide"):
        run_pipeline(corpus, schema, oracle, "2sqa-guide", seed=1, train=train, guide={})


# --- concurrent extraction ------------------------------------------------------------------

class _Budgeted:
    """A client that declares an in-flight budget, so run_pipeline uses threads."""

    def __init__(self, inner, max_in_flight):
        self.inner = inner
        self.max_in_flight = max_in_flight

    def complete(self, messages):
        return self.inner.complete(messages)


def _unit(text: str, salt: str) -> float:
    digest = hashlib.sha256(f"{salt}:{text}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class _SleepyEndpoint:
    """A transport that answers from the oracle after a 0-3 ms sleep seeded by
    the request, refuses the first attempt of some requests with a 429 and
    fails some trigger queries with 500s every time, so replies finish out of
    order and the failing documents leave partial tallies."""

    def __init__(self, oracle):
        self.oracle = oracle
        self._attempts = {}
        self._lock = threading.Lock()

    def __call__(self, url, headers, body, timeout):
        user = body["messages"][-1]["content"]
        with self._lock:
            attempt = self._attempts.get(user, 0)
            self._attempts[user] = attempt + 1
        time.sleep(0.003 * _unit(user, "sleep"))
        if attempt == 0 and _unit(user, "throttle") < 0.1:
            raise TransportError("endpoint returned 429", status=429)
        if "\nArgument:" not in user and _unit(user, "fail") < 0.08:
            raise TransportError("endpoint returned 500", status=500)
        messages = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
        return {"choices": [{"message": {"content": self.oracle.complete(messages).text}}]}


def _run_bytes(*args, **kwargs) -> tuple[str, str, list[str]]:
    pred, metrics = run_pipeline(*args, **kwargs)
    obj = metrics.to_obj()
    return corpus_to_jsonl(pred), json.dumps(obj, indent=2, sort_keys=True), obj["failures"]


@pytest.mark.parametrize("client_kind", ["oracle", "nonsense", "http"])
def test_pipeline_outputs_do_not_depend_on_the_in_flight_budget(
    schema, corpus, train, guide, monkeypatch, client_kind
):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    oracle = GoldOracleClient(corpus, schema)

    def client(budget):
        if client_kind == "oracle":
            return _Budgeted(oracle, budget)
        if client_kind == "nonsense":
            return _Budgeted(NonsenseClient(), budget)
        config = ClientConfig("http://localhost:9/v1", "m", max_retries=1, max_concurrent=budget)
        return HttpChatClient(config, transport=_SleepyEndpoint(oracle), sleep=lambda s: None)

    strategy = {"oracle": "2sqa-guide3shot", "nonsense": "2sqa-base", "http": "2sqa-guide"}
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost update in a shared cache shows
    try:
        for budget in (1, 2, 8):
            runs[budget] = _run_bytes(
                corpus, schema, client(budget), strategy[client_kind], seed=3, train=train,
                guide=guide,
            )
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[2] == runs[8]
    failures = runs[1][2]
    assert failures == [d for d in corpus.doc_ids() if d in failures]
    if client_kind == "http":
        assert failures and json.loads(runs[1][1])["retries_total"] > 0


class _FailsOn:
    """Records the notes asked about; raises ``errors[note]`` after ``delays[note]`` s."""

    def __init__(self, corpus, schema, errors, delays=None, max_in_flight=4):
        self.oracle = GoldOracleClient(corpus, schema)
        self.errors, self.delays = errors, delays or {}
        self.max_in_flight = max_in_flight
        self.notes = set()
        self._lock = threading.Lock()

    def complete(self, messages):
        note = messages[-1].content.split("Note:\n", 1)[1]
        with self._lock:
            self.notes.add(note)
        time.sleep(self.delays.get(note, 0.001))
        if note in self.errors:
            raise self.errors[note]
        return self.oracle.complete(messages)


def test_pipeline_pool_stops_at_the_first_error_that_is_not_transport(schema):
    docs = generate_synthetic(schema, 200, 403)
    budget = 4
    victim = docs.docs[3].document.text
    # The first document is slow, so its result is read long after the victim fails.
    client = _FailsOn(docs, schema, {victim: FewShotError("no examples")},
                      delays={docs.docs[0].document.text: 0.03}, max_in_flight=budget)
    with pytest.raises(FewShotError, match="no examples"):
        run_pipeline(docs, schema, client, "2sqa-base", seed=1)
    assert victim in client.notes
    assert len(client.notes) < 3 + 2 * budget


def test_pipeline_pool_raises_the_first_failing_document_in_document_order(schema, corpus):
    slow, fast = corpus.docs[2].document.text, corpus.docs[6].document.text
    client = _FailsOn(
        corpus, schema, {slow: ValueError("document 2"), fast: ValueError("document 6")},
        delays={slow: 0.05, fast: 0.0}, max_in_flight=8,
    )
    with pytest.raises(ValueError, match="document 2"):
        run_pipeline(corpus, schema, client, "2sqa-base", seed=1)
    assert fast in client.notes  # the later document did fail first


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_REPLY = _JSON | st.builds(
    lambda content, usage: {"choices": [{"message": {"content": content}}], "usage": usage},
    _JSON, _JSON,
)
_OUTCOME = st.one_of(
    st.tuples(st.just("reply"), st.sampled_from([200]) | st.integers(100, 599), _REPLY,
              st.none() | st.text(max_size=6) | st.integers(0, 99).map(str)),
    st.tuples(st.just("bytes"), st.just(200), st.binary(max_size=16), st.none()),
    st.tuples(st.just("raise"), st.sampled_from([
        TimeoutError, ConnectionResetError, http.client.RemoteDisconnected, http.client.IncompleteRead,
    ]), st.none(), st.none()),
)


@pytest.mark.parametrize("max_concurrent", [1, 4])
@settings(max_examples=60, deadline=None)
@given(outcomes=st.lists(_OUTCOME, min_size=1, max_size=6))
def test_pipeline_survives_any_endpoint_reply(schema, corpus, max_concurrent, outcomes):
    """Whatever the endpoint sends, every document is extracted or listed in
    failures, and nothing else is raised. A request's outcome is keyed on its
    content, so it does not depend on which thread sends it."""
    few = Corpus(corpus.docs[:3])

    class Connection:
        """Stands in for ``http.client.HTTPConnection`` and its response."""

        def __init__(self, host, port, timeout):
            pass

        def request(self, method, target, body, headers):
            self.kind, self.status, self.value, self.retry_after = \
                outcomes[zlib.crc32(body) % len(outcomes)]

        def getresponse(self):
            if self.kind == "raise":
                raise self.status("drawn")
            return self

        def getheader(self, name):
            return self.retry_after if name == "Retry-After" else None

        def read(self):
            return self.value if self.kind == "bytes" else json.dumps(self.value).encode()

        def close(self):
            pass

    config = ClientConfig("http://localhost:9/v1", "m", max_retries=2, max_concurrent=max_concurrent)
    with mock.patch.object(http.client, "HTTPConnection", Connection), \
            mock.patch.dict(os.environ, {"SDOHKIT_API_KEY": "k"}):
        client = HttpChatClient(config, sleep=lambda s: None)
        pred, metrics = run_pipeline(few, schema, client, "2sqa-base", seed=1)
    assert pred.doc_ids() == few.doc_ids()
    for adoc in pred.docs:
        assert adoc.doc_id not in metrics.failures or adoc.events == []
    assert metrics.failures == [d for d in few.doc_ids() if d in metrics.failures]


# --- fine-tune export ----------------------------------------------------------------------

def test_export_event_pairs(schema, corpus):
    pairs = export_finetune_pairs(corpus, schema, "event")
    assert len(pairs) == len(corpus.docs)
    for pair, doc in zip(pairs, corpus.docs):
        assert doc.document.text in pair["input"]
        res = parse_events(pair["target"], doc.document.text, schema)
        assert res.invalid_records == []
        assert len(res.events) == len(doc.events)


def test_export_2sqa_pairs(schema, corpus):
    pairs = export_finetune_pairs(corpus, schema, "2sqa")
    n_types = len(schema.event_types)
    n_trigger_pairs = len(corpus.docs) * n_types
    n_arg_pairs = sum(
        len(schema.event_type(e.event_type).arguments) for d in corpus.docs for e in d.events
    )
    assert len(pairs) == n_trigger_pairs + n_arg_pairs
    arg_pairs = pairs[-1]
    assert "Options:" in arg_pairs["input"] or "Event type:" in arg_pairs["input"]
    nones = [p for p in pairs if p["target"] == "none"]
    assert nones, "optional arguments absent from gold should yield 'none' targets"


@pytest.fixture(scope="module")
def oracle_prompts(schema, corpus, train, guide):
    """Per strategy, the fingerprints of the prompts an oracle run over the
    first three documents asks, in the order first asked."""
    few = Corpus(corpus.docs[:3])
    oracle, asked, out = GoldOracleClient(few, schema), [], {}

    class Recorder:
        def complete(self, messages):
            asked.append(fingerprint(messages))
            return oracle.complete(messages)

    for strategy in STRATEGIES:
        asked.clear()
        run_pipeline(few, schema, Recorder(), strategy, seed=1, train=train, guide=guide)
        out[strategy] = list(dict.fromkeys(asked))
    return out


_ANSWER = st.text(max_size=24) | st.sampled_from([
    "", "NONE", "none", "drinks", "current", "past", "a\nb", "1. current",
    "Alcohol [drinks] Status = current [drinks]", "Alcohol [drinks] and Drug [x]",
])


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_pipeline_survives_any_script(schema, corpus, train, guide, oracle_prompts, strategy,
                                      data):
    """Whatever a script answers, and whether or not it has a default, every
    document is extracted or listed in failures, and nothing else is raised.
    Script keys are drawn from the prompts an oracle run asks, so answers
    reach the parsers, and from arbitrary text, which matches no prompt."""
    few = Corpus(corpus.docs[:3])
    keys = data.draw(st.lists(st.sampled_from(oracle_prompts[strategy]) | st.text(max_size=8),
                              max_size=12))
    script = {key: data.draw(_ANSWER) for key in keys}
    client = ScriptedMockClient(script, data.draw(st.none() | _ANSWER))
    pred, metrics = run_pipeline(few, schema, client, strategy, seed=1, train=train, guide=guide)
    assert pred.doc_ids() == few.doc_ids()
    for adoc in pred.docs:
        assert adoc.doc_id not in metrics.failures or adoc.events == []
    assert metrics.failures == [d for d in few.doc_ids() if d in metrics.failures]
