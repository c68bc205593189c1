import pytest

from sdohkit.corpus import AnnotatedDocument, Corpus, Document, Event, TextSpan
from sdohkit.linearizer import parse_events
from sdohkit.llm import Completion
from sdohkit.qa import (
    FewShotError,
    FewShotSet,
    GoldOracleClient,
    NonsenseClient,
    PromptError,
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
from sdohkit.schema import Schema, EventTypeDef, ArgumentDef
from sdohkit.scoring import score_corpus
from sdohkit.synth import generate_fewshot_train, generate_synthetic


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
    bundle = build_trigger_prompt(corpus.docs[0], "Alcohol", "guide", guide["Alcohol"])
    assert guide["Alcohol"] in bundle.messages[0].content
    with pytest.raises(PromptError):
        build_trigger_prompt(corpus.docs[0], "Alcohol", "guide")


def test_trigger_prompt_fewshot_message_count(corpus, train, guide):
    fewshot = sample_fewshot(train, "Alcohol", "trigger", 7)
    bundle = build_trigger_prompt(
        corpus.docs[0], "Alcohol", "guide+3shot", guide["Alcohol"], fewshot
    )
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


def test_step_prompts_reject_inputs_their_mode_needs(schema, corpus, train):
    doc = corpus.docs[0]
    status = schema.event_type("Alcohol").argument("Status")
    trigger = TextSpan(0, 3, doc.document.text[:3])
    trig_shots = sample_fewshot(train, "Alcohol", "trigger", 1)
    arg_shots = sample_fewshot(train, ("Alcohol", "Status"), "required-arg", 1)
    short = FewShotSet(trig_shots.examples[:2], "too-few")
    builders = [
        lambda *a: build_trigger_prompt(doc, "Alcohol", *a),
        lambda *a: build_argument_prompt(doc, "Alcohol", trigger, status, schema, *a),
    ]
    for build, shots in zip(builders, (trig_shots, arg_shots)):
        with pytest.raises(PromptError, match="^unknown mode 'fancy'$"):
            build("fancy")
        with pytest.raises(PromptError, match="^mode 'guide' requires guide text$"):
            build("guide", "")
        with pytest.raises(PromptError, match="^mode 'guide\\+3shot' requires guide text$"):
            build("guide+3shot", None, shots)
        for fewshot in (None, short):
            with pytest.raises(PromptError, match="few-shot set of size 3$"):
                build("guide+3shot", "some guide", fewshot)
        assert len(build("guide+3shot", "some guide", shots).messages) == 8
        # Base and guide modes ignore a few-shot set.
        assert len(build("guide", "some guide", shots).messages) == 2


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


# --- guide files -----------------------------------------------------------------------

def test_guide_stub_covers_schema(schema, guide):
    assert check_guide_coverage(guide, schema) == []


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


def test_pipeline_requires_guide_coverage(schema, corpus, train):
    oracle = GoldOracleClient(corpus, schema)
    with pytest.raises(PromptError, match="guide"):
        run_pipeline(corpus, schema, oracle, "2sqa-guide", seed=1, train=train, guide={})


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
