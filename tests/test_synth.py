import itertools

from sdohkit import synth
from sdohkit.corpus import document_violations
from sdohkit.schema import EventTypeDef, Schema
from sdohkit.synth import PHRASE_BANK, generate_fewshot_train, generate_synthetic, phrases_for


def test_empty_corpus(schema):
    assert len(generate_synthetic(schema, 0, 1)) == 0


def test_determinism(schema):
    a = generate_synthetic(schema, 100, 7)
    b = generate_synthetic(schema, 100, 7)
    assert [d.document for d in a.docs] == [d.document for d in b.docs]
    assert [d.events for d in a.docs] == [d.events for d in b.docs]
    c = generate_synthetic(schema, 100, 8)
    assert [d.document.text for d in c.docs] != [d.document.text for d in a.docs]


import pytest


@pytest.mark.parametrize("seed", [3, 77, 4096])
def test_all_documents_valid(schema, seed):
    corpus = generate_synthetic(schema, 150, seed)
    for d in corpus.docs:
        assert document_violations(d, schema) == []
    assert any(d.events for d in corpus.docs)
    assert any(not d.events for d in corpus.docs)


def test_trigger_phrases_occur_once(schema):
    # unique occurrence keeps text-based grounding exact for the closed loop
    for d in generate_synthetic(schema, 150, 5).docs:
        for ev in d.events:
            assert d.document.text.count(ev.trigger.text) == 1


def test_document_texts_unique(schema):
    corpus = generate_synthetic(schema, 300, 11)
    texts = [d.document.text for d in corpus.docs]
    assert len(set(texts)) == len(texts)


def test_phrase_bank_no_cross_containment():
    phrases = list(itertools.chain.from_iterable(PHRASE_BANK.values()))
    for a in phrases:
        for b in phrases:
            if a != b:
                assert a not in b, (a, b)


def test_phrases_for_unknown_type_fallback():
    from sdohkit.schema import EventTypeDef, ArgumentDef

    et = EventTypeDef("HousingQuality", (ArgumentDef("Status", True, ("ok",)),))
    assert len(phrases_for(et)) >= 3


def test_fewshot_train_covers_classes(schema):
    corpus = generate_fewshot_train(schema, 2)
    for d in corpus.docs:
        assert document_violations(d, schema) == []
    for et in schema.event_types:
        counts = [sum(1 for e in d.events if e.event_type == et.name) for d in corpus.docs]
        assert 0 in counts and 1 in counts and any(c > 1 for c in counts)
        for adef in et.arguments:
            positives = sum(
                1
                for d in corpus.docs
                if any(e.event_type == et.name and adef.name in e.arguments for e in d.events)
            )
            assert positives >= 3 if adef.required else positives >= 2
            if not adef.required:
                negatives = [
                    d
                    for d in corpus.docs
                    if any(e.event_type == et.name and adef.name not in e.arguments for e in d.events)
                ]
                assert negatives


def test_negative_document_count_is_an_error(schema):
    with pytest.raises(ValueError, match="^n_docs must be >= 0$"):
        generate_synthetic(schema, -1, 1)


def test_a_phrase_inside_another_is_resampled(monkeypatch):
    # "housing reported" is inside "unstable housing reported", so many
    # assembled notes hold a phrase twice and are built again.
    schema = Schema("s", (EventTypeDef("Housing", ()), EventTypeDef("UnstableHousing", ())))
    assemble, outcomes = synth._assemble, []

    def counted(rng, specs):
        built = assemble(rng, specs)
        outcomes.append(built is None)
        return built

    monkeypatch.setattr(synth, "_assemble", counted)
    corpus = generate_synthetic(schema, 50, 1)
    assert any(outcomes)
    for adoc in corpus.docs:
        for ev in adoc.events:
            assert adoc.document.text.count(ev.trigger.text) == 1
