import json
import random

import pytest

from sdohkit.corpus import (
    AnnotatedDocument,
    Corpus,
    CorpusError,
    Document,
    corpus_from_jsonl,
    corpus_to_jsonl,
    dedup_per_patient,
    document_violations,
    extract_sections,
    sample_corpus,
    select_social_history,
    split_corpus,
)
from sdohkit.synth import generate_synthetic

NOTE = "HPI:\nfever\nSocial History:\nlives with mom"


def _doc(doc_id, patient_id, text="some note text"):
    return AnnotatedDocument(Document(doc_id, patient_id, text))


def test_extract_sections_basic():
    sections = extract_sections(NOTE)
    assert len(sections) == 2
    assert sections[0].heading == "HPI:"
    assert sections[0].body == "fever\n"
    assert sections[1].heading == "Social History:"
    assert sections[1].body == "lives with mom"


def test_extract_sections_no_headings():
    assert extract_sections("just narrative text\nwith no headings") == []


def test_extract_sections_heading_last_line():
    sections = extract_sections("HPI:\nfever\nSocial History:")
    assert sections[-1].heading == "Social History:"
    assert sections[-1].body == ""
    assert sections[-1].start < sections[-1].end


def test_sections_reconstruct_suffix():
    text = "preamble line\nHPI:\nfever\nchills\nSOCIAL HISTORY\nlives alone\nPlan:\nrest"
    sections = extract_sections(text)
    assert [s.heading for s in sections] == ["HPI:", "SOCIAL HISTORY", "Plan:"]
    joined = "".join(text[s.start:s.end] for s in sections)
    assert joined == text[sections[0].start:]
    for a, b in zip(sections, sections[1:]):
        assert a.end == b.start


def test_select_social_history():
    sections = extract_sections(NOTE)
    chosen = select_social_history(sections)
    assert chosen is not None and chosen.heading == "Social History:"
    assert select_social_history(extract_sections("HPI:\nfever")) is None


def test_select_social_history_case_insensitive():
    sections = extract_sections("SOCIAL HISTORY\nlives with dad")
    chosen = select_social_history(sections)
    assert chosen is not None and chosen.body == "lives with dad"


def test_select_social_history_takes_first():
    text = "Social Hx:\nfirst\nSocial History:\nsecond"
    chosen = select_social_history(extract_sections(text))
    assert chosen.body == "first\n"


def test_dedup_per_patient_counts_and_determinism():
    corpus = Corpus([_doc("d1", "p1"), _doc("d2", "p1"), _doc("d3", "p2")])
    out = dedup_per_patient(corpus, 5)
    assert len(out) == 2
    assert {d.document.patient_id for d in out.docs} == {"p1", "p2"}
    assert dedup_per_patient(corpus, 5).doc_ids() == out.doc_ids()
    twice = dedup_per_patient(out, 123)
    assert len(twice) == len(out)


def test_dedup_many_patients():
    rng = random.Random(0)
    docs = [_doc(f"d{i}", f"p{rng.randrange(80)}") for i in range(110)]
    corpus = Corpus(docs)
    out = dedup_per_patient(corpus, 9)
    assert len(out) == len({d.document.patient_id for d in docs})


def test_split_corpus():
    corpus = Corpus([_doc(f"d{i}", f"p{i}") for i in range(10)])
    out = split_corpus(corpus, (5, 2, 2), 3)
    values = list(out.split_assignment.values())
    assert values.count("train") == 5
    assert values.count("validation") == 2
    assert values.count("test") == 2
    assert len(out.split_assignment) == 9  # one doc left unassigned
    assert split_corpus(corpus, (5, 2, 2), 3).split_assignment == out.split_assignment


def test_split_corpus_single_doc():
    corpus = Corpus([_doc("only", "p")])
    out = split_corpus(corpus, (1, 0, 0), 1)
    assert out.split_assignment == {"only": "train"}


def test_split_corpus_overflow():
    corpus = Corpus([_doc(f"d{i}", "p") for i in range(3)])
    with pytest.raises(CorpusError):
        split_corpus(corpus, (2, 2, 2), 0)


def test_split_paper_sizes(schema):
    corpus = generate_synthetic(schema, 1260, 42)
    out = split_corpus(corpus, (894, 121, 245), 7)
    values = list(out.split_assignment.values())
    assert (values.count("train"), values.count("validation"), values.count("test")) == (894, 121, 245)
    assert len(out.split_assignment) == 1260
    assert len(out.split("train")) == 894


def test_sample_corpus():
    corpus = Corpus([_doc(f"d{i}", f"p{i}") for i in range(20)])
    out = sample_corpus(corpus, 5, 1)
    assert len(out) == 5
    assert sample_corpus(corpus, 5, 1).doc_ids() == out.doc_ids()
    with pytest.raises(CorpusError):
        sample_corpus(corpus, 21, 1)


def test_jsonl_round_trip(schema):
    corpus = generate_synthetic(schema, 40, 8)
    corpus = split_corpus(corpus, (20, 10, 10), 2)
    text = corpus_to_jsonl(corpus)
    back = corpus_from_jsonl(text)
    assert back.split_assignment == corpus.split_assignment
    assert [d.document for d in back.docs] == [d.document for d in corpus.docs]
    assert [d.events for d in back.docs] == [d.events for d in corpus.docs]
    assert corpus_to_jsonl(back) == text


def test_jsonl_loader_line_errors():
    with pytest.raises(CorpusError, match="line 1"):
        corpus_from_jsonl("{broken\n")
    with pytest.raises(CorpusError, match="line 2"):
        corpus_from_jsonl(
            '{"doc_id":"a","patient_id":"p","text":"hi","events":[]}\n'
            '{"doc_id":"b","patient_id":"p","text":"","events":[]}\n'
        )
    with pytest.raises(CorpusError, match="duplicate doc_id"):
        corpus_from_jsonl(
            '{"doc_id":"a","patient_id":"p","text":"hi","events":[]}\n'
            '{"doc_id":"a","patient_id":"p","text":"hi","events":[]}\n'
        )


def test_jsonl_loader_rejects_bad_spans():
    line = (
        '{"doc_id":"a","patient_id":"p","text":"short",'
        '"events":[{"type":"Alcohol","trigger":{"start":0,"end":99,"text":"short"},"args":{}}]}'
    )
    with pytest.raises(CorpusError, match="line 1"):
        corpus_from_jsonl(line)


def test_jsonl_loader_rejects_text_mismatch():
    line = (
        '{"doc_id":"a","patient_id":"p","text":"short",'
        '"events":[{"type":"Alcohol","trigger":{"start":0,"end":5,"text":"wrong"},"args":{}}]}'
    )
    with pytest.raises(CorpusError, match="line 1"):
        corpus_from_jsonl(line)


def test_jsonl_loader_rejects_bool_offsets():
    line = (
        '{"doc_id":"a","patient_id":"p","text":"hi",'
        '"events":[{"type":"Alcohol","trigger":{"start":false,"end":true,"text":"h"},"args":{}}]}'
    )
    with pytest.raises(CorpusError, match="line 1: event 0: trigger must have int start/end"):
        corpus_from_jsonl(line)


@pytest.mark.parametrize("doc_id", ["../escaped", "a/b", "a\\b", "nul\u0000", ".", ".."])
def test_jsonl_loader_rejects_doc_ids_that_cannot_name_a_file(doc_id):
    line = json.dumps({"doc_id": doc_id, "patient_id": "p", "text": "hi", "events": []})
    with pytest.raises(CorpusError, match="cannot name a file"):
        corpus_from_jsonl(line)


def test_jsonl_loader_keeps_dotted_doc_ids():
    line = json.dumps({"doc_id": "note.v2..final", "patient_id": "p", "text": "hi"})
    assert corpus_from_jsonl(line).doc_ids() == ["note.v2..final"]


def test_jsonl_loader_rejects_bad_date():
    line = '{"doc_id":"a","patient_id":"p","note_date":"tomorrow","text":"hi","events":[]}'
    with pytest.raises(CorpusError, match="ISO-8601"):
        corpus_from_jsonl(line)


def test_document_violations_duplicate_event(schema):
    from sdohkit.corpus import Event, TextSpan

    text = "lives with mom"
    ev = Event("LivingArrangement", TextSpan(0, 5, "lives"), {"Type": "family", "Status": "current"})
    adoc = AnnotatedDocument(Document("d", "p", text), [ev, Event(ev.event_type, ev.trigger, {})])
    assert any("duplicate" in v for v in document_violations(adoc, schema))
