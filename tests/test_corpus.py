import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    json_value,
    jsonl_records,
    read_text,
    sample_corpus,
    select_social_history,
    split_corpus,
    write_text,
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


def test_document_violations_checks_field_types():
    # "20200131" and "2020-W05-5" parse with date.fromisoformat on Python 3.11 but not 3.10
    for note_date in ("yesterday", "20200131", "2020-W05-5", "2020-02-30"):
        bad = AnnotatedDocument(Document("d", 7, "hi", note_date), annotator_id=5)
        assert document_violations(bad) == [
            "missing or empty string field 'patient_id'",
            f"'note_date' {note_date!r} is not an ISO-8601 date",
            "'annotator_id' must be a string or null",
        ]
    assert document_violations(AnnotatedDocument(Document("d", "p", "hi", "2020-01-31"))) == []
    assert document_violations(AnnotatedDocument(Document("d", "p", "hi", 20200131))) == [
        "'note_date' must be a string or null"
    ]


@pytest.mark.parametrize("key", ["doc_id", "patient_id", "text", "annotator_id"])
def test_jsonl_loader_rejects_text_no_writer_can_encode(key):
    obj = {"doc_id": "a", "patient_id": "p", "text": "hi", key: "x\ud800y"}
    with pytest.raises(CorpusError, match=f"^line 1: '{key}' cannot be written as UTF-8 .* index 1"):
        corpus_from_jsonl(json.dumps(obj))


@pytest.mark.parametrize(
    "event_type, args", [("Alc\udfff", {}), ("Alcohol", {"St\ud800": "past"}), ("Alcohol", {"S": "\udc00"})]
)
def test_jsonl_loader_rejects_event_labels_no_writer_can_encode(event_type, args):
    trigger = {"start": 3, "end": 9, "text": "drinks"}
    obj = {"doc_id": "a", "patient_id": "p", "text": "he drinks",
           "events": [{"type": event_type, "trigger": trigger, "args": args}]}
    with pytest.raises(CorpusError, match="^line 1: event 0: label .* cannot be written as UTF-8"):
        corpus_from_jsonl(json.dumps(obj))


def test_jsonl_loader_rejects_an_argument_name_with_a_dot():
    # events A.B{C} and A{B.C} would share the argument key "A.B.C" in reports
    events = [{"type": "A.B", "trigger": {"start": 0, "end": 2, "text": "he"}, "args": {"C": "p"}},
              {"type": "A", "trigger": {"start": 3, "end": 9, "text": "drinks"},
               "args": {"B.C": "q"}}]
    obj = {"doc_id": "a", "patient_id": "p", "text": "he drinks", "events": events}
    with pytest.raises(CorpusError, match="^line 1: event 1: argument name 'B.C' contains '.'$"):
        corpus_from_jsonl(json.dumps(obj))
    del events[1]
    assert corpus_from_jsonl(json.dumps(obj)).docs[0].events[0].event_type == "A.B"


def test_jsonl_records_name_the_line_and_file():
    records = list(jsonl_records('\n{"a":1}\n\n{"b":2}\n'))
    assert records == [("line 2", {"a": 1}), ("line 4", {"b": 2})]
    with pytest.raises(CorpusError, match="^line 2: expected a JSON object"):
        list(jsonl_records('{"a":1}\n[1]\n'))
    with pytest.raises(CorpusError, match="^meta.jsonl line 1: invalid JSON"):
        list(jsonl_records("{bad\n", "meta.jsonl"))
    with pytest.raises(CorpusError, match="^line 1: invalid JSON .*recursion"):
        list(jsonl_records("[" * 100_000))


def test_write_text_and_read_text_keep_the_bytes(tmp_path):
    path, text = tmp_path / "f.txt", "a\r\nb\rc\n\u2028é\n"
    write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    assert read_text(path) == text


def test_write_text_that_cannot_encode_leaves_no_file(tmp_path):
    path = tmp_path / "f.txt"
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "x\ud800y")
    assert not path.exists()


def test_read_text_names_the_file_and_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"ok\r\nstill ok\n\xc3(")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))} line 3: not UTF-8"):
        read_text(path)


def test_json_value_prefixes_errors_with_where():
    assert json_value('{"a": [1]}\r\n', "x") == {"a": [1]}
    with pytest.raises(CorpusError, match="^script.json: invalid JSON .*delimiter"):
        json_value('{"a" 1}', "script.json")


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
def test_jsonl_round_trip_keeps_unicode_line_separators(sep):
    corpus = Corpus([AnnotatedDocument(Document("a", "p", f"lives{sep}alone"))])
    assert corpus_from_jsonl(corpus_to_jsonl(corpus)).docs == corpus.docs


@pytest.mark.parametrize("rules", [["("], ["ok:", "[unclosed"], ["[[A-Z]+:"]])
def test_bad_rule_pattern_is_a_corpus_error(rules):
    with pytest.raises(CorpusError, match="invalid rule pattern"):
        extract_sections(NOTE, rules)
    with pytest.raises(CorpusError, match="invalid rule pattern"):
        select_social_history(extract_sections(NOTE), rules)


# Corpus records: valid ones, about half of them with one field replaced by
# an arbitrary JSON value or removed.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.text(max_size=12),
    st.sampled_from(["", "d0", "../x", "2020-02-30", "train", "bogus"]),
    st.lists(st.integers(0, 5), max_size=2),
    st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
)
_VALID_EVENTS = [
    {"type": "Alcohol", "trigger": {"start": 3, "end": 9, "text": "drinks"},
     "args": {"Status": "current"}},
    {"type": "Alcohol", "trigger": {"start": 3, "end": 14, "text": "drinks wine"}, "args": {}},
    {"type": "Employment", "trigger": {"start": 3, "end": 9, "text": "drinks"}, "args": {}},
]
_MUTABLE = [
    ("doc_id",), ("patient_id",), ("note_date",), ("text",), ("annotator_id",), ("split",),
    ("events",), ("events", 0), ("events", 0, "type"), ("events", 0, "trigger"), ("events", 0, "args"),
    ("events", 0, "trigger", "start"), ("events", 0, "trigger", "end"), ("events", 0, "trigger", "text"),
]


@st.composite
def _records(draw, max_size=3):
    records = []
    for i in range(draw(st.integers(0, max_size))):
        events = draw(
            st.lists(st.sampled_from(range(len(_VALID_EVENTS))), unique=True, min_size=1, max_size=2)
        )
        record = {
            "doc_id": f"d{i}",
            "patient_id": "p",
            "note_date": draw(st.sampled_from([None, "2020-01-31"])),
            "text": "he drinks wine daily",
            "annotator_id": draw(st.sampled_from([None, "ann1"])),
            "events": json.loads(json.dumps([_VALID_EVENTS[j] for j in events])),
            "split": draw(st.sampled_from([None, "train", "validation", "test"])),
        }
        *parents, last = draw(st.sampled_from(_MUTABLE))
        target = record
        for key in parents:
            target = target[key]
        if draw(st.booleans()) and (isinstance(target, dict) or last < len(target)):
            if draw(st.booleans()):
                target[last] = draw(_JSON_VALUES)
            else:
                del target[last]
        records.append(record)
    return records


def _loads_or_corpus_error(text):
    try:
        corpus = corpus_from_jsonl(text)
    except CorpusError:
        return
    for adoc in corpus.docs:
        assert document_violations(adoc) == []
    assert set(corpus.split_assignment.values()) <= {"train", "validation", "test"}
    assert corpus_from_jsonl(corpus_to_jsonl(corpus)).docs == corpus.docs


@given(st.text())
def test_loader_fuzz_arbitrary_text(text):
    _loads_or_corpus_error(text)


@given(_records())
def test_loader_fuzz_near_valid_records(records):
    _loads_or_corpus_error("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))
