import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import parse_ann_reference
from sdohkit.brat import AnnFormatError, export_brat_dir, import_brat_dir, parse_ann, write_ann
from sdohkit.corpus import (
    AnnotatedDocument,
    Corpus,
    CorpusError,
    Document,
    Event,
    TextSpan,
    corpus_from_jsonl,
    corpus_to_jsonl,
    document_violations,
)
from sdohkit.schema import default_schema
from sdohkit.synth import generate_synthetic

DOC = "Patient    lives with mom and is doing well."
#                  ^10   ^15


def test_parse_basic_fixture(schema):
    ann = (
        "T1\tLivingArrangement 11 16\tlives\n"
        "E1\tLivingArrangement:T1\n"
        "A1\tStatus E1 current\n"
    )
    events, warnings = parse_ann(ann, DOC)
    assert warnings == []
    assert events == [Event("LivingArrangement", TextSpan(11, 16, "lives"), {"Status": "current"})]


def test_parse_empty():
    assert parse_ann("", DOC) == ([], [])


def test_dangling_event_reference():
    ann = "T1\tAlcohol 0 7\tPatient\nE1\tAlcohol:T1\nA1\tStatus E9 current\n"
    with pytest.raises(AnnFormatError, match="E9"):
        parse_ann(ann, DOC)


def test_dangling_trigger_reference():
    with pytest.raises(AnnFormatError, match="T4"):
        parse_ann("E1\tAlcohol:T4\n", DOC)


def test_relation_line_rejected():
    with pytest.raises(AnnFormatError, match="relation"):
        parse_ann("R1\tHas Arg1:E1 Arg2:E2\n", DOC)


def test_notes_and_normalization_ignored():
    ann = "#1\tAnnotatorNotes T1\tcheck this\nN1\tReference T1 X:1\tname\n"
    assert parse_ann(ann, DOC) == ([], [])


def test_discontinuous_span_warns_and_drops():
    ann = "T1\tAlcohol 0 4;8 12\tPati nt li\nE1\tAlcohol:T1\n"
    events, warnings = parse_ann(ann, DOC)
    assert events == []
    assert any("discontinuous" in w for w in warnings)


def test_out_of_bounds_span_warns_and_drops():
    ann = "T1\tAlcohol 0 9999\tx\nE1\tAlcohol:T1\n"
    events, warnings = parse_ann(ann, DOC)
    assert events == []
    assert any("out of bounds" in w for w in warnings)


def test_surface_mismatch_warns_but_keeps_document_text():
    ann = "T1\tLivingArrangement 11 16\tLIVES\nE1\tLivingArrangement:T1\n"
    events, warnings = parse_ann(ann, DOC)
    assert events[0].trigger.text == "lives"
    assert any("surface text" in w for w in warnings)


def test_schema_violation_is_warning(schema):
    ann = "T1\tLivingArrangement 11 16\tlives\nE1\tLivingArrangement:T1\n"
    events, warnings = parse_ann(ann, DOC, schema)
    assert len(events) == 1
    assert any("missing required argument" in w for w in warnings)


def test_malformed_lines():
    with pytest.raises(AnnFormatError, match="line 1"):
        parse_ann("T1\tAlcohol 0\tx\n", DOC)
    with pytest.raises(AnnFormatError, match="line 1"):
        parse_ann("A1\tStatus E1\n", DOC)
    with pytest.raises(AnnFormatError, match="line 1"):
        parse_ann("Q1\twhat\n", DOC)


_T1 = "T1\tLivingArrangement 11 16\tlives\n"


@pytest.mark.parametrize("ann, message", [
    ("T1\tLivingArrangement 11 x\tlives\n", "line 1: non-integer offsets"),
    (_T1 + "E1\tLivingArrangement:T1 Status:T2\n",
     "line 2: event arguments beyond the trigger are not supported"),
    (_T1 + "E1\tLivingArrangement\n", "line 2: event line needs 'Label:Tref'"),
])
def test_malformed_line_messages(ann, message):
    with pytest.raises(AnnFormatError, match=f"^{re.escape(message)}$"):
        parse_ann(ann, DOC)


@pytest.mark.parametrize("ann, message", [
    # a discontinuous span's id is taken too, whichever of the two lines comes first
    ("T1\tAlcohol 3;5 9\tdrinks\nT1\tAlcohol 3 9\tdrinks\nE1\tAlcohol:T1\n", "line 2: duplicate id T1"),
    (_T1 + "T1\tAlcohol 3;5 9\tdrinks\n", "line 2: duplicate id T1"),
    (_T1 + "T1\tAlcohol 3 x\tdrinks\n", "line 2: duplicate id T1"),
    (_T1 + "E1\tLivingArrangement:T1\nA1\tStatus E1 current\nA1\tType E1 past\n",
     "line 4: duplicate id A1"),
    (_T1 + "E1\tLivingArrangement:T1\nE1\tLivingArrangement:T1\n", "line 3: duplicate id E1"),
])
def test_repeated_id_is_an_error(ann, message):
    with pytest.raises(AnnFormatError, match=f"^{re.escape(message)}$"):
        parse_ann(ann, DOC)


def test_event_label_differing_from_its_trigger_warns():
    events, warnings = parse_ann(_T1 + "E1\tHousing:T1\n", DOC)
    assert events == [Event("Housing", TextSpan(11, 16, "lives"), {})]
    assert warnings == ["line 2: E1 label 'Housing' differs from T1 label 'LivingArrangement'"]


def test_duplicate_attribute_keeps_the_first():
    ann = _T1 + "E1\tLivingArrangement:T1\nA1\tStatus E1 current\nA2\tStatus E1 past\n"
    events, warnings = parse_ann(ann, DOC)
    assert events == [Event("LivingArrangement", TextSpan(11, 16, "lives"), {"Status": "current"})]
    assert warnings == ["line 4: duplicate attribute Status on E1, keeping first"]


def test_write_ann_counts():
    ev = Event("LivingArrangement", TextSpan(11, 16, "lives"), {"Status": "current"})
    ann = write_ann([ev], DOC)
    assert ann.splitlines() == [
        "T1\tLivingArrangement 11 16\tlives",
        "E1\tLivingArrangement:T1",
        "A1\tStatus E1 current",
    ]
    assert write_ann([], DOC) == ""


def test_write_ann_out_of_bounds():
    with pytest.raises(AnnFormatError, match="out of bounds"):
        write_ann([Event("Alcohol", TextSpan(0, 10_000, "x"), {})], DOC)


def test_write_ann_text_mismatch():
    with pytest.raises(AnnFormatError, match="^event 1: trigger text does not match document$"):
        write_ann([Event("LivingArrangement", TextSpan(11, 16, "liveS"), {})], DOC)


def test_round_trip_random_documents(schema):
    corpus = generate_synthetic(schema, 200, 17)
    for d in corpus.docs:
        text = d.document.text
        events, warnings = parse_ann(write_ann(d.events, text), text, schema)
        assert warnings == []
        assert events == d.events


def test_directory_round_trip(tmp_path, schema):
    from sdohkit.corpus import split_corpus

    corpus = split_corpus(generate_synthetic(schema, 30, 23), (20, 5, 5), 1)
    export_brat_dir(corpus, tmp_path / "brat")
    back, warnings = import_brat_dir(tmp_path / "brat", schema)
    assert warnings == []
    assert {d.doc_id: d.split for d in back.docs} == {d.doc_id: d.split for d in corpus.docs}
    assert {d.doc_id: d.document for d in back.docs} == {d.doc_id: d.document for d in corpus.docs}
    assert {d.doc_id: d.events for d in back.docs} == {d.doc_id: d.events for d in corpus.docs}


@pytest.mark.parametrize("doc_id", ["../escaped", "sub/escaped", "..", "nul\0"])
def test_directory_export_rejects_unsafe_doc_ids(tmp_path, doc_id):
    good = AnnotatedDocument(Document("good", "p", "hello"))
    bad = AnnotatedDocument(Document(doc_id, "p", "hello"))
    out = tmp_path / "out"
    with pytest.raises(AnnFormatError, match="cannot name a file"):
        export_brat_dir(Corpus([good, bad]), out)
    # Nothing is written, inside the output directory or beside it.
    assert not list(tmp_path.rglob("*"))


def test_directory_export_refuses_an_unknown_split(tmp_path):
    good = AnnotatedDocument(Document("good", "p", "hello"), split="train")
    bad = AnnotatedDocument(Document("bad", "p", "hello"), split="dev")
    with pytest.raises(AnnFormatError, match="^bad: unknown split 'dev'$"):
        export_brat_dir(Corpus([good, bad]), tmp_path / "out")
    assert not list(tmp_path.rglob("*"))


@pytest.mark.parametrize(
    "event_type, arguments, label",
    [
        ("Food Insecurity", {}, "event type 'Food Insecurity'"),
        ("Food:Insecurity", {}, "event type 'Food:Insecurity'"),
        ("Food", {"Kind of": "meal"}, "argument name 'Kind of'"),
        ("Food", {"Kind\tof": "meal"}, "argument name 'Kind\\tof'"),
        ("Food", {"Kind": "no\nmeal"}, "argument value 'no\\nmeal'"),
    ],
)
def test_directory_export_rejects_labels_a_standoff_line_cannot_carry(
    tmp_path, event_type, arguments, label
):
    good = AnnotatedDocument(Document("good", "p", "no food"))
    bad = AnnotatedDocument(
        Document("bad", "p", "no food"), [Event(event_type, TextSpan(3, 7, "food"), arguments)]
    )
    with pytest.raises(AnnFormatError, match=f"^bad: event 0: {re.escape(label)}"):
        export_brat_dir(Corpus([good, bad]), tmp_path / "out")
    assert not list(tmp_path.rglob("*"))


# A tab and every character str.splitlines breaks at.
_FIELD_BREAKS = "\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def _documents_with_triggers(draw):
    text = draw(st.text(st.sampled_from("ab é" + _FIELD_BREAKS), min_size=1, max_size=30))
    events, keys = [], set()
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(text) - 1))
        end = draw(st.integers(start + 1, len(text)))
        event_type = draw(st.sampled_from(["SubstanceUse", "Employment"]))
        if (event_type, start, end) not in keys:
            keys.add((event_type, start, end))
            args = draw(st.sampled_from([{}, {"Status": "current"}]))
            events.append(Event(event_type, TextSpan(start, end, text[start:end]), args))
    return AnnotatedDocument(Document("d", "p", text), events)


@given(_documents_with_triggers())
@example(  # offsets after a CRLF count the \r
    AnnotatedDocument(
        Document("d", "p", "line one\r\nhe drinks wine"),
        [Event("SubstanceUse", TextSpan(13, 19, "drinks"), {})],
    )
)
def test_standoff_round_trip_is_exact_for_triggers_with_tabs_and_line_breaks(adoc):
    with tempfile.TemporaryDirectory() as tmp:
        export_brat_dir(Corpus([adoc]), tmp)
        corpus, warnings = import_brat_dir(tmp)
    assert corpus.docs == [adoc]
    assert warnings == []


def test_directory_import_without_sidecar(tmp_path):
    (tmp_path / "n1.txt").write_text(DOC, encoding="utf-8")
    (tmp_path / "n1.ann").write_text(
        "T1\tLivingArrangement 11 16\tlives\nE1\tLivingArrangement:T1\n", encoding="utf-8"
    )
    corpus, _ = import_brat_dir(tmp_path)
    assert corpus.docs[0].document.patient_id == "n1"


def _brat_dir(path: Path, sidecar: str, text: str = "he drinks wine") -> Path:
    path.mkdir(exist_ok=True)
    (path / "a.txt").write_text(text, encoding="utf-8")
    (path / "metadata.jsonl").write_text(sidecar, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "sidecar, message",
    [
        ("{}", "need a unique string 'doc_id'"),
        ("{bad", "invalid JSON"),
        ("[]", "expected a JSON object"),
        ('{"doc_id":"a","patient_id":7}', "missing or empty string field 'patient_id'"),
        ('{"doc_id":"a","patient_id":""}', "missing or empty string field 'patient_id'"),
        ('{"doc_id":"a","note_date":"yesterday"}', "not an ISO-8601 date"),
        ('{"doc_id":"a","split":"bogus"}', "unknown split 'bogus'"),
        ('{"doc_id":"a","annotator_id":3}', "'annotator_id' must be a string or null"),
        ('{"doc_id":"a"}\n{"doc_id":"a"}', "need a unique string 'doc_id'"),
    ],
)
def test_directory_import_rejects_bad_sidecar_lines(tmp_path, sidecar, message):
    with pytest.raises(CorpusError, match=f"^metadata.jsonl line [12]: .*{message}"):
        import_brat_dir(_brat_dir(tmp_path / "brat", sidecar + "\n"))


def test_directory_import_sidecar_defaults(tmp_path):
    sidecar = '{"doc_id":"a","patient_id":null,"split":null}\n{"doc_id":"gone","patient_id":"p"}\n'
    corpus, _ = import_brat_dir(_brat_dir(tmp_path / "brat", sidecar))
    assert corpus.docs[0].document == Document("a", "a", "he drinks wine")
    assert [d.split for d in corpus.docs] == [None]


def test_directory_import_rejects_empty_text(tmp_path):
    with pytest.raises(CorpusError, match="^a.txt: missing or empty string field 'text'"):
        import_brat_dir(_brat_dir(tmp_path / "brat", "", text=""))


_ANN_LINES = st.one_of(
    st.text(max_size=30),
    st.builds(
        "{}{}\t{} {} {}\t{}".format,
        st.sampled_from("TEAX#R"), st.integers(0, 3), st.sampled_from(["Alcohol", "Drug", "Bad"]),
        st.integers(-2, 20), st.integers(-2, 20), st.text(max_size=8),
    ),
    st.builds(  # discontinuous spans, dropped with a warning
        "T{}\t{} {} {};{} {}\t{}".format,
        st.integers(0, 3), st.sampled_from(["Alcohol", "Drug"]), *[st.integers(0, 20)] * 4,
        st.text(max_size=8),
    ),
    st.builds(
        "{}{}\t{}:T{}".format,
        st.sampled_from("ET"), st.integers(0, 3), st.sampled_from(["Alcohol", "Drug"]),
        st.integers(0, 3),
    ),
    st.builds(
        "A{}\t{} E{} {}".format,
        st.integers(0, 3), st.sampled_from(["Status", "Type"]), st.integers(0, 3),
        st.sampled_from(["current", "past", "x y"]),
    ),
)


_SCHEMA = default_schema()


def _parse_outcome(parse, ann_text, doc_text, schema):
    try:
        return parse(ann_text, doc_text, schema)
    except AnnFormatError as exc:
        return str(exc)


@given(st.lists(_ANN_LINES, max_size=8), st.text(min_size=1, max_size=24), st.booleans())
def test_parse_ann_fuzz(lines, doc_text, with_schema):
    ann_text, schema = "\n".join(lines), _SCHEMA if with_schema else None
    got = _parse_outcome(parse_ann, ann_text, doc_text, schema)
    assert got == _parse_outcome(parse_ann_reference, ann_text, doc_text, schema)
    if isinstance(got, str):
        return
    events, warnings = got
    assert all(isinstance(w, str) for w in warnings)
    assert document_violations(AnnotatedDocument(Document("d", "p", doc_text), events)) == []


def test_parse_ann_is_linear_in_the_event_count():
    # 20,000 events on one span: every event after the first is a dropped
    # duplicate that carries an attribute. Rescanning the E lines per line
    # and per attribute took 8-11 s here.
    n = 20_000
    lines = []
    for i in range(1, n + 1):
        lines += [f"T{i}\tAlcohol 3 9\tdrinks", f"E{i}\tAlcohol:T{i}", f"A{i}\tStatus E{i} current"]
    start = time.perf_counter()
    events, warnings = parse_ann("\n".join(lines), "he drinks wine")
    elapsed = time.perf_counter() - start
    assert len(events) == 1 and len(warnings) == 2 * (n - 1)
    assert elapsed < 2.0, f"{elapsed:.2f} s"


_SIDECAR_VALUES = st.one_of(
    st.none(), st.integers(-1, 3), st.text(max_size=6),
    st.sampled_from(["a", "b", "p", "2020-01-31", "2020-13-01", "train", "test", "bogus", ""]),
)
_SIDECAR_LINE = st.fixed_dictionaries(
    {"doc_id": st.sampled_from(["a", "b", "c"])},
    optional={k: _SIDECAR_VALUES for k in ("patient_id", "note_date", "annotator_id", "split")},
)


@given(
    st.lists(_SIDECAR_LINE, max_size=3),
    st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=2),
)
def test_every_accepted_sidecar_imports_a_loadable_corpus(sidecar, texts):
    with tempfile.TemporaryDirectory() as tmp:
        for doc_id, text in zip("ab", texts):
            Path(tmp, f"{doc_id}.txt").write_text(text, encoding="utf-8")
        lines = "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in sidecar)
        Path(tmp, "metadata.jsonl").write_text(lines, encoding="utf-8")
        try:
            corpus, _ = import_brat_dir(tmp)
        except CorpusError:
            return
    back = corpus_from_jsonl(corpus_to_jsonl(corpus))
    assert back.docs == corpus.docs
