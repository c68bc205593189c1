import pytest

from sdohkit.brat import AnnFormatError, export_brat_dir, import_brat_dir, parse_ann, write_ann
from sdohkit.corpus import AnnotatedDocument, Corpus, Document, Event, TextSpan
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
    assert back.split_assignment == corpus.split_assignment
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


def test_directory_import_without_sidecar(tmp_path):
    (tmp_path / "n1.txt").write_text(DOC, encoding="utf-8")
    (tmp_path / "n1.ann").write_text(
        "T1\tLivingArrangement 11 16\tlives\nE1\tLivingArrangement:T1\n", encoding="utf-8"
    )
    corpus, _ = import_brat_dir(tmp_path)
    assert corpus.docs[0].document.patient_id == "n1"
