import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loopback_endpoint, one_note_corpus
from sdohkit import cli, qa
from sdohkit.brat import export_brat_dir, import_brat_dir
from sdohkit.cli import main
from sdohkit.corpus import AnnotatedDocument, Corpus, Document, dedup_per_patient, jsonl_text
from sdohkit.corpus import read_corpus_jsonl, write_corpus_jsonl
from sdohkit.schema import default_schema, write_schema
from sdohkit.synth import generate_fewshot_train, generate_synthetic


@pytest.fixture()
def gold_path(tmp_path, schema):
    path = tmp_path / "gold.jsonl"
    write_corpus_jsonl(generate_synthetic(schema, 15, 501), path)
    return path


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_exit_code(capsys):
    code, _, err = _run(capsys, "score")
    assert code == 1
    assert "error" in err


def test_unknown_command(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 1


def test_synthetic_and_score_identity(tmp_path, capsys, gold_path):
    out = tmp_path / "report"
    code, stdout, _ = _run(
        capsys, "score", "--gold", gold_path, "--pred", gold_path, "--out", out
    )
    assert code == 0
    assert "100.0" in stdout
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["levels"]["trigger"]["micro"]["f1"] == 1.0
    assert (tmp_path / "report.txt").exists()
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["command"] == "score"
    assert manifest["tool_version"]
    assert str(gold_path) in manifest["inputs"]


def test_score_single_level_flag(tmp_path, capsys, gold_path):
    out = tmp_path / "ev"
    code, stdout, _ = _run(
        capsys,
        "score", "--gold", gold_path, "--pred", gold_path, "--level", "event", "--out", out,
    )
    assert code == 0
    report = json.loads((tmp_path / "ev.json").read_text())
    assert list(report["levels"]) == ["event"]
    assert "trigger" not in stdout


def test_score_runs_without_loading_numpy(tmp_path, gold_path):
    """Only ``significance`` needs numpy, so no other command pays for importing it."""
    argv = ["score", "--gold", str(gold_path), "--pred", str(gold_path), "--out", str(tmp_path / "r")]
    script = f"import sys\nfrom sdohkit.cli import main\ncode = main({argv!r})\nprint(code, 'numpy' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_score_rejects_invalid_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id":"a","patient_id":"p","text":"","events":[]}\n')
    code, _, err = _run(
        capsys, "score", "--gold", bad, "--pred", bad, "--out", tmp_path / "r"
    )
    assert code == 2
    assert "line 1" in err


def test_corpus_load_error_names_the_file(tmp_path, capsys, gold_path):
    pred = tmp_path / "p.jsonl"
    pred.write_text('{"doc_id":"a"}\n')
    code, _, err = _run(capsys, "score", "--gold", gold_path, "--pred", pred, "--out", tmp_path / "r")
    assert code == 2
    assert f"error: {pred} line 1: missing or empty string field 'patient_id'" in err


def test_lone_surrogate_in_corpus_exits_2_and_writes_nothing(tmp_path, capsys):
    corpus, out = tmp_path / "s.jsonl", tmp_path / "o.jsonl"
    corpus.write_text('{"doc_id":"a","patient_id":"p","text":"x\\ud800y","events":[]}\n')
    code, _, err = _run(capsys, "sample", "--corpus", corpus, "--n", 1, "--seed", 1, "--out", out)
    assert code == 2
    assert f"error: {corpus} line 1: 'text' cannot be written as UTF-8" in err
    assert not out.exists()


def test_document_text_never_on_stdout(tmp_path, capsys, gold_path):
    corpus = read_corpus_jsonl(gold_path)
    fragments = {d.document.text.splitlines()[1] for d in corpus.docs}  # encounter lines
    code, stdout, err = _run(
        capsys, "score", "--gold", gold_path, "--pred", gold_path, "--out", tmp_path / "r"
    )
    assert code == 0
    for frag in fragments:
        assert frag not in stdout and frag not in err


def test_iaa_command(tmp_path, capsys, gold_path):
    code, stdout, _ = _run(
        capsys, "iaa", "--ann-a", gold_path, "--ann-b", gold_path, "--out", tmp_path / "iaa"
    )
    assert code == 0
    assert "triggers 100.0" in stdout
    obj = json.loads((tmp_path / "iaa.json").read_text())
    assert obj["combined_micro_f1"] == 1.0


def test_significance_identical_predictions(tmp_path, capsys, gold_path):
    out = tmp_path / "boot.json"
    code, stdout, _ = _run(
        capsys,
        "significance", "--gold", gold_path, "--pred-a", gold_path, "--pred-b", gold_path,
        "--resamples", 50, "--seed", 3, "--out", out,
    )
    assert code == 0
    assert "significant at 0.05: no" in stdout
    obj = json.loads(out.read_text())
    assert obj["p_value"] == 1.0


def test_significance_on_an_empty_gold_corpus_exits_2(tmp_path, capsys):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "boot.json"
    empty.write_text("")
    code, stdout, err = _run(
        capsys,
        "significance", "--gold", empty, "--pred-a", empty, "--pred-b", empty,
        "--resamples", 10, "--seed", 1, "--out", out,
    )
    assert (code, stdout, err) == (2, "", "error: cannot bootstrap an empty corpus\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "level, key, message",
    [
        ("trigger", "Alcoholl", "key 'Alcoholl' occurs in no gold or predicted event"),
        # outside the argument level a dotted key is one event type name
        ("trigger", "Alcohol.Status", "key 'Alcohol.Status' occurs in no gold or predicted event"),
        ("argument", "Alcohol", "key 'Alcohol' does not fit the argument level"),
        # an empty key is a key, not the micro average
        ("trigger", "", "key '' occurs in no gold or predicted event at the trigger level\n"),
        ("argument", "", "key '' does not fit the argument level, which takes "
                         "EventType.Argument\n"),
    ],
)
def test_significance_rejects_a_key_that_names_nothing(tmp_path, capsys, gold_path, level, key,
                                                       message):
    out = tmp_path / "boot.json"
    code, stdout, err = _run(
        capsys,
        "significance", "--gold", gold_path, "--pred-a", gold_path, "--pred-b", gold_path,
        "--level", level, "--key", key, "--resamples", 10, "--seed", 1, "--out", out,
    )
    assert (code, stdout) == (2, "")
    assert f"error: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("level", ["trigger", "event"])
def test_significance_key_with_a_dot_is_one_event_type_outside_the_argument_level(
    tmp_path, capsys, level
):
    def corpus(path, missed_doc=None):
        event = {"type": "Food.Insecurity", "trigger": {"start": 3, "end": 7, "text": "food"},
                 "args": {}}
        lines = [{"doc_id": f"d{i}", "patient_id": "p", "text": "no food",
                  "events": [] if i == missed_doc else [event]} for i in range(4)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return path

    gold = corpus(tmp_path / "gold.jsonl")
    worse = corpus(tmp_path / "worse.jsonl", missed_doc=0)
    out = tmp_path / "boot.json"
    code, _, err = _run(
        capsys,
        "significance", "--gold", gold, "--pred-a", gold, "--pred-b", worse, "--level", level,
        "--key", "Food.Insecurity", "--resamples", 10, "--seed", 1, "--out", out,
    )
    assert (code, err) == (0, "")
    obj = json.loads(out.read_text())
    assert obj["metric"] == {"level": level, "key": "Food.Insecurity"}
    assert obj["f1_a"] == 1.0 > obj["f1_b"]


def test_significance_argument_key_splits_at_the_last_dot(tmp_path, capsys):
    def corpus(path, missed_doc=None):
        lines = [{"doc_id": f"d{i}", "patient_id": "p", "text": "no food",
                  "events": [{"type": "Food.Insecurity", "trigger": {"start": 3, "end": 7, "text": "food"},
                              "args": {} if i == missed_doc else {"Status": "current"}}]}
                 for i in range(4)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return path

    gold = corpus(tmp_path / "gold.jsonl")
    worse = corpus(tmp_path / "worse.jsonl", missed_doc=0)
    out = tmp_path / "boot.json"
    code, _, err = _run(
        capsys,
        "significance", "--gold", gold, "--pred-a", gold, "--pred-b", worse, "--level", "argument",
        "--key", "Food.Insecurity.Status", "--resamples", 10, "--seed", 1, "--out", out,
    )
    assert (code, err) == (0, "")
    obj = json.loads(out.read_text())
    assert obj["metric"] == {"level": "argument", "key": "Food.Insecurity.Status"}
    assert obj["f1_a"] == 1.0 > obj["f1_b"]


def test_significance_valid_key_with_equal_counts(tmp_path, capsys, gold_path):
    out = tmp_path / "boot.json"
    code, _, _ = _run(
        capsys,
        "significance", "--gold", gold_path, "--pred-a", gold_path, "--pred-b", gold_path,
        "--key", "Alcohol", "--resamples", 10, "--seed", 1, "--out", out,
    )
    assert code == 0
    assert json.loads(out.read_text())["p_value"] == 1.0


@pytest.mark.parametrize("a_better", [True, False])
def test_significance_refuses_a_negative_seed(tmp_path, capsys, gold_path, a_better):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("".join(
        json.dumps({**json.loads(line), "events": []}) + "\n"
        for line in gold_path.read_text().splitlines()
    ))
    pred_a, pred_b = (gold_path, empty) if a_better else (empty, gold_path)
    out = tmp_path / "boot.json"
    code, _, err = _run(
        capsys,
        "significance", "--gold", gold_path, "--pred-a", pred_a, "--pred-b", pred_b,
        "--resamples", 10, "--seed", -1, "--out", out,
    )
    assert code == 2
    assert "seed must be a non-negative integer" in err
    assert not out.exists()


def test_sections_command(tmp_path, capsys):
    notes = tmp_path / "notes.jsonl"
    notes.write_text(
        json.dumps({"doc_id": "n1", "patient_id": "p1",
                    "text": "HPI:\nfever\nSocial History:\nlives with mom"}) + "\n"
        + json.dumps({"doc_id": "n2", "patient_id": "p2", "text": "no headings here"}) + "\n"
    )
    out = tmp_path / "sections.jsonl"
    code, stdout, _ = _run(capsys, "sections", "--notes", notes, "--out", out)
    assert code == 0
    assert "1 with a social-history section" in stdout
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[0]["social_history_heading"] == "Social History:"
    assert lines[1]["sections"] == []


def test_sections_emit_corpus(tmp_path, capsys):
    notes = tmp_path / "notes.jsonl"
    notes.write_text(
        json.dumps({"doc_id": "n1", "patient_id": "p1",
                    "text": "HPI:\nfever\nSocial History:\nlives with mom"}) + "\n"
    )
    out = tmp_path / "corpus.jsonl"
    code, _, _ = _run(capsys, "sections", "--notes", notes, "--emit", "corpus", "--out", out)
    assert code == 0
    corpus = read_corpus_jsonl(out)
    assert corpus.docs[0].document.text == "lives with mom"


def test_sample_command(tmp_path, capsys, gold_path):
    out = tmp_path / "sampled.jsonl"
    code, stdout, _ = _run(
        capsys,
        "sample", "--corpus", gold_path, "--n", 10, "--splits", "6,2,2",
        "--seed", 4, "--out", out,
    )
    assert code == 0
    corpus = read_corpus_jsonl(out)
    assert len(corpus.docs) == 10
    assert [d.split for d in corpus.docs].count("train") == 6


def test_sample_dedup_per_patient(tmp_path, capsys):
    corpus_path, out = tmp_path / "notes.jsonl", tmp_path / "dedup.jsonl"
    docs = [AnnotatedDocument(Document(f"d{i}", f"p{i % 3}", "lives alone")) for i in range(7)]
    write_corpus_jsonl(Corpus(docs), corpus_path)
    code, stdout, _ = _run(
        capsys, "sample", "--corpus", corpus_path, "--dedup-per-patient", "--seed", 5, "--out", out
    )
    assert code == 0
    assert stdout == "wrote 3 documents\n"
    expected = dedup_per_patient(Corpus(docs), 5)
    assert read_corpus_jsonl(out).doc_ids() == expected.doc_ids()
    assert sorted(d.document.patient_id for d in expected.docs) == ["p0", "p1", "p2"]


@pytest.mark.parametrize("extra, message", [
    (("--splits", "6,2"), "error: --splits must be three comma-separated integers\n"),
    (("--splits", "6,x,2"), "error: --splits must be three comma-separated integers\n"),
    (("--splits", "8,-3,0"), "error: split sizes must be >= 0, got 8,-3,0\n"),
    (("--n", -1), "error: sample size must be >= 0, got -1\n"),
])
def test_sample_refuses_bad_sizes(tmp_path, capsys, gold_path, extra, message):
    out = tmp_path / "sampled.jsonl"
    code, _, err = _run(capsys, "sample", "--corpus", gold_path, *extra, "--seed", 4, "--out", out)
    assert (code, err) == (2, message)
    assert not out.exists()


def test_synthetic_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert _run(capsys, "synthetic", "--n", 12, "--seed", 9, "--out", a)[0] == 0
    assert _run(capsys, "synthetic", "--n", 12, "--seed", 9, "--out", b)[0] == 0
    assert a.read_text() == b.read_text()


def test_synthetic_fewshot_coverage_flag(tmp_path, capsys):
    out = tmp_path / "train.jsonl"
    code, _, _ = _run(
        capsys, "synthetic", "--n", 40, "--seed", 2, "--fewshot-coverage", "--out", out
    )
    assert code == 0
    assert len(read_corpus_jsonl(out).docs) == 40


def test_synthetic_fewshot_coverage_refuses_n_below_the_coverage_set(tmp_path, capsys, schema):
    out = tmp_path / "train.jsonl"
    n_base = len(generate_fewshot_train(schema, 2).docs)
    code, _, err = _run(
        capsys, "synthetic", "--n", n_base - 1, "--seed", 2, "--fewshot-coverage", "--out", out
    )
    assert code == 2
    assert err == (
        f"error: --n {n_base - 1} is smaller than the {n_base} engineered coverage documents\n"
    )
    assert not out.exists()


def test_export_finetune_command(tmp_path, capsys, gold_path):
    out = tmp_path / "pairs.jsonl"
    code, stdout, _ = _run(
        capsys, "export-finetune", "--corpus", gold_path, "--strategy", "event", "--out", out
    )
    assert code == 0
    pairs = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(pairs) == 15
    assert set(pairs[0]) == {"input", "target"}


@pytest.mark.parametrize("strategy", ["event", "2sqa"])
@pytest.mark.parametrize(
    "event_type, problem",
    [
        ("Frobnicate", "event 0: unknown event type 'Frobnicate'"),
        ("Tobacco", "event 0: missing required argument Status"),
    ],
)
def test_export_finetune_refuses_a_document_that_breaks_the_schema(tmp_path, capsys, strategy,
                                                                   event_type, problem):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "pairs.jsonl"
    event = {"type": event_type, "trigger": {"start": 0, "end": 6, "text": "smokes"}, "args": {}}
    corpus.write_text(json.dumps({"doc_id": "d1", "patient_id": "p", "text": "smokes daily",
                                  "events": [event]}) + "\n")
    code, stdout, err = _run(
        capsys, "export-finetune", "--corpus", corpus, "--strategy", strategy, "--out", out
    )
    assert (code, stdout, err) == (2, "", f"error: document 'd1': {problem}\n")
    assert list(tmp_path.iterdir()) == [corpus]


@pytest.mark.parametrize(
    "command",
    [
        "export-finetune --strategy event",
        "extract --strategy event --seed 1 --client oracle --train {corpus}",
    ],
)
def test_an_unserializable_trigger_is_named_without_its_text(tmp_path, capsys, command):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "o.jsonl"
    text, trigger = "Social: lives with mom\nand dad.", "lives with mom\nand"
    start = text.index(trigger)
    event = {"type": "LivingArrangement", "args": {"Type": "family", "Status": "current"},
             "trigger": {"start": start, "end": start + len(trigger), "text": trigger}}
    corpus.write_text(json.dumps({"doc_id": "d1", "patient_id": "p", "text": text,
                                  "events": [event]}) + "\n")
    argv = command.format(corpus=corpus).split()
    code, stdout, err = _run(capsys, *argv, "--corpus", corpus, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == ("error: document 'd1': event 0 'LivingArrangement' [8,26): "
                   "trigger text contains a reserved token\n")
    assert sorted(tmp_path.iterdir()) == [corpus]


def test_extract_oracle_and_score(tmp_path, capsys, gold_path):
    pred = tmp_path / "pred.jsonl"
    code, stdout, _ = _run(
        capsys,
        "extract", "--corpus", gold_path, "--strategy", "event", "--seed", 1,
        "--client", "oracle", "--train", gold_path, "--out", pred,
    )
    assert code == 0
    metrics = json.loads((tmp_path / "pred.jsonl.metrics.json").read_text())
    assert metrics["queries"]["total"] == 15
    code, stdout, _ = _run(
        capsys, "score", "--gold", gold_path, "--pred", pred, "--out", tmp_path / "r"
    )
    assert code == 0
    assert "100.0" in stdout


def test_extract_rerun_byte_identical(tmp_path, capsys, gold_path):
    outs = []
    for name in ("p1.jsonl", "p2.jsonl"):
        pred = tmp_path / name
        code, _, _ = _run(
            capsys,
            "extract", "--corpus", gold_path, "--strategy", "2sqa-base", "--seed", 6,
            "--client", "oracle", "--out", pred,
        )
        assert code == 0
        outs.append(pred.read_text())
    assert outs[0] == outs[1]


def test_extract_script_client_requires_script(tmp_path, capsys, gold_path):
    code, _, err = _run(
        capsys,
        "extract", "--corpus", gold_path, "--strategy", "2sqa-base", "--seed", 1,
        "--client", "script", "--out", tmp_path / "p.jsonl",
    )
    assert code == 3
    assert "mock-script" in err


def test_extract_mock_script_client(tmp_path, capsys, gold_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"script": {}, "default": "NONE"}))
    pred = tmp_path / "pred.jsonl"
    code, stdout, _ = _run(
        capsys,
        "extract", "--corpus", gold_path, "--strategy", "event", "--seed", 1,
        "--client", "script", "--mock-script", script, "--train", gold_path, "--out", pred,
    )
    assert code == 0
    assert "extracted 0 events" in stdout
    assert len(read_corpus_jsonl(pred).docs) == 15


def test_extract_no_repair_leaves_a_case_changed_trigger_unfound(tmp_path, capsys, gold_path):
    trigger = next(d.events[0].trigger.text for d in read_corpus_jsonl(gold_path).docs if d.events)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"script": {}, "default": trigger.swapcase()}))
    runs = {}
    for flags in ((), ("--no-repair",)):
        out = tmp_path / f"pred{len(flags)}.jsonl"
        code, _, _ = _run(
            capsys, "extract", "--corpus", gold_path, "--strategy", "2sqa-base", "--seed", 1,
            "--client", "script", "--mock-script", script, "--out", out, *flags,
        )
        assert code == 0
        runs[flags] = json.loads(Path(f"{out}.metrics.json").read_text())
    repaired, unrepaired = runs[()], runs[("--no-repair",)]
    step1 = repaired["queries"]["step1"]
    assert repaired["repaired_spans"] > 0
    not_found = repaired["invalid_rates"]["trigger"]["by_reason"].get("span-not-found", 0)
    assert not_found + repaired["repaired_spans"] == step1
    assert unrepaired["repaired_spans"] == 0
    assert unrepaired["invalid_rates"]["trigger"]["by_reason"]["span-not-found"] == step1


def test_extract_http_client_requires_endpoint(tmp_path, capsys, gold_path):
    code, _, _ = _run(
        capsys,
        "extract", "--corpus", gold_path, "--strategy", "2sqa-base", "--seed", 1,
        "--out", tmp_path / "p.jsonl",
    )
    assert code == 3


def test_extract_refuses_a_plain_http_remote_url_before_reading_input(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "extract", "--corpus", tmp_path / "missing.jsonl", "--strategy", "2sqa-base",
        "--seed", 1, "--client", "http", "--base-url", "http://example.com/v1", "--model", "m",
        "--out", tmp_path / "p.jsonl",
    )
    assert code == 3
    assert "https" in err


def test_extract_refuses_a_missing_api_key_before_reading_input(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SDOHKIT_API_KEY", raising=False)
    code, _, err = _run(
        capsys,
        "extract", "--corpus", tmp_path / "missing.jsonl", "--strategy", "2sqa-base",
        "--seed", 1, "--client", "http", "--base-url", "http://localhost:9/v1", "--model", "m",
        "--out", tmp_path / "p.jsonl",
    )
    assert code == 3
    assert "SDOHKIT_API_KEY" in err


def test_extract_client_defaults_are_the_client_config_defaults(tmp_path, capsys, monkeypatch):
    built = []

    def refuse(config):
        built.append(config)
        raise cli.ConfigurationError("stop before reading input")

    monkeypatch.setattr(cli, "HttpChatClient", refuse)
    code, _, _ = _run(
        capsys,
        "extract", "--corpus", tmp_path / "missing.jsonl", "--strategy", "2sqa-base",
        "--seed", 1, "--base-url", "http://localhost:9/v1", "--model", "m",
        "--out", tmp_path / "p.jsonl",
    )
    assert code == 3
    want = cli.ClientConfig("http://localhost:9/v1", "m")
    assert built == [want]
    for name, value in vars(want).items():  # 60 == 60.0, so the types are checked too
        assert type(getattr(built[0], name)) is type(value)


@pytest.mark.parametrize(
    "option, value, field",
    [("--temperature", "nan", "temperature"), ("--timeout", "0", "request_timeout"),
     ("--timeout", "-1", "request_timeout"), ("--timeout", "nan", "request_timeout"),
     ("--max-tokens", "0", "max_tokens")],
)
def test_extract_refuses_an_unusable_client_setting_before_reading_input(
    tmp_path, capsys, monkeypatch, option, value, field
):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    code, _, err = _run(
        capsys,
        "extract", "--corpus", tmp_path / "missing.jsonl", "--strategy", "2sqa-base",
        "--seed", 1, "--client", "http", "--base-url", "http://localhost:9/v1", "--model", "m",
        "--out", tmp_path / "p.jsonl", option, value,
    )
    assert code == 3
    assert field in err


def test_extract_http_malformed_replies_fail_documents_not_the_run(
    tmp_path, capsys, gold_path, monkeypatch
):
    # Keyed on the note, not on call order: documents are extracted concurrently.
    gold_docs = read_corpus_jsonl(gold_path).docs
    none_reply = b'{"choices":[{"message":{"content":"NONE"}}]'
    bodies = {gold_docs[0].document.text: b"not json at all",
              gold_docs[1].document.text: none_reply + b',"usage":"bad"}'}

    def reply(headers, body):
        note = json.loads(body)["messages"][-1]["content"].split("Note:\n", 1)[1]
        return 200, {}, bodies.get(note, none_reply + b"}")

    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    pred = tmp_path / "pred.jsonl"
    with loopback_endpoint(reply) as (url, _):
        code, stdout, _ = _run(
            capsys,
            "extract", "--corpus", gold_path, "--strategy", "2sqa-base", "--seed", 1,
            "--client", "http", "--base-url", url, "--model", "m", "--out", pred,
        )
    assert code == 0
    assert "2 failures" in stdout
    metrics = json.loads((tmp_path / "pred.jsonl.metrics.json").read_text())
    gold_ids = read_corpus_jsonl(gold_path).doc_ids()
    assert metrics["failures"] == gold_ids[:2]
    assert read_corpus_jsonl(pred).doc_ids() == gold_ids


def test_guide_stub_command(tmp_path, capsys):
    out = tmp_path / "guide.txt"
    code, _, _ = _run(capsys, "guide-stub", "--out", out)
    assert code == 0
    assert "[LivingArrangement.Residence]" in out.read_text()


@pytest.mark.parametrize("arguments", ["5", "null", "true"])
def test_guide_stub_rejects_arguments_that_are_not_a_list(tmp_path, capsys, arguments):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"version": "v", "event_types": [{{"name": "Food", "arguments": {arguments}}}]}}')
    out = tmp_path / "guide.txt"
    code, stdout, err = _run(capsys, "guide-stub", "--schema", bad, "--out", out)
    assert (code, stdout) == (2, "")
    assert "error: event type 'Food': 'arguments' must be a list" in err
    assert not out.exists()


def test_brat_round_trip_commands(tmp_path, capsys, gold_path):
    brat_dir = tmp_path / "brat"
    back = tmp_path / "back.jsonl"
    assert _run(capsys, "brat-export", "--corpus", gold_path, "--out-dir", brat_dir)[0] == 0
    assert (brat_dir / "metadata.jsonl.manifest.json").exists()
    assert _run(capsys, "brat-import", "--in-dir", brat_dir, "--out", back)[0] == 0
    assert back.read_text() == gold_path.read_text()


@pytest.mark.parametrize(
    "name, data, line, command",
    [
        ("c.jsonl", b'\n\n\n{"doc_id": "\xff"}\n', 4, "sample --seed 1 --corpus {path}"),
        (
            "g.txt", b"[SubstanceUse]\nok\n\xff\n", 3,
            "extract --corpus {gold} --strategy 2sqa-guide --seed 1 --client oracle --guide-file {path}",
        ),
        ("s.json", b'{"version": "1",\n "event_types": [\xff]}', 2, "synthetic --n 1 --seed 1 --schema {path}"),
        ("brat/a.txt", b"abc\r\ndef\xff", 2, "brat-import --in-dir {dir}"),
    ],
    ids=["corpus", "guide", "schema", "standoff-txt"],
)
def test_undecodable_input_exits_2_naming_file_and_line(
    tmp_path, capsys, gold_path, name, data, line, command
):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    argv = command.format(path=path, gold=gold_path, dir=path.parent).split()
    code, _, err = _run(capsys, *argv, "--out", tmp_path / "o.jsonl")
    assert code == 2
    assert f"error: {path} line {line}: not UTF-8" in err


@pytest.mark.parametrize(
    "command",
    [
        "synthetic --n 1 --seed 1 --schema {deep}",
        "extract --corpus {gold} --strategy event --seed 1 --client script --mock-script {deep}",
    ],
    ids=["schema", "mock-script"],
)
def test_too_deeply_nested_json_file_exits_2(tmp_path, capsys, gold_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = command.format(deep=deep, gold=gold_path).split()
    code, _, err = _run(capsys, *argv, "--out", tmp_path / "o.jsonl")
    assert code == 2
    assert "JSON" in err and "recursion" in err


def test_directory_as_input_or_output_path_exits_2(tmp_path, capsys, gold_path):
    for corpus, out in ((tmp_path, tmp_path / "o.jsonl"), (gold_path, tmp_path)):
        code, _, err = _run(capsys, "sample", "--corpus", corpus, "--seed", 1, "--out", out)
        assert code == 2
        assert "Is a directory" in err


def test_brat_export_cannot_escape_out_dir(tmp_path, capsys):
    corpus = tmp_path / "evil.jsonl"
    corpus.write_text(
        json.dumps({"doc_id": "../escaped", "patient_id": "p", "text": "hi", "events": []}) + "\n"
    )
    out_dir = tmp_path / "a" / "out"
    code, _, err = _run(capsys, "brat-export", "--corpus", corpus, "--out-dir", out_dir)
    assert code == 2
    assert "cannot name a file" in err
    assert not list(tmp_path.rglob("escaped*"))


def test_extract_guide3shot_via_cli(tmp_path, capsys, gold_path):
    train = tmp_path / "train.jsonl"
    guide = tmp_path / "guide.txt"
    pred = tmp_path / "pred.jsonl"
    assert _run(
        capsys, "synthetic", "--n", 32, "--seed", 77, "--fewshot-coverage", "--out", train
    )[0] == 0
    assert _run(capsys, "guide-stub", "--out", guide)[0] == 0
    code, stdout, _ = _run(
        capsys,
        "extract", "--corpus", gold_path, "--strategy", "2sqa-guide3shot", "--seed", 1,
        "--client", "oracle", "--train", train, "--guide-file", guide, "--out", pred,
    )
    assert code == 0
    code, stdout, _ = _run(
        capsys, "score", "--gold", gold_path, "--pred", pred, "--out", tmp_path / "r2"
    )
    assert "100.0" in stdout


@pytest.mark.parametrize(
    "sidecar",
    [
        "{}",
        "{bad",
        "[]",
        '{"doc_id":"a","patient_id":7}',
        '{"doc_id":"a","note_date":"yesterday"}',
        '{"doc_id":"a","split":"bogus"}',
    ],
)
def test_brat_import_rejects_bad_sidecar(tmp_path, capsys, sidecar):
    brat_dir = tmp_path / "brat"
    brat_dir.mkdir()
    (brat_dir / "a.txt").write_text("he drinks wine")
    (brat_dir / "metadata.jsonl").write_text(sidecar + "\n")
    code, _, err = _run(capsys, "brat-import", "--in-dir", brat_dir, "--out", tmp_path / "o.jsonl")
    assert code == 2
    assert "error: metadata.jsonl line 1: " in err


@pytest.mark.parametrize(
    "note, message",
    [
        ([1], "line 1: expected a JSON object"),
        (
            {"doc_id": "a", "patient_id": 7, "text": "x"},
            "line 1: missing or empty string field 'patient_id'",
        ),
        ({"doc_id": "a", "note_date": "soon", "text": "x"}, "line 1: 'note_date' 'soon' is not"),
        ({"doc_id": "a/b", "text": "x"}, "line 1: doc_id 'a/b' cannot name a file"),
    ],
)
def test_sections_rejects_bad_notes_lines(tmp_path, capsys, note, message):
    notes = tmp_path / "notes.jsonl"
    notes.write_text(json.dumps(note) + "\n")
    for emit in ("sections", "corpus"):
        code, _, err = _run(
            capsys, "sections", "--notes", notes, "--emit", emit, "--out", tmp_path / "o.jsonl"
        )
        assert code == 2
        assert f"error: {notes} {message}" in err


def test_sections_rejects_repeated_doc_id(tmp_path, capsys):
    notes = tmp_path / "notes.jsonl"
    note = json.dumps({"doc_id": "n1", "text": "Social History:\nlives alone"})
    notes.write_text(f"{note}\n{note}\n")
    code, _, err = _run(
        capsys, "sections", "--notes", notes, "--emit", "corpus", "--out", tmp_path / "o"
    )
    assert code == 2
    assert f"error: {notes} line 2: duplicate doc_id 'n1'" in err


def test_sections_null_patient_id_defaults_to_doc_id(tmp_path, capsys):
    notes = tmp_path / "notes.jsonl"
    note = {"doc_id": "n1", "patient_id": None, "text": "Social History:\nlives alone"}
    notes.write_text(json.dumps(note))
    out = tmp_path / "o.jsonl"
    assert _run(capsys, "sections", "--notes", notes, "--emit", "corpus", "--out", out)[0] == 0
    assert read_corpus_jsonl(out).docs[0].document.patient_id == "n1"


@pytest.mark.parametrize("flag", ["--heading-rules", "--social-rules"])
def test_sections_rejects_bad_rule_regex(tmp_path, capsys, flag):
    notes = tmp_path / "notes.jsonl"
    notes.write_text(json.dumps({"doc_id": "n1", "text": "Social History:\nlives alone"}))
    rules = tmp_path / "rules.txt"
    rules.write_text("Social History:\n(unclosed\n")
    code, _, err = _run(capsys, "sections", "--notes", notes, flag, rules, "--out", tmp_path / "o")
    assert code == 2
    assert "invalid rule pattern '(unclosed'" in err


def test_extract_rejects_a_guide_file_that_repeats_a_header(tmp_path, capsys, gold_path):
    guide = tmp_path / "guide.txt"
    text = qa.guide_stub(default_schema()) + "\n[Alcohol]\nagain\n"
    guide.write_text(text)
    out = tmp_path / "p.jsonl"
    code, _, err = _run(
        capsys, "extract", "--corpus", gold_path, "--strategy", "2sqa-guide", "--seed", 1,
        "--client", "oracle", "--guide-file", guide, "--out", out,
    )
    assert code == 2
    assert f"guide section [Alcohol] repeats at line {len(text.splitlines()) - 1}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--heading-rules", "--social-rules"])
def test_sections_rejects_a_blank_rule_file(tmp_path, capsys, flag):
    notes = tmp_path / "notes.jsonl"
    notes.write_text(json.dumps({"doc_id": "n1", "text": "Social History:\nlives alone"}))
    rules = tmp_path / "rules.txt"
    rules.write_text("\n  \n")
    out = tmp_path / "o.jsonl"
    code, _, err = _run(capsys, "sections", "--notes", notes, flag, rules, "--emit", "corpus",
                        "--out", out)
    assert code == 2
    kind = "heading" if flag == "--heading-rules" else "social-history"
    assert f"{kind} rule list must be non-empty" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "script", [[1, 2], {"default": 5}, {"script": {"fp": 3}}, {"script": {}, "default": 5}]
)
def test_extract_rejects_malformed_mock_script(tmp_path, capsys, gold_path, script):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code, _, err = _run(
        capsys,
        "extract", "--corpus", gold_path, "--strategy", "event", "--seed", 1, "--client", "script",
        "--mock-script", path, "--train", gold_path, "--out", tmp_path / "p.jsonl",
    )
    assert code == 3
    assert "error: mock script" in err


_NOTE_VALUES = st.one_of(
    st.none(), st.integers(-1, 3), st.text(max_size=8),
    st.sampled_from(["n1", "p", "2020-01-31", "2020-02-30", "", "a/b"]),
)
_NOTE_TEXT = st.builds(
    "{}\n{}".format,
    st.sampled_from(["Social History:", "SOCIAL HX", "HPI:"]),
    st.text(min_size=1, max_size=20),
)
_NOTE = st.fixed_dictionaries(
    {
        "doc_id": st.one_of(st.sampled_from(["n1", "n2"]), _NOTE_VALUES),
        "text": st.one_of(_NOTE_TEXT, _NOTE_TEXT, _NOTE_VALUES),
        "patient_id": _NOTE_VALUES,
    },
    optional={k: _NOTE_VALUES for k in ("note_date", "annotator_id")},
)


@given(st.lists(_NOTE, max_size=3))
def test_every_accepted_notes_file_emits_a_loadable_corpus(notes):
    with tempfile.TemporaryDirectory() as tmp:
        notes_path, out = Path(tmp, "notes.jsonl"), Path(tmp, "out.jsonl")
        notes_path.write_text(
            "".join(json.dumps(n, ensure_ascii=False) + "\n" for n in notes), encoding="utf-8"
        )
        code = main(["sections", "--notes", str(notes_path), "--emit", "corpus", "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            corpus = read_corpus_jsonl(out)
            assert all(d.document.patient_id for d in corpus.docs)


def _crlf(path: Path) -> Path:
    """A copy of the file beside it with every LF turned into CRLF."""
    copy = path.with_name("crlf-" + path.name)
    copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return copy


def test_crlf_inputs_load_like_lf(tmp_path, capsys, gold_path, monkeypatch):
    assert read_corpus_jsonl(_crlf(gold_path)) == read_corpus_jsonl(gold_path)

    brat_dir = tmp_path / "brat"
    assert _run(capsys, "brat-export", "--corpus", gold_path, "--out-dir", brat_dir)[0] == 0
    lf_import = import_brat_dir(brat_dir)
    sidecar = brat_dir / "metadata.jsonl"
    _crlf(sidecar).replace(sidecar)
    assert import_brat_dir(brat_dir) == lf_import

    notes, headings, social = (tmp_path / n for n in ("notes.jsonl", "headings.txt", "social.txt"))
    notes.write_text(
        json.dumps({"doc_id": "n1", "text": "HPI:\nfever\nSocial Hx\nlives alone"}) + "\n"
        + json.dumps({"doc_id": "n2", "patient_id": "p", "text": "no headings"}) + "\n"
    )
    headings.write_text("HPI:\nSocial Hx\n")
    social.write_text("(?i)social hx\n")
    outputs = []
    for n, h, s in ((notes, headings, social), map(_crlf, (notes, headings, social))):
        out = tmp_path / f"sections-{len(outputs)}.jsonl"
        argv = ("sections", "--notes", n, "--heading-rules", h, "--social-rules", s, "--out", out)
        assert _run(capsys, *argv)[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b'"social_history_heading":"Social Hx"' in outputs[0]

    schema = tmp_path / "schema.json"
    schema.write_text(write_schema(default_schema()))
    outputs = []
    for path in (schema, _crlf(schema)):
        out = tmp_path / f"synthetic-{len(outputs)}.jsonl"
        argv = ("synthetic", "--schema", path, "--n", 5, "--seed", 2, "--out", out)
        assert _run(capsys, *argv)[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    guide = tmp_path / "guide.txt"
    assert _run(capsys, "guide-stub", "--out", guide)[0] == 0
    guides = []

    def parse_and_keep(text):
        guides.append(qa.parse_guide_file(text))
        return guides[-1]

    monkeypatch.setattr(cli, "parse_guide_file", parse_and_keep)
    for path in (guide, _crlf(guide)):
        assert _run(
            capsys, "extract", "--corpus", gold_path, "--strategy", "2sqa-guide", "--seed", 1,
            "--client", "oracle", "--guide-file", path, "--out", tmp_path / "p.jsonl",
        )[0] == 0
    assert len(guides) == 2 and guides[0] == guides[1]
    assert guides[0]["LivingArrangement.Residence"]


# --- any bytes in any input file --------------------------------------------------

def _write_inputs(root: Path) -> None:
    """One valid file for each kind of input a subcommand reads."""
    schema = default_schema()
    gold = generate_synthetic(schema, 3, 7)
    pred = Corpus([AnnotatedDocument(d.document, d.events[:-1]) for d in gold.docs])
    train = generate_fewshot_train(schema, 77).docs + generate_synthetic(schema, 2, 77).docs
    write_corpus_jsonl(gold, root / "gold.jsonl")
    write_corpus_jsonl(pred, root / "pred.jsonl")
    write_corpus_jsonl(Corpus(train), root / "train.jsonl")
    (root / "schema.json").write_text(write_schema(schema), encoding="utf-8")
    notes = [{"doc_id": d.doc_id, "text": f"HPI: x\nSocial History: {d.document.text}"}
             for d in gold.docs]
    (root / "notes.jsonl").write_text(jsonl_text(notes), encoding="utf-8")
    (root / "rules.txt").write_text("^[A-Za-z ]+:\nsocial\n", encoding="utf-8")
    (root / "guide.txt").write_text(qa.guide_stub(schema), encoding="utf-8")
    (root / "script.json").write_text('{"script": {}, "default": "NONE"}', encoding="utf-8")
    export_brat_dir(gold, root / "brat")


def _valid_inputs() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        return {p.relative_to(tmp).as_posix(): p.read_bytes()
                for p in sorted(Path(tmp).rglob("*")) if p.is_file()}


_INPUTS = _valid_inputs()
# argv with input files relative to the run directory; outputs go under out/
_COMMANDS = [
    "score --gold gold.jsonl --pred pred.jsonl --schema schema.json --out out/report",
    "iaa --ann-a gold.jsonl --ann-b pred.jsonl --schema schema.json --out out/iaa",
    "significance --gold gold.jsonl --pred-a gold.jsonl --pred-b pred.jsonl --seed 1"
    " --resamples 20 --out out/sig.json",
    "sections --notes notes.jsonl --heading-rules rules.txt --social-rules rules.txt"
    " --emit corpus --out out/sections.jsonl",
    "sample --corpus gold.jsonl --n 2 --splits 1,0,1 --seed 1 --out out/sample.jsonl",
    "synthetic --schema schema.json --n 2 --seed 1 --out out/synth.jsonl",
    "export-finetune --corpus gold.jsonl --schema schema.json --strategy 2sqa --out out/ft.jsonl",
    "extract --corpus gold.jsonl --schema schema.json --strategy 2sqa-guide3shot --seed 1"
    " --train train.jsonl --guide-file guide.txt --client oracle --out out/pred.jsonl",
    "extract --corpus gold.jsonl --schema schema.json --strategy event --seed 1"
    " --train train.jsonl --client script --mock-script script.json --out out/pred.jsonl",
    "guide-stub --schema schema.json --out out/guide.txt",
    "brat-export --corpus gold.jsonl --out-dir out/brat",
    "brat-import --in-dir brat --schema schema.json --out out/imported.jsonl",
]
# (argv, the input file to replace): every file each command reads
_CASES = [(argv, name) for argv in _COMMANDS for name in _INPUTS
          if name in argv.split() or "--in-dir brat" in argv and name.startswith("brat/")]
_TOKEN = st.sampled_from([
    b"", b'"', b"{", b"}", b"[", b"]", b",", b":", b"\n", b"\r", b"\t", b" ", b".", b"null",
    b"-1", b"1e999", b"\xff", b"\\ud800", b"(", b"*", b'"x"',
])


def _is_input(token: str) -> bool:
    return token in _INPUTS or token == "brat"


def _copy_inputs(root: Path, argv: str, name: str | None = None, content: bytes = b"") -> list[str]:
    """Write the valid inputs and an empty out/ under ``root``, with input
    ``name`` (if any) holding ``content``; returns ``argv`` as a list with
    its paths under ``root``."""
    for other, valid in _INPUTS.items():
        Path(root, other).parent.mkdir(parents=True, exist_ok=True)
        Path(root, other).write_bytes(content if other == name else valid)
    Path(root, "out").mkdir()
    return [str(Path(root, a)) if _is_input(a) or a.startswith("out/") else a for a in argv.split()]


def _run_in_copy(argv: str, name: str | None = None, content: bytes = b"") -> tuple[int, str]:
    """Run one command in a fresh copy of the valid inputs, with input
    ``name`` (if any) holding ``content``; returns the exit code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = _copy_inputs(Path(tmp), argv, name, content)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(paths)
    return code, err.getvalue()


def test_every_command_accepts_its_valid_inputs():
    assert {argv for argv, _ in _CASES} == set(_COMMANDS)
    for argv in _COMMANDS:
        assert _run_in_copy(argv) == (0, ""), argv


# The encounter line of every note in the valid inputs: a line of text unique to its note.
_ENCOUNTER_LINES = {json.loads(line)["text"].splitlines()[1]
                    for name in ("gold.jsonl", "pred.jsonl", "train.jsonl")
                    for line in _INPUTS[name].decode().splitlines()}


@pytest.mark.parametrize("argv", _COMMANDS)
def test_no_command_prints_a_line_of_a_note(tmp_path, argv):
    assert "--unsafe-show-text" not in argv
    assert all(line.startswith("Encounter ") for line in _ENCOUNTER_LINES)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(_copy_inputs(tmp_path, argv)) == 0
    printed = out.getvalue() + err.getvalue()
    assert [line for line in _ENCOUNTER_LINES if line in printed] == []


def test_sections_prints_headings_only_with_unsafe_show_text(tmp_path, capsys):
    notes = tmp_path / "notes.jsonl"
    notes.write_text(jsonl_text([
        {"doc_id": "n1", "text": "HPI:\nfever\nSocial History:\nlives with mom"},
        {"doc_id": "n2", "text": "no headings here"},
    ]))
    argv = ["sections", "--notes", notes, "--emit", "sections", "--out", tmp_path / "s.jsonl"]
    assert _run(capsys, *argv) == (0, "processed 2 notes, 1 with a social-history section\n", "")
    code, stdout, err = _run(capsys, *argv, "--unsafe-show-text")
    assert (code, err) == (0, "")
    assert stdout.splitlines() == [
        "n1: Social History:", "processed 2 notes, 1 with a social-history section"]


@pytest.mark.parametrize("argv", _COMMANDS)
def test_every_command_writes_a_manifest_of_the_files_it_read_and_wrote(tmp_path, argv):
    paths = _copy_inputs(tmp_path, argv)
    hashes = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(paths) == 0
        (path,) = tmp_path.rglob("*manifest.json")
        manifest = json.loads(path.read_text())
        hashes.append(manifest["config_hash"])
    tokens = argv.split()
    assert manifest["command"] == tokens[0]
    inputs = [os.path.relpath(p, tmp_path) for p in manifest["inputs"]]
    if tokens[0] == "brat-import":  # read in order: schema, sidecar, then each .txt and its .ann
        stems = [n[:-len(".txt")] for n in sorted(_INPUTS)
                 if n.startswith("brat/") and n.endswith(".txt")]
        pairs = [f"{stem}.{ext}" for stem in stems for ext in ("txt", "ann")]
        assert inputs == ["schema.json", "brat/metadata.jsonl", *pairs]
    else:  # each file once, however often the command line names it
        assert sorted(inputs) == sorted(set(filter(_is_input, tokens)))
    outputs = [Path(p) for p in manifest["outputs"]]
    assert path == Path(f"{outputs[0]}.manifest.json")
    written = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert sorted(written) == sorted([*outputs, path])
    assert manifest["seeds"] == ({"seed": int(tokens[tokens.index("--seed") + 1])}
                                 if "--seed" in tokens else {})
    assert hashes[0] == hashes[1]


def test_a_command_that_fails_writes_no_manifest(tmp_path):
    argv = "score --gold gold.jsonl --pred pred.jsonl --out out/report"
    stray = '{"doc_id":"stray","patient_id":"p","text":"x","events":[]}\n'.encode()
    paths = _copy_inputs(tmp_path, argv, "pred.jsonl", _INPUTS["pred.jsonl"] + stray)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(paths) == 2
    assert "unknown documents: stray" in err.getvalue()
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", [
    "score --gold {d}/gold.jsonl --pred {d}/pred.jsonl --out {d}/out/report",
    "iaa --ann-a {d}/gold.jsonl --ann-b {d}/pred.jsonl --out {d}/out/iaa",
    "significance --gold {d}/gold.jsonl --pred-a {d}/pred.jsonl --pred-b {d}/gold.jsonl --seed 1 "
    "--out {d}/out/sig",
], ids=["score", "iaa", "significance"])
def test_a_prediction_on_other_text_exits_2_and_writes_nothing(tmp_path, capsys, command):
    write_corpus_jsonl(one_note_corpus("he drinks wine", "drinks"), tmp_path / "gold.jsonl")
    write_corpus_jsonl(one_note_corpus("he smokes wine", "smokes"), tmp_path / "pred.jsonl")
    (tmp_path / "out").mkdir()
    code, _, err = _run(capsys, *command.format(d=tmp_path).split())
    assert code == 2
    assert "predicted documents whose text differs from gold: d1" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_extract_has_no_metrics_out_option(tmp_path, capsys, gold_path):
    code, _, err = _run(
        capsys, "extract", "--corpus", gold_path, "--strategy", "2sqa-base", "--seed", 1,
        "--client", "oracle", "--out", tmp_path / "p.jsonl", "--metrics-out", tmp_path / "m.json",
    )
    assert code == 1
    assert "unrecognized arguments: --metrics-out" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.jsonl"]


@pytest.mark.parametrize(
    "argv, read, refused",
    [
        ("significance --gold g.jsonl --pred-a g.jsonl --pred-b g.jsonl --seed 1 --resamples 10"
         " --out g.jsonl", "g.jsonl", "g.jsonl"),
        ("extract --corpus g.jsonl --strategy 2sqa-base --seed 1 --client nonsense --out g.jsonl",
         "g.jsonl", "g.jsonl"),
        ("sample --corpus g.jsonl.manifest.json --seed 1 --out g.jsonl",
         "g.jsonl.manifest.json", "g.jsonl.manifest.json"),
    ],
    ids=["significance", "extract", "manifest"],
)
def test_a_command_refuses_to_write_a_file_it_has_read(tmp_path, capsys, gold_path, argv, read,
                                                        refused):
    run = tmp_path / "run"
    run.mkdir()
    data = gold_path.read_bytes()
    (run / read).write_bytes(data)
    code, stdout, err = _run(capsys, *(run / t if t.startswith("g.") else t for t in argv.split()))
    assert code == 2
    assert err == (f"error: refusing to write {run / refused}:"
                   f" this command already read {run / read}\n")
    assert (run / read).read_bytes() == data
    # No manifest: only the input and, when it differs, the one output are there.
    assert sorted(p.name for p in run.iterdir()) == sorted({read, "g.jsonl"})


_OUT_POOL = ["out/a", "out/a.json", "out/a.manifest.json", "out/a.metrics.json"]
_DIR_POOL = ["brat", "out/brat", "out"]


def _snapshot(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _in_dir_inputs(names, in_dir: str) -> set[str]:
    """The files ``import_brat_dir`` reads: the sidecar and the .txt/.ann
    files directly in the directory."""
    return {name for name in names if os.path.dirname(name) == in_dir
            and (os.path.basename(name) == "metadata.jsonl" or name.endswith((".txt", ".ann")))}


def test_brat_import_may_replace_a_file_in_its_in_dir_that_it_does_not_read(tmp_path):
    """A manifest left in --in-dir by an earlier run is not read, so the
    command may write its own manifest over it."""
    _copy_inputs(tmp_path, "")
    (tmp_path / "out/a.manifest.json").write_bytes(_INPUTS["gold.jsonl"])
    before = _snapshot(tmp_path)
    argv = ["brat-import", "--in-dir", tmp_path / "out", "--schema", tmp_path / "schema.json",
            "--out", tmp_path / "out/a"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0
    after = _snapshot(tmp_path)
    assert {name for name in after if after[name] != before.get(name)} == {
        "out/a", "out/a.manifest.json"}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_no_command_damages_a_file_it_reads(data):
    """Each subcommand, with every output path redrawn from its own inputs and
    a few output names, and an input sometimes replaced by out/a.manifest.json
    (a valid corpus), so that inputs, outputs, metrics and manifests collide,
    exits 0 to 3 and never prints a traceback. Every input keeps its bytes:
    each named input file and, for --in-dir, what ``import_brat_dir`` reads
    (``_in_dir_inputs``). After exit 0 every changed file is a listed output
    or the manifest; after any other exit no manifest is written."""
    tokens = data.draw(st.sampled_from(_COMMANDS)).split()
    pool = sorted({t for t in tokens if t in _INPUTS} | set(_OUT_POOL))
    at_input = [i for i, t in enumerate(tokens) if _is_input(t)]
    at_path = [i for i, t in enumerate(tokens) if _is_input(t) or t.startswith("out/")]
    for i in at_path:
        t = tokens[i]
        if t in _DIR_POOL:
            names = _DIR_POOL
        elif i in at_input:  # mostly kept, so that about half the runs get as far as writing
            names = [t, t, t, "out/a.manifest.json"]
        else:
            names = pool
        tokens[i] = data.draw(st.sampled_from(names))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy_inputs(root, "")
        (root / "out/a.manifest.json").write_bytes(_INPUTS["gold.jsonl"])
        before = _snapshot(root)
        inputs = {tokens[i] for i in at_input if tokens[i] in before}
        inputs |= {name for i in at_input if tokens[i - 1] == "--in-dir"
                   for name in _in_dir_inputs(before, tokens[i])}
        argv = [str(root / t) if i in at_path else t for i, t in enumerate(tokens)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        after = _snapshot(root)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert all(after.get(name) == before[name] for name in inputs), (argv, err.getvalue())
    changed = {name for name in after if after[name] != before.get(name)}
    # Only a manifest holds a config_hash; no input or other output does.
    manifests = {name for name in changed if b'"config_hash"' in after[name]}
    if code == 0:
        (manifest,) = manifests
        outputs = [os.path.relpath(p, root) for p in json.loads(after[manifest])["outputs"]]
        assert manifest == f"{outputs[0]}.manifest.json"
        assert changed - {manifest} <= set(outputs)
    else:
        assert not manifests, (argv, err.getvalue())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_input_file_makes_a_command_raise(data):
    """Each subcommand, with one input file replaced by arbitrary bytes, by a
    run of JSON-ish tokens, or by a valid file with a few spans spliced, exits
    0 or 2 (3 only for a bad mock script, a configuration error) and never
    prints a traceback."""
    argv, name = data.draw(st.sampled_from(_CASES))
    content = _INPUTS[name]
    how = data.draw(st.sampled_from(["bytes", "tokens", "splice"]))
    if how == "bytes":
        content = data.draw(st.binary(max_size=64))
    elif how == "tokens":
        content = b"".join(data.draw(st.lists(_TOKEN, max_size=8)))
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(content)))
            j = data.draw(st.integers(i, min(len(content), i + 12)))
            content = content[:i] + data.draw(st.binary(max_size=6) | _TOKEN) + content[j:]
    code, err = _run_in_copy(argv, name, content)
    assert code in ((0, 2, 3) if name == "script.json" else (0, 2)), (code, err)
    assert "Traceback" not in err
