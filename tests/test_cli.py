import json

import pytest

from sdohkit.cli import main
from sdohkit.corpus import read_corpus_jsonl, write_corpus_jsonl
from sdohkit.synth import generate_synthetic


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


def test_score_rejects_invalid_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id":"a","patient_id":"p","text":"","events":[]}\n')
    code, _, err = _run(
        capsys, "score", "--gold", bad, "--pred", bad, "--out", tmp_path / "r"
    )
    assert code == 2
    assert "line 1" in err


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
    assert sorted(corpus.split_assignment.values()).count("train") == 6


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


def test_export_finetune_command(tmp_path, capsys, gold_path):
    out = tmp_path / "pairs.jsonl"
    code, stdout, _ = _run(
        capsys, "export-finetune", "--corpus", gold_path, "--strategy", "event", "--out", out
    )
    assert code == 0
    pairs = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(pairs) == 15
    assert set(pairs[0]) == {"input", "target"}


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


def test_extract_http_client_requires_endpoint(tmp_path, capsys, gold_path):
    code, _, _ = _run(
        capsys,
        "extract", "--corpus", gold_path, "--strategy", "2sqa-base", "--seed", 1,
        "--out", tmp_path / "p.jsonl",
    )
    assert code == 3


def test_extract_http_malformed_replies_fail_documents_not_the_run(
    tmp_path, capsys, gold_path, monkeypatch
):
    import requests

    none_reply = b'{"choices":[{"message":{"content":"NONE"}}]'
    bodies = iter([b"not json at all", none_reply + b',"usage":"bad"}'])

    def post(url, json, headers, timeout):
        resp = requests.Response()
        resp.status_code = 200
        resp._content = next(bodies, none_reply + b"}")
        return resp

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    pred = tmp_path / "pred.jsonl"
    code, stdout, _ = _run(
        capsys,
        "extract", "--corpus", gold_path, "--strategy", "2sqa-base", "--seed", 1,
        "--client", "http", "--base-url", "http://localhost:9/v1", "--model", "m",
        "--out", pred,
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


def test_brat_round_trip_commands(tmp_path, capsys, gold_path):
    brat_dir = tmp_path / "brat"
    back = tmp_path / "back.jsonl"
    assert _run(capsys, "brat-export", "--corpus", gold_path, "--out-dir", brat_dir)[0] == 0
    assert (brat_dir / "manifest.json").exists()
    assert _run(capsys, "brat-import", "--in-dir", brat_dir, "--out", back)[0] == 0
    assert back.read_text() == gold_path.read_text()


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
