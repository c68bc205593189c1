"""Byte-identity of every file the CLI writes, under fixed seeds.

One module-scoped run drives ``cli.main`` through synthetic, guide-stub,
extract (four strategies with the oracle client, 2sqa-base with the nonsense
client), score, significance at all three levels, sections and
export-finetune, and records the sha256 of each output. The expected digests
were taken from the implementation before any refactor; a refactor that keeps
outputs byte-identical keeps this test passing unchanged. Manifests carry a
timestamp and are left out.
"""

import hashlib
import json

import pytest

from sdohkit.cli import main
from sdohkit.corpus import AnnotatedDocument, Corpus, Event, read_corpus_jsonl, write_corpus_jsonl

STRATEGIES = ("event", "2sqa-base", "2sqa-guide", "2sqa-guide3shot")

EXPECTED = {
    "gold": "00f8b2b6bd806cf509a8ff6c0dedcad997ea35c543e126f0d2a6e553315e9d5b",
    "train": "8eebf5083005134b23378bde5bf8ee83c8fe3fe1c5c30166cedf498764d72053",
    "guide": "c92ccd56cf4c7adff274730b9d23d7ddf9e5add4d4bc8bc73c02a32d34454734",
    # An oracle run reproduces gold byte for byte.
    "extract/event/oracle/pred": "00f8b2b6bd806cf509a8ff6c0dedcad997ea35c543e126f0d2a6e553315e9d5b",
    "extract/event/oracle/metrics": "06a31dde2c4775d548fb2f1556f2b834758c1e77bf2740df662ca27dc2951f5f",
    "extract/2sqa-base/oracle/pred": "00f8b2b6bd806cf509a8ff6c0dedcad997ea35c543e126f0d2a6e553315e9d5b",
    "extract/2sqa-base/oracle/metrics": "a35108a2531367f88a7304391c6b76c654f6d783b7b678473795c6f1dcc2aed3",
    "extract/2sqa-guide/oracle/pred": "00f8b2b6bd806cf509a8ff6c0dedcad997ea35c543e126f0d2a6e553315e9d5b",
    "extract/2sqa-guide/oracle/metrics": "d54491ae482c4d9a31ba6325a4e62c626faf0aaf5a2ff013ef7190a4ff05e53a",
    "extract/2sqa-guide3shot/oracle/pred": "00f8b2b6bd806cf509a8ff6c0dedcad997ea35c543e126f0d2a6e553315e9d5b",
    "extract/2sqa-guide3shot/oracle/metrics": "14cb9e091eb2c535193e2ef2dcad556ac7c1052ec947d8fe35f3e29b7e3a9689",
    "extract/2sqa-base/nonsense/pred": "f54952995253227472b0a629c4d7cf4bcbf2990472ffb949104b121f5b1079ea",
    "extract/2sqa-base/nonsense/metrics": "69777ea977f5e8621bdc115cf54534c8f87c74a8fcd444c8fd63a7380a9685e7",
    "score/json": "2b7edfc90a2a49ae2f60255a79dacca43d3a34d7639b48f03a9be1cd29c7f358",
    "score/txt": "b9a3f5d1116e3843c93ca0569892b61408ece2b10c6693f5ffec2ccb659ecb1e",
    "significance/trigger": "e8def670c670d2d5fd59efe38fb559a61ccd65987144bfdd39e907e2a216bba2",
    "significance/argument": "d34a59609d2c04a539c5266700e722fe6b72c1fcd8414844822e65058ab8b80e",
    "significance/event": "b64ca75b7aaa3f64a9130faff1a6b6ff518bff344bc0bce901d45bfeabefeae3",
    "sections/corpus": "3f012d6d1bb5cebd5984b099c5a1a91400af82595f9c5bf200f8ac85f94ff66a",
    "export-finetune/event": "69389493b5d2bb9cd033b6d1e50f3b4bb085eaa04c654b4401f9f98bfe0cbf86",
    "export-finetune/2sqa": "b425812a6795cd46d6a09a40fac49649b7e82f4e97f3b20582a7d964f805162d",
}


def _cli(*argv) -> None:
    code = main([str(a) for a in argv])
    assert code == 0, f"sdohkit {' '.join(map(str, argv))} exited {code}"


def _degrade(gold: Corpus, drop_every: int, strip_args_every: int | None) -> Corpus:
    """Gold with the first event of every n-th document dropped and, when
    asked, the arguments of every m-th document stripped."""
    docs = []
    for i, adoc in enumerate(gold.docs):
        events = list(adoc.events)
        if i % drop_every == 0 and events:
            events = events[1:]
        if strip_args_every and i % strip_args_every == 1:
            events = [Event(e.event_type, e.trigger, {}) for e in events]
        docs.append(AnnotatedDocument(adoc.document, events, adoc.annotator_id))
    return Corpus(docs)


def _notes_jsonl(gold: Corpus) -> str:
    lines = []
    for i, adoc in enumerate(gold.docs[:12]):
        doc = adoc.document
        obj = {"doc_id": doc.doc_id, "text": f"HPI:\nfever épisode {i}\n"}
        if i % 4 != 3:
            obj["text"] += f"Social History:\n{doc.text} (café)\nPLAN:\nfollow up\n"
        if i % 3 != 2:
            obj["patient_id"] = doc.patient_id
            obj["note_date"] = doc.note_date
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    outputs = {}

    def record(name, path):
        outputs[name] = hashlib.sha256(path.read_bytes()).hexdigest()

    gold, train, guide = d / "gold.jsonl", d / "train.jsonl", d / "guide.txt"
    _cli("synthetic", "--n", 40, "--seed", 31, "--out", gold)
    _cli("synthetic", "--n", 40, "--seed", 32, "--fewshot-coverage", "--out", train)
    _cli("guide-stub", "--out", guide)
    for name, path in (("gold", gold), ("train", train), ("guide", guide)):
        record(name, path)

    runs = [(s, "oracle") for s in STRATEGIES] + [("2sqa-base", "nonsense")]
    for strategy, client in runs:
        pred = d / f"pred-{strategy}-{client}.jsonl"
        _cli("extract", "--corpus", gold, "--strategy", strategy, "--seed", 5,
             "--client", client, "--train", train, "--guide-file", guide, "--out", pred)
        record(f"extract/{strategy}/{client}/pred", pred)
        record(f"extract/{strategy}/{client}/metrics", d / f"{pred.name}.metrics.json")

    gold_corpus = read_corpus_jsonl(gold)
    pred_a, pred_b = d / "pred_a.jsonl", d / "pred_b.jsonl"
    write_corpus_jsonl(_degrade(gold_corpus, 4, None), pred_a)
    write_corpus_jsonl(_degrade(gold_corpus, 3, 5), pred_b)

    _cli("score", "--gold", gold, "--pred", pred_b, "--out", d / "report")
    record("score/json", d / "report.json")
    record("score/txt", d / "report.txt")

    for level in ("trigger", "argument", "event"):
        out = d / f"boot-{level}.json"
        _cli("significance", "--gold", gold, "--pred-a", pred_a, "--pred-b", pred_b,
             "--level", level, "--resamples", 2000, "--seed", 7, "--out", out)
        record(f"significance/{level}", out)

    notes = d / "notes.jsonl"
    notes.write_text(_notes_jsonl(gold_corpus), encoding="utf-8")
    _cli("sections", "--notes", notes, "--emit", "corpus", "--out", d / "sections.jsonl")
    record("sections/corpus", d / "sections.jsonl")

    for strategy in ("event", "2sqa"):
        out = d / f"finetune-{strategy}.jsonl"
        _cli("export-finetune", "--corpus", gold, "--strategy", strategy, "--out", out)
        record(f"export-finetune/{strategy}", out)
    return outputs


def test_golden_covers_every_output(digests):
    assert sorted(digests) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_output_is_byte_identical(digests, name):
    assert digests[name] == EXPECTED[name]
