"""Command-line entry point.

``main`` runs each command under a file ledger (``corpus.LEDGER``): a
command refuses to write a file it has already read or written. When the
command succeeds, ``main`` alone writes the run manifest to <first file
written>.manifest.json. It records the command, a hash of its configuration,
seeds, the files read and the files written (each once, in order), the tool
version, and a timestamp, so any artifact can be reproduced.

Exit codes: 0 success, 1 usage, 2 data validation or an unusable path, 3
transport or client configuration. Document text never reaches stdout or
stderr unless --unsafe-show-text is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone

from . import __version__
from .brat import export_brat_dir, import_brat_dir
from .corpus import (
    LEDGER,
    AnnotatedDocument,
    CorpusError,
    Corpus,
    dedup_per_patient,
    doc_to_obj,
    extract_sections,
    json_value,
    jsonl_documents,
    jsonl_text,
    read_corpus_jsonl,
    read_text,
    sample_corpus,
    select_social_history,
    split_corpus,
    write_corpus_jsonl,
    write_text,
)
from .llm import ClientConfig, ConfigurationError, HttpChatClient, ScriptedMockClient, TransportError
from .qa import (
    GoldOracleClient,
    NonsenseClient,
    STRATEGIES,
    export_finetune_pairs,
    guide_stub,
    parse_guide_file,
    run_pipeline,
)
from .schema import default_schema, load_schema
from .scoring import LEVELS, compute_iaa, render_table, score_corpus
from .synth import generate_fewshot_train, generate_synthetic


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_manifest(args: argparse.Namespace, ledger: dict) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "config_hash": hashlib.sha256(
            json.dumps(cfg, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest(),
        "seeds": {k: v for k, v in cfg.items() if "seed" in k and v is not None},
        "inputs": [p for p, how in ledger.values() if how == "read"],
        "outputs": [p for p, how in ledger.values() if how == "wrote"],
    }
    write_text(f"{manifest['outputs'][0]}.manifest.json", json.dumps(manifest, indent=2) + "\n")


def _load_schema(path: str | None):
    return load_schema(read_text(path)) if path else default_schema()


def _write_json(obj, path) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# --- commands -----------------------------------------------------------------

def cmd_score(args) -> None:
    schema = _load_schema(args.schema)
    gold = read_corpus_jsonl(args.gold)
    pred = read_corpus_jsonl(args.pred)
    report = score_corpus(gold, pred, schema)
    levels = None if args.level == "all" else [args.level]
    table = render_table(report, levels)
    obj = report.to_obj()
    if levels:
        obj = {"levels": {lv: obj["levels"][lv] for lv in levels}}
    _write_json(obj, f"{args.out}.json")
    write_text(f"{args.out}.txt", table)
    print(table, end="")


def cmd_iaa(args) -> None:
    schema = _load_schema(args.schema)
    ann_a = read_corpus_jsonl(args.ann_a)
    ann_b = read_corpus_jsonl(args.ann_b)
    iaa = compute_iaa(ann_a, ann_b, schema)
    obj = {
        "trigger_micro_f1": iaa.trigger_micro_f1,
        "argument_micro_f1": iaa.argument_micro_f1,
        "combined_micro_f1": iaa.combined_micro_f1,
        "combined_counts": asdict(iaa.combined_counts),
        "report": iaa.report.to_obj(),
    }
    _write_json(obj, f"{args.out}.json")
    print(iaa.summary_line())


def cmd_significance(args) -> None:
    # Only this command loads numpy, which costs every other command ~150 ms at start.
    from .significance import bootstrap_test

    gold = read_corpus_jsonl(args.gold)
    pred_a = read_corpus_jsonl(args.pred_a)
    pred_b = read_corpus_jsonl(args.pred_b)
    result = bootstrap_test(
        gold, pred_a, pred_b, level=args.level, key=args.key,
        n_resamples=args.resamples, seed=args.seed,
    )
    _write_json(result.to_obj(), args.out)
    print(f"significant at 0.05: {'yes' if result.significant else 'no'}")
    print(f"p-value: {result.p_value:.6g}  delta: {result.observed_delta:+.4f}")


def _read_rules(path: str | None) -> list[str] | None:
    if not path:
        return None
    return [ln for ln in read_text(path).splitlines() if ln.strip()]


def cmd_sections(args) -> None:
    heading_rules, social_rules = _read_rules(args.heading_rules), _read_rules(args.social_rules)

    notes = list(jsonl_documents(read_text(args.notes), default_patient=True, name=args.notes))
    n_match = 0
    out_objs = []
    for adoc in notes:
        doc = adoc.document
        sections = extract_sections(doc.text, heading_rules)
        social = select_social_history(sections, social_rules)
        if args.emit == "corpus":
            if social is None or not social.body.strip():
                continue
            n_match += 1
            out_objs.append(doc_to_obj(AnnotatedDocument(replace(doc, text=social.body))))
        else:
            if social is not None:
                n_match += 1
            out_objs.append(
                {
                    "doc_id": doc.doc_id,
                    "sections": [asdict(s) for s in sections],
                    "social_history_heading": social.heading if social else None,
                }
            )
            if args.unsafe_show_text and social is not None:
                print(f"{doc.doc_id}: {social.heading}")
    write_text(args.out, jsonl_text(out_objs))
    print(f"processed {len(notes)} notes, {n_match} with a social-history section")


def cmd_sample(args) -> None:
    corpus = read_corpus_jsonl(args.corpus)
    if args.dedup_per_patient:
        corpus = dedup_per_patient(corpus, args.seed)
    if args.n is not None:
        corpus = sample_corpus(corpus, args.n, args.seed)
    if args.splits:
        try:
            sizes = tuple(int(x) for x in args.splits.split(","))
            if len(sizes) != 3:
                raise ValueError
        except ValueError:
            raise CorpusError("--splits must be three comma-separated integers") from None
        corpus = split_corpus(corpus, sizes, args.seed)
    write_corpus_jsonl(corpus, args.out)
    print(f"wrote {len(corpus.docs)} documents")


def cmd_synthetic(args) -> None:
    schema = _load_schema(args.schema)
    if args.fewshot_coverage:
        base = generate_fewshot_train(schema, args.seed)
        if args.n < len(base.docs):
            raise CorpusError(
                f"--n {args.n} is smaller than the {len(base.docs)} engineered coverage documents"
            )
        extra = generate_synthetic(schema, args.n - len(base.docs), args.seed)
        corpus = Corpus(base.docs + extra.docs)
    else:
        corpus = generate_synthetic(schema, args.n, args.seed)
    write_corpus_jsonl(corpus, args.out)
    print(f"wrote {len(corpus.docs)} synthetic documents")


def cmd_export_finetune(args) -> None:
    schema = _load_schema(args.schema)
    corpus = read_corpus_jsonl(args.corpus)
    pairs = export_finetune_pairs(corpus, schema, args.strategy)
    write_text(args.out, jsonl_text(pairs))
    print(f"wrote {len(pairs)} pairs")


def _build_client(args):
    """The extraction client; None for the oracle, which answers from the corpus."""
    if args.client == "oracle":
        return None
    if args.client == "nonsense":
        return NonsenseClient()
    if args.client == "script":
        if not args.mock_script:
            raise ConfigurationError("--client script requires --mock-script")
        obj = json_value(read_text(args.mock_script), args.mock_script)
        if not isinstance(obj, dict):
            return ScriptedMockClient(obj)  # raises: a script is a JSON object
        return ScriptedMockClient(obj.get("script", obj), obj.get("default"))
    config = ClientConfig(
        base_url=args.base_url or "",
        model_name=args.model or "",
        api_key_env=args.api_key_env,
        max_tokens=args.max_tokens,
        temperature=args.temperature,
        request_timeout=args.timeout,
        max_retries=args.max_retries,
        max_concurrent=args.max_concurrent,
    )
    if not config.base_url or not config.model_name:
        raise ConfigurationError("--client http requires --base-url and --model")
    return HttpChatClient(config)


def cmd_extract(args) -> None:
    # Built first, so a refused --base-url fails before any input is read.
    client = _build_client(args)
    schema = _load_schema(args.schema)
    corpus = read_corpus_jsonl(args.corpus)
    train = read_corpus_jsonl(args.train) if args.train else None
    guide = parse_guide_file(read_text(args.guide_file)) if args.guide_file else None
    if client is None:
        client = GoldOracleClient(corpus, schema)
    pred, metrics = run_pipeline(
        corpus, schema, client, args.strategy, args.seed, train=train, guide=guide,
        repair=not args.no_repair,
    )
    write_corpus_jsonl(pred, args.out)
    _write_json(metrics.to_obj(), f"{args.out}.metrics.json")
    n_events = sum(len(d.events) for d in pred.docs)
    print(
        f"extracted {n_events} events from {len(pred.docs)} documents "
        f"({metrics.queries_total} queries, {len(metrics.failures)} failures)"
    )


def cmd_guide_stub(args) -> None:
    schema = _load_schema(args.schema)
    write_text(args.out, guide_stub(schema))
    print(f"wrote guide stub to {args.out}")


def cmd_brat_export(args) -> None:
    corpus = read_corpus_jsonl(args.corpus)
    export_brat_dir(corpus, args.out_dir)
    print(f"exported {len(corpus.docs)} documents to {args.out_dir}")


def cmd_brat_import(args) -> None:
    schema = _load_schema(args.schema) if args.schema else None
    corpus, warnings = import_brat_dir(args.in_dir, schema)
    write_corpus_jsonl(corpus, args.out)
    print(f"imported {len(corpus.docs)} documents ({len(warnings)} warnings)")
    for w in warnings[:20]:
        print(f"warning: {w}", file=sys.stderr)


# --- parser ---------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="sdohkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sdohkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--unsafe-show-text", action="store_true",
                       help="allow document text on stdout/stderr")
        return p

    p = add("score", cmd_score, "score predictions against gold annotations")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--schema")
    p.add_argument("--level", choices=[*LEVELS, "all"], default="all")
    p.add_argument("--out", required=True, help="output prefix (.json and .txt are written)")

    p = add("iaa", cmd_iaa, "inter-annotator agreement between two annotation sets")
    p.add_argument("--ann-a", required=True)
    p.add_argument("--ann-b", required=True)
    p.add_argument("--schema")
    p.add_argument("--out", required=True, help="output prefix (.json is written)")

    p = add("significance", cmd_significance, "paired bootstrap test between two systems")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred-a", required=True)
    p.add_argument("--pred-b", required=True)
    p.add_argument("--level", choices=list(LEVELS), default="trigger")
    p.add_argument("--key", help="event type, or EventType.Argument at argument level")
    p.add_argument("--resamples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("sections", cmd_sections, "extract topical sections / social history from raw notes")
    p.add_argument("--notes", required=True, help="JSONL with doc_id and text per line")
    p.add_argument("--heading-rules", help="file with one heading regex per line")
    p.add_argument("--social-rules", help="file with one social-history regex per line")
    p.add_argument("--emit", choices=["sections", "corpus"], default="sections")
    p.add_argument("--out", required=True)

    p = add("sample", cmd_sample, "dedup per patient, subsample, and assign splits")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dedup-per-patient", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--splits", help="train,validation,test sizes, e.g. 894,121,245")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("synthetic", cmd_synthetic, "generate a synthetic annotated corpus")
    p.add_argument("--schema")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fewshot-coverage", action="store_true",
                   help="include engineered documents covering every few-shot class")
    p.add_argument("--out", required=True)

    p = add("export-finetune", cmd_export_finetune, "emit fine-tuning input/target pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema")
    p.add_argument("--strategy", choices=["event", "2sqa"], required=True)
    p.add_argument("--out", required=True)

    p = add("extract", cmd_extract, "run an extraction strategy through a chat client")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema")
    p.add_argument("--strategy", choices=list(STRATEGIES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train", help="train corpus for examples and few-shot sampling")
    p.add_argument("--guide-file")
    p.add_argument("--client", choices=["http", "script", "oracle", "nonsense"], default="http")
    p.add_argument("--mock-script", help="JSON file of fingerprint -> response")
    p.add_argument("--no-repair", action="store_true", help="disable span repair")
    p.add_argument("--base-url")
    p.add_argument("--model")
    # Each default is the ClientConfig field's, kept there only.
    p.add_argument("--api-key-env", default=ClientConfig.api_key_env)
    p.add_argument("--max-tokens", type=int, default=ClientConfig.max_tokens)
    p.add_argument("--temperature", type=float, default=ClientConfig.temperature)
    p.add_argument("--timeout", type=float, default=ClientConfig.request_timeout)
    p.add_argument("--max-retries", type=int, default=ClientConfig.max_retries)
    p.add_argument("--max-concurrent", type=int, default=ClientConfig.max_concurrent)
    p.add_argument("--out", required=True)

    p = add("guide-stub", cmd_guide_stub, "write a placeholder guide file for a schema")
    p.add_argument("--schema")
    p.add_argument("--out", required=True)

    p = add("brat-export", cmd_brat_export, "write .txt/.ann standoff files for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)

    p = add("brat-import", cmd_brat_import, "read .txt/.ann standoff files into a corpus")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--schema")
    p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    token = LEDGER.set({})
    try:
        args.func(args)
        _write_manifest(args, LEDGER.get())
    except (ConfigurationError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # typed data errors are ValueErrors; OSError: a bad path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        LEDGER.reset(token)
    return 0


if __name__ == "__main__":
    sys.exit(main())
