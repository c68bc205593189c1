"""The traced run: per-layer metrics named after sdohkit's modules.

``install`` wraps the library's public functions at their module attributes
(and the endpoint stand-in's transport and backoff). ``traced_run`` measures
untraced passes, then traced passes, and derives every per-layer metric from
the spans and counters of the traced passes: counts and seconds are per pass
(median over traced passes), query latency percentiles pool all traced
passes, and ``synth.generate_s`` is the median over the traced set-ups.
"""

from __future__ import annotations

import os
import statistics

from sdohkit import brat, corpus, linearizer, llm, qa, scoring, significance, synth

import endpoint
from tracing import Tracer

UNITS = {
    "qa.sample_fewshot.calls": "count",
    "qa.sample_fewshot.s": "s",
    "qa.build_prompt.calls": "count",
    "qa.build_prompt.s": "s",
    "qa.prompt_chars": "chars",
    "qa.parse_response.s": "s",
    "qa.oracle.s": "s",
    "qa.run_pipeline.self_s": "s",
    "linearizer.ground_span.calls": "count",
    "linearizer.ground_span.self_s": "s",
    "linearizer.repair_span.calls": "count",
    "linearizer.repair_span.s": "s",
    "linearizer.repair_span.hits": "count",
    "linearizer.repair_hit_ratio": "ratio",
    "llm.complete.calls": "count",
    "llm.complete.s": "s",
    "llm.transport_wait_s": "s",
    "llm.query_ms_p50": "ms",
    "llm.query_ms_p99": "ms",
    "llm.retries": "count",
    "llm.backoff_s": "s",
    "llm.failures": "count",
    "significance.bootstrap.calls": "count",
    "significance.bootstrap.s": "s",
    "significance.resample_us": "us",
    "scoring.score_corpus.s": "s",
    "scoring.score_document.calls": "count",
    "scoring.score_document.s": "s",
    "scoring.per_document_counts.s": "s",
    "corpus.read_s": "s",
    "corpus.write_s": "s",
    "corpus.bytes_read": "bytes",
    "corpus.bytes_written": "bytes",
    "brat.import_s": "s",
    "synth.generate_s": "s",
}


def _prompt_chars(tracer, args, kwargs, bundle):
    tracer.count("qa.prompt_chars", sum(len(m.content) for m in bundle.messages))


def _repair_hit(tracer, args, kwargs, grounded):
    # ground_span's repaired flag: a repaired span that it kept.
    tracer.count("linearizer.repair_span.hits", grounded[1])


def _retries(tracer, args, kwargs, completion):
    tracer.count("llm.retries", completion.retries)


def _resamples(tracer, args, kwargs, result):
    tracer.count("significance.resamples", result.n_resamples)


def _failure(tracer, exc):
    if isinstance(exc, llm.TransportError):
        tracer.count("llm.failures")


def _bytes_read(tracer, args, kwargs, corpus_read):
    tracer.count("corpus.bytes_read", os.path.getsize(args[0]))


def _bytes_written(tracer, args, kwargs, result):
    tracer.count("corpus.bytes_written", os.path.getsize(args[1]))


def install(tracer: Tracer) -> None:
    wrap = tracer.wrap
    wrap(synth, "generate_synthetic", "synth.generate")
    wrap(corpus, "read_corpus_jsonl", "corpus.read", _bytes_read)
    wrap(corpus, "write_corpus_jsonl", "corpus.write", _bytes_written)
    wrap(brat, "import_brat_dir", "brat.import")
    wrap(qa, "run_pipeline", "qa.run_pipeline")
    wrap(qa, "sample_fewshot", "qa.sample_fewshot")
    for name in ("build_event_prompt", "build_trigger_prompt", "build_argument_prompt"):
        wrap(qa, name, "qa.build_prompt", _prompt_chars)
    for name in ("parse_trigger_response", "parse_argument_response"):
        wrap(qa, name, "qa.parse_response")
    wrap(qa, "ground_span", "linearizer.ground_span", _repair_hit)
    wrap(linearizer, "repair_span", "linearizer.repair_span")
    wrap(qa.GoldOracleClient, "complete", "qa.oracle")
    wrap(llm.HttpChatClient, "complete", "llm.complete", _retries, _failure)
    wrap(endpoint.EndpointStandIn, "__call__", "llm.transport")
    wrap(endpoint.EndpointStandIn, "backoff", "llm.backoff")
    wrap(scoring, "score_corpus", "scoring.score_corpus")
    wrap(scoring, "score_document", "scoring.score_document")
    wrap(significance, "per_document_counts", "scoring.per_document_counts")
    wrap(significance, "bootstrap_test", "significance.bootstrap", _resamples)


def pass_metrics(tracer: Tracer, trace_id: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tracer.summarize(trace_id)
    counts = tracer.counters(trace_id)

    def get(name, field="s"):
        return spans[name][field] if name in spans else 0

    repair_calls = get("linearizer.repair_span", "calls")
    hits = counts.get("linearizer.repair_span.hits", 0)
    bootstrap_self = get("significance.bootstrap", "self_s")
    resamples = counts.get("significance.resamples", 0)
    return {
        "qa.sample_fewshot.calls": get("qa.sample_fewshot", "calls"),
        "qa.sample_fewshot.s": get("qa.sample_fewshot"),
        "qa.build_prompt.calls": get("qa.build_prompt", "calls"),
        "qa.build_prompt.s": get("qa.build_prompt"),
        "qa.prompt_chars": counts.get("qa.prompt_chars", 0),
        "qa.parse_response.s": get("qa.parse_response"),
        "qa.oracle.s": get("qa.oracle"),
        "qa.run_pipeline.self_s": get("qa.run_pipeline", "self_s"),
        "linearizer.ground_span.calls": get("linearizer.ground_span", "calls"),
        "linearizer.ground_span.self_s": get("linearizer.ground_span", "self_s"),
        "linearizer.repair_span.calls": repair_calls,
        "linearizer.repair_span.s": get("linearizer.repair_span"),
        "linearizer.repair_span.hits": hits,
        "linearizer.repair_hit_ratio": hits / repair_calls if repair_calls else 0.0,
        "llm.complete.calls": get("llm.complete", "calls"),
        "llm.complete.s": get("llm.complete"),
        "llm.transport_wait_s": get("llm.transport"),
        "llm.retries": counts.get("llm.retries", 0),
        "llm.backoff_s": get("llm.backoff"),
        "llm.failures": counts.get("llm.failures", 0),
        "significance.bootstrap.calls": get("significance.bootstrap", "calls"),
        "significance.bootstrap.s": get("significance.bootstrap"),
        "significance.resample_us": bootstrap_self / resamples * 1e6 if resamples else 0.0,
        "scoring.score_corpus.s": get("scoring.score_corpus"),
        "scoring.score_document.calls": get("scoring.score_document", "calls"),
        "scoring.score_document.s": get("scoring.score_document"),
        "scoring.per_document_counts.s": get("scoring.per_document_counts"),
        "corpus.read_s": get("corpus.read"),
        "corpus.write_s": get("corpus.write"),
        "corpus.bytes_read": counts.get("corpus.bytes_read", 0),
        "corpus.bytes_written": counts.get("corpus.bytes_written", 0),
        "brat.import_s": get("brat.import"),
    }


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1000


def traced_run(run, seconds: float, trace_path: str, record: dict) -> tuple[dict, list[str]]:
    tracer = Tracer()
    install(tracer)
    try:
        state = run.setups(tracer)
    finally:
        tracer.uninstall()
    untraced = run.passes(state, seconds / 2, min_passes=1)
    install(tracer)
    try:
        traced = run.passes(state, seconds / 2, min_passes=1, tracer=tracer, label="traced")
    finally:
        tracer.uninstall()

    trace_ids = [f"traced-{i}" for i in range(len(traced))]
    per_pass = [pass_metrics(tracer, tid) for tid in trace_ids]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    latencies = [
        d for tid in trace_ids for d in tracer.summarize(tid).get("llm.complete", {}).get("durations", [])
    ]
    metrics["llm.query_ms_p50"] = _percentile_ms(latencies, 50)
    metrics["llm.query_ms_p99"] = _percentile_ms(latencies, 99)
    metrics["synth.generate_s"] = statistics.median(
        tracer.summarize(f"setup-{k}").get("synth.generate", {}).get("s", 0.0)
        for k in range(len(run.setup_times))
    )

    wall_untraced = statistics.median(t for t, _ in untraced)
    wall_traced = statistics.median(t for t, _ in traced)
    shares = workload_shares(metrics, traced, wall_traced)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write_jsonl(trace_path)
    record.update(
        wall_untraced_s=wall_untraced, wall_traced_s=wall_traced,
        tracing_overhead_s=wall_traced - wall_untraced, shares=shares, spans=trace_path,
        untraced_passes=len(untraced), traced_passes=len(traced),
    )
    lines = [f"{name:<32} {metrics[name]:.6g} {UNITS[name]}" for name in UNITS]
    lines.append(
        f"tracing overhead {wall_traced - wall_untraced:+.4f} s  (traced wall_s {wall_traced:.4f} "
        f"over {len(traced)} passes, untraced {wall_untraced:.4f} over {len(untraced)})"
    )
    lines.extend(f"share {k} {v}" for k, v in shares.items())
    lines.append(f"spans written to {os.path.relpath(trace_path)}")
    return {name: (metrics[name], unit) for name, unit in UNITS.items()}, lines


def workload_shares(metrics: dict, traced, wall_traced: float) -> dict:
    """The measured facts WORKLOADS.md quotes for each workload."""
    shares = {}
    detail = traced[0][1].detail
    if "metrics" in detail:
        m = detail["metrics"]
        shares["queries_step1"] = m.queries_step1
        shares["queries_step2"] = m.queries_step2
        shares["repaired_spans_reported"] = m.repaired_spans
    shares["repair_hit_ratio"] = round(metrics["linearizer.repair_hit_ratio"], 4)
    shares["fewshot_share"] = round(metrics["qa.sample_fewshot.s"] / wall_traced, 4)
    shares["repair_share"] = round(metrics["linearizer.repair_span.s"] / wall_traced, 4)
    shares["llm_share"] = round(metrics["llm.complete.s"] / wall_traced, 4)
    shares["bootstrap_share"] = round(metrics["significance.bootstrap.s"] / wall_traced, 4)
    return shares
