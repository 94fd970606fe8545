"""Summary reporter: ``python -m repro obs report <run.jsonl>``.

Renders a telemetry run as aligned text tables: the manifest header,
a span timing breakdown (grouped by span name), histogram quantiles
(per-layer forward time, trial latency), counters (trials, tokens,
injections, Masked/SDC outcome tallies) and gauges.  Runs that carry
``serve.*`` instruments get a dedicated serving SLO section: TTFT /
TPOT / end-to-end latency quantiles, per-tenant throughput and the
load generator's offered-load sweep rows.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from repro.obs.export import RunData, read_run

__all__ = ["render_report", "report_path", "prompt_cache_line", "main"]


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return lines


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _span_section(run: RunData) -> list[str]:
    if not run.spans:
        return []
    grouped: dict[str, list[float]] = defaultdict(list)
    for span in run.spans:
        grouped[span.name].append(span.duration * 1e3)
    rows = []
    for name in sorted(grouped):
        durations = sorted(grouped[name])
        n = len(durations)
        total = sum(durations)
        rows.append(
            [
                name,
                str(n),
                _fmt(total),
                _fmt(total / n),
                _fmt(durations[n // 2]),
                _fmt(durations[min(n - 1, int(0.95 * (n - 1)))]),
                _fmt(durations[min(n - 1, int(0.99 * (n - 1)))]),
                _fmt(durations[-1]),
            ]
        )
    lines = ["", "== spans (ms) =="]
    lines += _table(
        ["name", "count", "total", "mean", "p50", "p95", "p99", "max"], rows
    )
    return lines


def _histogram_section(run: RunData) -> list[str]:
    if not run.metrics.histograms:
        return []
    rows = []
    for name in sorted(run.metrics.histograms):
        summary = run.metrics.histogram(name).summary()
        if summary["count"] == 0:
            continue
        rows.append(
            [
                name,
                str(summary["count"]),
                _fmt(summary["mean"]),
                _fmt(summary["p50"]),
                _fmt(summary["p95"]),
                _fmt(summary["p99"]),
                _fmt(summary["max"]),
            ]
        )
    lines = ["", "== histograms =="]
    lines += _table(["name", "count", "mean", "p50", "p95", "p99", "max"], rows)
    return lines


def _scalar_section(run: RunData) -> list[str]:
    lines = []
    if run.metrics.counters:
        lines += ["", "== counters =="]
        lines += _table(
            ["name", "value"],
            [
                [name, _fmt(counter.value)]
                for name, counter in sorted(run.metrics.counters.items())
            ],
        )
    if run.metrics.gauges:
        lines += ["", "== gauges =="]
        lines += _table(
            ["name", "value"],
            [
                [name, _fmt(gauge.value)]
                for name, gauge in sorted(run.metrics.gauges.items())
            ],
        )
    return lines


def _derived_section(run: RunData) -> list[str]:
    """Headline figures the raw instruments imply: tokens/sec and, for a
    campaign, its SDC rate, how many trials resumed a golden run, how
    much of their option scoring multiple-choice trials skipped, how
    wide its waves ran and which trials ran alone, and why."""
    lines = []
    counters = run.metrics.counters

    def count(name: str) -> int:
        return int(counters[name].value) if name in counters else 0

    tokens = counters.get("decode.tokens")
    decode_ms = run.metrics.histograms.get("decode.generate_ms")
    if tokens and decode_ms and decode_ms.total > 0:
        lines.append(
            f"tokens/sec (decode): {tokens.value / (decode_ms.total / 1e3):.1f}"
        )
    outcome_names = [n for n in counters if n.startswith("campaign.outcome.")]
    if outcome_names:
        total = sum(counters[n].value for n in outcome_names)
        masked = counters.get("campaign.outcome.masked")
        if total > 0:
            sdc = total - (masked.value if masked else 0.0)
            lines.append(f"SDC rate: {sdc / total:.3f} over {int(total)} trials")
    if "campaign.golden.builds" in counters:
        # Which path each generative trial took (repro.fi.golden): resumed
        # from its example's golden run, or prefilled and decoded in full;
        # and how many of the runs were decoded here against taken from an
        # earlier campaign on the same engine, examples and config; wave
        # rows a one-shot fault left on their run's state retired at the
        # struck step; and of the (row, block) pairs of wave steps, those
        # below a row's entry replayed the run instead of computing.
        resumed = count("engine.prefill_cache_hits")
        trials = resumed + count("engine.prefill_cache_misses")
        lines.append(
            f"golden runs: {resumed} of {trials} generative trials resumed"
            f" ({count('campaign.golden.replayed_tokens')} decode steps"
            f" replayed, {count('campaign.golden.unreached')} strikes never"
            f" reached, {count('campaign.wave.back_on_golden')} rows back on"
            f" golden, {count('campaign.wave.replayed_blocks')} of"
            f" {count('campaign.wave.row_blocks')} row-blocks replayed,"
            f" {count('campaign.golden.builds')} runs built,"
            f" {count('campaign.golden.shared')} reused)"
        )
    if "campaign.mc_golden.builds" in counters:
        # Reach-limited option scoring: one block pass is one option row
        # through one block, counted against the one-forward-per-option
        # reference; a shared row is a class member scored off its
        # leader's row, a refused trial one whose struck element the
        # mask bound did not admit.
        passes = count("campaign.mc_golden.block_passes")
        skipped = count("campaign.mc_golden.block_passes_skipped")
        lines.append(
            f"mc golden: {skipped} of {passes} block passes skipped"
            f" ({skipped / max(1, passes):.3f}),"
            f" {count('campaign.mc_golden.rows_reused')} option rows reused,"
            f" {count('campaign.mc_golden.rows_shared')} shared"
            f" ({count('campaign.mc_golden.share_refused')} trials refused),"
            f" {count('campaign.mc_golden.builds')} passes built,"
            f" {count('campaign.mc_golden.shared')} reused"
        )
    waves = [span for span in run.spans if span.name == "campaign.wave"]
    if waves:
        # How wide injected trials actually shared forwards.
        width = run.metrics.histogram("campaign.wave.width")
        # Generative waves only: option rows run no prompt forward.
        prompts = (
            f" {count('campaign.wave.prompt_forwards')} prompt forwards for"
            f" {count('campaign.wave.prompt_rows')} prompt rows,"
            if "campaign.wave.prompt_rows" in counters else ""
        )
        lines.append(
            f"waves: {sum(int(s.attrs.get('trials', 0)) for s in waves)} trials"
            f" in {len(waves)} waves, {width.count} shared forwards at mean"
            f" width {width.mean:.1f},{prompts}"
            f" {count('campaign.wave.fallbacks')} waves re-run one"
            " trial at a time"
        )
    # Which trials ran alone, and why — with waves or without any.
    prefix = "campaign.lone_trials."
    alone = {n[len(prefix):]: count(n) for n in counters if n.startswith(prefix)}
    if alone:
        why = ", ".join(f"{n} {reason}" for reason, n in sorted(alone.items()))
        lines.append(f"trials run alone: {sum(alone.values())} ({why})")
    if lines:
        lines = ["", "== derived =="] + lines
    return lines


def _flight_section(run: RunData) -> list[str]:
    """Recorder-aware forensics summary: where do SDCs come from?

    Groups flight-recorded trials by injection layer (outcome tallies
    per site) and summarizes how deep into the output the first
    divergent token lands for SDC trials — the aggregate view of the
    per-trial stories ``obs explain`` renders.
    """
    from repro.obs.flight import flight_records

    records = flight_records(run)
    if not records:
        return []
    by_layer: dict[str, dict[str, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    for record in records.values():
        layer = record.get("site", {}).get("layer_name", "?")
        by_layer[layer][record.get("outcome", "?")] += 1
    outcomes = sorted({o for tally in by_layer.values() for o in tally})
    rows = [
        [layer, *(str(by_layer[layer][o]) for o in outcomes)]
        for layer in sorted(by_layer)
    ]
    lines = ["", "== flight: outcomes by injection layer =="]
    lines += _table(["layer", *outcomes], rows)
    depths = sorted(
        record["divergence"]["index"]
        for record in records.values()
        if record.get("divergence") is not None
        and record.get("outcome") != "masked"
    )
    if depths:
        n = len(depths)
        lines += [
            "",
            "== flight: SDC divergence depth (first divergent token) ==",
            f"trials {n}  min {depths[0]}  p50 {depths[n // 2]}"
            f"  max {depths[-1]}",
        ]
    return lines


def prompt_cache_line(counters: dict[str, float], tokens: float) -> str | None:
    """The ``prompt cache:`` line from ``serve.prompt_cache.*`` counter
    values and the resident-token gauge, or ``None`` without counters:
    how many admissions started from a cached prefill, ran the prompt
    forward and stored it, or went around the cache and why."""
    prefix = "serve.prompt_cache."
    if not any(name.startswith(prefix) for name in counters):
        return None

    def count(name: str) -> int:
        return int(counters.get(prefix + name, 0))

    bypass = {
        name[len(prefix + "bypass."):]: int(value)
        for name, value in sorted(counters.items())
        if name.startswith(prefix + "bypass.")
    }
    why = ", ".join(f"{reason} {n}" for reason, n in bypass.items())
    return (
        f"prompt cache: {count('hits')} hits, {count('misses')} misses,"
        f" {sum(bypass.values())} bypassed{f' ({why})' if why else ''},"
        f" {count('evictions')} evictions, {int(tokens)} tokens resident"
    )


def _serve_section(run: RunData) -> list[str]:
    """Dedicated serving SLO view: TTFT / TPOT / end-to-end latency /
    queue depth / batch occupancy quantiles, the prompt cache's hit
    counts, per-tenant throughput and speculative accept lengths, and
    any ``serve_load_point`` sweep rows the load generator recorded."""
    histograms = run.metrics.histograms
    counters = run.metrics.counters
    slo_names = [
        name
        for name in (
            "serve.ttft_ms",
            "serve.tpot_ms",
            "serve.e2e_ms",
            "serve.queue_depth",
            "serve.batch_occupancy",
        )
        if name in histograms and histograms[name].summary()["count"] > 0
    ]
    tenant_tokens = sorted(
        name
        for name in counters
        if name.startswith("serve.tenant.") and name.endswith(".tokens")
    )
    load_points = run.of_kind("serve_load_point")
    gauge = run.metrics.gauges.get("serve.prompt_cache.tokens")
    cache_line = prompt_cache_line(
        {name: counter.value for name, counter in counters.items()},
        gauge.value if gauge else 0,
    )
    if not slo_names and not tenant_tokens and not load_points and not cache_line:
        return []
    lines = ["", "== serving SLOs =="]
    if slo_names:
        rows = []
        for name in slo_names:
            summary = histograms[name].summary()
            rows.append(
                [
                    name,
                    str(summary["count"]),
                    _fmt(summary["mean"]),
                    _fmt(summary["p50"]),
                    _fmt(summary["p95"]),
                    _fmt(summary["p99"]),
                    _fmt(summary["max"]),
                ]
            )
        lines += _table(
            ["instrument", "count", "mean", "p50", "p95", "p99", "max"], rows
        )
    if cache_line:
        lines.append(cache_line)
    if tenant_tokens:
        # Per-tenant speculative accept lengths (recorded by the
        # server's draft-and-verify rounds) sit next to throughput so
        # accept-rate collapse under mixed traffic is visible per
        # tenant, not just in the global decode histogram.
        any_accept = any(
            f"serve.tenant.{n[len('serve.tenant.'):-len('.tokens')]}"
            f".spec_accept_len" in histograms
            for n in tenant_tokens
        )
        rows = []
        for name in tenant_tokens:
            tenant = name[len("serve.tenant.") : -len(".tokens")]
            requests = counters.get(f"serve.tenant.{tenant}.requests")
            row = [
                tenant,
                _fmt(requests.value) if requests else "-",
                _fmt(counters[name].value),
            ]
            if any_accept:
                accept = histograms.get(
                    f"serve.tenant.{tenant}.spec_accept_len"
                )
                if accept is not None and accept.summary()["count"] > 0:
                    summary = accept.summary()
                    row += [
                        _fmt(summary["mean"]),
                        _fmt(summary["p50"]),
                        str(summary["count"]),
                    ]
                else:
                    row += ["-", "-", "-"]
            rows.append(row)
        header = ["tenant", "requests", "tokens"]
        if any_accept:
            header += ["accept mean", "accept p50", "rounds"]
        lines += ["", "== serving tenants =="]
        lines += _table(header, rows)
    if load_points:
        rows = [
            [
                _fmt(point.get("offered_rps", float("nan"))),
                str(point.get("completed", "-")),
                str(point.get("rejected", "-")),
                _fmt(point.get("throughput_tps", float("nan"))),
                _fmt(point.get("ttft_ms", {}).get("p50", float("nan"))),
                _fmt(point.get("ttft_ms", {}).get("p99", float("nan"))),
                _fmt(point.get("latency_ms", {}).get("p50", float("nan"))),
                _fmt(point.get("latency_ms", {}).get("p99", float("nan"))),
            ]
            for point in load_points
        ]
        lines += ["", "== serving load sweep =="]
        lines += _table(
            [
                "offered rps",
                "done",
                "shed",
                "tok/s",
                "ttft p50",
                "ttft p99",
                "e2e p50",
                "e2e p99",
            ],
            rows,
        )
    return lines


def render_report(run: RunData) -> str:
    manifest = run.manifest
    lines = [
        "== run manifest ==",
        f"command        {manifest.get('command')}",
        f"seed           {manifest.get('seed')}",
        f"config hash    {manifest.get('config_hash')}",
        f"schema         v{manifest.get('schema_version')}",
        f"git rev        {manifest.get('git_rev')}",
        f"created        {manifest.get('created_iso')}",
        "packages       "
        + ", ".join(
            f"{k}={v}" for k, v in sorted(manifest.get("packages", {}).items())
        ),
    ]
    scaleout = manifest.get("scaleout")
    if scaleout:
        lines.append(f"scale-out      {scaleout.get('workers')} workers")
    lines += _span_section(run)
    lines += _histogram_section(run)
    lines += _scalar_section(run)
    lines += _serve_section(run)
    lines += _flight_section(run)
    lines += _derived_section(run)
    return "\n".join(lines)


def render_comparison(runs: list[tuple[str, RunData]]) -> str:
    """Side-by-side counter/histogram diff across several runs.

    One column per run; with exactly two runs a delta column is added
    (second minus first) — the view used to quantify e.g. the flight
    recorder's overhead against a recorder-off run of the same
    campaign.
    """
    labels = [label for label, _ in runs]
    lines = ["== run comparison ==", "runs: " + ", ".join(labels)]
    counter_names = sorted(
        {name for _, run in runs for name in run.metrics.counters}
    )
    if counter_names:
        rows = []
        for name in counter_names:
            values = [
                run.metrics.counters.get(name) for _, run in runs
            ]
            row = [name] + [
                _fmt(v.value) if v is not None else "-" for v in values
            ]
            if len(runs) == 2 and None not in values:
                row.append(_fmt(values[1].value - values[0].value))
            elif len(runs) == 2:
                row.append("-")
            rows.append(row)
        headers = ["counter", *labels] + (["delta"] if len(runs) == 2 else [])
        lines += ["", "== counters =="]
        lines += _table(headers, rows)
    histogram_names = sorted(
        {name for _, run in runs for name in run.metrics.histograms}
    )
    if histogram_names:
        rows = []
        for name in histogram_names:
            for stat in ("count", "mean", "p95"):
                row = [name if stat == "count" else "", stat]
                cells = []
                for _, run in runs:
                    histogram = run.metrics.histograms.get(name)
                    summary = (
                        histogram.summary() if histogram is not None else None
                    )
                    cells.append(
                        _fmt(summary[stat])
                        if summary and summary["count"]
                        else "-"
                    )
                rows.append(row + cells)
        lines += ["", "== histograms =="]
        lines += _table(["name", "stat", *labels], rows)
    return "\n".join(lines)


def _comparison_labels(paths: list[str]) -> list[str]:
    """Shortest distinct labels for the compared runs (basenames, or
    full paths when basenames collide)."""
    names = [Path(p).name for p in paths]
    return names if len(set(names)) == len(names) else [str(p) for p in paths]


def report_path(path: str | Path) -> str:
    """Load a run file and render its report."""
    return render_report(read_run(path))


def main(argv: list[str]) -> int:
    """Entry point for the ``obs report`` subcommand."""
    import sys

    from repro.obs.manifest import SchemaMismatchError

    if not argv:
        print("usage: python -m repro obs report <run.jsonl> [more.jsonl ...]")
        return 2
    status = 0
    loaded: list[tuple[str, RunData]] = []
    for path, label in zip(argv, _comparison_labels(argv)):
        try:
            run = read_run(path)
        except FileNotFoundError:
            print(f"error: no such run file: {path}", file=sys.stderr)
            status = 1
            continue
        except (ValueError, SchemaMismatchError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        loaded.append((label, run))
        print(render_report(run))
    if len(loaded) > 1:
        print()
        print(render_comparison(loaded))
    return status
