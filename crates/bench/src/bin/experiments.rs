//! Prints the full experiment tables.
//!
//! ```text
//! cargo run -p onion-bench --release --bin experiments
//! cargo run -p onion-bench --release --bin experiments -- --json [PATH]
//! cargo run -p onion-bench --release --bin experiments -- --metrics
//! ```
//!
//! Each section regenerates one experiment (E1–E2, B1–B8) and
//! prints the series in "who wins, by what factor, where is the
//! crossover" form. Wall times are medians of several in-process
//! repetitions — indicative shapes, not Criterion-grade statistics (use
//! `cargo bench` for those).
//!
//! With `--json` the binary instead runs the machine-readable baseline
//! suite — the graph hot-path set on the testkit 10k-node / 50k-edge
//! tier (each series repeated ≥5× with the min/max spread recorded),
//! the B1/B4 end-to-end medians, the B10 parallel-throughput matrix
//! (1/2/4/available-parallelism threads, with byte-identical results
//! asserted against the sequential path), and the B11
//! incremental-publish curve (publish latency vs dirty-shard fraction,
//! with exact rebuild accounting asserted) — and writes it to `PATH`
//! (default `BENCH_onion.json`); this is the smoke step CI runs on
//! every push. An optional `--compare BASE` reads a previously
//! committed baseline and applies the two-tier regression gate: >2×
//! prints a `::warning::`, >3× prints an `::error::` and **fails the
//! run** (exit 1). The thresholds carry a variance margin: the
//! recorded per-series spreads (slowest/fastest repetition) sit well
//! under 2× on an idle host, so a 3× median regression is signal, not
//! noise — see the committed `spread` fields for the measured margin.
//!
//! `--metrics` (composable with either mode) turns `onion-obs`
//! recording on before the run and dumps the Prometheus text export of
//! the global registry after it — the quickest way to see what the
//! instrumented layers observed during a full experiment sweep.

use onion_bench::{articulated, instance_kbs, median_micros, pair, truth_rules};
use onion_core::algebra::compose::{add_source, compose_all};
use onion_core::articulate::maintain::{apply_delta, rebuild, triage};
use onion_core::prelude::*;
use onion_core::rules::atoms::AtomTable;
use onion_core::rules::horn::HornProgram;
use onion_core::rules::infer::{FactBase, InferenceEngine, Strategy};
use onion_core::testkit::{
    generate_ontology, precision_recall, update_stream, GlobalMerge, OntologySpec, UpdateSpec,
};

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.0} µs")
    }
}

/// Before/after medians (µs) for the hot-path set, both measured on
/// the *same* dev machine in the session that landed the label-indexed
/// adjacency layer ("pre" = string-compare `admits`, set-probe
/// `find_edge`; "post" = the id layer). Emitted as a self-contained
/// `index_layer_reference` block so the trajectory the PR banked stays
/// on record; the live `results` medians are machine-local and are
/// deliberately NOT compared against these — a ratio across different
/// machines would conflate hardware with the code change.
const INDEX_LAYER_REFERENCE_US: &[(&str, f64, f64)] = &[
    ("transitive_pairs_subclass", 12650.3, 2039.6),
    ("out_neighbors_subclass_sweep", 550.2, 311.4),
    ("descendants_root", 1430.6, 480.5),
    ("bfs_backward_subclass", 1332.0, 401.4),
    ("reachable_verbs", 3204.8, 1291.6),
    ("find_edge_all_triples", 4748.8, 3652.3),
];

/// Before/after medians (µs) for the `find_edge` point-probe, both
/// measured on the same dev machine when the open-addressed inline-key
/// table (`onion_graph::edge_index`) replaced the `HashMap`-backed edge
/// index: "pre" = `FxHashMap<(NodeId, LabelId, NodeId), EdgeId>` probe,
/// "post" = one flat-array probe with the key inline (ROADMAP
/// "Point-probe latency"). Same-machine pair — like
/// `index_layer_reference`, not comparable against the live
/// machine-local `results`.
const POINT_PROBE_REFERENCE_US: (f64, f64) = (4013.5, 3224.4);

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = args.iter().any(|a| a == "--metrics");
    args.retain(|a| a != "--metrics");
    if metrics {
        onion_core::obs::set_enabled(true);
    }
    if args.first().map(String::as_str) == Some("--json") {
        let compare_at = args.iter().position(|a| a == "--compare");
        let base = compare_at.and_then(|i| args.get(i + 1)).cloned();
        let path = args
            .get(1)
            .filter(|_| compare_at != Some(1))
            .map(String::as_str)
            .unwrap_or("BENCH_onion.json");
        emit_json(path);
        if metrics {
            dump_metrics();
        }
        if let Some(base) = base {
            compare_baselines(&base, path);
        }
        return;
    }
    println!("# ONION reproduction — experiment run\n");
    e1_fig2();
    e2_pipeline();
    b1_maintenance();
    b2_generation();
    b2b_matcher_ablation();
    b3_patterns();
    b4_query();
    b5_algebra();
    b6_inference();
    b7_compose();
    b8_triage();
    b14_observability();
    b15_query_cache();
    if metrics {
        dump_metrics();
    }
    println!("\ndone.");
}

/// Prints the Prometheus text export of the global `onion-obs`
/// registry — the `--metrics` payload, emitted after the selected run
/// so the samples reflect the whole sweep.
fn dump_metrics() {
    println!("\n## onion-obs metrics (Prometheus text format)\n");
    print!("{}", onion_core::obs::global().snapshot().to_prometheus());
}

/// One end-to-end median series entry for the baseline file.
struct EndToEnd {
    name: &'static str,
    median_us: f64,
    reps: usize,
}

/// B1 end-to-end: incremental articulation maintenance after a 20-op
/// update stream at the 1000-concept tier.
fn b1_end_to_end_median() -> EndToEnd {
    let p = pair(11, 1000, 0.1);
    let art = articulated(&p);
    let generator = ArticulationGenerator::new();
    let spec = UpdateSpec { seed: 3, ops: 20, bridged_fraction: 0.1, delete_fraction: 0.2 };
    let ops = update_stream(&p.left, &art, &spec);
    let mut g = p.left.graph().clone();
    onion_core::graph::ops::apply_all(&mut g, &ops).unwrap();
    let evolved = Ontology::from_graph(g).unwrap();
    let reps = 9;
    let median_us = median_micros(reps, || {
        let mut a = art.clone();
        apply_delta(&mut a, "left", &ops, &[&evolved, &p.right], &generator, None).unwrap();
    });
    EndToEnd { name: "b1_incremental_1000c", median_us, reps }
}

/// B4 end-to-end: cross-source query (plan + execute) over 10k
/// instances per side.
fn b4_end_to_end_median() -> EndToEnd {
    let p = pair(31, 400, 0.25);
    let art = articulated(&p);
    let (lkb, rkb) = instance_kbs(&p, 10_000);
    let lw = InMemoryWrapper::new(lkb);
    let rw = InMemoryWrapper::new(rkb);
    let conversions = ConversionRegistry::standard();
    let class = p.truth[0].1.split_once('.').unwrap().1.to_string();
    let query = Query::all(&class).select("Price").filter("Price", CmpOp::Lt, Value::Num(25_000.0));
    let sources: Vec<&Ontology> = vec![&p.left, &p.right];
    let wrappers: Vec<&dyn Wrapper> = vec![&lw, &rw];
    let reps = 7;
    let median_us = median_micros(reps, || {
        execute(&query, &art, &sources, &conversions, &wrappers).unwrap();
    });
    EndToEnd { name: "b4_query_10k_inst", median_us, reps }
}

/// Runs the baseline suite (hot paths + end-to-end medians + the B10
/// parallel matrix + the B11 incremental-publish curve + the B12
/// inference-seam series + the B13 durability series + the B14
/// observability-overhead pairs) and writes `BENCH_onion.json`.
/// Hand-rolled JSON: the workspace is offline, no serde.
fn emit_json(path: &str) {
    let tier = onion_bench::hotpaths::tier();
    eprintln!(
        "running graph hot-path set on the {} -node / {} -edge tier …",
        tier.nodes, tier.edges
    );
    let results = onion_bench::hotpaths::run_all();
    eprintln!("running end-to-end medians (B1 incremental, B4 query) …");
    let end_to_end = [b1_end_to_end_median(), b4_end_to_end_median()];
    eprintln!("running B10 parallel batches (byte-identity asserted per thread count) …");
    let b10 = onion_bench::parallel::run_b10();
    eprintln!("running B11 incremental publish (exact dirty-shard rebuilds asserted) …");
    let b11 = onion_bench::publish::run_b11();
    eprintln!("running B12 inference seam (string/interned fact-set identity asserted) …");
    let b12 = onion_bench::inference::run_b12();
    eprintln!("running B13 durability (WAL append / checkpoint / recovery, exactness asserted) …");
    let b13 = onion_bench::durability::run_b13();
    eprintln!("running B14 observability overhead (disabled vs enabled recording) …");
    let b14 = onion_bench::observability::run_b14(5);
    eprintln!("running B15 query cache (checksums + hit ratio + 10x warm bar asserted) …");
    let b15 = onion_bench::cache::run_b15(5);
    let mut body = String::new();
    body.push_str("{\n  \"schema\": \"onion-bench/v10\",\n");
    body.push_str(&format!(
        "  \"tier\": {{ \"seed\": {}, \"nodes\": {}, \"edges\": {} }},\n",
        tier.seed, tier.nodes, tier.edges
    ));
    body.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{ \"name\": \"{}\", \"median_us\": {:.1}, \"min_us\": {:.1}, \"max_us\": \
             {:.1}, \"spread\": {:.2}, \"reps\": {}, \"checksum\": {} }}{}\n",
            r.name,
            r.median_us,
            r.min_us,
            r.max_us,
            r.spread(),
            r.reps,
            r.checksum,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"end_to_end\": [\n");
    for (i, e) in end_to_end.iter().enumerate() {
        body.push_str(&format!(
            "    {{ \"name\": \"{}\", \"median_us\": {:.1}, \"reps\": {} }}{}\n",
            e.name,
            e.median_us,
            e.reps,
            if i + 1 == end_to_end.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n");
    // checksum is a full-range u64 — emitted as a hex string because
    // bare JSON numbers above 2^53 lose precision in most consumers
    body.push_str(&format!(
        "  \"b10_parallel\": {{\n    \"closure_sources\": {}, \"batch_queries\": {}, \
         \"available_parallelism\": {}, \"checksum\": \"{:#018x}\",\n    \"rows\": [\n",
        b10.closure_sources, b10.batch_queries, b10.available_parallelism, b10.rows[0].checksum
    ));
    for (i, row) in b10.rows.iter().enumerate() {
        body.push_str(&format!(
            "      {{ \"threads\": {}, \"closure_us\": {:.1}, \"closure_per_sec\": {:.0}, \
             \"closure_speedup\": {:.2}, \"query_us\": {:.1}, \"query_per_sec\": {:.0}, \
             \"query_speedup\": {:.2} }}{}\n",
            row.threads,
            row.closure_us,
            row.closure_per_sec,
            b10.closure_speedup(row),
            row.query_us,
            row.query_per_sec,
            b10.query_speedup(row),
            if i + 1 == b10.rows.len() { "" } else { "," }
        ));
    }
    body.push_str("    ]\n  },\n");
    body.push_str(&format!(
        "  \"b11_incremental_publish\": {{\n    \"nodes\": {}, \"edges\": {}, \"shards\": {}, \
         \"reps\": {},\n    \"rows\": [\n",
        b11.nodes, b11.edges, b11.shards, b11.reps
    ));
    for (i, row) in b11.rows.iter().enumerate() {
        body.push_str(&format!(
            "      {{ \"dirty_shards\": {}, \"fraction\": {:.3}, \"median_us\": {:.1}, \
             \"min_us\": {:.1}, \"max_us\": {:.1}, \"speedup_vs_full\": {:.2} }}{}\n",
            row.dirty_shards,
            row.fraction,
            row.median_us,
            row.min_us,
            row.max_us,
            b11.speedup_vs_full(row),
            if i + 1 == b11.rows.len() { "" } else { "," }
        ));
    }
    body.push_str("    ]\n  },\n");
    body.push_str(&format!(
        "  \"b12_inference\": {{\n    \"note\": \"seeded FactBase build + saturation on the \
         10k-class tree tier; b12_seed_string_10k is the frozen pre-refactor string engine \
         (onion_rules::reference), the interned series are the AtomId path (cold = empty \
         table, warm = shared-table steady state); the *_deep10k rows saturate the 10k-class \
         deep-hierarchy tier (500 chains x 20 deep) with the naive loop, the semi-naive \
         engine, and the 4-thread shard-parallel engine; fact sets, checksums, and \
         derivation counts are asserted identical across engines (and across thread counts) \
         before timing\",\n    \"classes\": {}, \
         \"seeded_facts\": {}, \"derived\": {},\n    \"deep_classes\": {}, \
         \"deep_seeded\": {}, \"deep_derived\": {}, \"deep_rounds\": {},\n    \"rows\": [\n",
        b12.classes,
        b12.seeded_facts,
        b12.derived,
        b12.deep_classes,
        b12.deep_seeded,
        b12.deep_derived,
        b12.deep_rounds
    ));
    for (i, r) in b12.rows.iter().enumerate() {
        body.push_str(&format!(
            "      {{ \"name\": \"{}\", \"median_us\": {:.1}, \"min_us\": {:.1}, \"max_us\": \
             {:.1}, \"spread\": {:.2}, \"reps\": {}, \"checksum\": {} }}{}\n",
            r.name,
            r.median_us,
            r.min_us,
            r.max_us,
            r.spread(),
            r.reps,
            r.checksum,
            if i + 1 == b12.rows.len() { "" } else { "," }
        ));
    }
    body.push_str("    ]\n  },\n");
    body.push_str(&format!(
        "  \"b13_durability\": {{\n    \"note\": \"durable WAL stack on the tier: \
         b13_wal_append_1k_ops is one group-flushed committed batch of {} EdgeAdd ops \
         (Begin..Commit, one write + sync_data; checksum = final LSN); the checkpoint rows \
         dirty k of 64 shards with the B11 content-neutral self-loop probe and assert the \
         checkpoint rewrote exactly k shards and reused 64-k; the recover rows reopen a \
         WAL-only directory (no manifest shortcut) and assert the replayed edge count\",\n    \
         \"nodes\": {}, \"edges\": {}, \"shards\": {}, \"reps\": {}, \"batch_ops\": {},\n    \
         \"rows\": [\n",
        onion_bench::durability::B13_BATCH_OPS,
        b13.nodes,
        b13.edges,
        b13.shards,
        b13.reps,
        onion_bench::durability::B13_BATCH_OPS
    ));
    for (i, r) in b13.rows.iter().enumerate() {
        body.push_str(&format!(
            "      {{ \"name\": \"{}\", \"median_us\": {:.1}, \"min_us\": {:.1}, \"max_us\": \
             {:.1}, \"spread\": {:.2}, \"reps\": {}, \"checksum\": {} }}{}\n",
            r.name,
            r.median_us,
            r.min_us,
            r.max_us,
            r.spread(),
            r.reps,
            r.checksum,
            if i + 1 == b13.rows.len() { "" } else { "," }
        ));
    }
    body.push_str("    ]\n  },\n");
    body.push_str(&format!(
        "  \"b14_observability\": {{\n    \"note\": \"onion-obs recording overhead: each \
         workload timed with recording disabled (the production default — one relaxed atomic \
         load per instrumented site) and enabled (striped relaxed fetch_add); publish = {} \
         one-dirty-shard publish rounds on the B11 fixture, infer = semi-naive saturation of \
         a {}-node transitivity chain (derivation count asserted identical in both modes), \
         count_burst = {} bare count!+observe_us! macro hits; overhead_* = enabled/disabled \
         median ratio\",\n    \"publish_rounds\": {}, \"chain\": {}, \"burst\": {}, \"reps\": \
         {},\n    \"overhead_publish\": {:.2}, \"overhead_infer\": {:.2}, \
         \"overhead_count_burst\": {:.2},\n    \"rows\": [\n",
        onion_bench::observability::B14_PUBLISH_ROUNDS,
        onion_bench::observability::B14_CHAIN,
        onion_bench::observability::B14_BURST,
        onion_bench::observability::B14_PUBLISH_ROUNDS,
        onion_bench::observability::B14_CHAIN,
        onion_bench::observability::B14_BURST,
        b14.rows[0].reps,
        b14.overhead("publish"),
        b14.overhead("infer"),
        b14.overhead("count_burst"),
    ));
    for (i, r) in b14.rows.iter().enumerate() {
        body.push_str(&format!(
            "      {{ \"name\": \"{}\", \"median_us\": {:.1}, \"min_us\": {:.1}, \"max_us\": \
             {:.1}, \"reps\": {} }}{}\n",
            r.name,
            r.median_us,
            r.min_us,
            r.max_us,
            r.reps,
            if i + 1 == b14.rows.len() { "" } else { "," }
        ));
    }
    body.push_str("    ]\n  },\n");
    body.push_str(&format!(
        "  \"b15_query_cache\": {{\n    \"note\": \"epoch-keyed hot-result cache on the \
         serving path: cold_miss republishes before every rep (fresh state epoch, so every \
         lookup misses and pays full plan + execute), warm_hit repeats the identical \
         {}-query batch at a pinned epoch (every result served from cache; hit ratio \
         asserted > 0.999), publish_storm edits + publishes then runs the batch twice per \
         rep (re-execute, then hit) with per-rep checksum equality asserted — the \
         stale-read kill-switch. The >=10x warm-vs-cold bar and all checksums are asserted \
         inside the run, not just recorded\",\n    \"queries\": {}, \"concepts\": {}, \
         \"instances\": {}, \"reps\": {},\n    \"speedup_warm_vs_cold\": {:.1}, \
         \"warm_hit_ratio\": {:.4}, \"checksum\": \"{:#018x}\",\n    \"rows\": [\n",
        onion_bench::cache::B15_QUERIES,
        onion_bench::cache::B15_QUERIES,
        onion_bench::cache::B15_CONCEPTS,
        onion_bench::cache::B15_INSTANCES,
        b15.rows[0].reps,
        b15.speedup,
        b15.warm_hit_ratio,
        b15.checksum,
    ));
    for (i, r) in b15.rows.iter().enumerate() {
        body.push_str(&format!(
            "      {{ \"name\": \"{}\", \"median_us\": {:.1}, \"min_us\": {:.1}, \"max_us\": \
             {:.1}, \"reps\": {} }}{}\n",
            r.name,
            r.median_us,
            r.min_us,
            r.max_us,
            r.reps,
            if i + 1 == b15.rows.len() { "" } else { "," }
        ));
    }
    body.push_str("    ]\n  },\n");
    body.push_str(&format!(
        "  \"point_probe_reference\": {{\n    \"note\": \"pre/post find_edge_all_triples \
         medians for the open-addressed inline-key edge index, both measured on the same \
         dev machine when it landed; same-machine speedup — do not compare against the \
         machine-local 'results' above\",\n    \"pre_us\": {:.1}, \"post_us\": {:.1}, \
         \"speedup\": {:.2}\n  }},\n",
        POINT_PROBE_REFERENCE_US.0,
        POINT_PROBE_REFERENCE_US.1,
        POINT_PROBE_REFERENCE_US.0 / POINT_PROBE_REFERENCE_US.1
    ));
    body.push_str(
        "  \"index_layer_reference\": {\n    \"note\": \"pre/post medians for the \
         label-indexed adjacency layer, both measured on the same dev machine when it \
         landed (PR 2); same-machine speedups — do not compare against the machine-local \
         'results' above\",\n    \"series\": [\n",
    );
    for (i, (name, pre, post)) in INDEX_LAYER_REFERENCE_US.iter().enumerate() {
        body.push_str(&format!(
            "      {{ \"name\": \"{name}\", \"pre_us\": {pre:.1}, \"post_us\": {post:.1}, \
             \"speedup\": {:.2} }}{}\n",
            pre / post,
            if i + 1 == INDEX_LAYER_REFERENCE_US.len() { "" } else { "," }
        ));
    }
    body.push_str("    ]\n  }\n}\n");
    std::fs::write(path, &body).expect("baseline file is writable");
    for r in &results {
        println!("{:<32} {}", r.name, fmt_us(r.median_us));
    }
    for e in &end_to_end {
        println!("{:<32} {}", e.name, fmt_us(e.median_us));
    }
    for row in &b10.rows {
        println!(
            "b10 {:>2} thread(s): closure {} ({:.0}/s, {:.2}x)  query {} ({:.0}/s, {:.2}x)",
            row.threads,
            fmt_us(row.closure_us),
            row.closure_per_sec,
            b10.closure_speedup(row),
            fmt_us(row.query_us),
            row.query_per_sec,
            b10.query_speedup(row)
        );
    }
    if b10.available_parallelism < 2 {
        println!(
            "note: host reports available_parallelism = {}; B10 speedups are not meaningful here",
            b10.available_parallelism
        );
    }
    for row in &b11.rows {
        println!(
            "b11 {:>2}/{} dirty shards: publish {} ({:.2}x vs full rebuild)",
            row.dirty_shards,
            b11.shards,
            fmt_us(row.median_us),
            b11.speedup_vs_full(row)
        );
    }
    for r in &b12.rows {
        println!("{:<32} {}", r.name, fmt_us(r.median_us));
    }
    let (string_build, interned_warm) = (b12.rows[0].median_us, b12.rows[2].median_us);
    println!(
        "b12 seeded build: interned-warm is {:.2}x the string baseline ({} facts, {} derived)",
        string_build / interned_warm,
        b12.seeded_facts,
        b12.derived
    );
    let (naive_deep, semi_deep) = (b12.rows[4].median_us, b12.rows[6].median_us);
    println!(
        "b12 deep tier: semi-naive warm is {:.2}x the naive loop ({} seeds, {} derived, {} \
         rounds)",
        naive_deep / semi_deep,
        b12.deep_seeded,
        b12.deep_derived,
        b12.deep_rounds
    );
    for r in &b13.rows {
        println!("{:<32} {}", r.name, fmt_us(r.median_us));
    }
    for r in &b14.rows {
        println!("{:<32} {}", r.name, fmt_us(r.median_us));
    }
    println!(
        "b14 overhead (enabled/disabled): publish {:.2}x  infer {:.2}x  count_burst {:.2}x",
        b14.overhead("publish"),
        b14.overhead("infer"),
        b14.overhead("count_burst")
    );
    for r in &b15.rows {
        println!("{:<32} {}", r.name, fmt_us(r.median_us));
    }
    println!(
        "b15 query cache: warm hits {:.1}x faster than cold misses (hit ratio {:.4})",
        b15.speedup, b15.warm_hit_ratio
    );
    let worst_spread =
        results.iter().map(onion_bench::hotpaths::BenchResult::spread).fold(1.0f64, f64::max);
    println!(
        "hot-path run-to-run spread (max over series, slowest/fastest rep): {worst_spread:.2}x"
    );
    println!("wrote {path}");
}

/// Extracts every `"name": …, "median_us": …` series from one of our
/// baseline files (writer keeps each entry on one line, so a line scan
/// is a complete parser for this format — the workspace has no serde).
fn parse_medians(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else { continue };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else { continue };
        let name = &rest[..name_end];
        let Some(med_at) = line.find("\"median_us\": ") else { continue };
        let med_rest = &line[med_at + 13..];
        let med_str: String =
            med_rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        if let Ok(v) = med_str.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

/// Warn-only threshold on the machine-normalised ratio: past this a
/// series prints a `::warning::`.
const WARN_RATIO: f64 = 2.0;
/// Failure threshold on the machine-normalised ratio: past this a
/// series prints an `::error::` and the run exits non-zero.
///
/// The comparison never gates on absolute timings — the committed
/// baseline comes from a different machine than the CI runner. Each
/// series' raw ratio (fresh/base) is divided by the **median ratio
/// across all series**, which absorbs a uniformly slower or faster
/// host: if every series is 4× slower, every normalised ratio is 1×
/// and nothing fires; if one series is 4× slower while its peers hold
/// at 1×, that one fires. The 2×→3× gap is the variance margin,
/// calibrated on this (shared, noisy) dev container: per-repetition
/// tails spike to ~2.5× (the committed `spread` fields record
/// slowest/fastest of ≥5 reps), but the *medians* the gate compares
/// moved < 1.5× per series across repeated runs — and under 1.25×
/// after machine-factor normalisation — so a normalised 3× median
/// cannot be noise; it is a shape change in the code.
const FAIL_RATIO: f64 = 3.0;

/// Compares a freshly written baseline against a committed one on
/// machine-normalised ratios (see [`FAIL_RATIO`]): `::warning::` past
/// 2×, `::error::` plus a non-zero exit past 3×. GitHub Actions
/// surfaces both and the exit code fails the CI step.
fn compare_baselines(base_path: &str, new_path: &str) {
    let Ok(base_text) = std::fs::read_to_string(base_path) else {
        println!("compare: no baseline at {base_path}, skipping");
        return;
    };
    let new_text = std::fs::read_to_string(new_path).expect("just wrote it");
    let base = parse_medians(&base_text);
    let fresh = parse_medians(&new_text);
    let mut ratios: Vec<(String, f64, f64, f64)> = Vec::new(); // (name, base, fresh, ratio)
    for (name, new_med) in &fresh {
        let Some((_, base_med)) = base.iter().find(|(n, _)| n == name) else { continue };
        if *base_med > 0.0 && *new_med > 0.0 {
            ratios.push((name.clone(), *base_med, *new_med, new_med / base_med));
        }
    }
    if ratios.len() < 3 {
        println!("compare: only {} common series vs {base_path}, skipping", ratios.len());
        return;
    }
    // the median ratio is the machine-speed factor between the host
    // that committed the baseline and this one
    let mut sorted: Vec<f64> = ratios.iter().map(|r| r.3).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let machine_factor = sorted[sorted.len() / 2];
    println!(
        "compare: machine-speed factor vs {base_path}: {machine_factor:.2}x (median over {} \
         series)",
        ratios.len()
    );
    // normalisation absorbs a uniformly slower host — but it would
    // equally absorb a code change that pessimises *most* series.
    // Surface a large factor so a human distinguishes the two (a slow
    // runner is fine; a code-wide regression warrants a re-baseline
    // review), without false-failing on legitimately slower hardware.
    if machine_factor > FAIL_RATIO {
        println!(
            "::warning::machine-speed factor is {machine_factor:.1}x — either this host is much \
             slower than the baseline machine, or a code change slowed most series uniformly; \
             check the dimensionless B10/B11 speedup columns before trusting the normalised gate"
        );
    }
    let mut warned = 0;
    let mut failed = 0;
    for (name, base_med, new_med, ratio) in &ratios {
        let norm = ratio / machine_factor;
        if norm > FAIL_RATIO {
            failed += 1;
            println!(
                "::error::bench regression: {name} {} -> {} ({norm:.1}x normalised, limit \
                 {FAIL_RATIO}x)",
                fmt_us(*base_med),
                fmt_us(*new_med),
            );
        } else if norm > WARN_RATIO {
            warned += 1;
            println!(
                "::warning::bench regression: {name} {} -> {} ({norm:.1}x normalised)",
                fmt_us(*base_med),
                fmt_us(*new_med),
            );
        }
    }
    if warned == 0 && failed == 0 {
        println!("compare: no series regressed by more than {WARN_RATIO}x (normalised)");
    } else {
        println!(
            "compare: {warned} series past {WARN_RATIO}x (warning), {failed} past {FAIL_RATIO}x \
             (failure), normalised"
        );
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

/// B14 table: observability overhead, recording disabled vs enabled,
/// per instrumented workload.
fn b14_observability() {
    println!("## B14 — observability overhead\n");
    let report = onion_bench::observability::run_b14(5);
    println!("| series | median | min | max |");
    println!("|---|---|---|---|");
    for row in &report.rows {
        println!(
            "| {} | {} | {} | {} |",
            row.name,
            fmt_us(row.median_us),
            fmt_us(row.min_us),
            fmt_us(row.max_us)
        );
    }
    for workload in ["publish", "infer", "count_burst"] {
        println!("b14 {workload}: enabled/disabled = {:.2}x", report.overhead(workload));
    }
    println!();
}

/// B15 table: query-cache serving path — cold miss vs warm hit vs
/// publish storm, checksums and hit ratio asserted inside the run.
fn b15_query_cache() {
    println!("## B15 — query cache serving path\n");
    let report = onion_bench::cache::run_b15(5);
    println!("| series | median | min | max |");
    println!("|---|---|---|---|");
    for row in &report.rows {
        println!(
            "| {} | {} | {} | {} |",
            row.name,
            fmt_us(row.median_us),
            fmt_us(row.min_us),
            fmt_us(row.max_us)
        );
    }
    println!(
        "b15: warm hits {:.1}x faster than cold misses (hit ratio {:.4})",
        report.speedup, report.warm_hit_ratio
    );
    println!();
}

fn e1_fig2() {
    println!("## E1 — Fig. 2 regeneration\n");
    let c = examples::carrier();
    let f = examples::factory();
    let art = ArticulationGenerator::new()
        .generate(&examples::fig2_rules(), &[&c, &f])
        .expect("fig2 generates");
    let (terms, bridges, rules) = art.stats();
    let unified = art.unified(&[&c, &f]).expect("unified");
    println!("| artefact | nodes | edges |");
    println!("|---|---|---|");
    println!("| carrier | {} | {} |", c.term_count(), c.graph().edge_count());
    println!("| factory | {} | {} |", f.term_count(), f.graph().edge_count());
    println!(
        "| articulation (transport) | {terms} | {} + {bridges} bridges |",
        art.ontology.graph().edge_count()
    );
    println!("| unified (computed) | {} | {} |", unified.node_count(), unified.edge_count());
    println!("| rules | {rules} | — |");
    println!();
}

fn e2_pipeline() {
    println!("## E2 — Fig. 1 architecture walkthrough\n");
    let mut onion = onion_core::OnionSystem::with_transport_lexicon();
    onion.add_source(examples::carrier());
    onion.add_source(examples::factory());
    onion.add_rules(examples::fig2_rules_text()).expect("rules parse");
    let report = onion.articulate("carrier", "factory", &mut AcceptAll).expect("articulates");
    let mut ckb = KnowledgeBase::new("carrier");
    ckb.add(Instance::new("MyCar", "Cars").with("Price", Value::Num(2203.71)));
    let mut fkb = KnowledgeBase::new("factory");
    fkb.add(Instance::new("pc7", "PassengerCar").with("Price", Value::Num(653.3)));
    onion.add_knowledge_base(ckb);
    onion.add_knowledge_base(fkb);
    let rs = onion.query("find Vehicle(Price)").expect("query runs");
    println!(
        "engine: {} rounds, {}/{} candidates accepted; query `find Vehicle(Price)` → {} rows, all normalised to 1000 EUR",
        report.rounds, report.accepted, report.proposed, rs.len()
    );
    println!();
}

fn b1_maintenance() {
    println!("## B1 — maintenance after a 20-op source update (10% bridged)\n");
    println!("| concepts | onion incremental | onion rebuild | global re-merge | incr. speedup vs merge |");
    println!("|---|---|---|---|---|");
    for &concepts in &[200usize, 1000, 4000] {
        let p = pair(11, concepts, 0.1);
        let art = articulated(&p);
        let generator = ArticulationGenerator::new();
        let spec = UpdateSpec { seed: 3, ops: 20, bridged_fraction: 0.1, delete_fraction: 0.2 };
        let ops = update_stream(&p.left, &art, &spec);
        let mut g = p.left.graph().clone();
        onion_core::graph::ops::apply_all(&mut g, &ops).unwrap();
        let evolved = Ontology::from_graph(g).unwrap();

        let incr = median_micros(9, || {
            let mut a = art.clone();
            apply_delta(&mut a, "left", &ops, &[&evolved, &p.right], &generator, None).unwrap();
        });
        let reb = median_micros(5, || {
            rebuild(&art, &[&evolved, &p.right], &generator).unwrap();
        });
        let merge = median_micros(5, || {
            GlobalMerge::rebuild(&[&evolved, &p.right], &p.lexicon);
        });
        println!(
            "| {concepts} | {} | {} | {} | {:.0}× |",
            fmt_us(incr),
            fmt_us(reb),
            fmt_us(merge),
            merge / incr
        );
    }
    println!();
}

fn b2_generation() {
    println!("## B2 — articulation generation: time and quality vs overlap\n");
    println!("| concepts | overlap | propose | engine (oracle) | precision | recall |");
    println!("|---|---|---|---|---|---|");
    for &concepts in &[100usize, 400, 1600] {
        for &overlap in &[0.05f64, 0.25] {
            let p = pair(17, concepts, overlap);
            let pipeline = || {
                MatcherPipeline::new()
                    .with(onion_core::articulate::ExactLabelMatcher)
                    .with(onion_core::articulate::SynonymMatcher::new(p.lexicon.clone()))
                    .with(onion_core::articulate::SimilarityMatcher {
                        threshold: 0.9,
                        max_pairs: 2_000_000,
                    })
            };
            let propose = median_micros(5, || {
                pipeline().propose(&p.left, &p.right, &RuleSet::new());
            });
            let mut art_holder = None;
            let engine_t = median_micros(3, || {
                let engine = ArticulationEngine::new(pipeline())
                    .with_config(EngineConfig { max_rounds: 2, ..Default::default() });
                let mut oracle = OracleExpert::new(p.truth.iter().cloned());
                let (art, _) = engine.run(&p.left, &p.right, &mut oracle, RuleSet::new()).unwrap();
                art_holder = Some(art);
            });
            let art = art_holder.expect("ran at least once");
            let m = precision_recall(&art.rules.rules, &p.truth_set());
            println!(
                "| {concepts} | {:.0}% | {} | {} | {:.2} | {:.2} |",
                overlap * 100.0,
                fmt_us(propose),
                fmt_us(engine_t),
                m.precision(),
                m.recall()
            );
        }
    }
    println!();
}

fn b2b_matcher_ablation() {
    println!("## B2b — matcher-mix ablation (400 concepts, 25% overlap, 50% renamed)\n");
    println!("| matcher mix | candidates | precision | recall | f1 |");
    println!("|---|---|---|---|---|");
    let p = pair(17, 400, 0.25);
    type MkPipeline<'a> = Box<dyn Fn() -> MatcherPipeline + 'a>;
    let mixes: Vec<(&str, MkPipeline)> = vec![
        (
            "exact only",
            Box::new(|| MatcherPipeline::new().with(onion_core::articulate::ExactLabelMatcher)),
        ),
        (
            "exact+synonym",
            Box::new(|| {
                MatcherPipeline::new()
                    .with(onion_core::articulate::ExactLabelMatcher)
                    .with(onion_core::articulate::SynonymMatcher::new(p.lexicon.clone()))
            }),
        ),
        (
            "exact+similarity",
            Box::new(|| {
                MatcherPipeline::new().with(onion_core::articulate::ExactLabelMatcher).with(
                    onion_core::articulate::SimilarityMatcher {
                        threshold: 0.9,
                        max_pairs: 2_000_000,
                    },
                )
            }),
        ),
        (
            "exact+synonym+similarity",
            Box::new(|| {
                MatcherPipeline::new()
                    .with(onion_core::articulate::ExactLabelMatcher)
                    .with(onion_core::articulate::SynonymMatcher::new(p.lexicon.clone()))
                    .with(onion_core::articulate::SimilarityMatcher {
                        threshold: 0.9,
                        max_pairs: 2_000_000,
                    })
            }),
        ),
    ];
    for (name, mk) in mixes {
        let candidates = mk().propose(&p.left, &p.right, &RuleSet::new());
        // quality as-if accepted wholesale (the automatic end of §1)
        let rules: Vec<ArticulationRule> = candidates.iter().map(|c| c.rule.clone()).collect();
        let m = precision_recall(&rules, &p.truth_set());
        println!(
            "| {name} | {} | {:.2} | {:.2} | {:.2} |",
            candidates.len(),
            m.precision(),
            m.recall(),
            m.f1()
        );
    }
    println!();
}

fn b3_patterns() {
    println!("## B3 — pattern matching (path3 pattern, matches/run)\n");
    println!("| classes | exact | relaxed edges | matches |");
    println!("|---|---|---|---|");
    for &classes in &[1000usize, 8000] {
        let o = generate_ontology(&OntologySpec::sized("g", 23, classes));
        let g = o.graph();
        let mut p3 = Pattern::new();
        let x = p3.any_node();
        let y = p3.any_node();
        let z = p3.any_node();
        p3.edge(x, "SubclassOf", y).edge(y, "SubclassOf", z);
        let mut count = 0usize;
        let exact = median_micros(5, || {
            count = Matcher::new(g).count(&p3).unwrap();
        });
        let relaxed = median_micros(5, || {
            let cfg = MatchConfig { relax_edge_labels: true, ..Default::default() };
            Matcher::new(g).with_config(cfg).count(&p3).unwrap();
        });
        println!("| {classes} | {} | {} | {count} |", fmt_us(exact), fmt_us(relaxed));
    }
    println!();
}

fn b4_query() {
    println!("## B4 — cross-source query vs global schema\n");
    println!("| instances | onion (plan+exec) | plan only | global scan | rows |");
    println!("|---|---|---|---|---|");
    for &instances in &[1000usize, 10_000] {
        let p = pair(31, 400, 0.25);
        let art = articulated(&p);
        let (lkb, rkb) = instance_kbs(&p, instances);
        let lw = InMemoryWrapper::new(lkb.clone());
        let rw = InMemoryWrapper::new(rkb.clone());
        let conversions = ConversionRegistry::standard();
        // the simple-rule translation names the articulation node after
        // the RHS (right-side) term
        let class = p.truth[0].1.split_once('.').unwrap().1.to_string();
        let query =
            Query::all(&class).select("Price").filter("Price", CmpOp::Lt, Value::Num(25_000.0));
        let sources: Vec<&Ontology> = vec![&p.left, &p.right];
        let wrappers: Vec<&dyn Wrapper> = vec![&lw, &rw];

        let mut rows = 0usize;
        let onion_t = median_micros(7, || {
            rows = execute(&query, &art, &sources, &conversions, &wrappers).unwrap().len();
        });
        let plan_t = median_micros(7, || {
            onion_core::query::plan(&query, &art, &sources, &conversions).unwrap();
        });
        let gm = GlobalMerge::build(&[&p.left, &p.right], &p.lexicon);
        let global_class = gm.global_label("right", &class).unwrap_or(&class).to_string();
        let global_t = median_micros(7, || {
            let mut hits = 0usize;
            for (kb, source) in [(&lkb, "left"), (&rkb, "right")] {
                for inst in kb.instances() {
                    if gm.classes_of(source, &inst.class).iter().any(|c| c == &global_class) {
                        if let Some(Value::Num(n)) = inst.attrs.get("Price") {
                            if *n < 25_000.0 {
                                hits += 1;
                            }
                        }
                    }
                }
            }
            std::hint::black_box(hits);
        });
        println!(
            "| {instances} | {} | {} | {} | {rows} |",
            fmt_us(onion_t),
            fmt_us(plan_t),
            fmt_us(global_t)
        );
    }
    println!();
}

fn b5_algebra() {
    println!("## B5 — algebra operators (overlap 10% / 40%)\n");
    println!("| concepts | overlap | union | union (cached art) | intersection | difference |");
    println!("|---|---|---|---|---|---|");
    for &concepts in &[200usize, 1000, 4000] {
        for &overlap in &[0.1f64, 0.4] {
            let p = pair(43, concepts, overlap);
            let rules = truth_rules(&p);
            let art = articulated(&p);
            let generator = ArticulationGenerator::new();
            let u = median_micros(5, || {
                union(&p.left, &p.right, &rules, &generator).unwrap();
            });
            let uc = median_micros(5, || {
                onion_core::algebra::union::union_with(&p.left, &p.right, &art).unwrap();
            });
            let i = median_micros(5, || {
                intersect(&p.left, &p.right, &rules, &generator).unwrap();
            });
            let d = median_micros(5, || {
                difference(&p.left, &p.right, &art).unwrap();
            });
            println!(
                "| {concepts} | {:.0}% | {} | {} | {} | {} |",
                overlap * 100.0,
                fmt_us(u),
                fmt_us(uc),
                fmt_us(i),
                fmt_us(d)
            );
        }
    }
    println!();
}

fn b6_inference() {
    println!("## B6 — Horn engines on transitive closure (chain workload)\n");
    println!("| facts | semi-naive | naive | full-closure | atoms examined (sn / fc) |");
    println!("|---|---|---|---|---|");
    for &n in &[32usize, 96] {
        let program = HornProgram::parse("si(X, Z) :- si(X, Y), si(Y, Z).").unwrap();
        let mut times = Vec::new();
        let mut efforts = Vec::new();
        for strat in [Strategy::SemiNaive, Strategy::Naive, Strategy::FullClosure] {
            let mut effort = 0usize;
            let t = median_micros(3, || {
                let mut atoms = AtomTable::new();
                let mut fb = FactBase::new();
                for i in 0..n {
                    fb.add(&mut atoms, "si", &[&format!("t{i}"), &format!("t{}", i + 1)]);
                }
                let stats = InferenceEngine::new(program.clone())
                    .with_strategy(strat)
                    .run(&mut atoms, &mut fb)
                    .unwrap();
                effort = stats.atoms_examined;
            });
            times.push(t);
            efforts.push(effort);
        }
        println!(
            "| {n} | {} | {} | {} | {} / {} |",
            fmt_us(times[0]),
            fmt_us(times[1]),
            fmt_us(times[2]),
            efforts[0],
            efforts[2]
        );
    }
    println!();
}

fn b7_compose() {
    println!("## B7 — adding the k-th source\n");
    println!(
        "| k | onion add k-th (incl. prefix) | prefix only | derived add-cost | global re-merge |"
    );
    println!("|---|---|---|---|---|");
    let lexicon = transport_lexicon();
    for &k in &[3usize, 5, 8] {
        let all: Vec<Ontology> = (0..k)
            .map(|i| {
                let mut spec = OntologySpec::sized(&format!("src{i}"), 100 + i as u64, 150);
                spec.attr_density = 0.2;
                spec.instance_density = 0.0;
                generate_ontology(&spec)
            })
            .collect();
        let refs: Vec<&Ontology> = all.iter().collect();
        let prefix: Vec<&Ontology> = refs[..k - 1].to_vec();
        let full = median_micros(3, || {
            let mut comp = compose_all(&prefix, &lexicon, &mut ThresholdExpert::new(0.9)).unwrap();
            add_source(&mut comp, refs[k - 1], &lexicon, &mut ThresholdExpert::new(0.9)).unwrap();
        });
        let prefix_t = median_micros(3, || {
            compose_all(&prefix, &lexicon, &mut ThresholdExpert::new(0.9)).unwrap();
        });
        let merge = median_micros(3, || {
            GlobalMerge::rebuild(&refs, &lexicon);
        });
        println!(
            "| {k} | {} | {} | {} | {} |",
            fmt_us(full),
            fmt_us(prefix_t),
            fmt_us((full - prefix_t).max(0.0)),
            fmt_us(merge)
        );
    }
    println!();
}

fn b8_triage() {
    println!("## B8 — difference-guided triage vs update locality (50 ops)\n");
    println!("| bridged fraction | relevant ops | triage | triage+repair | no-triage rebuild |");
    println!("|---|---|---|---|---|");
    let p = pair(59, 1000, 0.2);
    let art = articulated(&p);
    let generator = ArticulationGenerator::new();
    for &bridged in &[0.0f64, 0.25, 0.75] {
        let spec =
            UpdateSpec { seed: 13, ops: 50, bridged_fraction: bridged, delete_fraction: 0.2 };
        let ops = update_stream(&p.left, &art, &spec);
        let mut g = p.left.graph().clone();
        onion_core::graph::ops::apply_all(&mut g, &ops).unwrap();
        let evolved = Ontology::from_graph(g).unwrap();
        let (relevant, _) = triage(&art, "left", &ops);
        let t_triage = median_micros(9, || {
            triage(&art, "left", &ops);
        });
        let t_repair = median_micros(7, || {
            let mut a = art.clone();
            apply_delta(&mut a, "left", &ops, &[&evolved, &p.right], &generator, None).unwrap();
        });
        let t_rebuild = median_micros(5, || {
            rebuild(&art, &[&evolved, &p.right], &generator).unwrap();
        });
        println!(
            "| {:.0}% | {}/{} | {} | {} | {} |",
            bridged * 100.0,
            relevant.len(),
            ops.len(),
            fmt_us(t_triage),
            fmt_us(t_repair),
            fmt_us(t_rebuild)
        );
    }
    println!();
}
