//! Prints the full experiment tables.
//!
//! ```text
//! cargo run -p onion-bench --release --bin experiments
//! cargo run -p onion-bench --release --bin experiments -- --json [PATH]
//! cargo run -p onion-bench --release --bin experiments -- --metrics
//! ```
//!
//! Each section regenerates one experiment (E1–E2, B1–B8, B14–B15) and
//! prints the series in "who wins, by what factor, where is the
//! crossover" form. Wall times are medians of several in-process
//! repetitions, every one timed by `onion_bench::run_series` — this
//! binary is the workspace's only bench driver.
//!
//! With `--json` the binary instead runs the machine-readable baseline
//! suite — the graph hot-path set on the testkit 10k-node / 50k-edge
//! tier (each series repeated ≥5× with the min/max spread recorded),
//! the B1/B2/B4 end-to-end medians, the B10 parallel-throughput matrix
//! (1/2/4/available-parallelism threads, with byte-identical results
//! asserted against the sequential path) and the B12–B15 series — and
//! writes it to `PATH`
//! (default `BENCH_onion.json`); this is the smoke step CI runs on
//! every push. An optional `--compare BASE` reads a previously
//! committed baseline, prints every named row's machine-normalised
//! ratio labelled "within noise" when it lies inside the baseline row's
//! recorded spread, and applies the two-tier regression gate to every
//! named row: >2× prints a `::warning::`, >3× prints an `::error::` and
//! **fails the run** (exit 1). The thresholds carry a variance margin:
//! the recorded per-series spreads (slowest/fastest repetition) sit well
//! under 2× on an idle host, so a 3× median regression is signal, not
//! noise — see the committed `spread` fields for the measured margin.
//!
//! `--metrics` (composable with either mode) turns `onion-obs`
//! recording on before the run and dumps the Prometheus text export of
//! the global registry after it — the quickest way to see what the
//! instrumented layers observed during a full experiment sweep.

#![forbid(unsafe_code)]

use onion_bench::cache::{B15Report, B15_CONCEPTS, B15_INSTANCES, B15_QUERIES};
use onion_bench::durability::{B13Report, B13_BATCH_OPS};
use onion_bench::hotpaths::Fixture;
use onion_bench::inference::B12Report;
use onion_bench::observability::{B14Report, B14_BURST, B14_CHAIN, B14_PUBLISH_ROUNDS, B14_SHARDS};
use onion_bench::parallel::B10Report;
use onion_bench::{articulated, instance_kbs, pair, run_series, truth_rules, BenchResult};
use onion_core::algebra::compose::{add_source, compose_all};
use onion_core::articulate::maintain::{apply_delta, rebuild, triage};
use onion_core::lexicon::SynonymEquiv;
use onion_core::prelude::*;
use onion_core::rules::atoms::AtomTable;
use onion_core::rules::horn::HornProgram;
use onion_core::rules::infer::{FactBase, InferenceEngine, Strategy};
use onion_core::testkit::{
    generate_graph, generate_ontology, precision_recall, update_stream, GlobalMerge, GraphSpec,
    OntologySpec, OverlapPair, UpdateSpec,
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
    ("out_neighbors_subclass_sweep", 550.2, 311.4),
    ("descendants_root", 1430.6, 480.5),
    ("bfs_backward_subclass", 1332.0, 401.4),
    ("reachable_verbs", 3204.8, 1291.6),
    ("find_edge_all_triples", 4748.8, 3652.3),
];

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

/// Everything one `--json` run measures.
struct Baseline {
    results: Vec<BenchResult>,
    end_to_end: Vec<BenchResult>,
    b10: B10Report,
    b12: B12Report,
    b13: B13Report,
    b14: B14Report,
    b15: B15Report,
}

impl Baseline {
    /// Runs the baseline suite: hot paths, end-to-end medians, the B10
    /// parallel matrix and the B12–B15 series, each with its
    /// correctness assertions.
    fn run() -> Self {
        let tier = onion_bench::hotpaths::tier();
        eprintln!(
            "running graph hot-path set on the {} -node / {} -edge tier …",
            tier.nodes, tier.edges
        );
        let results = onion_bench::hotpaths::run_all(&Fixture::new(&tier));
        eprintln!("running end-to-end medians (B1 incremental, B2 propose, B4 query) …");
        // each fixture lives only while its own series runs, so no series
        // is timed against another fixture's heap
        let end_to_end = vec![
            {
                let fx = UpdateFixture::b1(1000);
                run_series("b1_incremental_1000c", 9, || fx.incremental())
            },
            {
                let p = pair(17, 400, 0.25);
                let pipeline = b2_pipeline(&p);
                run_series("b2_propose_400c", 9, || {
                    pipeline.propose(&p.left, &p.right, &RuleSet::new()).len() as u64
                })
            },
            {
                let fx = B4Fixture::new(400, 10_000);
                run_series("b4_query_10k_inst", 7, || fx.execute())
            },
        ];
        eprintln!("running B10 parallel batches (byte-identity asserted per thread count) …");
        let b10 = onion_bench::parallel::run_b10();
        eprintln!("running B12 inference seam (string/interned fact-set identity asserted) …");
        let b12 = onion_bench::inference::run_b12();
        eprintln!(
            "running B13 durability (WAL append / checkpoint / recovery, exactness asserted) …"
        );
        let b13 = onion_bench::durability::run_b13();
        eprintln!("running B14 observability overhead (disabled vs enabled recording) …");
        let b14 = onion_bench::observability::run_b14(5);
        eprintln!("running B15 query cache (checksums + hit ratio + 10x warm bar asserted) …");
        let b15 = onion_bench::cache::run_b15(5);
        Baseline { results, end_to_end, b10, b12, b13, b14, b15 }
    }

    /// The baseline file. Hand-rolled JSON: the workspace is offline, no
    /// serde. Every named row goes through [`push_rows`].
    fn to_json(&self) -> String {
        let tier = onion_bench::hotpaths::tier();
        let (b10, b12, b13, b14, b15) = (&self.b10, &self.b12, &self.b13, &self.b14, &self.b15);
        let mut body = format!(
            "{{\n  \"schema\": \"onion-bench/v13\",\n  \"tier\": {{ \"seed\": {}, \"nodes\": {}, \
             \"edges\": {} }},\n  \"results\": [\n",
            tier.seed, tier.nodes, tier.edges
        );
        push_rows(&mut body, "    ", &self.results);
        body.push_str("  ],\n  \"end_to_end\": [\n");
        push_rows(&mut body, "    ", &self.end_to_end);
        body.push_str("  ],\n");
        // checksum is a full-range u64 — emitted as a hex string because
        // bare JSON numbers above 2^53 lose precision in most consumers
        body.push_str(&format!(
            "  \"b10_parallel\": {{\n    \"batch_queries\": {}, \"available_parallelism\": {}, \
             \"checksum\": \"{:#018x}\",\n    \"rows\": [\n",
            b10.batch_queries, b10.available_parallelism, b10.rows[0].checksum
        ));
        for (i, row) in b10.rows.iter().enumerate() {
            body.push_str(&format!(
                "      {{ \"threads\": {}, \"query_us\": {:.1}, \"query_per_sec\": {:.0}, \
                 \"query_speedup\": {:.2} }}{}\n",
                row.threads,
                row.query_us,
                row.query_per_sec,
                b10.query_speedup(row),
                if i + 1 == b10.rows.len() { "" } else { "," }
            ));
        }
        body.push_str("    ]\n  },\n");
        push_section(
            &mut body,
            "b12_inference",
            &format!(
                "\"note\": \"seeded FactBase build + saturation on the 10k-class tree tier; \
                 b12_seed_string_10k is the frozen pre-refactor string engine \
                 (onion_rules::reference), the interned series are the AtomId path (cold = \
                 empty table, warm = shared-table steady state); the *_deep10k rows saturate the \
                 10k-class deep-hierarchy tier (500 chains x 20 deep) with the naive loop, the \
                 semi-naive engine, and the 4-thread work-unit engine; fact sets, \
                 checksums, and derivation counts are asserted identical across engines (and \
                 the work-unit engine's stats equal the sequential engine's) before \
                 timing\",\n    \"classes\": {}, \
                 \"seeded_facts\": {}, \"derived\": {},\n    \"deep_classes\": {}, \
                 \"deep_seeded\": {}, \"deep_derived\": {}, \"deep_rounds\": {}",
                b12.classes,
                b12.seeded_facts,
                b12.derived,
                b12.deep_classes,
                b12.deep_seeded,
                b12.deep_derived,
                b12.deep_rounds
            ),
            &b12.rows,
        );
        push_section(
            &mut body,
            "b13_durability",
            &format!(
                "\"note\": \"durable WAL stack on the tier: b13_wal_append_1k_ops is one \
                 group-flushed committed batch of {B13_BATCH_OPS} EdgeAdd ops (Begin..Commit, \
                 one write + sync_data; checksum = final LSN); the checkpoint rows dirty k of 64 \
                 shards with a content-neutral self-loop probe and assert the checkpoint \
                 rewrote exactly k shards and reused 64-k; the recover rows reopen a WAL-only \
                 directory (no manifest shortcut) and assert the replayed edge count\",\n    \
                 \"nodes\": {}, \"edges\": {}, \"shards\": {}, \"reps\": {}, \"batch_ops\": \
                 {B13_BATCH_OPS}",
                b13.nodes, b13.edges, b13.shards, b13.reps
            ),
            &b13.rows,
        );
        push_section(
            &mut body,
            "b14_observability",
            &format!(
                "\"note\": \"onion-obs recording overhead: each workload timed with recording \
                 disabled (the production default — one relaxed atomic load per instrumented \
                 site) and enabled (relaxed fetch_add on one cell per metric); publish = {B14_PUBLISH_ROUNDS} \
                 one-dirty-shard OnionSystem::publish_source rounds on an in-memory source (the \
                 tier graph at {B14_SHARDS} shards), infer = semi-naive \
                 saturation of a {B14_CHAIN}-node transitivity chain (derivation count asserted \
                 identical in both modes), count_burst = {B14_BURST} bare count!+observe_us! \
                 macro hits; overhead_* = enabled/disabled median ratio\",\n    \
                 \"publish_rounds\": {B14_PUBLISH_ROUNDS}, \"chain\": {B14_CHAIN}, \"burst\": \
                 {B14_BURST},\n    \"overhead_publish\": {:.2}, \"overhead_infer\": {:.2}, \
                 \"overhead_count_burst\": {:.2}",
                b14.overhead("publish"),
                b14.overhead("infer"),
                b14.overhead("count_burst"),
            ),
            &b14.rows,
        );
        push_section(
            &mut body,
            "b15_query_cache",
            &format!(
                "\"note\": \"epoch-keyed hot-result cache on the serving path: cold_miss \
                 republishes before every rep (fresh state epoch, so every lookup misses and \
                 pays full plan + execute), warm_hit repeats the identical {B15_QUERIES}-query \
                 batch at a pinned epoch (every result served from cache; hit ratio asserted > \
                 0.999), publish_storm edits + publishes then runs the batch twice per rep \
                 (re-execute, then hit) with per-rep checksum equality asserted — the \
                 stale-read kill-switch. The >=10x warm-vs-cold bar and all checksums are \
                 asserted inside the run, not just recorded. Each rep's batches are \
                 checksummed over whole rows after its timed region, so the rows time the \
                 batches alone; B15 baselines recorded while the timed regions also hashed \
                 each row's id and attribute count are not comparable\",\n    \"queries\": \
                 {B15_QUERIES}, \"concepts\": {B15_CONCEPTS}, \"instances\": {B15_INSTANCES},\n    \
                 \"speedup_warm_vs_cold\": {:.1}, \"warm_hit_ratio\": {:.4}, \"checksum\": \
                 \"{:#018x}\"",
                b15.speedup, b15.warm_hit_ratio, b15.checksum,
            ),
            &b15.rows,
        );
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
        body
    }

    /// Every named row, in file order — the series `--compare` gates.
    fn named_rows(&self) -> impl Iterator<Item = &BenchResult> {
        self.results
            .iter()
            .chain(&self.end_to_end)
            .chain(&self.b12.rows)
            .chain(&self.b13.rows)
            .chain(&self.b14.rows)
            .chain(&self.b15.rows)
    }

    /// The human-readable summary printed after the file is written.
    fn print_summary(&self) {
        let (b10, b12, b14, b15) = (&self.b10, &self.b12, &self.b14, &self.b15);
        for r in self.named_rows() {
            println!("{:<32} {}", r.name, fmt_us(r.median_us));
        }
        for row in &b10.rows {
            println!(
                "b10 {:>2} thread(s): query {} ({:.0}/s, {:.2}x)",
                row.threads,
                fmt_us(row.query_us),
                row.query_per_sec,
                b10.query_speedup(row)
            );
        }
        if b10.available_parallelism < 2 {
            println!(
                "note: host reports available_parallelism = {}; B10 speedups are not meaningful \
                 here",
                b10.available_parallelism
            );
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
        println!(
            "b14 overhead (enabled/disabled): publish {:.2}x  infer {:.2}x  count_burst {:.2}x",
            b14.overhead("publish"),
            b14.overhead("infer"),
            b14.overhead("count_burst")
        );
        println!(
            "b15 query cache: warm hits {:.1}x faster than cold misses (hit ratio {:.4})",
            b15.speedup, b15.warm_hit_ratio
        );
        let worst_spread = self.results.iter().map(BenchResult::spread).fold(1.0f64, f64::max);
        println!(
            "hot-path run-to-run spread (max over series, slowest/fastest rep): {worst_spread:.2}x"
        );
    }
}

/// Runs the baseline suite and writes it to `path`.
fn emit_json(path: &str) {
    let baseline = Baseline::run();
    std::fs::write(path, baseline.to_json()).expect("baseline file is writable");
    baseline.print_summary();
    println!("wrote {path}");
}

/// Writes one named-row section, `"key": { <fields>, "rows": [ … ] },`.
fn push_section(body: &mut String, key: &str, fields: &str, rows: &[BenchResult]) {
    body.push_str(&format!("  \"{key}\": {{\n    {fields},\n    \"rows\": [\n"));
    push_rows(body, "      ", rows);
    body.push_str("    ]\n  },\n");
}

/// The one row writer: one JSON object per line, the line format
/// [`parse_rows`] reads back.
fn push_rows(body: &mut String, indent: &str, rows: &[BenchResult]) {
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "{indent}{{ \"name\": \"{}\", \"median_us\": {:.1}, \"min_us\": {:.1}, \"max_us\": \
             {:.1}, \"spread\": {:.2}, \"reps\": {}, \"checksum\": {} }}{}\n",
            r.name,
            r.median_us,
            r.min_us,
            r.max_us,
            r.spread(),
            r.reps,
            r.checksum,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
}

/// Extracts every `"name": …, "median_us": …, … "spread": …` row from
/// one of our baseline files as `(name, median, spread)` (writer keeps
/// each entry on one line, so a line scan is a complete parser for this
/// format — the workspace has no serde). A row without a `spread` reads
/// as spread 1.
fn parse_rows(text: &str) -> Vec<(String, f64, f64)> {
    let number = |line: &str, key: &str| -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        digits.parse().ok()
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else { continue };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else { continue };
        if let Some(median) = number(line, "\"median_us\": ") {
            let spread = number(line, "\"spread\": ").unwrap_or(1.0);
            out.push((rest[..name_end].to_string(), median, spread));
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

/// How far one series moved, judged against [`WARN_RATIO`] and
/// [`FAIL_RATIO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Pass,
    Warn,
    Fail,
}

/// One series common to both baselines.
struct SeriesVerdict {
    name: String,
    base_us: f64,
    new_us: f64,
    /// `(new / base) / machine_factor`.
    normalised: f64,
    /// The baseline row's recorded spread (slowest/fastest repetition).
    base_spread: f64,
    level: Level,
}

impl SeriesVerdict {
    /// True when the normalised ratio lies inside the baseline row's
    /// spread, `[1 / spread, spread]`: a move its own repetitions
    /// already showed.
    fn within_noise(&self) -> bool {
        (1.0 / self.base_spread..=self.base_spread).contains(&self.normalised)
    }
}

/// The `--compare` outcome over the series both baselines name.
struct Verdict {
    /// Median raw ratio over all common series — the machine-speed
    /// factor between the host that committed the baseline and this one.
    machine_factor: f64,
    series: Vec<SeriesVerdict>,
}

/// Judges fresh medians against baseline medians on machine-normalised
/// ratios (see [`FAIL_RATIO`]); rows are `(name, median, spread)` as
/// [`parse_rows`] reads them. `None` when fewer than 3 series are
/// common to both — too few for a meaningful machine factor.
fn verdict(base: &[(String, f64, f64)], fresh: &[(String, f64, f64)]) -> Option<Verdict> {
    let common: Vec<(&String, f64, f64, f64)> = fresh
        .iter()
        .filter_map(|(name, new_us, _)| {
            let (_, base_us, spread) = base.iter().find(|(n, ..)| n == name)?;
            (*base_us > 0.0 && *new_us > 0.0).then_some((name, *base_us, *new_us, *spread))
        })
        .collect();
    if common.len() < 3 {
        return None;
    }
    let mut ratios: Vec<f64> =
        common.iter().map(|(_, base_us, new_us, _)| new_us / base_us).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let machine_factor = ratios[ratios.len() / 2];
    let series = common
        .into_iter()
        .map(|(name, base_us, new_us, base_spread)| {
            let normalised = new_us / base_us / machine_factor;
            let level = if normalised > FAIL_RATIO {
                Level::Fail
            } else if normalised > WARN_RATIO {
                Level::Warn
            } else {
                Level::Pass
            };
            SeriesVerdict { name: name.clone(), base_us, new_us, normalised, base_spread, level }
        })
        .collect();
    Some(Verdict { machine_factor, series })
}

/// Compares a freshly written baseline against a committed one (see
/// [`verdict`]): prints every common row's normalised ratio, labelled
/// within or outside the noise its baseline spread records, then
/// `::warning::` past 2×, `::error::` plus a non-zero exit past 3×.
/// GitHub Actions surfaces both and the exit code fails the CI step.
fn compare_baselines(base_path: &str, new_path: &str) {
    let Ok(base_text) = std::fs::read_to_string(base_path) else {
        println!("compare: no baseline at {base_path}, skipping");
        return;
    };
    let new_text = std::fs::read_to_string(new_path).expect("just wrote it");
    let Some(v) = verdict(&parse_rows(&base_text), &parse_rows(&new_text)) else {
        println!("compare: fewer than 3 common series vs {base_path}, skipping");
        return;
    };
    let machine_factor = v.machine_factor;
    println!(
        "compare: machine-speed factor vs {base_path}: {machine_factor:.2}x (median over {} \
         series)",
        v.series.len()
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
             check the dimensionless B10 speedup column before trusting the normalised gate"
        );
    }
    for s in &v.series {
        let (name, norm) = (&s.name, s.normalised);
        let (base, new) = (fmt_us(s.base_us), fmt_us(s.new_us));
        println!(
            "compare: {name} {base} -> {new}: {norm:.2}x normalised, {} (baseline spread {:.2}x)",
            if s.within_noise() { "within noise" } else { "outside noise" },
            s.base_spread
        );
        match s.level {
            Level::Fail => println!(
                "::error::bench regression: {name} {base} -> {new} ({norm:.1}x normalised, limit \
                 {FAIL_RATIO}x)"
            ),
            Level::Warn => {
                println!(
                    "::warning::bench regression: {name} {base} -> {new} ({norm:.1}x normalised)"
                )
            }
            Level::Pass => {}
        }
    }
    let count = |level| v.series.iter().filter(|s| s.level == level).count();
    let (warned, failed) = (count(Level::Warn), count(Level::Fail));
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

/// Prints named rows as a `| series | median | min | max |` table.
fn print_rows(rows: &[BenchResult]) {
    println!("| series | median | min | max |");
    println!("|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} |",
            r.name,
            fmt_us(r.median_us),
            fmt_us(r.min_us),
            fmt_us(r.max_us)
        );
    }
}

/// B14 table: observability overhead, recording disabled vs enabled,
/// per instrumented workload.
fn b14_observability() {
    println!("## B14 — observability overhead\n");
    let report = onion_bench::observability::run_b14(5);
    print_rows(&report.rows);
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
    print_rows(&report.rows);
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

/// A maintenance workload: an overlap pair, its truth articulation, an
/// update stream on the left source and the evolved left source. B1
/// and B8 build theirs here; [`UpdateFixture::b1`] also backs the
/// `b1_incremental_1000c` baseline row.
struct UpdateFixture {
    p: OverlapPair,
    art: Articulation,
    ops: Vec<GraphOp>,
    evolved: Ontology,
    generator: ArticulationGenerator,
}

impl UpdateFixture {
    fn new(p: OverlapPair, spec: &UpdateSpec) -> Self {
        let art = articulated(&p);
        let ops = update_stream(&p.left, &art, spec);
        let mut g = p.left.graph().clone();
        onion_core::graph::ops::apply_all(&mut g, &ops).unwrap();
        let evolved = Ontology::from_graph(g);
        UpdateFixture { p, art, ops, evolved, generator: ArticulationGenerator::new() }
    }

    /// The B1 workload: a `concepts`-concept pair (10% overlap) and a
    /// 20-op update stream with 10% of the ops on bridged terms.
    fn b1(concepts: usize) -> Self {
        let spec = UpdateSpec { seed: 3, ops: 20, bridged_fraction: 0.1, delete_fraction: 0.2 };
        Self::new(pair(11, concepts, 0.1), &spec)
    }

    /// Incremental maintenance: triage + scoped repair (`apply_delta`).
    fn incremental(&self) -> u64 {
        let mut a = self.art.clone();
        let sources = [&self.evolved, &self.p.right];
        apply_delta(&mut a, "left", &self.ops, &sources, &self.generator, None).unwrap();
        a.rules.len() as u64
    }

    /// Regenerates the articulation from its rules over the evolved
    /// sources — the no-triage baseline.
    fn rebuild(&self) -> u64 {
        let sources = [&self.evolved, &self.p.right];
        rebuild(&self.art, &sources, &self.generator).unwrap().rules.len() as u64
    }
}

fn b1_maintenance() {
    println!("## B1 — maintenance after a 20-op source update (10% bridged)\n");
    println!("| concepts | onion incremental | onion rebuild | global re-merge | incr. speedup vs merge |");
    println!("|---|---|---|---|---|");
    for &concepts in &[200usize, 1000, 4000] {
        let fx = UpdateFixture::b1(concepts);
        let incr = run_series("b1_incremental", 9, || fx.incremental()).median_us;
        let reb = run_series("b1_rebuild", 5, || fx.rebuild()).median_us;
        let merge = run_series("b1_global_merge", 5, || {
            GlobalMerge::rebuild(&[&fx.evolved, &fx.p.right], &fx.p.lexicon).merges() as u64
        })
        .median_us;
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

/// B2's matcher stack: exact label, the pair's lexicon, and string
/// similarity at 0.9. Also backs the `b2_propose_400c` baseline row.
fn b2_pipeline(p: &OverlapPair) -> MatcherPipeline {
    MatcherPipeline::new()
        .with(onion_core::articulate::ExactLabelMatcher)
        .with(onion_core::articulate::SynonymMatcher::new(p.lexicon.clone()))
        .with(onion_core::articulate::SimilarityMatcher { threshold: 0.9, max_pairs: 2_000_000 })
}

fn b2_generation() {
    println!("## B2 — articulation generation: time and quality vs overlap\n");
    println!("| concepts | overlap | propose | engine (oracle) | precision | recall |");
    println!("|---|---|---|---|---|---|");
    for &concepts in &[100usize, 400, 1600] {
        for &overlap in &[0.05f64, 0.25] {
            let p = pair(17, concepts, overlap);
            let propose = run_series("b2_propose", 5, || {
                b2_pipeline(&p).propose(&p.left, &p.right, &RuleSet::new()).len() as u64
            })
            .median_us;
            let mut art_holder = None;
            let engine_t = run_series("b2_engine", 3, || {
                let engine = ArticulationEngine::new(b2_pipeline(&p))
                    .with_config(EngineConfig { max_rounds: 2, ..Default::default() });
                let mut oracle = OracleExpert::new(p.truth.iter().cloned());
                let (art, _) = engine.run(&p.left, &p.right, &mut oracle, RuleSet::new()).unwrap();
                let rules = art.rules.len() as u64;
                art_holder = Some(art);
                rules
            })
            .median_us;
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
        ("exact+synonym+similarity", Box::new(|| b2_pipeline(&p))),
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

/// The B3 pattern shapes: one edge, a 3-node path, a 2-child star.
fn b3_shapes() -> Vec<(&'static str, Pattern)> {
    let (mut edge2, mut path3, mut star3) = (Pattern::new(), Pattern::new(), Pattern::new());
    let [a, b] = [edge2.any_node(), edge2.any_node()];
    edge2.edge(a, "SubclassOf", b);
    let [x, y, z] = [path3.any_node(), path3.any_node(), path3.any_node()];
    path3.edge(x, "SubclassOf", y).edge(y, "SubclassOf", z);
    let [hub, c1, c2] = [star3.any_node(), star3.any_node(), star3.any_node()];
    star3.edge(c1, "SubclassOf", hub).edge(c2, "SubclassOf", hub);
    vec![("edge2", edge2), ("path3", path3), ("star3", star3)]
}

fn b3_patterns() {
    println!("## B3 — pattern matching: exact vs the two fuzzy relaxations\n");
    println!("| classes | pattern | exact | synonym nodes | relaxed edges | matches |");
    println!("|---|---|---|---|---|---|");
    let lexicon = onion_core::lexicon::generator::generate(&Default::default());
    for &classes in &[1000usize, 8000] {
        let o = generate_ontology(&OntologySpec::sized("g", 23, classes));
        let g = o.graph();
        for (shape, p) in b3_shapes() {
            let exact = run_series("b3_exact", 5, || Matcher::new(g).count(&p).unwrap() as u64);
            let synonym = run_series("b3_synonym", 5, || {
                Matcher::with_equiv(g, SynonymEquiv::new(&lexicon)).count(&p).unwrap() as u64
            });
            let relaxed = run_series("b3_relaxed_edges", 5, || {
                let cfg = MatchConfig { relax_edge_labels: true };
                Matcher::new(g).with_config(cfg).count(&p).unwrap() as u64
            });
            println!(
                "| {classes} | {shape} | {} | {} | {} | {} |",
                fmt_us(exact.median_us),
                fmt_us(synonym.median_us),
                fmt_us(relaxed.median_us),
                exact.checksum
            );
        }
    }
    println!();
}

/// The B4 workload: a `concepts`-concept pair (25% overlap) articulated
/// from its truth, `instances` priced instances per side behind
/// in-memory wrappers, and a `Price < 25000` query on the articulation
/// class of the first truth pair. Built here for both the B4 table and
/// the `b4_query_10k_inst` baseline row.
struct B4Fixture {
    p: OverlapPair,
    art: Articulation,
    wrappers: [InMemoryWrapper; 2],
    conversions: ConversionRegistry,
    /// The simple-rule translation names the articulation node after
    /// the RHS (right-side) term.
    class: String,
    query: Query,
}

impl B4Fixture {
    fn new(concepts: usize, instances: usize) -> Self {
        let p = pair(31, concepts, 0.25);
        let art = articulated(&p);
        let (lkb, rkb) = instance_kbs(&p, instances);
        let class = p.truth[0].1.split_once('.').unwrap().1.to_string();
        let query =
            Query::all(&class).select("Price").filter("Price", CmpOp::Lt, Value::Num(25_000.0));
        let wrappers = [InMemoryWrapper::new(lkb), InMemoryWrapper::new(rkb)];
        B4Fixture { p, art, wrappers, conversions: ConversionRegistry::standard(), class, query }
    }

    /// Plan + execute across both sources; the row count.
    fn execute(&self) -> u64 {
        let wrappers: Vec<&dyn Wrapper> = self.wrappers.iter().map(|w| w as &dyn Wrapper).collect();
        let sources = [&self.p.left, &self.p.right];
        execute(&self.query, &self.art, &sources, &self.conversions, &wrappers).unwrap().len()
            as u64
    }
}

fn b4_query() {
    println!("## B4 — cross-source query vs global schema\n");
    println!("| concepts | instances | onion (plan+exec) | plan only | global scan | rows |");
    println!("|---|---|---|---|---|---|");
    for &(concepts, instances) in &[(400usize, 1000usize), (400, 10_000), (10_000, 10_000)] {
        let fx = B4Fixture::new(concepts, instances);
        let onion = run_series("b4_query", 7, || fx.execute());
        let plan = run_series("b4_plan", 7, || {
            let sources = [&fx.p.left, &fx.p.right];
            onion_core::query::plan(&fx.query, &fx.art, &sources, &fx.conversions)
                .unwrap()
                .source_queries
                .len() as u64
        });
        // baseline: the global schema answers by scanning all instances
        // whose merged class matches
        let gm = GlobalMerge::build(&[&fx.p.left, &fx.p.right], &fx.p.lexicon);
        let global_class = gm.global_label("right", &fx.class).unwrap_or(&fx.class).to_string();
        let global = run_series("b4_global_scan", 7, || {
            let mut hits = 0u64;
            for (w, source) in fx.wrappers.iter().zip(["left", "right"]) {
                for inst in w.kb().instances() {
                    if gm.classes_of(source, &inst.class).iter().any(|c| c == &global_class) {
                        if let Some(Value::Num(n)) = inst.attrs.get("Price") {
                            if *n < 25_000.0 {
                                hits += 1;
                            }
                        }
                    }
                }
            }
            hits
        });
        println!(
            "| {concepts} | {instances} | {} | {} | {} | {} |",
            fmt_us(onion.median_us),
            fmt_us(plan.median_us),
            fmt_us(global.median_us),
            onion.checksum
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
            let u = run_series("b5_union", 5, || {
                union(&p.left, &p.right, &rules, &generator).unwrap().graph.edge_count() as u64
            });
            let uc = run_series("b5_union_cached", 5, || {
                let u = onion_core::algebra::union::union_with(&p.left, &p.right, &art).unwrap();
                u.graph.edge_count() as u64
            });
            let i = run_series("b5_intersection", 5, || {
                intersect(&p.left, &p.right, &rules, &generator).unwrap().term_count() as u64
            });
            let d = run_series("b5_difference", 5, || {
                difference(&p.left, &p.right, &art).unwrap().0.edge_count() as u64
            });
            println!(
                "| {concepts} | {:.0}% | {} | {} | {} | {} |",
                overlap * 100.0,
                fmt_us(u.median_us),
                fmt_us(uc.median_us),
                fmt_us(i.median_us),
                fmt_us(d.median_us)
            );
        }
    }
    println!();
}

/// B6 input: `si(a, b)` pairs. `chain` is `t0 → … → tn`; `random` is
/// the edge set of a testkit graph on `n` nodes — an attachment tree
/// plus random cross edges, `2n` edges in all.
fn b6_facts(workload: &str, n: usize) -> Vec<(String, String)> {
    if workload == "chain" {
        return (0..n).map(|i| (format!("t{i}"), format!("t{}", i + 1))).collect();
    }
    let g = generate_graph(&GraphSpec::sized(7, n, 2 * n));
    let label = |id| g.node_label(id).expect("live node").to_string();
    g.edges().map(|e| (label(e.src), label(e.dst))).collect()
}

fn b6_inference() {
    println!("## B6 — Horn engines on transitive closure\n");
    println!("| workload | nodes | semi-naive | naive | full-closure | atoms examined (sn / fc) |");
    println!("|---|---|---|---|---|---|");
    let program = HornProgram::parse("si(X, Z) :- si(X, Y), si(Y, Z).").unwrap();
    for workload in ["chain", "random"] {
        for &n in &[32usize, 96] {
            let facts = b6_facts(workload, n);
            let mut times = Vec::new();
            let mut efforts = Vec::new();
            for strat in [Strategy::SemiNaive, Strategy::Naive, Strategy::FullClosure] {
                let mut effort = 0usize;
                let r = run_series("b6_saturate", 3, || {
                    let mut atoms = AtomTable::new();
                    let mut fb = FactBase::new();
                    for (a, b) in &facts {
                        fb.add(&mut atoms, "si", &[a.as_str(), b.as_str()]);
                    }
                    let stats = InferenceEngine::new(program.clone())
                        .with_strategy(strat)
                        .run(&mut atoms, &mut fb)
                        .unwrap();
                    effort = stats.atoms_examined;
                    stats.derived as u64
                });
                times.push(r.median_us);
                efforts.push(effort);
            }
            println!(
                "| {workload} | {n} | {} | {} | {} | {} / {} |",
                fmt_us(times[0]),
                fmt_us(times[1]),
                fmt_us(times[2]),
                efforts[0],
                efforts[2]
            );
        }
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
        let full = run_series("b7_add_kth", 3, || {
            let mut comp = compose_all(&prefix, &lexicon, &mut ThresholdExpert::new(0.9)).unwrap();
            add_source(&mut comp, refs[k - 1], &lexicon, &mut ThresholdExpert::new(0.9)).unwrap();
            comp.steps.len() as u64
        })
        .median_us;
        let prefix_t = run_series("b7_prefix", 3, || {
            compose_all(&prefix, &lexicon, &mut ThresholdExpert::new(0.9)).unwrap().steps.len()
                as u64
        })
        .median_us;
        let merge = run_series("b7_global_merge", 3, || {
            GlobalMerge::rebuild(&refs, &lexicon).merges() as u64
        })
        .median_us;
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
    for &bridged in &[0.0f64, 0.25, 0.75] {
        let spec =
            UpdateSpec { seed: 13, ops: 50, bridged_fraction: bridged, delete_fraction: 0.2 };
        let fx = UpdateFixture::new(pair(59, 1000, 0.2), &spec);
        let (art, ops) = (&fx.art, &fx.ops);
        let (relevant, _) = triage(art, "left", ops);
        let t_triage =
            run_series("b8_triage", 9, || triage(art, "left", ops).0.len() as u64).median_us;
        let t_repair = run_series("b8_repair", 7, || fx.incremental()).median_us;
        let t_rebuild = run_series("b8_rebuild", 5, || fx.rebuild()).median_us;
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

#[cfg(test)]
mod tests {
    use onion_bench::parallel::B10Row;

    use super::*;

    fn row(name: &str, median_us: f64) -> BenchResult {
        BenchResult {
            name: name.into(),
            median_us,
            min_us: median_us,
            max_us: median_us * 1.25,
            reps: 5,
            checksum: 1,
        }
    }

    /// Rows as [`parse_rows`] returns them, each with spread 1.5.
    fn medians(rows: &[(&str, f64)]) -> Vec<(String, f64, f64)> {
        rows.iter().map(|(n, m)| (n.to_string(), *m, 1.5)).collect()
    }

    #[test]
    fn every_named_row_reads_back_from_a_whole_document() {
        let baseline = Baseline {
            results: vec![row("hot_a", 12.5), row("hot_b", 3.0)],
            end_to_end: vec![row("e2e", 4567.8)],
            b10: B10Report {
                rows: vec![B10Row { threads: 1, query_us: 9.0, ..Default::default() }],
                ..Default::default()
            },
            b12: B12Report { rows: vec![row("b12_x", 1.0)], ..Default::default() },
            b13: B13Report {
                rows: vec![row("b13_x", 2.0), row("b13_y", 0.1)],
                ..Default::default()
            },
            b14: B14Report {
                rows: vec![row("b14_x_disabled", 100.0), row("b14_x_enabled", 120.0)],
            },
            b15: B15Report { rows: vec![row("b15_x", 8.25)], ..Default::default() },
        };
        let want: Vec<(String, f64)> =
            baseline.named_rows().map(|r| (r.name.clone(), r.median_us)).collect();
        assert_eq!(want.len(), 9);
        // the unnamed B10 curve rows are not series the gate reads;
        // medians round to the writer's one decimal
        let got = parse_rows(&baseline.to_json());
        assert_eq!(got.len(), want.len());
        for ((gn, gm, gs), (wn, wm)) in got.iter().zip(&want) {
            assert_eq!(gn, wn);
            assert!((gm - wm).abs() < 0.051, "{gn}: {gm} vs {wm}");
            assert_eq!(*gs, 1.25, "{gn}: spread");
        }
    }

    #[test]
    fn uniform_slowdown_fires_nothing() {
        let base = medians(&[("a", 100.0), ("b", 200.0), ("c", 50.0), ("d", 10.0)]);
        let fresh = medians(&[("a", 400.0), ("b", 800.0), ("c", 200.0), ("d", 40.0)]);
        let v = verdict(&base, &fresh).expect("4 common series");
        assert!((v.machine_factor - 4.0).abs() < 1e-9);
        assert!(v.series.iter().all(|s| s.level == Level::Pass));
    }

    #[test]
    fn one_series_4x_slower_fails_exactly_that_series() {
        let base = medians(&[("a", 100.0), ("b", 200.0), ("c", 50.0), ("d", 10.0)]);
        let fresh = medians(&[("a", 100.0), ("b", 800.0), ("c", 50.0), ("d", 10.0)]);
        let v = verdict(&base, &fresh).expect("4 common series");
        assert!((v.machine_factor - 1.0).abs() < 1e-9);
        let failed: Vec<&str> =
            v.series.iter().filter(|s| s.level != Level::Pass).map(|s| s.name.as_str()).collect();
        assert_eq!(failed, ["b"]);
        assert_eq!(v.series.iter().find(|s| s.name == "b").unwrap().level, Level::Fail);
    }

    #[test]
    fn fewer_than_three_common_series_skips_the_comparison() {
        let base = medians(&[("a", 100.0), ("b", 200.0), ("gone", 5.0)]);
        let fresh = medians(&[("a", 900.0), ("b", 200.0), ("new", 5.0)]);
        assert!(verdict(&base, &fresh).is_none());
    }

    #[test]
    fn a_ratio_inside_the_baseline_spread_is_within_noise() {
        let base = medians(&[("a", 100.0), ("b", 100.0), ("c", 100.0), ("d", 100.0)]);
        let fresh = medians(&[("a", 100.0), ("b", 140.0), ("c", 160.0), ("d", 60.0)]);
        let v = verdict(&base, &fresh).expect("4 common series");
        assert!((v.machine_factor - 1.4).abs() < 1e-9);
        // normalised: a 0.71, b 1.0, c 1.14, d 0.43 against spread 1.5
        let noise: Vec<(&str, bool)> =
            v.series.iter().map(|s| (s.name.as_str(), s.within_noise())).collect();
        assert_eq!(noise, [("a", true), ("b", true), ("c", true), ("d", false)]);
        assert!(v.series.iter().all(|s| s.level == Level::Pass), "the gate is unchanged");
    }
}
