//! Observability tour: turn on `onion-obs` recording, drive the
//! instrumented layers (publish, WAL, checkpoint, SKAT proposals,
//! inference, query batches), and dump the metrics in both export
//! formats.
//!
//! ```text
//! cargo run --example observability
//! ```
//!
//! Recording is off by default — every instrumented hot path pays one
//! relaxed atomic load and nothing else. This example flips it on via
//! [`OnionSystem::set_observability`], runs a small end-to-end session,
//! and prints the Prometheus text export plus the JSON snapshot. It
//! asserts that the headline series (publish spans, WAL flush spans,
//! SKAT proposal spans, inference rounds, query-batch spans) all carry
//! nonzero samples, and
//! that the Prometheus rendering passes the format lint.

use onion_core::obs;
use onion_core::prelude::*;
use onion_core::OnionSystem;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("onion_obs_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut onion = OnionSystem::with_transport_lexicon();
    onion.set_observability(true);
    onion.add_source(examples::carrier());
    onion.add_source(examples::factory());

    // --- durability: bootstrap logs + flushes + checkpoints the source --
    let opened = onion.open_durable("carrier", &dir)?;
    println!("durable open: recovered = {}", opened.recovered);

    // --- edit + publish rounds: journal → WAL group flush → new epoch ---
    for i in 0..3 {
        let g = onion.source_mut("carrier").expect("loaded").graph_mut();
        onion_core::graph::ops::apply_all(g, &[GraphOp::node_add(&format!("ObsDemo{i}"))])?;
        let (_lsn, stats) = onion.publish_source("carrier")?;
        println!("publish round {i}: rebuilt {} / reused {}", stats.rebuilt, stats.reused);
    }
    let ckpt = onion.checkpoint_source("carrier")?;
    println!("checkpoint: wrote {} shards, reused {}", ckpt.shards_written, ckpt.shards_reused);

    // --- articulation with inference expansion (drives round metrics) ---
    let mut generator = GeneratorConfig::default();
    generator.expand_with_inference = true;
    onion.set_engine_config(EngineConfig { generator, ..Default::default() });
    onion.add_rules(examples::fig2_rules_text())?;
    let report = onion.articulate("carrier", "factory", &mut AcceptAll)?;
    println!("articulate: {} accepted over {} rounds", report.accepted, report.rounds);

    // --- a parallel query batch over small knowledge bases --------------
    let mut carrier_kb = KnowledgeBase::new("carrier");
    carrier_kb.add(Instance::new("MyCar", "Cars").with("Price", Value::Num(2203.71)));
    carrier_kb.add(Instance::new("t1", "Trucks").with("Price", Value::Num(66111.3)));
    let mut factory_kb = KnowledgeBase::new("factory");
    factory_kb.add(Instance::new("t7", "Truck").with("Price", Value::Num(19599.0)));
    onion.add_knowledge_base(carrier_kb);
    onion.add_knowledge_base(factory_kb);
    let exec = Executor::new(2);
    let results = onion.query_batch(&exec, &["find Truck(Price)", "find Vehicle(Price)"]);
    for (text, r) in ["find Truck(Price)", "find Vehicle(Price)"].iter().zip(&results) {
        match r {
            Ok(rs) => println!("query `{text}` → {} rows", rs.len()),
            Err(e) => println!("query `{text}` → error: {e}"),
        }
    }

    // --- reopen the durable dir: recovery emits a structured event ------
    drop(onion);
    let mut reopened = OnionSystem::with_transport_lexicon();
    let second = reopened.open_durable("carrier", &dir)?;
    println!("durable reopen: recovered = {}", second.recovered);

    // --- dump both export formats ---------------------------------------
    let snap = reopened.metrics_snapshot();
    let prom = snap.to_prometheus();
    println!("\n=== Prometheus text format ===\n{prom}");
    println!("=== JSON snapshot ===\n{}", snap.to_json());

    // the headline series must all have recorded real samples
    obs::lint_prometheus(&prom).map_err(|e| format!("prometheus lint: {e}"))?;
    let hist_count = |name: &str| snap.histogram(name).map(|h| h.count).unwrap_or(0);
    assert!(hist_count("onion_span_publish_us") > 0, "publish spans recorded");
    assert!(hist_count("onion_span_wal_flush_us") > 0, "WAL flush spans recorded");
    assert!(snap.counter("onion_inference_rounds_total").unwrap_or(0) > 0, "inference rounds");
    assert!(hist_count("onion_span_inference_us") > 0, "saturation spans recorded");
    assert!(hist_count("onion_span_skat_propose_us") > 0, "SKAT proposal spans recorded");
    assert!(hist_count("onion_span_query_batch_us") > 0, "query-batch spans recorded");

    // recovery / torn-tail trace events land in the bounded ring
    let events = obs::trace_events();
    assert!(events.iter().any(|e| e.name == "recovery"), "recovery event traced");
    for e in &events {
        println!("trace event #{}: {} {:?}", e.seq, e.name, e.fields);
    }

    std::fs::remove_dir_all(&dir)?;
    println!("\nall headline series carry samples; prometheus lint passed.");
    Ok(())
}
