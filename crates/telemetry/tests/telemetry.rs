//! Integration tests for rein-telemetry.
//!
//! Telemetry state is process-global and the test harness runs tests on
//! parallel threads, so every test uses names unique to itself and
//! filters global snapshots down to them.

use std::collections::BTreeMap;
use std::time::Duration;

use rayon::prelude::*;
use rein_telemetry::{
    counter, counters_snapshot, current, histogram, span, span_under, HistogramSummary, RunConfig,
    RunManifest, SpanRecord,
};

fn spans_named(prefix: &str) -> Vec<SpanRecord> {
    rein_telemetry::snapshot_spans().into_iter().filter(|s| s.name.starts_with(prefix)).collect()
}

#[test]
fn spans_nest_and_close_in_order() {
    let root = span("nesttest:root");
    let root_ctx = root.ctx();
    {
        let child = span("nesttest:child");
        let _grandchild = span("nesttest:grandchild");
        drop(child); // out-of-order close must not corrupt the stack
    }
    // The stack unwound back to the root span.
    assert_eq!(current(), Some(root_ctx));
    drop(root);
    assert!(!spans_named("nesttest:").iter().any(|s| Some(s.id) == current().map(|c| c.id)));

    let spans = spans_named("nesttest:");
    assert_eq!(spans.len(), 3);
    let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
    let root = by_name("nesttest:root");
    let child = by_name("nesttest:child");
    let grandchild = by_name("nesttest:grandchild");

    assert_eq!(root.depth, 0);
    assert_eq!(child.depth, 1);
    assert_eq!(grandchild.depth, 2);
    assert_eq!(root.parent_id, 0);
    assert_eq!(child.parent_id, root.id);
    assert_eq!(grandchild.parent_id, child.id);

    // Completion order: children finish before their ancestors.
    let pos = |id: u64| spans.iter().position(|s| s.id == id).unwrap();
    assert!(pos(grandchild.id) < pos(root.id));
    assert!(pos(child.id) < pos(root.id));

    // A parent's wall-clock covers its children.
    assert!(root.duration_ms >= child.duration_ms);
    assert!(root.start_ms <= child.start_ms);
}

#[test]
fn finish_returns_the_duration_recorded() {
    let s = span("finishtest:timed");
    std::thread::sleep(Duration::from_millis(5));
    let d = s.finish();
    assert!(d >= Duration::from_millis(5));
    let recs = spans_named("finishtest:");
    assert_eq!(recs.len(), 1);
    let diff = (recs[0].duration_ms - d.as_secs_f64() * 1e3).abs();
    assert!(diff < 1e-9, "record should hold the same duration finish() returned");
}

#[test]
fn counters_sum_correctly_under_rayon() {
    let parent = span("rayontest:fanout");
    let parent_ctx = Some(parent.ctx());
    let cells = counter("rayontest_cells");
    let before = cells.get();

    let total: u64 = (0..64u64)
        .collect::<Vec<_>>()
        .par_iter()
        .map(|&i| {
            let _s = span_under("rayontest:item", parent_ctx);
            let c = counter("rayontest_cells");
            for _ in 0..100 {
                c.incr();
            }
            i
        })
        .sum();

    assert_eq!(total, (0..64).sum::<u64>());
    assert_eq!(cells.get() - before, 64 * 100, "increments must not be lost across threads");
    drop(parent);

    let items = spans_named("rayontest:item");
    assert_eq!(items.len(), 64);
    let parent_rec = spans_named("rayontest:fanout").pop().unwrap();
    for item in items {
        assert_eq!(item.parent_id, parent_rec.id, "worker spans attach to the captured parent");
        assert_eq!(item.depth, parent_rec.depth + 1);
    }
}

#[test]
fn histogram_percentiles_land_in_the_right_buckets() {
    let h = histogram("histtest_latency");
    for _ in 0..50 {
        h.record(Duration::from_millis(1));
    }
    for _ in 0..40 {
        h.record(Duration::from_millis(4));
    }
    for _ in 0..10 {
        h.record(Duration::from_millis(16));
    }
    let s = h.summary();
    assert_eq!(s.count, 100);
    // Mean and max come from exact running aggregates.
    assert!((s.mean_ms - 3.7).abs() < 1e-9, "mean {}", s.mean_ms);
    assert!((s.max_ms - 16.0).abs() < 1e-9, "max {}", s.max_ms);
    // Percentiles are bucket-interpolated: assert the containing bucket.
    // 1ms lands in [0.52, 1.05)ms, 4ms in [2.10, 4.20)ms, 16ms in [8.39, 16.78)ms.
    assert!((0.5..1.1).contains(&s.p50_ms), "p50 {}", s.p50_ms);
    assert!((2.0..4.3).contains(&s.p90_ms), "p90 {}", s.p90_ms);
    assert!((8.3..16.8).contains(&s.p99_ms), "p99 {}", s.p99_ms);
    // Monotone.
    assert!(s.p50_ms <= s.p90_ms && s.p90_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
}

#[test]
fn manifest_roundtrips_losslessly_through_json() {
    let mut counters = BTreeMap::new();
    counters.insert("cells_scanned".to_string(), 123_456u64);
    counters.insert("rng_draws".to_string(), u64::MAX); // must survive as u64
    let mut histograms = BTreeMap::new();
    histograms.insert(
        "detector_runtime".to_string(),
        HistogramSummary {
            count: 12,
            mean_ms: 3.25,
            p50_ms: 2.0,
            p90_ms: 7.5,
            p95_ms: 8.25,
            p99_ms: 9.125,
            max_ms: 9.5,
        },
    );
    let manifest = RunManifest {
        binary: "fig2_detection".to_string(),
        config: RunConfig {
            scale: 0.05,
            repeats: 3,
            seed: 0xDEAD_BEEF_CAFE_F00D,
            label_budget: 100,
            threads: 4,
        },
        mode: "full".to_string(),
        span_rollup: Vec::new(),
        spans: vec![
            SpanRecord {
                name: "phase:setup".to_string(),
                id: 1,
                parent_id: 0,
                depth: 0,
                start_ms: 0.125,
                duration_ms: 10.5,
                trace_id: 0,
                instant: false,
            },
            SpanRecord {
                name: "detect:raha".to_string(),
                id: 2,
                parent_id: 1,
                depth: 1,
                start_ms: 1.0,
                duration_ms: 4.75,
                trace_id: 0x1234_5678_9ABC_DEF0,
                instant: false,
            },
        ],
        counters,
        histograms,
        failures: vec![rein_telemetry::FailureRecord {
            phase: "detect".to_string(),
            strategy: "raha".to_string(),
            dataset: "beers".to_string(),
            scope: String::new(),
            cause: "panic: boom".to_string(),
            attempts: 2,
            elapsed_ms: 4.5,
            trace_id: "123456789abcdef0".to_string(),
        }],
    };

    let json = manifest.to_json();
    let back = RunManifest::from_json(&json).expect("manifest parses back");
    assert_eq!(back, manifest);
    // Pre-guard manifests carry no `failures` key; the field defaults.
    let legacy = json.replace("\"failures\"", "\"failures_legacy\"");
    let back = RunManifest::from_json(&legacy).expect("legacy manifest parses");
    assert!(back.failures.is_empty());

    // The manifest path embeds binary and seed.
    assert!(manifest
        .path()
        .to_string_lossy()
        .ends_with(&format!("fig2_detection-{}.json", 0xDEAD_BEEF_CAFE_F00Du64)));
}

#[test]
fn collected_manifest_sees_global_state() {
    counter("collecttest_counter").add(7);
    histogram("collecttest_hist").record(Duration::from_micros(250));
    {
        let _s = span("collecttest:phase");
    }
    let config = RunConfig { scale: 1.0, repeats: 1, seed: 99, label_budget: 50, threads: 1 };
    let m = RunManifest::collect("collecttest", config);
    assert!(m.counters.get("collecttest_counter").copied().unwrap_or(0) >= 7);
    assert!(m.histograms["collecttest_hist"].count >= 1);
    assert!(m.spans.iter().any(|s| s.name == "collecttest:phase"));
    // Roundtrip of a collected (not hand-built) manifest.
    let back = RunManifest::from_json(&m.to_json()).unwrap();
    assert_eq!(back.binary, "collecttest");
    assert_eq!(back.config, m.config);
    assert_eq!(back.counters, m.counters);
}

#[test]
fn registry_snapshot_matches_serial_sum_under_contention() {
    // Hammer one shared counter, a per-worker counter family, and one
    // shared histogram from rayon workers simultaneously; the merged
    // global snapshot must equal what a serial run would produce.
    const WORKERS: u64 = 32;
    const OPS: u64 = 1_000;
    let shared_before = counter("hammertest_shared").get();
    let hist_before = histogram("hammertest_hist").summary();

    (0..WORKERS).collect::<Vec<_>>().par_iter().for_each(|&w| {
        let shared = counter("hammertest_shared");
        let own = counter(&format!("hammertest_worker_{w}"));
        let hist = histogram("hammertest_hist");
        for i in 0..OPS {
            shared.add(w + 1);
            own.incr();
            if i % 100 == 0 {
                hist.record(Duration::from_micros(w + 1));
            }
        }
    });

    // Serial expectation: sum over workers of OPS * (w + 1).
    let expected_shared: u64 = (0..WORKERS).map(|w| OPS * (w + 1)).sum();
    assert_eq!(
        counter("hammertest_shared").get() - shared_before,
        expected_shared,
        "shared counter must merge without losing increments"
    );
    let snap = counters_snapshot();
    for w in 0..WORKERS {
        assert_eq!(
            snap.get(&format!("hammertest_worker_{w}")).copied(),
            Some(OPS),
            "per-worker counter {w} must appear in the snapshot with its full count"
        );
    }
    let hist_after = histogram("hammertest_hist").summary();
    let recorded = WORKERS * (OPS / 100);
    assert_eq!(
        hist_after.count - hist_before.count,
        recorded,
        "histogram must record every observation across threads"
    );
    // The slowest observation (WORKERS microseconds) survives the merge.
    assert!(hist_after.max_ms >= WORKERS as f64 / 1000.0 - 1e-9, "max {}", hist_after.max_ms);
}
