//! Observability for the REIN benchmark pipeline.
//!
//! Four pieces, all backed by process-global state so instrumentation
//! never threads handles through APIs:
//!
//! * **Spans** ([`span`], [`span_under`]) — hierarchical wall-clock
//!   timers. Nesting is tracked per thread; a parent context can be
//!   captured with [`current`] and handed across a rayon fan-out so
//!   worker-thread spans attach to the right parent.
//! * **Traces** ([`span_traced`], [`instant`], [`trace`]) — causal
//!   per-cell trace trees. A cell root span carries a `trace_id`
//!   derived from its `CellKey` digest; descendants and instant events
//!   inherit it through the thread-local stack, and [`trace`]
//!   reconstructs the merged stream into per-cell trees with canonical
//!   Chrome trace-event / flamegraph SVG / cost-table exports.
//! * **Metrics** ([`counter`], [`histogram`]) — named monotonic
//!   counters and log-bucketed duration histograms with percentile
//!   summaries. Counter increments are single relaxed atomic adds and
//!   safe to call from parallel iterators.
//! * **Log emitter** ([`info!`], [`debug!`]) — stderr events gated by
//!   the `REIN_LOG` environment variable (`off`, `info`, `debug`).
//!   When a level is disabled the macro costs one atomic load; the
//!   message is never formatted.
//! * **Run manifests** ([`RunManifest`]) — a serializable snapshot of
//!   the run configuration, every finished span, and all metric values,
//!   written to `artifacts/telemetry/<binary>-<seed>.json` by each
//!   benchmark binary.
//! * **Performance primitives** ([`perf`]) — the single audit-sanctioned
//!   wall-clock source ([`perf::now`], [`perf::Stopwatch`]), an optional
//!   allocation-counting global allocator, and the span-tree profiler
//!   ([`perf::span_profile`]) behind the benchmark's per-layer breakdown
//!   and the ledger's profile diffs.
//!
//! Typical binary skeleton:
//!
//! ```no_run
//! let _run = rein_telemetry::span("run");
//! {
//!     let _p = rein_telemetry::span("phase:setup");
//!     // ... load datasets ...
//! }
//! {
//!     let _p = rein_telemetry::span("phase:detect");
//!     rein_telemetry::counter("detector_invocations").incr();
//! }
//! drop(_run);
//! let config = rein_telemetry::RunConfig {
//!     scale: 0.05,
//!     repeats: 3,
//!     seed: 7,
//!     label_budget: 100,
//!     threads: 1,
//! };
//! let manifest = rein_telemetry::RunManifest::collect("fig2_detection", config);
//! manifest.write().expect("manifest written");
//! ```

mod failures;
mod log;
mod manifest;
mod metrics;
pub mod perf;
mod span;
pub mod trace;

pub use failures::{failures_snapshot, record_failure, FailureRecord};
pub use log::{emit, enabled, level, set_level, Level};
pub use manifest::{
    manifest_dir, manifest_mode, summarize_spans, ManifestMode, RunConfig, RunManifest, SpanRollup,
    SUMMARY_SPANS_PER_NAME,
};
pub use metrics::{
    counter, counters_snapshot, histogram, histograms_snapshot, Counter, Histogram,
    HistogramSummary,
};
pub use span::{
    adopt, current, current_trace, drain_spans, instant, snapshot_spans, span, span_traced,
    span_under, Adopted, Span, SpanCtx, SpanRecord, TraceContext,
};
pub use trace::{
    build_traces, cell_costs, chrome_trace_json, flamegraph_svg, CellCost, CellTrace, OrphanSpan,
    TraceForest, TraceNode,
};

/// FNV-1a 64-bit over `bytes`: the workspace's one content hash. It is
/// tiny, dependency free and byte-stable across platforms; ledger
/// content keys, cell keys, the store's shard choice, guard budget jitter and
/// flamegraph colours all use it. Not collision resistant.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write_bytes(bytes);
    h.finish()
}

/// [`fnv1a64`] fed in pieces: the hash of the pieces' concatenation.
/// As a [`std::fmt::Write`] sink it hashes formatted text without
/// building the string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Folds `bytes` into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Clears all recorded spans, metric values (counters reset to zero,
/// histograms emptied) and failure records. Intended for tests and for
/// binaries that run several independent experiments in one process.
pub fn reset() {
    span::reset_spans();
    metrics::reset_metrics();
    failures::reset_failures();
}
