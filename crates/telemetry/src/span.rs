//! Hierarchical wall-clock spans.
//!
//! Each thread keeps a stack of open spans; [`span`] parents a new span
//! under the top of the current thread's stack. A top-level rayon stage
//! runs closures on worker threads whose stacks start empty, so parallel
//! code captures the parent context first and opens children explicitly
//! (a stage nested inside a worker's item runs inline on that worker and
//! sees its stack):
//!
//! ```ignore
//! let parent = rein_telemetry::current();
//! items.par_iter().map(|it| {
//!     let _s = rein_telemetry::span_under("detect:one", parent);
//!     ...
//! })
//! ```
//!
//! Finished spans accumulate in a process-global *sharded* sink: each
//! worker thread appends to its own buffer (round-robin shard
//! assignment on first use, one buffer per available core), so parallel
//! stages never contend on one list lock. Snapshots merge the shards
//! deterministically — ordered by the global close epoch each record
//! was stamped with, tie-broken by span path and per-shard sequence —
//! so the merged stream is byte-identical no matter how many shards the
//! records were scattered across, and a one-shard sink reproduces the
//! historical single-stream completion order exactly.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::log::{emit, enabled, Level};

/// A lightweight handle to an open span, safe to copy into closures
/// running on other threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// Process-unique span id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// Nesting depth, 0 for root spans.
    pub depth: u32,
    /// Cell trace this span belongs to (0 = ambient, outside any cell).
    pub trace_id: u64,
}

/// Explicit causal coordinates of one span: which cell trace it belongs
/// to and where it hangs in that trace's tree. `trace_id` is the
/// FNV-1a-64 digest of the owning cell's `CellKey` identity (see
/// DESIGN.md §6i), so the same grid cell maps to the same trace id at
/// any thread or shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Cell trace id (`CellKey::hash()`); 0 for ambient spans.
    pub trace_id: u64,
    /// This span's process-unique id.
    pub span_id: u64,
    /// Parent span id, 0 at the roots.
    pub parent_id: u64,
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name, e.g. `"phase:detect"` or `"detect:raha"`.
    pub name: String,
    /// Process-unique id.
    pub id: u64,
    /// Parent span id, or 0 for root spans.
    pub parent_id: u64,
    /// Nesting depth, 0 for root spans.
    pub depth: u32,
    /// Start offset in milliseconds from the first telemetry event of
    /// the process.
    pub start_ms: f64,
    /// Wall-clock duration in milliseconds.
    pub duration_ms: f64,
    /// Cell trace this span belongs to: the FNV-1a-64 digest of the
    /// owning cell's `CellKey` identity, inherited from the enclosing
    /// span. 0 (the serde default, covering pre-trace manifests) marks
    /// ambient spans outside any cell.
    #[serde(default)]
    pub trace_id: u64,
    /// True for zero-duration instant events (guard retries/failures)
    /// attached to the trace at a point in time rather than an interval.
    #[serde(default)]
    pub instant: bool,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Process start reference for `start_ms` offsets. Reads the clock
/// through [`crate::perf::now`] — the one sanctioned wall-clock source.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(crate::perf::now)
}

/// One shard entry: the global close epoch the record was stamped with
/// when it finished, and the record itself. The epoch never reaches the
/// serialized manifest — it exists only to give the merge a total order
/// that is independent of which shard held the record.
type ShardEntry = (u64, SpanRecord);

/// The sharded span sink: per-worker buffers plus the global close
/// epoch. Worker threads are assigned shards round-robin on their first
/// finished span; a single-threaded process therefore lands every
/// record in one shard regardless of the shard count, and the merge of
/// one shard is the historical completion-order stream unchanged.
pub(crate) struct SpanSink {
    shards: Vec<Mutex<Vec<ShardEntry>>>,
    close_epoch: AtomicU64,
    next_worker: AtomicUsize,
}

impl SpanSink {
    /// A sink with `shards` buffers (clamped to at least one).
    pub(crate) fn new(shards: usize) -> SpanSink {
        SpanSink {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            close_epoch: AtomicU64::new(0),
            next_worker: AtomicUsize::new(0),
        }
    }

    /// Round-robin shard assignment for a newly seen worker thread.
    fn assign_shard(&self) -> usize {
        self.next_worker.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Appends a finished record to `shard`, stamping it with the next
    /// global close epoch. The epoch increment is a single relaxed
    /// atomic add; only the per-shard lock is taken, so workers on
    /// different shards never contend.
    pub(crate) fn record(&self, shard: usize, record: SpanRecord) {
        let epoch = self.close_epoch.fetch_add(1, Ordering::Relaxed);
        let buffer = &self.shards[shard % self.shards.len()];
        #[expect(
            clippy::expect_used,
            reason = "span shard lock poisoning only follows another panic"
        )]
        buffer.lock().expect("span shard lock").push((epoch, record));
    }

    /// Copies every shard out and merges deterministically.
    pub(crate) fn snapshot(&self) -> Vec<SpanRecord> {
        #[expect(
            clippy::expect_used,
            reason = "span shard lock poisoning only follows another panic"
        )]
        let shards =
            self.shards.iter().map(|s| s.lock().expect("span shard lock").clone()).collect();
        merge_shards(shards)
    }

    /// Removes every record from every shard and merges them.
    pub(crate) fn drain(&self) -> Vec<SpanRecord> {
        #[expect(
            clippy::expect_used,
            reason = "span shard lock poisoning only follows another panic"
        )]
        let shards = self
            .shards
            .iter()
            .map(|s| std::mem::take(&mut *s.lock().expect("span shard lock")))
            .collect();
        merge_shards(shards)
    }

    /// Clears every shard without touching the epoch (epochs, like span
    /// ids, are process-monotonic).
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            #[expect(
                clippy::expect_used,
                reason = "span shard lock poisoning only follows another panic"
            )]
            s.lock().expect("span shard lock").clear();
        }
    }
}

/// Total order over shard entries for the deterministic merge: the
/// global close epoch first, then span path and the remaining record
/// fields so the comparator is total even under synthetic epoch ties.
/// Because the key never mentions the shard an entry came from, the
/// merged order is invariant under any re-sharding of the same records
/// — merging is associative and commutative in the shard list.
fn cmp_entries(a: &ShardEntry, b: &ShardEntry) -> std::cmp::Ordering {
    let (ea, ra) = a;
    let (eb, rb) = b;
    ea.cmp(eb)
        .then_with(|| ra.name.cmp(&rb.name))
        .then_with(|| ra.id.cmp(&rb.id))
        .then_with(|| ra.parent_id.cmp(&rb.parent_id))
        .then_with(|| ra.depth.cmp(&rb.depth))
        .then_with(|| ra.start_ms.total_cmp(&rb.start_ms))
        .then_with(|| ra.duration_ms.total_cmp(&rb.duration_ms))
        .then_with(|| ra.trace_id.cmp(&rb.trace_id))
        .then_with(|| ra.instant.cmp(&rb.instant))
}

/// Merges shard buffers into one deterministic stream, keeping the
/// epoch stamps (so a merged stream can itself be treated as a shard —
/// the associativity tests rely on this).
pub(crate) fn merge_entries(shards: Vec<Vec<ShardEntry>>) -> Vec<ShardEntry> {
    let mut all: Vec<ShardEntry> = shards.into_iter().flatten().collect();
    all.sort_by(cmp_entries);
    all
}

/// Merges shard buffers into the final record stream (epoch stamps
/// stripped). With real (process-unique) epochs this reconstructs the
/// exact global completion order, so shard count cannot perturb a
/// manifest's span list.
pub(crate) fn merge_shards(shards: Vec<Vec<ShardEntry>>) -> Vec<SpanRecord> {
    merge_entries(shards).into_iter().map(|(_, r)| r).collect()
}

/// The global sink: one shard per available core.
fn sink() -> &'static SpanSink {
    static SINK: OnceLock<SpanSink> = OnceLock::new();
    SINK.get_or_init(|| {
        SpanSink::new(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
    })
}

thread_local! {
    static STACK: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
    /// The shard this worker thread writes finished spans to, assigned
    /// round-robin by the sink the first time the thread records one.
    static WORKER_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's shard in the global sink.
fn worker_shard() -> usize {
    WORKER_SHARD.with(|c| match c.get() {
        Some(s) => s,
        None => {
            let s = sink().assign_shard();
            c.set(Some(s));
            s
        }
    })
}

/// The innermost span open on the current thread, if any. Capture this
/// before a rayon fan-out and pass it to [`span_under`] inside the
/// parallel closure.
pub fn current() -> Option<SpanCtx> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Makes `ctx` this thread's innermost open span until the returned
/// guard drops, without opening a span: the items of a fan-out that run
/// on another thread open their spans under the span the fan-out
/// started in, as the items that run on its own thread do.
pub fn adopt(ctx: SpanCtx) -> Adopted {
    STACK.with(|s| s.borrow_mut().push(ctx));
    Adopted(ctx.id)
}

/// Guard of [`adopt`]; removes the adopted context on drop.
#[derive(Debug)]
pub struct Adopted(u64);

impl Drop for Adopted {
    fn drop(&mut self) {
        remove_from_stack(self.0);
    }
}

/// Removes the innermost entry for span `id` from this thread's stack.
/// By id rather than blindly popping the top: a guard moved across
/// threads or dropped out of order must not corrupt the stack of
/// unrelated spans.
fn remove_from_stack(id: u64) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|c| c.id == id) {
            stack.remove(pos);
        }
    });
}

/// An open span; records itself when dropped or [`finish`](Span::finish)ed.
#[derive(Debug)]
pub struct Span {
    name: String,
    id: u64,
    parent_id: u64,
    depth: u32,
    trace_id: u64,
    start_ms: f64,
    start: Instant,
    closed: bool,
}

/// Opens a span parented under the current thread's innermost open span,
/// inheriting its trace context.
pub fn span(name: impl Into<String>) -> Span {
    span_under(name, current())
}

/// Opens a span under an explicit parent (or as a root when `None`).
/// This is the fan-out form: the parent context travels into worker
/// threads by value, so nesting stays correct under rayon. The trace id
/// is inherited from the parent; parallel worker roots must instead use
/// [`span_traced`] with their cell-derived trace id (the `trace-context`
/// audit rule enforces this inside the certified parallel region).
pub fn span_under(name: impl Into<String>, parent: Option<SpanCtx>) -> Span {
    span_traced(name, parent, parent.map_or(0, |p| p.trace_id))
}

/// Opens a **cell trace root** (or a span pinned to an explicit trace):
/// parented under `parent` for tree structure, but carrying `trace_id`
/// — the FNV-1a-64 digest of the owning cell's `CellKey` identity —
/// instead of the ambient one. Every span subsequently opened on the
/// same thread (guard spans, kernel spans, instant events) inherits the
/// id through the thread-local stack, so the whole per-cell subtree is
/// reconstructible from the merged stream no matter which rayon worker
/// or sink shard carried each record.
pub fn span_traced(name: impl Into<String>, parent: Option<SpanCtx>, trace_id: u64) -> Span {
    let name = name.into();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let depth = parent.map_or(0, |p| p.depth + 1);
    let parent_id = parent.map_or(0, |p| p.id);
    let start_ms = epoch().elapsed().as_secs_f64() * 1e3;
    STACK.with(|s| s.borrow_mut().push(SpanCtx { id, depth, trace_id }));
    if enabled(Level::Debug) {
        emit(Level::Debug, &format!("{}+ open {name} depth={depth}", Indent(depth)));
    }
    Span {
        name,
        id,
        parent_id,
        depth,
        trace_id,
        start_ms,
        start: crate::perf::now(),
        closed: false,
    }
}

/// Records a zero-duration **instant event** attached to the current
/// thread's innermost open span (guard failures, retries, deadline
/// exhaustion). The event lands in the sink immediately, carrying the
/// enclosing span's trace id, so a degraded cell's trace shows *when*
/// inside the guarded call the failure happened.
pub fn instant(name: impl Into<String>) {
    let parent = current();
    let record = SpanRecord {
        name: name.into(),
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent_id: parent.map_or(0, |p| p.id),
        depth: parent.map_or(0, |p| p.depth + 1),
        start_ms: epoch().elapsed().as_secs_f64() * 1e3,
        duration_ms: 0.0,
        trace_id: parent.map_or(0, |p| p.trace_id),
        instant: true,
    };
    if enabled(Level::Debug) {
        emit(Level::Debug, &format!("{}! instant {}", Indent(record.depth), record.name));
    }
    sink().record(worker_shard(), record);
}

/// The trace context of the current thread's innermost open span, if
/// any. Guard code captures this when building failure records so the
/// report's failure taxonomy can link each row to its cell trace.
pub fn current_trace() -> Option<TraceContext> {
    STACK.with(|s| {
        let stack = s.borrow();
        let top = stack.last()?;
        let parent_id = stack.len().checked_sub(2).map_or(0, |i| stack[i].id);
        Some(TraceContext { trace_id: top.trace_id, span_id: top.id, parent_id })
    })
}

/// Depth-proportional indentation for debug span events.
struct Indent(u32);

impl std::fmt::Display for Indent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for _ in 0..self.0 {
            f.write_str("  ")?;
        }
        Ok(())
    }
}

impl Span {
    /// Handle for parenting children (possibly on other threads).
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx { id: self.id, depth: self.depth, trace_id: self.trace_id }
    }

    /// This span's explicit causal coordinates.
    pub fn trace_context(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id: self.id, parent_id: self.parent_id }
    }

    /// Closes the span now and returns its wall-clock duration.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        if self.closed {
            return Duration::ZERO;
        }
        self.closed = true;
        let duration = self.start.elapsed();
        remove_from_stack(self.id);
        let record = SpanRecord {
            name: std::mem::take(&mut self.name),
            id: self.id,
            parent_id: self.parent_id,
            depth: self.depth,
            start_ms: self.start_ms,
            duration_ms: duration.as_secs_f64() * 1e3,
            trace_id: self.trace_id,
            instant: false,
        };
        if enabled(Level::Debug) {
            emit(
                Level::Debug,
                &format!(
                    "{}- close {} depth={} ({:.3}ms)",
                    Indent(record.depth),
                    record.name,
                    record.depth,
                    record.duration_ms
                ),
            );
        }
        sink().record(worker_shard(), record);
        duration
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Copies out every finished span, in global completion order (the
/// deterministic merge of the per-worker shards).
pub fn snapshot_spans() -> Vec<SpanRecord> {
    sink().snapshot()
}

/// Removes and returns every finished span, in global completion order.
pub fn drain_spans() -> Vec<SpanRecord> {
    sink().drain()
}

pub(crate) fn reset_spans() {
    sink().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, id: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            id,
            parent_id: 0,
            depth: 0,
            start_ms: id as f64,
            duration_ms: 1.0,
            trace_id: 0,
            instant: false,
        }
    }

    /// A fixed stream of records with unique epochs, as a real run
    /// produces (the close epoch is a process-global atomic).
    fn stream() -> Vec<ShardEntry> {
        ["phase:detect", "detect:raha", "detect:raha", "repair:mean", "phase:repair", "detect:sd"]
            .iter()
            .enumerate()
            .map(|(i, name)| (i as u64, rec(name, 100 + i as u64)))
            .collect()
    }

    /// Distributes a stream round-robin over `n` shards, as round-robin
    /// worker assignment would under an adversarial scheduler.
    fn scatter(entries: &[ShardEntry], n: usize) -> Vec<Vec<ShardEntry>> {
        let mut shards = vec![Vec::new(); n];
        for (i, e) in entries.iter().enumerate() {
            shards[i % n].push(e.clone());
        }
        shards
    }

    #[test]
    fn one_shard_merge_is_the_identity_stream() {
        let s = stream();
        let merged = merge_shards(vec![s.clone()]);
        let plain: Vec<SpanRecord> = s.into_iter().map(|(_, r)| r).collect();
        assert_eq!(merged, plain, "a single shard must reproduce the single-stream order");
    }

    #[test]
    fn one_vs_n_shards_merge_byte_identically() {
        let s = stream();
        let one = merge_shards(vec![s.clone()]);
        for n in [2, 3, 4, 7] {
            let scattered = merge_shards(scatter(&s, n));
            let a = serde_json::to_string(&one).expect("serializes");
            let b = serde_json::to_string(&scattered).expect("serializes");
            assert_eq!(a, b, "{n}-shard merge must be byte-identical to the 1-shard stream");
        }
    }

    #[test]
    fn merge_is_commutative_in_shard_order() {
        let s = stream();
        let shards = scatter(&s, 3);
        let forward = merge_shards(shards.clone());
        let mut reversed = shards.clone();
        reversed.reverse();
        assert_eq!(merge_shards(reversed), forward);
        let rotated = vec![shards[1].clone(), shards[2].clone(), shards[0].clone()];
        assert_eq!(merge_shards(rotated), forward);
    }

    #[test]
    fn merge_is_associative() {
        let s = stream();
        let shards = scatter(&s, 3);
        let all_at_once = merge_entries(shards.clone());
        let ab_then_c = merge_entries(vec![
            merge_entries(vec![shards[0].clone(), shards[1].clone()]),
            shards[2].clone(),
        ]);
        let a_then_bc = merge_entries(vec![
            shards[0].clone(),
            merge_entries(vec![shards[1].clone(), shards[2].clone()]),
        ]);
        assert_eq!(ab_then_c, all_at_once);
        assert_eq!(a_then_bc, all_at_once);
    }

    #[test]
    fn epoch_ties_break_by_span_path_then_record_fields() {
        // Synthetic duplicate epochs (cannot happen with the atomic
        // epoch, but the comparator must stay total): path decides.
        let a = (5u64, rec("detect:zeta", 1));
        let b = (5u64, rec("detect:alpha", 2));
        let merged = merge_shards(vec![vec![a.clone()], vec![b.clone()]]);
        assert_eq!(merged[0].name, "detect:alpha");
        assert_eq!(merged[1].name, "detect:zeta");
        let swapped = merge_shards(vec![vec![b], vec![a]]);
        assert_eq!(merged, swapped);
    }

    #[test]
    fn trace_id_inherits_through_nested_spans_and_instants() {
        // A traced root on this thread: children and instants opened
        // with no explicit context must inherit its trace id.
        let root = span_traced("cell:detect:unit", None, 0xFEED);
        assert_eq!(root.trace_context().trace_id, 0xFEED);
        let child = span("detect:unit");
        assert_eq!(child.ctx().trace_id, 0xFEED, "ambient child inherits the trace");
        assert_eq!(current_trace().map(|t| t.trace_id), Some(0xFEED));
        instant("guard:retry");
        let child_id = child.ctx().id;
        drop(child);
        drop(root);
        let spans = drain_spans();
        let inst =
            spans.iter().find(|r| r.instant && r.name == "guard:retry").expect("instant recorded");
        assert_eq!(inst.trace_id, 0xFEED);
        assert_eq!(inst.parent_id, child_id, "instant parents under the innermost span");
        assert_eq!(inst.duration_ms, 0.0);
        for r in spans.iter().filter(|r| !r.instant) {
            if r.name == "cell:detect:unit" || r.name == "detect:unit" {
                assert_eq!(r.trace_id, 0xFEED, "{}", r.name);
            }
        }
    }

    #[test]
    fn pre_trace_records_deserialize_with_zero_trace_id() {
        // A span serialized before the trace fields existed.
        let old = r#"{"name":"detect:raha","id":3,"parent_id":1,"depth":1,
                      "start_ms":0.5,"duration_ms":2.0}"#;
        let r: SpanRecord = serde_json::from_str(old).expect("old record parses");
        assert_eq!(r.trace_id, 0);
        assert!(!r.instant);
    }

    #[test]
    fn sink_round_robins_workers_and_merges_deterministically() {
        let sink = SpanSink::new(4);
        assert_eq!(sink.shards.len(), 4);
        // Simulate three workers, each recording into its assigned shard.
        let shards: Vec<usize> = (0..3).map(|_| sink.assign_shard()).collect();
        assert_eq!(shards, [0, 1, 2]);
        sink.record(shards[1], rec("b", 2));
        sink.record(shards[0], rec("a", 1));
        sink.record(shards[2], rec("c", 3));
        let snap = sink.snapshot();
        // Order is the global close epoch: b (epoch 0), a (1), c (2).
        let names: Vec<&str> = snap.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["b", "a", "c"]);
        assert_eq!(sink.drain(), snap);
        assert!(sink.snapshot().is_empty());
    }
}
