//! Causal trace trees keyed by cell identity, and their canonical
//! exports (DESIGN.md §6i).
//!
//! The sharded span sink (PR 6) yields a flat merged stream; this
//! module folds that stream back into one tree per **cell trace** — all
//! spans and instant events whose `trace_id` is the FNV-1a-64 digest of
//! the owning cell's `CellKey` identity. Because a cell executes
//! sequentially on one worker, the relative order of its records in the
//! merged stream is scheduling-invariant, so the reconstructed trees
//! are identical at any `REIN_THREADS` setting and sink shard count.
//!
//! Three canonical exports are derived from the forest, all
//! byte-stable across double runs *and* across thread/shard counts:
//!
//! * **Chrome trace-event JSON** ([`chrome_trace_json`]) — openable in
//!   Perfetto / `chrome://tracing`. Wall-clock timestamps and real
//!   worker ids vary run to run, so the export uses *virtual lanes*:
//!   `pid` is a deterministic round-robin virtual shard, `tid` a
//!   virtual worker unique to the cell, and `ts`/`dur` are tick counts
//!   assigned by depth-first walk (1 tick = 1 span or instant).
//! * **Flamegraph SVG** ([`flamegraph_svg`]) — dependency-free,
//!   self-contained; frames are name-paths folded across every trace,
//!   widths proportional to tick counts, colors hashed from names.
//! * **Per-cell cost/failure table** ([`cell_costs`]) — one row per
//!   trace ranked by failures then ticks: the machine-readable worklist
//!   the columnar-rewrite ROADMAP item consumes.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::span::SpanRecord;

/// One node of a reconstructed cell trace: a span or instant event with
/// its children in deterministic (stream) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Span name.
    pub name: String,
    /// True for zero-duration instant events.
    pub instant: bool,
    /// Children in merged-stream order (deterministic: a cell runs
    /// sequentially on one worker, so sibling order never depends on
    /// scheduling).
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total records in this subtree (self included): the tick count
    /// the canonical exports use as deterministic "cost".
    pub fn ticks(&self) -> u64 {
        1 + self.children.iter().map(TraceNode::ticks).sum::<u64>()
    }

    /// Maximum depth below this node (0 for a leaf).
    pub fn max_depth(&self) -> u32 {
        self.children.iter().map(|c| 1 + c.max_depth()).max().unwrap_or(0)
    }
}

/// A span whose parent could not be resolved inside its trace: either a
/// second root candidate or a record pointing at a missing id. A clean
/// run has none — the orphan tests pin exactly that.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrphanSpan {
    /// Trace the record claimed.
    pub trace_id: u64,
    /// Record name.
    pub name: String,
    /// Record id.
    pub id: u64,
    /// The unresolved parent id.
    pub parent_id: u64,
}

/// One cell's reconstructed trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellTrace {
    /// The `CellKey` digest every record carried.
    pub trace_id: u64,
    /// The cell root (the `cell:…` span the controller opened).
    pub root: TraceNode,
}

impl CellTrace {
    /// The trace id as the ledger's 16-hex content-key rendering.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }
}

/// Every cell trace reconstructed from a merged span stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceForest {
    /// Traces sorted by trace id (the canonical order every export
    /// walks, so exports cannot depend on completion interleaving).
    pub traces: Vec<CellTrace>,
    /// Records whose parent could not be resolved (empty on clean runs).
    pub orphans: Vec<OrphanSpan>,
    /// Count of ambient records (`trace_id == 0`) outside any cell.
    pub ambient: u64,
}

/// Reconstructs the per-cell trace forest from a merged span stream.
///
/// Records are grouped by `trace_id`; within a group the unique span
/// whose parent lies outside the group is the cell root, every other
/// record must resolve its parent inside the group (violations land in
/// [`TraceForest::orphans`]). Child order is merged-stream order, which
/// for a sequentially-executed cell is the deterministic close order.
pub fn build_traces(spans: &[SpanRecord]) -> TraceForest {
    let mut ambient = 0u64;
    let mut groups: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for r in spans {
        if r.trace_id == 0 {
            ambient += 1;
        } else {
            groups.entry(r.trace_id).or_default().push(r);
        }
    }
    let mut traces = Vec::new();
    let mut orphans = Vec::new();
    for (trace_id, records) in groups {
        let span_ids: BTreeSet<u64> = records.iter().filter(|r| !r.instant).map(|r| r.id).collect();
        // The root is the unique non-instant record parented outside the
        // group; later such records (and instants with unresolvable
        // parents) are orphans.
        let mut root_id: Option<u64> = None;
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for r in &records {
            if span_ids.contains(&r.parent_id) {
                children.entry(r.parent_id).or_default().push(r);
            } else if !r.instant && root_id.is_none() {
                root_id = Some(r.id);
            } else {
                orphans.push(OrphanSpan {
                    trace_id,
                    name: r.name.clone(),
                    id: r.id,
                    parent_id: r.parent_id,
                });
            }
        }
        let Some(root_id) = root_id else { continue };
        #[expect(clippy::expect_used, reason = "root_id was taken from this very record set")]
        let root_rec = records.iter().find(|r| r.id == root_id).expect("root record present");
        traces.push(CellTrace { trace_id, root: assemble(root_rec, &children) });
    }
    TraceForest { traces, orphans, ambient }
}

/// Builds the owned tree below `rec` from the per-parent child lists.
fn assemble(rec: &SpanRecord, children: &BTreeMap<u64, Vec<&SpanRecord>>) -> TraceNode {
    let kids = children
        .get(&rec.id)
        .map(|list| list.iter().map(|c| assemble(c, children)).collect())
        .unwrap_or_default();
    TraceNode { name: rec.name.clone(), instant: rec.instant, children: kids }
}

// ------------------------------------------------- Chrome trace events

/// Virtual shard lanes the Chrome export round-robins traces over. Real
/// shard/worker ids vary run to run; the virtual assignment depends
/// only on the trace's position in the canonical (trace-id-sorted)
/// order, keeping the export byte-stable.
const VIRTUAL_SHARDS: usize = 8;

/// Escapes a string for a JSON string literal.
fn json_esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the forest as Chrome trace-event JSON (Perfetto /
/// `chrome://tracing`). `pid` = virtual shard, `tid` = virtual worker
/// (one per cell, so each cell renders as its own named track);
/// `ts`/`dur` are deterministic tick counts, *not* wall-clock — the
/// export trades real timing for byte-identity across thread and shard
/// counts (DESIGN.md §6i discusses the trade). The JSON is emitted
/// one event per line in a fixed key order, so the bytes are canonical
/// by construction.
pub fn chrome_trace_json(forest: &TraceForest) -> String {
    let mut events: Vec<String> = Vec::new();
    for (i, t) in forest.traces.iter().enumerate() {
        let pid = 1 + (i % VIRTUAL_SHARDS) as u64;
        let tid = 1 + i as u64;
        events.push(format!(
            r#"{{"ph":"M","name":"process_name","pid":{pid},"tid":0,"args":{{"name":"vshard-{pid}"}}}}"#
        ));
        events.push(format!(
            r#"{{"ph":"M","name":"thread_name","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
            json_esc(&t.root.name)
        ));
        let mut tick = 0u64;
        let mut next_id = 1u64;
        emit_events(&t.root, 0, t, pid, tid, &mut tick, &mut next_id, &mut events);
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Depth-first event emission: each record consumes one tick; a span's
/// duration is its subtree's tick count. Span ids are renumbered per
/// trace in walk order, erasing the process-global allocation order.
#[expect(
    clippy::too_many_arguments,
    reason = "the recursive walk threads its position, ids and output buffer through every call"
)]
fn emit_events(
    node: &TraceNode,
    parent_new_id: u64,
    trace: &CellTrace,
    pid: u64,
    tid: u64,
    tick: &mut u64,
    next_id: &mut u64,
    events: &mut Vec<String>,
) {
    let my_id = *next_id;
    *next_id += 1;
    let ts = *tick;
    *tick += 1;
    let args =
        format!(r#"{{"trace":"{}","span":{my_id},"parent":{parent_new_id}}}"#, trace.trace_hex());
    if node.instant {
        events.push(format!(
            r#"{{"ph":"i","s":"t","name":"{}","pid":{pid},"tid":{tid},"ts":{ts},"args":{args}}}"#,
            json_esc(&node.name)
        ));
        return;
    }
    for child in &node.children {
        emit_events(child, my_id, trace, pid, tid, tick, next_id, events);
    }
    events.push(format!(
        r#"{{"ph":"X","name":"{}","pid":{pid},"tid":{tid},"ts":{ts},"dur":{},"args":{args}}}"#,
        json_esc(&node.name),
        *tick - ts
    ));
}

// ------------------------------------------------------ flamegraph SVG

/// A merged flamegraph frame: name-paths aggregated across every trace,
/// children in alphabetical (BTreeMap) order.
struct Frame {
    self_ticks: u64,
    children: BTreeMap<String, Frame>,
}

impl Frame {
    fn new() -> Frame {
        Frame { self_ticks: 0, children: BTreeMap::new() }
    }

    fn total(&self) -> u64 {
        self.self_ticks + self.children.values().map(Frame::total).sum::<u64>()
    }

    fn depth(&self) -> usize {
        self.children.values().map(|c| 1 + c.depth()).max().unwrap_or(0)
    }

    fn fold(&mut self, node: &TraceNode) {
        let frame = self.children.entry(node.name.clone()).or_insert_with(Frame::new);
        frame.self_ticks += 1;
        for child in &node.children {
            frame.fold(child);
        }
    }
}

/// Deterministic warm fill color for a frame name.
fn frame_color(name: &str) -> String {
    let h = crate::fnv1a64(name.as_bytes());
    let r = 205 + (h % 50) as u8;
    let g = 90 + ((h >> 8) % 120) as u8;
    let b = ((h >> 16) % 60) as u8;
    format!("rgb({r},{g},{b})")
}

/// Escapes text for SVG/XML attribute and element content.
fn xml_esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

/// Renders a dependency-free, self-contained flamegraph SVG folded from
/// the trace forest. Frame widths are proportional to deterministic
/// tick counts (1 tick = 1 span/instant), so the image is byte-stable
/// double-run and across thread/shard counts. Hover titles carry the
/// full frame path and tick count; no scripting is embedded.
pub fn flamegraph_svg(forest: &TraceForest) -> String {
    const WIDTH: f64 = 1200.0;
    const FRAME_H: f64 = 17.0;
    const PAD: f64 = 10.0;
    let mut root = Frame::new();
    for t in &forest.traces {
        root.fold(&t.root);
    }
    let total = root.total().max(1);
    let levels = root.depth();
    let height = PAD * 2.0 + 24.0 + (levels.max(1) as f64) * FRAME_H;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"11\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#fdf6ec\"/>\n\
         <text x=\"{PAD}\" y=\"18\">rein trace flamegraph — {} cell trace(s), {} tick(s)</text>\n",
        forest.traces.len(),
        total
    ));
    let base_y = height - PAD;
    render_frames(&root.children, "", 0.0, WIDTH, total, base_y, FRAME_H, &mut out);
    out.push_str("</svg>\n");
    out
}

/// Recursive frame layout: siblings in alphabetical order, x-extents
/// proportional to subtree ticks, each level one frame height above its
/// parent (root at the bottom).
#[expect(
    clippy::too_many_arguments,
    reason = "the recursive layout threads its extents, scale and output buffer through every call"
)]
fn render_frames(
    frames: &BTreeMap<String, Frame>,
    path: &str,
    x0: f64,
    x_extent: f64,
    scale_total: u64,
    y: f64,
    frame_h: f64,
    out: &mut String,
) {
    let mut x = x0;
    for (name, frame) in frames {
        let w = x_extent * frame.total() as f64 / scale_total as f64;
        let full = if path.is_empty() { name.clone() } else { format!("{path};{name}") };
        let label_chars = ((w - 6.0) / 7.0).max(0.0) as usize;
        let label = if name.len() > label_chars {
            name.chars().take(label_chars).collect::<String>()
        } else {
            name.clone()
        };
        out.push_str(&format!(
            "<g><title>{} ({} ticks)</title>\
             <rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
             fill=\"{}\" stroke=\"#fdf6ec\" stroke-width=\"0.5\"/>",
            xml_esc(&full),
            frame.total(),
            x,
            y - frame_h,
            w,
            frame_h,
            frame_color(name),
        ));
        if !label.is_empty() {
            out.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\">{}</text>",
                x + 3.0,
                y - 4.5,
                xml_esc(&label)
            ));
        }
        out.push_str("</g>\n");
        render_frames(
            &frame.children,
            &full,
            x,
            w,
            frame.total().max(1),
            y - frame_h,
            frame_h,
            out,
        );
        x += w;
    }
}

// -------------------------------------------------- per-cell cost table

/// One row of the deterministic per-cell cost/failure table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellCost {
    /// 16-hex trace id (`CellKey` content key).
    pub trace: String,
    /// Cell root span name (`cell:<grid coordinate>`).
    pub cell: String,
    /// Deterministic cost: total spans + instants in the trace.
    pub ticks: u64,
    /// Non-instant spans.
    pub spans: u64,
    /// Instant events.
    pub instants: u64,
    /// `guard:fail:*` instants (degraded attempts).
    pub failures: u64,
    /// `guard:retry` instants.
    pub retries: u64,
    /// Maximum tree depth below the cell root.
    pub depth: u32,
}

fn count_nodes(node: &TraceNode, cost: &mut CellCost) {
    if node.instant {
        cost.instants += 1;
        if node.name.starts_with("guard:fail:") {
            cost.failures += 1;
        } else if node.name == "guard:retry" {
            cost.retries += 1;
        }
    } else {
        cost.spans += 1;
    }
    for c in &node.children {
        count_nodes(c, cost);
    }
}

/// The per-cell cost/failure table, ranked for the columnar-rewrite
/// worklist: cells with failures first, then by descending tick count,
/// name-tiebroken — a total, deterministic order.
pub fn cell_costs(forest: &TraceForest) -> Vec<CellCost> {
    let mut rows: Vec<CellCost> = forest
        .traces
        .iter()
        .map(|t| {
            let mut cost = CellCost {
                trace: t.trace_hex(),
                cell: t.root.name.clone(),
                ticks: t.root.ticks(),
                spans: 0,
                instants: 0,
                failures: 0,
                retries: 0,
                depth: t.root.max_depth(),
            };
            count_nodes(&t.root, &mut cost);
            cost
        })
        .collect();
    rows.sort_by(|a, b| {
        b.failures
            .cmp(&a.failures)
            .then_with(|| b.ticks.cmp(&a.ticks))
            .then_with(|| a.cell.cmp(&b.cell))
            .then_with(|| a.trace.cmp(&b.trace))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, id: u64, parent_id: u64, trace_id: u64, instant: bool) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            id,
            parent_id,
            depth: 0,
            start_ms: id as f64,
            duration_ms: if instant { 0.0 } else { 1.0 },
            trace_id,
            instant,
        }
    }

    /// Two cell traces plus ambient spans, in close (stream) order:
    /// children close before parents, cells interleave.
    fn stream() -> Vec<SpanRecord> {
        vec![
            rec("guard:retry", 11, 10, 0xB, true),
            rec("detect:raha", 10, 9, 0xB, false),
            rec("repair:mean", 21, 20, 0xA, false),
            rec("cell:detect:raha", 9, 1, 0xB, false),
            rec("guard:fail:panic", 22, 20, 0xA, true),
            rec("repair:mode", 23, 20, 0xA, false),
            rec("cell:repair:mean#raha", 20, 1, 0xA, false),
            rec("controller:grid", 1, 0, 0, false),
        ]
    }

    #[test]
    fn traces_reconstruct_with_roots_children_and_instants() {
        let forest = build_traces(&stream());
        assert_eq!(forest.ambient, 1);
        assert!(forest.orphans.is_empty(), "{:?}", forest.orphans);
        assert_eq!(forest.traces.len(), 2);
        // Sorted by trace id: 0xA before 0xB.
        let a = &forest.traces[0];
        assert_eq!(a.trace_id, 0xA);
        assert_eq!(a.root.name, "cell:repair:mean#raha");
        let names: Vec<&str> = a.root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["repair:mean", "guard:fail:panic", "repair:mode"]);
        assert!(a.root.children[1].instant);
        let b = &forest.traces[1];
        assert_eq!(b.root.name, "cell:detect:raha");
        assert_eq!(b.root.children.len(), 1);
        assert_eq!(b.root.children[0].children[0].name, "guard:retry");
        assert_eq!(b.root.ticks(), 3);
        assert_eq!(b.root.max_depth(), 2);
    }

    #[test]
    fn orphans_are_detected_not_silently_dropped() {
        let mut s = stream();
        // A span claiming trace 0xA but parented at a missing id.
        s.push(rec("detect:lost", 30, 999, 0xA, false));
        let forest = build_traces(&s);
        assert_eq!(forest.orphans.len(), 1);
        assert_eq!(forest.orphans[0].name, "detect:lost");
        assert_eq!(forest.orphans[0].parent_id, 999);
        // The healthy trees are unaffected.
        assert_eq!(forest.traces.len(), 2);
    }

    /// The same logical stream re-recorded with different raw ids and
    /// interleaving (as another thread count would produce) must export
    /// byte-identically.
    fn renumbered_stream() -> Vec<SpanRecord> {
        vec![
            rec("repair:mean", 105, 101, 0xA, false),
            rec("guard:retry", 203, 202, 0xB, true),
            rec("guard:fail:panic", 106, 101, 0xA, true),
            rec("detect:raha", 202, 201, 0xB, false),
            rec("repair:mode", 107, 101, 0xA, false),
            rec("cell:detect:raha", 201, 7, 0xB, false),
            rec("cell:repair:mean#raha", 101, 7, 0xA, false),
            rec("controller:grid", 7, 0, 0, false),
        ]
    }

    #[test]
    fn exports_are_invariant_under_id_and_interleaving_changes() {
        let one = build_traces(&stream());
        let two = build_traces(&renumbered_stream());
        assert_eq!(chrome_trace_json(&one), chrome_trace_json(&two));
        assert_eq!(flamegraph_svg(&one), flamegraph_svg(&two));
        assert_eq!(cell_costs(&one), cell_costs(&two));
    }

    /// One sink shard vs N: the deterministic shard merge feeds the
    /// canonical exporter, so re-sharding the same records cannot
    /// change a single exported byte.
    #[test]
    fn exports_are_invariant_under_span_shard_count() {
        let sink_of = |n: usize| {
            let sink = crate::span::SpanSink::new(n);
            for (i, r) in stream().into_iter().enumerate() {
                sink.record(i % n, r);
            }
            build_traces(&sink.snapshot())
        };
        let one = sink_of(1);
        for n in [2, 3, 5] {
            let sharded = sink_of(n);
            assert_eq!(
                chrome_trace_json(&one),
                chrome_trace_json(&sharded),
                "{n}-shard Chrome export diverged"
            );
            assert_eq!(
                flamegraph_svg(&one),
                flamegraph_svg(&sharded),
                "{n}-shard flamegraph diverged"
            );
            assert_eq!(cell_costs(&one), cell_costs(&sharded), "{n}-shard cost table diverged");
        }
    }

    #[test]
    fn chrome_export_has_events_on_virtual_lanes() {
        let forest = build_traces(&stream());
        let json = chrome_trace_json(&forest);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(json.ends_with("]}\n"));
        let count = |needle: &str| json.matches(needle).count();
        // 2 metadata events per trace, 5 complete spans, 2 instants.
        assert_eq!(count("\"ph\":\"M\""), 4);
        assert_eq!(count("\"ph\":\"X\""), 5);
        assert_eq!(count("\"ph\":\"i\""), 2);
        // Traces land on distinct virtual lanes named for the cell root.
        assert_eq!(count("\"vshard-1\""), 1);
        assert_eq!(count("\"vshard-2\""), 1);
        assert!(json.contains(
            r#"{"ph":"M","name":"thread_name","pid":2,"tid":2,"args":{"name":"cell:detect:raha"}}"#
        ));
        // Every non-metadata event cites its 16-hex trace id.
        assert_eq!(count(&format!("\"trace\":\"{:016x}\"", 0xA)), 4);
        assert_eq!(count(&format!("\"trace\":\"{:016x}\"", 0xB)), 3);
        // The cell root's duration covers its whole subtree (3 ticks),
        // renumbered span ids starting at 1 per trace.
        assert!(json.contains(
            &format!(
                r#"{{"ph":"X","name":"cell:detect:raha","pid":2,"tid":2,"ts":0,"dur":3,"args":{{"trace":"{:016x}","span":1,"parent":0}}}}"#,
                0xB
            )
        ));
        // Instants carry no duration.
        let instant_line = json
            .lines()
            .find(|l| l.contains("\"ph\":\"i\"") && l.contains("guard:retry"))
            .expect("retry instant present");
        assert!(!instant_line.contains("\"dur\""));
    }

    #[test]
    fn flamegraph_is_self_contained_svg() {
        let svg = flamegraph_svg(&build_traces(&stream()));
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(!svg.contains("<script"), "must stay dependency-free");
        assert!(svg.contains("cell:detect:raha"));
        assert!(svg.contains("guard:fail:panic"));
        // Double render is byte-identical.
        assert_eq!(svg, flamegraph_svg(&build_traces(&stream())));
    }

    #[test]
    fn cost_table_ranks_failures_then_ticks() {
        let costs = cell_costs(&build_traces(&stream()));
        assert_eq!(costs.len(), 2);
        // Trace 0xA carries the guard:fail:panic instant — ranked first.
        assert_eq!(costs[0].cell, "cell:repair:mean#raha");
        assert_eq!(costs[0].failures, 1);
        assert_eq!(costs[0].spans, 3);
        assert_eq!(costs[0].instants, 1);
        assert_eq!(costs[1].cell, "cell:detect:raha");
        assert_eq!(costs[1].retries, 1);
        assert_eq!(costs[1].failures, 0);
        assert_eq!(costs[1].trace, format!("{:016x}", 0xB));
    }
}
