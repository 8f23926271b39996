//! The traced run: the workload's trace driven serially through each
//! layer's public functions, one span per call, from the benchmark's own
//! code. Nothing inside the program is traced.
//!
//! Three phases, the same on every workload, each on that workload's
//! own inputs:
//!
//! * **offline chain** (root span `offline.chain`): the stages of
//!   `critlock analyze --json` called one by one instead of through the
//!   composed `analyze` — `salvage::load_timed` (whose observer splits
//!   `codec.decode` from `salvage.repair`), `SegmentedTrace::build`,
//!   `cp::critical_path_segmented` on the prebuilt segments (so the CP
//!   walk excludes the segment build), `analyze_with` and the JSON
//!   render. Each traced chain is paired with an untraced
//!   `analyze_json` call; their ratio is `trace.overhead_pct`.
//! * **live chain** (root span `live.chain`): the arrival-order frame
//!   plan, frame by frame, through encode, a loopback TCP socket, frame
//!   validation, the journal, the frame queue and the assembler, with the
//!   untraced run's number of snapshot refreshes (finalize, analyze,
//!   online report), status renders and checkpoints spread evenly over
//!   the frames.
//! * **producer calibration** (untraced by spans, timed with `Instant`):
//!   a single-thread lock loop on a plain mutex, on an instrumented one
//!   recording in memory, and on one streaming to a collector; plus the
//!   micro shape's real-thread overheads from [`crate::producer`].
//!
//! `trace.coverage` is the layer self time under the two roots divided by
//! the roots' wall time.

use crate::measure::{median, Spans};
use crate::offline::{analyze_json, attach_salvage};
use crate::plan::{arrival_plan, frame_events, wire_bytes};
use crate::Outcome;
use critlock_analysis::report::to_json;
use critlock_analysis::{analyze, analyze_with, cp::critical_path_segmented, SegmentedTrace};
use critlock_collector::checkpoint::write_checkpoint;
use critlock_collector::{
    Backpressure, CollectorStatus, DiskBudget, FrameQueue, JournalOptions, RealIo,
    SessionAssembler, SessionJournal, SessionSnapshot,
};
use critlock_trace::stream::{StreamReader, StreamWriter, STREAM_VERSION};
use critlock_trace::{Budget, EventKind, Trace};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// What the live chain replays: the untraced run's counts.
pub struct Replay {
    /// Snapshot refreshes (finalize + analyze + online report).
    pub refreshes: u64,
    /// Checkpoint writes.
    pub checkpoints: u64,
    /// Status documents rendered and parsed (one per operator poll).
    pub polls: u64,
    /// Traced offline chains, each paired with an untraced analyze.
    pub analyze_reps: usize,
    /// Input size of the producer calibration.
    pub size: crate::Size,
}

/// Layer time sums of one traced run, for `trace.cpu_explained`.
pub struct LayerTimes {
    /// Layer self time of one offline chain (mean), ms.
    pub offline_layer_ms: f64,
    /// Layer self time of the whole live chain, ms.
    pub live_layer_ms: f64,
    /// Calibrated in-memory record cost, ns per event.
    pub record_ns_per_event: f64,
}

/// Sizes of a live-chain replay.
struct LiveCounts {
    frames: u64,
    events: u64,
    wire_bytes: u64,
    status_bytes: u64,
    renders: u64,
}

fn offline_chain(
    path: &Path,
    pool: &rayon::ThreadPool,
    spans: &mut Spans,
) -> Result<String, String> {
    let root = spans.begin("offline.chain");
    let salvaged = pool
        .install(|| {
            critlock_trace::salvage::load_timed(path, &Budget::unlimited(), &mut |stage, took| {
                spans.record_ended(
                    if stage == "decode" { "codec.decode" } else { "salvage.repair" },
                    took,
                )
            })
        })
        .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    let trace = salvaged.trace;
    let st = spans.time("segments.build", || pool.install(|| SegmentedTrace::build(&trace)));
    // The segments are freed right after the walk, as the composed
    // `analyze` frees them, so the metrics pass sees the same heap.
    let cp = spans.time("cp.walk", || {
        let cp = pool.install(|| critical_path_segmented(&trace, &st));
        drop(st);
        cp
    });
    let mut rep = spans.time("metrics.accumulate", || pool.install(|| analyze_with(&trace, &cp)));
    attach_salvage(&mut rep, salvaged.report);
    let json = spans.time("report.render", || to_json(&rep));
    spans.end(root);
    Ok(json)
}

/// Frame indices (1-based, after which the action runs) spreading `n`
/// actions evenly over `frames` frames; the last lands on the last frame.
fn spread(n: u64, frames: u64) -> Vec<u64> {
    (1..=n.max(1)).map(|k| (k * frames).div_ceil(n.max(1))).collect()
}

fn live_chain(
    trace: &Trace,
    replay: &Replay,
    pool: &rayon::ThreadPool,
    spans: &mut Spans,
    work: &Path,
    out: &mut Outcome,
) -> LiveCounts {
    const TOKEN: &[u8] = b"pathbench-replay";
    let plan = arrival_plan(trace, 0);
    let frames = plan.len() as u64;
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let mut tx = TcpStream::connect(listener.local_addr().expect("bound address"))
        .expect("loopback connect");
    let (mut rx, _) = listener.accept().expect("loopback accept");
    // The replay sends and receives each frame on one thread; without
    // NODELAY, Nagle's algorithm would hold a small frame back until the
    // peer's delayed ACK fires and the layer would time that wait.
    tx.set_nodelay(true).expect("loopback NODELAY");
    let dir = work.join("replay-journal");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let mut journal =
        SessionJournal::create(&dir, TOKEN, 0, JournalOptions::default()).expect("journal create");
    let budget = DiskBudget::with_limit(None);
    let queue = FrameQueue::new(256, Backpressure::Block);
    let mut asm = SessionAssembler::new();
    let refresh_at = spread(replay.refreshes, frames);
    let checkpoint_at = spread(replay.checkpoints, frames);
    let polls = replay.polls.clamp(1, replay.refreshes.max(1));
    let render_at: Vec<u64> = spread(polls, refresh_at.len() as u64);
    let mut counts = LiveCounts { frames, events: 0, wire_bytes: 0, status_bytes: 0, renders: 0 };

    let root = spans.begin("live.chain");
    // Producer side: encode, then the socket.
    let mut received = Vec::new();
    let mut header = StreamWriter::new(Vec::new()).expect("header").into_inner();
    received.append(&mut header);
    let mut buf = Vec::new();
    for p in &plan {
        counts.events += frame_events(&p.frame);
        let bytes = spans.time("stream.encode", || wire_bytes(&p.frame));
        counts.wire_bytes += bytes.len() as u64;
        buf.resize(bytes.len(), 0);
        spans.time("net.loopback", || {
            tx.write_all(&bytes).expect("loopback write");
            rx.read_exact(&mut buf).expect("loopback read");
        });
        received.extend_from_slice(&buf);
    }
    // Collector side: validate, journal, queue, assembler, snapshots.
    let mut reader = StreamReader::new(&received[..]).expect("replayed header parses");
    let mut next_refresh = 0;
    let mut next_checkpoint = 0;
    for i in 1..=frames {
        let raw = spans
            .time("stream.validate", || reader.next_frame_raw())
            .expect("replayed frames validate")
            .expect("one frame per planned frame");
        spans.time("journal.append", || journal.append_raw(&raw)).expect("journal append");
        if raw.is_end() {
            spans.time("journal.sync", || journal.sync()).expect("journal sync");
        }
        spans.time("queue", || queue.push(raw));
        let due_refresh = refresh_at.get(next_refresh) == Some(&i);
        let due_checkpoint = checkpoint_at.get(next_checkpoint) == Some(&i);
        if queue.depth() >= 64 || due_refresh || due_checkpoint || i == frames {
            for raw in spans.time("queue", || queue.drain()) {
                spans.time("assembler.apply", || asm.apply_raw(&raw));
            }
        }
        while refresh_at.get(next_refresh) == Some(&i) {
            next_refresh += 1;
            let finalized = spans.time("assembler.finalize", || asm.finalize());
            let report = spans.time("snapshot.analyze", || pool.install(|| analyze(&finalized)));
            let online = spans.time("online.report", || asm.online_horizon_report());
            if render_at.contains(&(next_refresh as u64)) {
                let status = status_doc(&asm, report.clone(), online.cp_length);
                let text = spans.time("status.render", || status.render_json()).expect("render");
                let back = spans.time("status.parse", || CollectorStatus::parse_json(&text));
                let again = back.and_then(|b| b.render_json());
                out.check(again.as_ref() == Ok(&text), "status JSON round trip differs");
                counts.status_bytes += text.len() as u64;
                counts.renders += 1;
            }
            if next_refresh == refresh_at.len() {
                out.check(report == analyze(trace), "replayed snapshot != offline analyze");
            }
        }
        while checkpoint_at.get(next_checkpoint) == Some(&i) {
            next_checkpoint += 1;
            spans
                .time("checkpoint.write", || {
                    let doc = asm.checkpoint_doc(TOKEN);
                    write_checkpoint(&RealIo, &budget, &dir, journal.stem(), &doc)
                })
                .expect("checkpoint write");
        }
    }
    spans.end(root);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    counts
}

/// The status document a poll would carry for the replayed session.
fn status_doc(
    asm: &SessionAssembler,
    report: critlock_analysis::AnalysisReport,
    online_cp_length: u64,
) -> CollectorStatus {
    CollectorStatus {
        protocol_version: STREAM_VERSION,
        sessions_total: 1,
        rejected_sessions: 0,
        timed_out_sessions: 0,
        resumed_sessions: 0,
        recovered_sessions: 0,
        shed_sessions: 0,
        quota_stopped_sessions: 0,
        worker_panics: 0,
        forward: None,
        shards: Vec::new(),
        sessions: vec![SessionSnapshot {
            session: 0,
            peer: "replay".to_string(),
            ended: asm.ended(),
            frames: asm.frames(),
            events: asm.events(),
            queue_depth: 0,
            queue_high_water: 0,
            dropped_frames: 0,
            online_cp_length,
            windows: asm.windows(),
            report,
        }],
    }
}

/// Lock operations and contended ones in a trace (plain and rw locks).
fn lock_ops(trace: &Trace) -> (u64, u64) {
    let mut ops = 0;
    let mut contended = 0;
    for ev in trace.threads.iter().flat_map(|s| &s.events) {
        match ev.kind {
            EventKind::LockAcquire { .. } | EventKind::RwAcquire { .. } => ops += 1,
            EventKind::LockContended { .. } | EventKind::RwContended { .. } => contended += 1,
            _ => {}
        }
    }
    (ops, contended)
}

/// Run every phase on `trace` (already saved at `cltr`), adding the
/// per-layer metrics, output checks and spans to `out`.
pub fn run_all(
    trace: &Trace,
    cltr: &Path,
    pool: &rayon::ThreadPool,
    replay: &Replay,
    micro: &crate::producer::Overheads,
    work: &Path,
    out: &mut Outcome,
) -> LayerTimes {
    let mut spans = Spans::default();
    let reference = crate::offline::reference_json(trace);
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    // Alternate which of the pair runs first, so warm-up and allocator
    // state favour neither.
    for rep in 0..replay.analyze_reps.max(1) {
        for traced in [rep % 2 == 1, rep % 2 == 0] {
            let t0 = Instant::now();
            let json = if traced {
                offline_chain(cltr, pool, &mut spans)
            } else {
                analyze_json(cltr, pool)
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if traced {
                traced_ms.push(ms)
            } else {
                untraced_ms.push(ms)
            }
            out.check(json.as_deref() == Ok(reference.as_str()), "analyze output != reference");
        }
    }
    let live = live_chain(trace, replay, pool, &mut spans, work, out);
    let calib = crate::producer::calibrate(replay.size);

    let (offline_layers, offline_wall) = spans.layer_and_wall_ns("offline.chain");
    let (live_layers, live_wall) = spans.layer_and_wall_ns("live.chain");
    let per_frame = |name: &str| spans.total(name).0 as f64 / live.frames as f64;
    let refreshes = replay.refreshes.max(1) as f64;
    let per_refresh = |name: &str| spans.total(name).0 as f64 / 1e6 / refreshes;
    let (ops, contended) = lock_ops(trace);
    let metrics = vec![
        ("codec.decode_ms", spans.mean_ms("codec.decode"), "ms"),
        ("salvage.repair_ms", spans.mean_ms("salvage.repair"), "ms"),
        ("segments.build_ms", spans.mean_ms("segments.build"), "ms"),
        ("cp.walk_ms", spans.mean_ms("cp.walk"), "ms"),
        ("metrics.accumulate_ms", spans.mean_ms("metrics.accumulate"), "ms"),
        ("report.render_ms", spans.mean_ms("report.render"), "ms"),
        ("online.report_ms", per_refresh("online.report"), "ms"),
        ("stream.encode_ns_per_frame", per_frame("stream.encode"), "ns"),
        ("stream.validate_ns_per_frame", per_frame("stream.validate"), "ns"),
        ("stream.bytes_per_event", live.wire_bytes as f64 / live.events.max(1) as f64, "B"),
        ("net.loopback_ns_per_frame", per_frame("net.loopback"), "ns"),
        ("journal.append_ns_per_frame", per_frame("journal.append"), "ns"),
        ("journal.sync_ms", spans.mean_ms("journal.sync"), "ms"),
        ("queue.ns_per_frame", per_frame("queue"), "ns"),
        ("assembler.apply_ns_per_frame", per_frame("assembler.apply"), "ns"),
        ("assembler.finalize_ms", per_refresh("assembler.finalize"), "ms"),
        ("snapshot.analyze_ms", per_refresh("snapshot.analyze"), "ms"),
        ("status.render_ms", spans.mean_ms("status.render"), "ms"),
        ("status.parse_ms", spans.mean_ms("status.parse"), "ms"),
        ("status.bytes", live.status_bytes as f64 / live.renders.max(1) as f64, "B"),
        ("checkpoint.write_ms", spans.mean_ms("checkpoint.write"), "ms"),
        ("instrument.record_ns_per_event", calib.record_ns_per_event, "ns"),
        ("instrument.stream_ns_per_event", calib.stream_ns_per_event, "ns"),
        ("instrument.events_per_op", trace.num_events() as f64 / ops.max(1) as f64, "events/op"),
        ("instrument.contended_ratio", contended as f64 / ops.max(1) as f64, "ratio"),
        ("instrument.overhead_pct", micro.overhead_pct, "%"),
        ("instrument.stream_overhead_pct", micro.stream_overhead_pct, "%"),
        (
            "trace.coverage",
            (offline_layers + live_layers) as f64 / (offline_wall + live_wall).max(1) as f64,
            "ratio",
        ),
        ("trace.overhead_pct", 100.0 * (median(&traced_ms) / median(&untraced_ms) - 1.0), "%"),
    ];
    for (name, value, unit) in metrics {
        out.metric(name, value, unit);
    }
    let times = LayerTimes {
        offline_layer_ms: offline_layers as f64 / 1e6 / replay.analyze_reps.max(1) as f64,
        live_layer_ms: live_layers as f64 / 1e6,
        record_ns_per_event: calib.record_ns_per_event,
    };
    out.spans = Some(spans);
    times
}
