//! `live-openldap`: a seeded, server-shaped openldap trace (65 locks,
//! short critical sections) replayed over loopback TCP into an in-process
//! collector running the `serve` defaults plus a journal directory.
//!
//! Open loop: for each of [`SESSIONS`] sessions, a generator thread sends
//! the arrival-order frame plan on its fixed schedule (below saturation)
//! over one resumable connection, and the operator (the main thread) polls
//! JSON `status` over the status socket every [`POLL_MS`], timing each poll
//! from when it was due, right through the session end.
//!
//! Known collector defect, left visible: `refresh_snapshot` stores
//! `dirty = false` after it releases the assembler lock, so frames applied
//! in that gap are forgotten. When a poll's refresh overlaps the
//! collector applying a session's last frames, the published snapshot
//! stays stale (never ended) for good, and the run's live == offline
//! check fails.
//!
//! `events_per_s` here is a session's events ÷ session start → every
//! event applied, so a stale snapshot does not distort it; the open loop
//! pins it near [`RATE_EVENTS_PER_S`]. The collector's own share is the
//! drain lag (last frame sent → every event applied), reported as
//! `ingest.drain_lag_ms`.

use crate::layers;
use crate::measure::{cpu_seconds, median};
use crate::plan::{arrival_plan, wire_bytes};
use crate::{Outcome, Size};
use critlock_analysis::analyze;
use critlock_collector::{
    fetch_status_text_timeout, start, Addr, CollectorConfig, CollectorHandle, CollectorStatus,
    Stream,
};
use critlock_trace::stream::{read_ack, Handshake, StreamWriter};
use critlock_trace::{codec, Trace};
use critlock_workloads::ldap::{self, LdapParams};
use critlock_workloads::WorkloadCfg;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Offered load of the replay, events per second.
pub const RATE_EVENTS_PER_S: f64 = 20_000.0;
/// Operator status-poll cadence.
pub const POLL_MS: u64 = 100;
/// Sessions replayed back to back per run, each a fresh resumable
/// connection carrying the same trace and lasting an equal share of the
/// run. Two sessions average the timing interplay between the operator's
/// polls and the collector's own snapshot timer, which is set per session.
pub const SESSIONS: u64 = 2;
/// Once ingest has quiesced, how long the status may take to show every
/// session ended before the final read gives up and is checked as is.
pub const FINAL_GRACE: Duration = Duration::from_secs(2);
/// A frame sent later than this after its due time means the generator
/// fell behind: the run fails instead of reporting a slower figure.
pub const LATE_LIMIT_MS: f64 = 1_000.0;
/// Events per served request in the openldap model (for sizing).
const EVENTS_PER_REQUEST: f64 = 12.3;
const REFRESHES: &str = "critlock_snapshot_refreshes_total";

/// The seeded openldap-like server trace: 16 workers plus the request
/// generator, sized to fill a `seconds`-long session at
/// [`RATE_EVENTS_PER_S`].
pub fn openldap_trace(seed: u64, seconds: f64, size: Size) -> Trace {
    let events = match size {
        Size::Full => RATE_EVENTS_PER_S * seconds,
        Size::Tiny => 3_000.0,
    };
    let params = LdapParams {
        requests: (events / EVENTS_PER_REQUEST).round().max(16.0) as usize,
        ..LdapParams::default()
    };
    ldap::run_with(&WorkloadCfg::with_threads(16).with_seed(seed), params)
        .expect("openldap simulates cleanly")
}

/// An in-process collector with the `critlock serve` defaults, on
/// loopback ports, journaling into `journal` when given.
pub fn start_collector(journal: Option<PathBuf>) -> CollectorHandle {
    let any = || Addr::parse("127.0.0.1:0").expect("valid address");
    let mut config = CollectorConfig::new(any());
    config.status_addr = Some(any());
    config.journal_dir = journal;
    start(config).expect("collector starts on loopback")
}

/// The collector's refresh counter, read through its public metrics.
pub fn refreshes(handle: &CollectorHandle) -> u64 {
    handle.metrics_snapshot().counter(REFRESHES).unwrap_or(0)
}

/// The final read of a run: when ingest quiesced, and the status after.
pub struct Final {
    pub quiesced: Instant,
    pub status: CollectorStatus,
}

/// Wait until `sessions` sessions carrying `total` events each have been
/// ingested, then read the first status showing the latest of them
/// ended, or after [`FINAL_GRACE`] the last status read (a stale snapshot
/// then fails the caller's checks). `None` if ingest does not quiesce within
/// `timeout`.
///
/// Ingest has quiesced when every session's `End` frame is journaled (its
/// fsync counted), every read frame queued, the queue drained and all
/// events applied — all seen through the public metrics, which take no
/// assembler lock, so this final read does not itself race the analysis
/// loop (see the module docs).
pub fn wait_final(
    handle: &CollectorHandle,
    sessions: u64,
    total: u64,
    timeout: Duration,
) -> Option<Final> {
    let deadline = Instant::now() + timeout;
    loop {
        let m = handle.metrics_snapshot();
        let c = |name: &str| m.counter(name).unwrap_or(0);
        if c("critlock_events_in_total") == sessions * total
            && c("critlock_journal_syncs_total") >= sessions
            && c("critlock_frames_in_total") == c("critlock_frames_assembled_total")
            && m.gauge("critlock_queue_depth") == Some(0)
        {
            break;
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let quiesced = Instant::now();
    let grace = quiesced + FINAL_GRACE;
    loop {
        let status = handle.status();
        // Sessions are listed in id order.
        let latest = status.sessions.get(sessions as usize - 1);
        if latest.is_some_and(|s| s.ended && s.events == total) || Instant::now() > grace {
            return Some(Final { quiesced, status });
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct Sent {
    acked: Result<u64, String>,
    late_ms: Vec<f64>,
    /// When the last frame was written.
    last_sent: Instant,
}

/// Send every frame at its due time over one resumable connection, then
/// half-close and read the collector's final ack.
fn generate(addr: &Addr, token: &[u8], frames: &[(u64, Vec<u8>)], start: Instant) -> Sent {
    let mut late_ms = Vec::with_capacity(frames.len());
    let mut last_sent = start;
    let mut go = || -> Result<u64, String> {
        let mut conn = Stream::connect(addr).map_err(|e| e.to_string())?;
        let handshake = Handshake { token: token.to_vec(), start_seq: 0 };
        StreamWriter::with_handshake(&mut conn, &handshake)
            .and_then(|mut w| w.flush())
            .map_err(|e| e.to_string())?;
        read_ack(&mut conn).map_err(|e| e.to_string())?;
        for (due_ns, bytes) in frames {
            let due = start + Duration::from_nanos(*due_ns);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            conn.write_all(bytes).map_err(|e| e.to_string())?;
        }
        conn.flush().map_err(|e| e.to_string())?;
        last_sent = Instant::now();
        conn.shutdown_write().map_err(|e| e.to_string())?;
        read_ack(&mut conn).map_err(|e| e.to_string())
    };
    let acked = go();
    Sent { acked, late_ms, last_sent }
}

/// What one live session measured.
struct Session {
    polls: Vec<f64>,
    late_ms: Vec<f64>,
    /// Session start to every event applied, s.
    ingest_s: f64,
    /// Last frame sent to every event applied, ms.
    drain_ms: f64,
    /// History events re-analysed by this session's snapshot refreshes
    /// (estimated per poll from the refresh counter).
    reanalyzed: f64,
}

/// Replay one session (the `index`-th on this collector) and check it.
fn session(
    handle: &CollectorHandle,
    index: u64,
    trace: &Trace,
    wire: &[(u64, Vec<u8>)],
    duration: Duration,
    out: &mut Outcome,
) -> Session {
    let total = trace.num_events() as u64;
    let ingest = handle.ingest_addr().clone();
    let status_addr = handle.status_addr().expect("status socket configured").clone();
    let token = format!("pathbench-live-{index}").into_bytes();
    let mut seen_refreshes = refreshes(handle);
    let mut reanalyzed = 0.0;
    let start = Instant::now();
    let (sent, polls) = std::thread::scope(|s| {
        let generator = s.spawn(|| generate(&ingest, &token, wire, start));
        let mut polls = Vec::new();
        for k in 0.. {
            let due = start + Duration::from_millis(k * POLL_MS);
            if k > 0 && due >= start + duration && generator.is_finished() {
                break;
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let reply =
                fetch_status_text_timeout(&status_addr, true, Some(Duration::from_secs(60)));
            polls.push(due.elapsed().as_secs_f64() * 1e3);
            let status = reply.ok().and_then(|text| CollectorStatus::parse_json(&text).ok());
            out.check(status.is_some(), "status poll failed");
            // Refreshes since the last poll re-analysed (about) the
            // history of this session as the poll saw it; the earlier
            // sessions are not dirty, so no refresh touches them.
            let now = refreshes(handle);
            let history = status
                .as_ref()
                .and_then(|st| st.sessions.get(index as usize))
                .map_or(0, |s| s.events);
            reanalyzed += (now - seen_refreshes) as f64 * history as f64;
            seen_refreshes = now;
        }
        (generator.join().expect("generator thread"), polls)
    });
    let fin = wait_final(handle, index + 1, total, Duration::from_secs(60));
    let quiesced = fin.as_ref().map_or_else(Instant::now, |f| f.quiesced);
    let ingest_s = quiesced.duration_since(start).as_secs_f64();
    let drain_ms = quiesced.saturating_duration_since(sent.last_sent).as_secs_f64() * 1e3;
    let status = fin.map(|f| f.status);
    reanalyzed += (refreshes(handle) - seen_refreshes) as f64 * total as f64;

    // Output checks: every frame acked, live report == offline report,
    // and the generator kept to its schedule.
    let planned = wire.len() as u64;
    out.attempted += planned;
    out.failed += planned.saturating_sub(*sent.acked.as_ref().unwrap_or(&0));
    if let Err(e) = &sent.acked {
        out.error(format!("generator failed: {e}"));
    }
    let late_frames = sent.late_ms.iter().filter(|&&l| l > LATE_LIMIT_MS).count() as u64;
    if late_frames > 0 {
        out.failed += late_frames;
        out.error(format!("generator fell behind on {late_frames} frames"));
    }
    let offline = analyze(trace);
    // Sessions are listed in id order: this is the `index`-th.
    let snap = status.as_ref().and_then(|st| st.sessions.get(index as usize));
    let (live_ok, what) = match snap {
        None => (false, "final status lacks the session"),
        Some(s) if !s.ended || s.events != total => {
            (false, "final snapshot stale: session not shown ended with every event")
        }
        Some(s) => (s.report == offline, "live report != offline analyze"),
    };
    out.check(live_ok, what);
    Session { polls, late_ms: sent.late_ms, ingest_s, drain_ms, reanalyzed }
}

pub fn run(seed: u64, seconds: f64, traced: bool, size: Size, work: &Path) -> Outcome {
    let duration = Duration::from_secs_f64(seconds / SESSIONS as f64);
    let mut setups = Vec::new();
    let mut prepared = None;
    for rep in 0..crate::SETUP_REPS {
        if let Some((_, _, handle)) = prepared.take() {
            CollectorHandle::shutdown(handle);
        }
        let started = Instant::now();
        let trace = openldap_trace(seed, duration.as_secs_f64(), size);
        let wire: Vec<(u64, Vec<u8>)> = arrival_plan(&trace, duration.as_nanos() as u64)
            .iter()
            .map(|p| (p.due_ns, wire_bytes(&p.frame)))
            .collect();
        let handle = start_collector(Some(work.join(format!("journal-{rep}"))));
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some((trace, wire, handle));
    }
    let (trace, wire, handle) = prepared.expect("set-up ran");
    let total = trace.num_events() as u64;

    let mut out = Outcome::default();
    let cpu0 = cpu_seconds();
    let sessions: Vec<Session> =
        (0..SESSIONS).map(|i| session(&handle, i, &trace, &wire, duration, &mut out)).collect();
    let cpu = cpu_seconds() - cpu0;
    let metrics = handle.metrics_snapshot();
    let refreshed = metrics.counter(REFRESHES).unwrap_or(0);
    let checkpoints = metrics.counter("critlock_checkpoint_writes_total").unwrap_or(0);
    let high_water = handle.status().sessions.iter().map(|s| s.queue_high_water).max();
    handle.shutdown();

    let polls: Vec<f64> = sessions.iter().flat_map(|s| s.polls.iter().copied()).collect();
    let late_ms: Vec<f64> = sessions.iter().flat_map(|s| s.late_ms.iter().copied()).collect();
    let rates: Vec<f64> = sessions.iter().map(|s| total as f64 / s.ingest_s).collect();
    let events = (SESSIONS * total) as f64;
    out.note("sessions", SESSIONS);
    out.note("events_per_session", total);
    out.note("frames_per_session", wire.len());
    out.note("polls", polls.len());
    out.note("gen_late_median_ms", median(&late_ms));
    out.note("setup_reps_s", format!("{setups:.4?}"));
    out.metric("setup_s", median(&setups), "s");
    out.op_latency(&polls);
    out.metric("cpu_us_per_event", cpu * 1e6 / events, "us");
    out.metric("events_per_s", median(&rates), "1/s");
    let drain_ms: Vec<f64> = sessions.iter().map(|s| s.drain_ms).collect();
    out.note("drain_lag_ms", format!("{drain_ms:.3?}"));

    if traced {
        let path = work.join("openldap.cltr");
        codec::save(&trace, &path).expect("trace file is writable");
        // The traced replay drives one session at the per-session counts.
        let replay = layers::Replay {
            refreshes: refreshed / SESSIONS,
            checkpoints: checkpoints / SESSIONS,
            polls: (polls.len() as u64) / SESSIONS,
            analyze_reps: 3,
            size,
        };
        let micro = crate::producer::overheads(size, work, &mut out);
        let pool = crate::nproc_pool();
        let lm = layers::run_all(&trace, &path, &pool, &replay, &micro, work, &mut out);
        let explained = lm.live_layer_ms / 1e3 * SESSIONS as f64 / cpu;
        out.metric("trace.cpu_explained", explained, "ratio");
        out.metric("snapshot.refreshes", refreshed as f64 / SESSIONS as f64, "count");
        let reanalyzed: f64 = sessions.iter().map(|s| s.reanalyzed).sum();
        out.metric("snapshot.reanalyzed_events_per_event", reanalyzed / events, "ratio");
        out.metric("queue.high_water", high_water.unwrap_or(0) as f64, "count");
        out.metric("gen.late_ms", late_ms.iter().copied().fold(0.0, f64::max), "ms");
        out.metric("ingest.drain_lag_ms", median(&drain_ms), "ms");
    }
    out
}
