//! `producer-micro`: the paper's micro-benchmark shape (Fig. 5: every
//! thread runs `lock(L1); work; unlock; lock(L2); 1.25 × work; unlock`)
//! on nproc real threads. The same seeded operation schedule runs three
//! ways per round — plain `parking_lot`, `critlock_instrument::Mutex`
//! recording in memory, and the same streaming through
//! `Session::stream_to` into an in-process collector — in a rotating
//! order, so slow drift affects the three alike.
//!
//! Closed loop: the streaming variant's threads block when the collector
//! applies backpressure, so a slower collector slows the application.

use crate::live::{refreshes, start_collector, wait_final};
use crate::measure::{cpu_seconds, median};
use crate::{layers, Outcome, Size};
use critlock_analysis::analyze;
use critlock_collector::Addr;
use critlock_instrument::Session;
use critlock_trace::{codec, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seeded operation schedule: per thread, the CS1 loop length of
/// every operation (CS2 runs 1.25× as long).
pub struct Micro {
    iters: Vec<Vec<u64>>,
}

impl Micro {
    pub fn new(seed: u64, size: Size) -> Micro {
        let (ops, base) = match size {
            Size::Full => (1_000, 4_000),
            Size::Tiny => (200, 100),
        };
        let threads = crate::nproc();
        let mut rng = SmallRng::seed_from_u64(seed);
        let iters = (0..threads)
            .map(|_| (0..ops).map(|_| rng.gen_range(base / 2..base / 2 + base)).collect())
            .collect();
        Micro { iters }
    }

    /// Lock operations per round (two per scheduled operation).
    pub fn lock_ops(&self) -> u64 {
        self.iters.iter().map(|t| 2 * t.len() as u64).sum()
    }
}

fn work(v: &mut u64, iters: u64) {
    for _ in 0..iters {
        *v = black_box(*v + 1);
    }
}

/// One round on plain `parking_lot` mutexes; wall time in ms.
pub fn plain_round(m: &Micro) -> f64 {
    let started = Instant::now();
    let (l1, l2) = (parking_lot::Mutex::new(0u64), parking_lot::Mutex::new(0u64));
    std::thread::scope(|s| {
        for iters in &m.iters {
            let (l1, l2) = (&l1, &l2);
            s.spawn(move || {
                for &n in iters {
                    work(&mut l1.lock(), n);
                    work(&mut l2.lock(), n * 5 / 4);
                }
            });
        }
    });
    started.elapsed().as_secs_f64() * 1e3
}

/// One round on instrumented mutexes, streaming to `to` when given;
/// wall time in ms (session start to `finish`) and the recorded trace.
pub fn instrumented_round(m: &Micro, to: Option<&Addr>) -> (f64, Trace) {
    let started = Instant::now();
    let session = Session::new("pathbench-micro");
    if let Some(addr) = to {
        session.stream_to(&addr.to_string()).expect("collector accepts the stream");
    }
    let l1 = Arc::new(session.mutex("L1", 0u64));
    let l2 = Arc::new(session.mutex("L2", 0u64));
    let handles: Vec<_> = m
        .iters
        .iter()
        .enumerate()
        .map(|(i, iters)| {
            let (l1, l2, iters) = (Arc::clone(&l1), Arc::clone(&l2), iters.clone());
            critlock_instrument::spawn(&session, format!("T{i}"), move || {
                for n in iters {
                    work(&mut l1.lock(), n);
                    work(&mut l2.lock(), n * 5 / 4);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("micro worker");
    }
    let trace = session.finish().expect("micro trace validates");
    (started.elapsed().as_secs_f64() * 1e3, trace)
}

/// One streaming round against a fresh collector journaling into `dir`.
pub struct StreamRound {
    pub app_ms: f64,
    /// Session start to the final snapshot covering every event.
    pub ingest_s: f64,
    /// The application's `finish` to the final snapshot, ms.
    pub drain_ms: f64,
    pub cpu_s: f64,
    pub events: u64,
    /// The recorded trace; only the latest round keeps it.
    pub trace: Trace,
    pub refreshes: u64,
    pub checkpoints: u64,
    pub high_water: u64,
    /// The final snapshot's report equals offline `analyze`.
    pub live_matches: bool,
}

pub fn stream_round(m: &Micro, dir: &Path) -> StreamRound {
    let handle = start_collector(Some(dir.to_path_buf()));
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let (app_ms, trace) = instrumented_round(m, Some(handle.ingest_addr()));
    let finished = Instant::now();
    let total = trace.num_events() as u64;
    let status = wait_final(&handle, 1, total, Duration::from_secs(60)).map(|f| f.status);
    let ingest_s = started.elapsed().as_secs_f64();
    let drain_ms = finished.elapsed().as_secs_f64() * 1e3;
    let cpu_s = cpu_seconds() - cpu0;
    let snap = status.iter().flat_map(|st| &st.sessions).find(|s| s.ended && s.events == total);
    let checkpoints =
        handle.metrics_snapshot().counter("critlock_checkpoint_writes_total").unwrap_or(0);
    let round = StreamRound {
        app_ms,
        ingest_s,
        drain_ms,
        cpu_s,
        events: total,
        refreshes: refreshes(&handle),
        checkpoints,
        high_water: snap.map_or(0, |s| s.queue_high_water),
        live_matches: snap.is_some_and(|s| s.report == analyze(&trace)),
        trace,
    };
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    round
}

/// Whether a recorded micro trace is what the schedule must produce: a
/// valid trace with one acquire, obtain and release per lock operation.
pub fn trace_ok(m: &Micro, trace: &Trace) -> bool {
    use critlock_trace::EventKind::{LockAcquire, LockObtain, LockRelease};
    let count = |f: fn(&critlock_trace::EventKind) -> bool| {
        trace.threads.iter().flat_map(|s| &s.events).filter(|e| f(&e.kind)).count() as u64
    };
    trace.validate().is_ok()
        && count(|k| matches!(k, LockAcquire { .. })) == m.lock_ops()
        && count(|k| matches!(k, LockObtain { .. })) == m.lock_ops()
        && count(|k| matches!(k, LockRelease { .. })) == m.lock_ops()
}

/// Per-round results of the three variants.
#[derive(Default)]
struct Rounds {
    plain_ms: Vec<f64>,
    instr_ms: Vec<f64>,
    stream: Vec<StreamRound>,
    plain_cpu_s: Vec<f64>,
}

/// Run rounds (rotating the variant order) until `seconds` have passed
/// and at least `min_rounds` ran, checking every output into `out`.
fn rounds(m: &Micro, seconds: f64, min_rounds: usize, work: &Path, out: &mut Outcome) -> Rounds {
    let mut r = Rounds::default();
    let started = Instant::now();
    let mut k = 0;
    while started.elapsed().as_secs_f64() < seconds || k < min_rounds {
        for variant in 0..3 {
            match (variant + k) % 3 {
                0 => {
                    let cpu0 = cpu_seconds();
                    r.plain_ms.push(plain_round(m));
                    r.plain_cpu_s.push(cpu_seconds() - cpu0);
                }
                1 => {
                    let (ms, trace) = instrumented_round(m, None);
                    out.check(trace_ok(m, &trace), "in-memory micro trace is wrong");
                    r.instr_ms.push(ms);
                }
                _ => {
                    let round = stream_round(m, &work.join(format!("producer-{k}")));
                    out.check(trace_ok(m, &round.trace), "streamed micro trace is wrong");
                    out.check(round.live_matches, "live report != offline analyze");
                    if let Some(prev) = r.stream.last_mut() {
                        prev.trace = Trace::default();
                    }
                    r.stream.push(round);
                }
            }
        }
        k += 1;
    }
    r
}

/// Instrumented over plain, and streaming over plain, as percentages:
/// the median of the per-round ratios.
pub struct Overheads {
    pub overhead_pct: f64,
    pub stream_overhead_pct: f64,
}

fn overheads_of(r: &Rounds) -> Overheads {
    let ratio = |xs: &[f64]| {
        let per_round: Vec<f64> = xs.iter().zip(&r.plain_ms).map(|(x, p)| x / p).collect();
        100.0 * (median(&per_round) - 1.0)
    };
    let stream_ms: Vec<f64> = r.stream.iter().map(|s| s.app_ms).collect();
    Overheads { overhead_pct: ratio(&r.instr_ms), stream_overhead_pct: ratio(&stream_ms) }
}

/// The micro shape's overheads from a short run (traced runs of the other
/// workloads report the producer library's cost with these).
pub fn overheads(size: Size, work: &Path, out: &mut Outcome) -> Overheads {
    overheads_of(&rounds(&Micro::new(0, size), 0.0, 24, work, out))
}

/// Single-thread record cost: ns per recorded event over a plain mutex,
/// in memory and streaming.
pub struct Calibration {
    pub record_ns_per_event: f64,
    pub stream_ns_per_event: f64,
}

pub fn calibrate(size: Size) -> Calibration {
    let n: u64 = match size {
        Size::Full => 200_000,
        Size::Tiny => 5_000,
    };
    let timed = |f: &dyn Fn()| {
        let started = Instant::now();
        f();
        started.elapsed().as_secs_f64() * 1e9
    };
    let mut record = Vec::new();
    let mut stream = Vec::new();
    for _ in 0..3 {
        let plain = parking_lot::Mutex::new(0u64);
        let plain_ns = timed(&|| (0..n).for_each(|_| *plain.lock() += 1));

        let session = Session::new("pathbench-calibrate");
        let m = session.mutex("m", 0u64);
        let ns = timed(&|| (0..n).for_each(|_| *m.lock() += 1));
        let events = session.finish().expect("calibration trace").num_events() as f64;
        record.push((ns - plain_ns) / events);

        let handle = start_collector(None);
        let session = Session::new("pathbench-calibrate");
        session.stream_to(&handle.ingest_addr().to_string()).expect("collector accepts");
        let m = session.mutex("m", 0u64);
        let ns = timed(&|| (0..n).for_each(|_| *m.lock() += 1));
        let events = session.finish().expect("calibration trace").num_events() as f64;
        stream.push((ns - plain_ns) / events);
        handle.shutdown();
    }
    Calibration { record_ns_per_event: median(&record), stream_ns_per_event: median(&stream) }
}

pub fn run(seed: u64, seconds: f64, traced: bool, size: Size, work: &Path) -> Outcome {
    // Set-up: the schedule plus a warm-up round of the plain and the
    // in-memory variant (thread start-up, lazy initialisation, caches).
    let mut setups = Vec::new();
    let mut micro = None;
    for _ in 0..crate::SETUP_REPS {
        let started = Instant::now();
        let m = Micro::new(seed, size);
        black_box(plain_round(&m));
        black_box(instrumented_round(&m, None));
        setups.push(started.elapsed().as_secs_f64());
        micro = Some(m);
    }
    let m = micro.expect("set-up ran");
    // Warm the streaming path too; its wait for the final snapshot polls,
    // which would only add noise to `setup_s`.
    black_box(stream_round(&m, &work.join("warmup")));

    let mut out = Outcome::default();
    let r = rounds(&m, seconds, crate::MIN_OPS, work, &mut out);
    let app_ms: Vec<f64> = r.stream.iter().map(|s| s.app_ms).collect();
    let events: Vec<f64> = r.stream.iter().map(|s| s.events as f64).collect();
    let stream_cpu: Vec<f64> = r.stream.iter().map(|s| s.cpu_s).collect();
    // A streaming round's CPU above the plain round of the same iteration
    // (median over iterations): the instrument's and the collector's
    // cost, without the application's own work. Pairing within an
    // iteration cancels slow drift in the host's speed.
    let paired: Vec<f64> = stream_cpu.iter().zip(&r.plain_cpu_s).map(|(s, p)| s - p).collect();
    let extra_cpu = median(&paired);
    let drain_ms: Vec<f64> = r.stream.iter().map(|s| s.drain_ms).collect();
    let rates: Vec<f64> = r.stream.iter().map(|s| s.events as f64 / s.ingest_s).collect();
    let ov = overheads_of(&r);

    out.note("rounds", r.stream.len());
    out.note("threads", m.iters.len());
    out.note("lock_ops_per_round", m.lock_ops());
    out.note("plain_p50_ms", median(&r.plain_ms));
    out.note("instrumented_p50_ms", median(&r.instr_ms));
    out.note("overhead_pct", ov.overhead_pct);
    out.note("stream_overhead_pct", ov.stream_overhead_pct);
    out.note("setup_reps_s", format!("{setups:.4?}"));
    out.metric("setup_s", median(&setups), "s");
    out.op_latency(&app_ms);
    out.note("stream_cpu_p50_s", median(&stream_cpu));
    out.note("plain_cpu_p50_s", median(&r.plain_cpu_s));
    out.note("drain_lag_p50_ms", median(&drain_ms));
    out.metric("cpu_us_per_event", extra_cpu * 1e6 / median(&events), "us");
    out.metric("events_per_s", median(&rates), "1/s");

    if traced {
        let last = r.stream.last().expect("at least one streaming round");
        let path = work.join("micro.cltr");
        codec::save(&last.trace, &path).expect("trace file is writable");
        let replay = layers::Replay {
            refreshes: last.refreshes,
            checkpoints: last.checkpoints,
            polls: 1,
            analyze_reps: 3,
            size,
        };
        let pool = crate::nproc_pool();
        let lm = layers::run_all(&last.trace, &path, &pool, &replay, &ov, work, &mut out);
        // The streaming round's extra CPU over a plain round, against the
        // replayed live chain plus the calibrated record cost.
        // The CPU difference can be about 0 on tiny rounds.
        let explained =
            lm.live_layer_ms / 1e3 + lm.record_ns_per_event * last.trace.num_events() as f64 / 1e9;
        out.metric("trace.cpu_explained", explained / extra_cpu.max(1e-6), "ratio");
        out.metric("snapshot.refreshes", last.refreshes as f64, "count");
        // Refreshes here run on the collector's timer, with no poll to
        // see the history they re-analysed: not measured on this workload.
        out.note("snapshot.reanalyzed_events_per_event", "unmeasured (reported as 0)");
        out.metric("snapshot.reanalyzed_events_per_event", 0.0, "ratio");
        out.metric("queue.high_water", last.high_water as f64, "count");
        out.metric("gen.late_ms", 0.0, "ms");
        out.metric("ingest.drain_lag_ms", median(&drain_ms), "ms");
    }
    out
}
