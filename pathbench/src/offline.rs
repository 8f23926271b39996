//! The offline workloads: a seeded trace written to a `.cltr` file at
//! set-up, then analysed back to back exactly as `critlock analyze --json`
//! does it (salvage mode, pool = nproc).
//!
//! * `offline-radiosity` analyses a radiosity trace ([`radiosity_trace`]).
//! * `offline-openldap` analyses the events of one `live-openldap`
//!   session ([`openldap_trace`]): the offline cost of the very events
//!   the live collector ingests, so the two workloads' `cpu_us_per_event`
//!   compare directly.
//!
//! The times these workloads report (`setup_s`, `op_*`,
//! `cpu_us_per_event`, `events_per_s`) are scaled to a reference host
//! speed: host-speed reference samples ([`reference_ms`]) run before each
//! set-up rep and between operations, and every time is multiplied by
//! [`REFERENCE_NOMINAL_MS`] ÷ their median. The unscaled figures are
//! printed as notes.

use crate::measure::{cpu_seconds, median, reference_ms, REFERENCE_NOMINAL_MS};
use crate::{layers, Outcome, Size};
use critlock_analysis::report::to_json;
use critlock_analysis::{analyze, AnalysisReport};
use critlock_trace::{codec, Budget, Trace};
use critlock_workloads::{suite, WorkloadCfg};
use std::path::Path;
use std::time::{Duration, Instant};

/// Application threads of the simulated radiosity run.
pub const APP_THREADS: usize = 16;

/// The seeded radiosity trace (per-thread task queues plus stealing).
pub fn radiosity_trace(seed: u64, size: Size) -> Trace {
    let scale = match size {
        Size::Full => 10.0,
        Size::Tiny => 0.1,
    };
    let cfg = WorkloadCfg::with_threads(APP_THREADS).with_scale(scale).with_seed(seed);
    suite::run_workload("radiosity", &cfg)
        .expect("radiosity is a registered workload")
        .expect("radiosity simulates cleanly")
}

/// Least time between two host-speed reference samples while measuring.
const REFERENCE_EVERY: Duration = Duration::from_millis(500);

/// Seconds of `live-openldap` load whose events [`openldap_trace`]
/// holds: one session of a 20 s live run.
pub const OPENLDAP_SESSION_S: f64 = 10.0;

/// The seeded openldap-like server trace of one `live-openldap` session.
pub fn openldap_trace(seed: u64, size: Size) -> Trace {
    crate::live::openldap_trace(seed, OPENLDAP_SESSION_S, size)
}

/// `critlock analyze <path> --json` in default (salvage) mode, run in
/// `pool`.
pub fn analyze_json(path: &Path, pool: &rayon::ThreadPool) -> Result<String, String> {
    let salvaged = pool
        .install(|| critlock_trace::salvage::load(path, &Budget::unlimited()))
        .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    let mut rep = pool.install(|| analyze(&salvaged.trace));
    attach_salvage(&mut rep, salvaged.report);
    Ok(to_json(&rep))
}

/// Attach a salvage report the way `critlock analyze` does: only when
/// the salvage pass changed something.
pub fn attach_salvage(rep: &mut AnalysisReport, report: critlock_trace::SalvageReport) {
    if !report.is_clean() {
        rep.degraded = report.degraded;
        rep.salvage = Some(report);
    }
}

/// The expected output: `analyze` of the generated trace at pool size 1.
pub fn reference_json(trace: &Trace) -> String {
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool of one");
    one.install(|| to_json(&analyze(trace)))
}

/// Run an offline workload on the trace `make` generates from the seed.
pub fn run(
    make: fn(u64, Size) -> Trace,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    work: &Path,
) -> Outcome {
    let path = work.join("trace.cltr");
    // Host-speed samples: one per set-up rep, then one between operations
    // at most every REFERENCE_EVERY, so they span the whole run.
    let mut refs = Vec::new();
    let mut setups = Vec::new();
    let mut trace = None;
    for _ in 0..crate::SETUP_REPS {
        drop(trace.take());
        refs.push(reference_ms());
        let started = Instant::now();
        let t = make(seed, size);
        // A new file each rep: truncating and rewriting one in place can
        // make the file system flush the previous rep's data first.
        let _ = std::fs::remove_file(&path);
        codec::save(&t, &path).expect("trace file is writable");
        setups.push(started.elapsed().as_secs_f64());
        trace = Some(t);
    }
    let trace = trace.expect("set-up ran");
    let events = trace.num_events() as f64;
    let pool = crate::nproc_pool();
    let reference = reference_json(&trace);

    let mut out = Outcome::default();
    let mut op_ms = Vec::new();
    let mut cpu = 0.0;
    let started = Instant::now();
    let mut last_ref = started;
    while started.elapsed().as_secs_f64() < seconds || op_ms.len() < crate::MIN_OPS {
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        let json = analyze_json(&path, &pool);
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        cpu += cpu_seconds() - cpu0;
        out.check(json.as_deref() == Ok(reference.as_str()), "analyze output != reference");
        if last_ref.elapsed() >= REFERENCE_EVERY {
            refs.push(reference_ms());
            last_ref = Instant::now();
        }
    }
    let busy = op_ms.iter().sum::<f64>() / 1e3;
    let ops = op_ms.len() as f64;
    // Times scaled to the reference host speed (see `reference_ms`).
    let scale = REFERENCE_NOMINAL_MS / median(&refs);
    let scaled_ms: Vec<f64> = op_ms.iter().map(|ms| ms * scale).collect();

    out.note("trace_events", events);
    out.note("ops", ops);
    out.note("setup_reps_s", format!("{setups:.4?}"));
    out.note("reference_samples", refs.len());
    out.note("reference_p50_ms", median(&refs));
    out.note("host_scale", scale);
    out.note("unscaled_op_p50_ms", median(&op_ms));
    out.note("unscaled_cpu_us_per_event", cpu * 1e6 / (ops * events));
    out.metric("setup_s", median(&setups) * scale, "s");
    out.op_latency(&scaled_ms);
    out.metric("cpu_us_per_event", cpu * 1e6 / (ops * events) * scale, "us");
    out.metric("events_per_s", ops * events / busy / scale, "1/s");

    if traced {
        let per_op_cpu = cpu / ops;
        let replay =
            layers::Replay { refreshes: 1, checkpoints: 1, polls: 1, analyze_reps: 5, size };
        let micro = crate::producer::overheads(size, work, &mut out);
        let lm = layers::run_all(&trace, &path, &pool, &replay, &micro, work, &mut out);
        // The offline op's path is the offline chain alone.
        out.metric("trace.cpu_explained", lm.offline_layer_ms / 1e3 / per_op_cpu, "ratio");
        // No collector runs here: the collector counts are 0.
        out.note("collector_counts", "none on an offline workload (reported as 0)");
        out.metric("snapshot.refreshes", 0.0, "count");
        out.metric("snapshot.reanalyzed_events_per_event", 0.0, "ratio");
        out.metric("queue.high_water", 0.0, "count");
        out.metric("gen.late_ms", 0.0, "ms");
        out.metric("ingest.drain_lag_ms", 0.0, "ms");
    }
    out
}
