//! Corruption-matrix property tests for trace salvage: a valid trace is
//! encoded to CLTR bytes, mutated with the same primitives the transport
//! fault plans use (cut, truncation splice, bit flip), and then
//!
//! * the salvage path must never panic — it either recovers a trace that
//!   passes validation or returns a typed error;
//! * the strict path must never silently succeed on mutated bytes — the
//!   v3 whole-file checksum turns every mutation into a typed error;
//! * on *unmutated* bytes, salvage must be the identity with a clean
//!   (empty) salvage report;
//! * `salvage::load` gives the same trace and report at every pool size,
//!   on damaged bytes and under every kind of budget, and a v1 encoding
//!   salvages exactly as the v2 and v3 encodings of the same trace do.

use critlock_trace::codec::{read_trace_bytes, read_trace_bytes_salvage, write_trace_with_version};
use critlock_trace::faults::FLIP_MASK;
use critlock_trace::salvage::{self, salvage_trace, Salvaged};
use critlock_trace::{Budget, Trace, TraceBuilder};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A protocol-valid trace: 1–3 threads doing work and whole critical
/// sections on two locks, sized by per-thread op counts.
fn valid_trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec(prop::collection::vec((1u64..8, 0u8..3), 0..24), 1..4).prop_map(
        |threads| {
            let mut b = TraceBuilder::new("salvage-props");
            let l1 = b.lock("L1");
            let l2 = b.lock("L2");
            let tids: Vec<_> = (0..threads.len()).map(|i| b.thread(format!("t{i}"), 0)).collect();
            for (tid, ops) in tids.iter().zip(&threads) {
                let mut c = b.on(*tid);
                for &(amount, kind) in ops {
                    match kind {
                        0 => {
                            c.work(amount);
                        }
                        1 => {
                            c.cs(l1, amount);
                        }
                        _ => {
                            c.cs(l2, amount);
                        }
                    }
                }
                c.exit();
            }
            b.build().expect("builder output is always valid")
        },
    )
}

/// The byte-level mutations of the fault matrix: sever (cut), splice
/// (truncation) and single-byte corruption (bit flip), each anchored by
/// a position reduced modulo the encoding's length.
fn mutate(bytes: &[u8], kind: u8, pos: usize, drop: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match kind {
        0 => {
            let at = pos % (out.len() + 1);
            out.truncate(at);
        }
        1 => {
            let at = pos % (out.len() + 1);
            let end = (at + 1 + drop).min(out.len());
            out.drain(at..end.max(at));
        }
        _ => {
            let at = pos % out.len();
            out[at] ^= FLIP_MASK;
        }
    }
    out
}

fn encode(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    critlock_trace::codec::write_trace(trace, &mut buf).expect("encoding cannot fail");
    buf
}

/// One budget of each kind, chosen by `which` and sized by `n`: none,
/// an event cap, a thread cap, a resident-byte cap, or a deadline that
/// has already passed.
fn budget(which: u8, n: u64) -> Budget {
    match which {
        0 => Budget::unlimited(),
        1 => Budget::unlimited().with_max_events(n),
        2 => Budget::unlimited().with_max_threads((n % 4) as usize),
        3 => Budget::unlimited().with_max_bytes(n * 24),
        _ => Budget {
            deadline: Instant::now().checked_sub(Duration::from_millis(1)),
            ..Default::default()
        },
    }
}

/// `salvage::load` of `bytes` (through a file, as `critlock analyze`
/// reads it) inside a rayon pool of `threads`.
fn load_in_pool(bytes: &[u8], budget: &Budget, threads: usize) -> Option<Salvaged> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path: PathBuf = std::env::temp_dir().join(format!(
        "critlock-salvage-props-{}-{}.cltr",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("temp file is writable");
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    let loaded = pool.install(|| salvage::load(&path, budget)).ok();
    let _ = std::fs::remove_file(&path);
    loaded
}

fn encode_version(trace: &Trace, version: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace_with_version(trace, version, &mut buf).expect("encoding cannot fail");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn salvage_load_is_pool_and_version_independent(
        trace in valid_trace_strategy(),
        kind in 0u8..3,
        pos in 0usize..1_000_000,
        drop in 1usize..64,
        which in 0u8..5,
        n in 0u64..48,
    ) {
        let budget = budget(which, n);
        let clean: Vec<Vec<u8>> = (1..=3).map(|v| encode_version(&trace, v)).collect();
        for bytes in clean.iter().map(|b| mutate(b, kind, pos, drop)).chain(clean.iter().cloned()) {
            let one = load_in_pool(&bytes, &budget, 1);
            for threads in [2, 4] {
                let many = load_in_pool(&bytes, &budget, threads);
                prop_assert!(
                    one == many,
                    "pool {threads} differs from pool 1 (budget {which}/{n}, kind {kind}, pos {pos})"
                );
            }
        }
        let v1 = load_in_pool(&clean[0], &budget, 2).expect("clean v1 loads");
        for (i, bytes) in clean.iter().enumerate().skip(1) {
            let other = load_in_pool(bytes, &budget, 2).expect("clean bytes load");
            prop_assert!(v1 == other, "v1 and v{} salvage differently (budget {which}/{n})", i + 1);
        }
    }

    #[test]
    fn salvage_never_panics_and_strict_never_lies(
        trace in valid_trace_strategy(),
        kind in 0u8..3,
        pos in 0usize..1_000_000,
        drop in 1usize..64,
    ) {
        let clean = encode(&trace);
        let mutated = mutate(&clean, kind, pos, drop);

        // Strict decode of mutated bytes: a typed error, never a silent
        // success. (A cut or splice can degenerate to the identity; only
        // genuinely different bytes must be rejected.)
        if mutated != clean {
            prop_assert!(
                read_trace_bytes(&mutated).is_err(),
                "strict decode accepted mutated bytes (kind {kind}, pos {pos})"
            );
        }

        // Salvage decode: never panics; on success the repaired trace
        // must pass full validation and the report must admit damage.
        let budget = Budget::unlimited();
        if let Ok((partial, decode_anomalies)) = read_trace_bytes_salvage(&mutated, &budget) {
            let mut salvaged = salvage_trace(&partial, &budget);
            salvaged.report.absorb_decode_anomalies(decode_anomalies);
            salvaged.trace.validate().expect("salvaged trace must validate");
            if mutated != clean {
                prop_assert!(
                    !salvaged.report.is_clean() || salvaged.trace == trace,
                    "damaged bytes salvaged without a reported anomaly"
                );
            }
        }
    }

    #[test]
    fn salvage_of_clean_bytes_is_identity(trace in valid_trace_strategy()) {
        let clean = encode(&trace);
        let (decoded, anomalies) = read_trace_bytes_salvage(&clean, &Budget::unlimited()).unwrap();
        prop_assert!(anomalies.is_empty(), "clean decode reported {anomalies:?}");
        let salvaged = salvage_trace(&decoded, &Budget::unlimited());
        prop_assert!(salvaged.report.is_clean(), "clean report: {:?}", salvaged.report);
        prop_assert_eq!(salvaged.trace, trace);
    }
}
