//! Measurement primitives: sample statistics, process CPU and memory
//! readings, and the in-memory span recorder the traced runs use.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of a sample set that still has at least ten
/// samples beyond it, with the value there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile rank (e.g. 90.0 for 100 samples).
    pub pct: f64,
    /// Sample value at that rank.
    pub value: f64,
}

/// See [`Tail`]. With fewer than eleven samples no rank has ten beyond
/// it; the maximum is returned at rank 100.
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return Tail { pct: 100.0, value: v.last().copied().unwrap_or(f64::NAN) };
    }
    Tail { pct: 100.0 * (n - 10) as f64 / n as f64, value: v[n - 11] }
}

/// CPU seconds of this process, all threads included (exited ones too),
/// at nanosecond resolution: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
pub fn cpu_seconds() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Median [`reference_ms`] the offline workloads' times are scaled to:
/// their `--trace 0` times are in ms (s, µs) at the speed of a host where
/// one reference sample takes this long.
pub const REFERENCE_NOMINAL_MS: f64 = 12.0;

/// Words the host-speed reference sorts; every fourth goes into its map.
const REFERENCE_WORDS: usize = 1 << 19;

/// The host-speed reference's buffers. They are allocated and touched
/// once and then kept, so what they hold resident is a constant that
/// [`peak_rss_mib`] takes off again.
struct Reference {
    words: Vec<u64>,
    map: std::collections::HashMap<u64, usize>,
    x: u64,
    resident_mib: f64,
}

impl Reference {
    fn new() -> Reference {
        let before = proc_status_mib("VmRSS:");
        let mut r = Reference {
            words: vec![0; REFERENCE_WORDS],
            map: std::collections::HashMap::with_capacity(REFERENCE_WORDS / 4),
            x: 0x9e37_79b9_7f4a_7c15,
            resident_mib: 0.0,
        };
        r.run();
        r.resident_mib = proc_status_mib("VmRSS:") - before;
        r
    }

    fn run(&mut self) {
        for w in &mut self.words {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            *w = self.x;
        }
        self.words.sort_unstable();
        self.map.clear();
        self.map.extend(self.words.iter().step_by(4).enumerate().map(|(i, w)| (*w, i)));
        std::hint::black_box(&self.map);
    }
}

static REFERENCE: std::sync::Mutex<Option<Reference>> = std::sync::Mutex::new(None);

/// Wall time of one host-speed reference sample, in ms: fill 2^19
/// pseudo-random words, sort them and index every fourth in a hash map
/// (4 MiB of words, about 4 MiB of map). The benchmark's own code, none
/// of the program's, so a change to the program cannot move it.
///
/// A shared host's speed drifts by up to 1.7× over minutes (co-tenants on
/// the same cores and memory). Timed against this kernel in the same run,
/// the offline analysis drifts far less: on a shared 2-vCPU Xeon host the
/// radiosity op's median moved 8% between two sets of ten runs unscaled
/// and 1% scaled, and its run-to-run spread halved. Scaling by it keeps
/// the host's drift out of the bounded metrics while a slower program
/// still shows in full.
pub fn reference_ms() -> f64 {
    let mut slot = REFERENCE.lock().unwrap_or_else(|e| e.into_inner());
    let reference = slot.get_or_insert_with(Reference::new);
    let started = Instant::now();
    reference.run();
    started.elapsed().as_secs_f64() * 1e3
}

/// A `VmRSS:`-style line of `/proc/self/status`, in MiB.
fn proc_status_mib(key: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{key} line in /proc/self/status"));
    kib / 1024.0
}

/// Peak resident set size of this process (`VmHWM`), MiB, less what the
/// host-speed reference keeps resident (nothing if it never ran).
pub fn peak_rss_mib() -> f64 {
    let reference = REFERENCE.lock().unwrap_or_else(|e| e.into_inner());
    proc_status_mib("VmHWM:") - reference.as_ref().map_or(0.0, |r| r.resident_mib)
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans nest through an explicit stack; they
/// are written out only when the run ends ([`Spans::write_jsonl`]).
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record a leaf span that ended now and lasted `duration`, measured
    /// by the callee (e.g. a stage observer callback).
    pub fn record_ended(&mut self, name: &'static str, duration: std::time::Duration) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(duration.as_nanos() as u64);
        self.spans.push(Span { name, parent: self.stack.last().copied(), start_ns, end_ns });
    }

    /// Total duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
    }

    /// Mean duration of the spans called `name`, in ms (0 if none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e6
        }
    }

    /// Layer self time under the root spans called `root` (every span
    /// below such a root, minus what its own children cover) and the
    /// roots' total wall time, in ns.
    pub fn layer_and_wall_ns(&self, root: &str) -> (u64, u64) {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        // A parent is always recorded before its children.
        let mut root_of = Vec::with_capacity(self.spans.len());
        let (mut layers, mut wall) = (0, 0);
        for (i, s) in self.spans.iter().enumerate() {
            let r = s.parent.map_or(i, |p| root_of[p]);
            root_of.push(r);
            if self.spans[r].name != root {
                continue;
            }
            match s.parent {
                None => wall += s.duration_ns(),
                Some(_) => layers += s.duration_ns().saturating_sub(children[i]),
            }
        }
        (layers, wall)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(median(&v), 50.5);
        assert_eq!(tail(&[3.0, 1.0]).value, 3.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        let root = spans.begin("root");
        let mid = spans.begin("mid");
        spans.time("leaf", || std::thread::sleep(std::time::Duration::from_millis(2)));
        spans.end(mid);
        spans.end(root);
        let (layers, wall) = spans.layer_and_wall_ns("root");
        let (leaf, _) = spans.total("leaf");
        let (mid_total, _) = spans.total("mid");
        // mid's self time plus the leaf: the root's own time is excluded.
        assert_eq!(layers, mid_total);
        assert!(leaf >= 2_000_000 && mid_total >= leaf && wall >= mid_total);
    }

    #[test]
    fn proc_readings_are_positive() {
        let t0 = cpu_seconds();
        std::hint::black_box((0..std::hint::black_box(1_000_000u64)).sum::<u64>());
        assert!(cpu_seconds() > t0);
        assert!(peak_rss_mib() > 0.0);
        // The reference's resident memory is taken off the peak.
        assert!(reference_ms() > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
