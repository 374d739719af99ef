//! Measurement helpers: order statistics, per-thread CPU accounting from
//! `/proc` and the thread CPU clock, the kernel's UDP drop counter, and
//! the benchmark's own span recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Value at quantile `q` (0..=1) of `samples`, by linear interpolation
/// between the two nearest ranks. `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// CPU time and scheduler run count of the calling thread, from
/// `/proc/thread-self/schedstat` (`run_ns wait_ns timeslices`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadCpu {
    /// Nanoseconds spent running.
    pub run_ns: u64,
    /// Times the thread was scheduled in: each blocking wait that
    /// slept costs one.
    pub slices: u64,
}

impl ThreadCpu {
    /// Reads the calling thread's counters.
    pub fn now() -> ThreadCpu {
        let s = std::fs::read_to_string("/proc/thread-self/schedstat")
            .expect("read /proc/thread-self/schedstat");
        let mut f = s.split_whitespace().map(|x| x.parse::<u64>().expect("schedstat field"));
        let run_ns = f.next().expect("schedstat run_ns");
        let _wait_ns = f.next();
        let slices = f.next().expect("schedstat timeslices");
        ThreadCpu { run_ns, slices }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ThreadCpu) -> ThreadCpu {
        ThreadCpu { run_ns: self.run_ns - earlier.run_ns, slices: self.slices - earlier.slices }
    }

    /// Sum of two threads' counters.
    pub fn plus(self, other: ThreadCpu) -> ThreadCpu {
        ThreadCpu { run_ns: self.run_ns + other.run_ns, slices: self.slices + other.slices }
    }
}

/// CPU time the calling thread has used, ns, from
/// `CLOCK_THREAD_CPUTIME_ID`. Cheaper than [`ThreadCpu::now`], so spans
/// read it around every call.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = sys::Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime: {}", std::io::Error::last_os_error());
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The `Udp: RcvbufErrors` counter of `/proc/net/snmp`: datagrams the
/// kernel dropped because a socket's receive buffer was full. It counts
/// every UDP socket in the network namespace, not only this process's.
pub fn udp_rcvbuf_errors() -> u64 {
    let s = std::fs::read_to_string("/proc/net/snmp").expect("read /proc/net/snmp");
    let mut udp = s.lines().filter(|l| l.starts_with("Udp:"));
    let names = udp.next().expect("Udp header line");
    let values = udp.next().expect("Udp value line");
    let col =
        names.split_whitespace().position(|n| n == "RcvbufErrors").expect("RcvbufErrors column");
    values.split_whitespace().nth(col).expect("RcvbufErrors value").parse().expect("counter")
}

/// One closed span: a timed call made by the benchmark into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within one recorder.
    pub id: u32,
    /// Enclosing span's id (`None` for a root).
    pub parent: Option<u32>,
    /// What was called.
    pub name: &'static str,
    /// Operation id shared by every span of one request.
    pub op: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    op: u64,
    start: Instant,
    start_cpu_ns: u64,
    child_ns: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    /// Calls.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans, ns.
    pub self_ns: u64,
    /// CPU time the calling thread used inside the spans, ns.
    pub cpu_ns: u64,
}

impl SpanAgg {
    /// Mean duration per call, ns (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Spans the benchmark records around its own calls into each layer.
/// Disabled (the untraced runs) it only runs the closure. Enabled, it
/// keeps up to `cap` spans in memory for the exit-time dump and folds
/// every span into per-name totals.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    log: Vec<Span>,
    cap: usize,
    /// Spans closed after the log was full (still in the totals).
    unlogged: u64,
    agg: BTreeMap<&'static str, SpanAgg>,
}

impl Spans {
    /// A recorder; `enabled` false makes [`Spans::span`] a plain call.
    pub fn new(enabled: bool, epoch: Instant) -> Spans {
        Spans {
            enabled,
            epoch,
            next_id: 0,
            stack: Vec::new(),
            log: Vec::new(),
            cap: 100_000,
            unlogged: 0,
            agg: BTreeMap::new(),
        }
    }

    /// A recorder for another thread, on the same clock and switch.
    pub fn fork(&self) -> Spans {
        Spans::new(self.enabled, self.epoch)
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.stack.last().map(|o| o.id);
        let start_cpu_ns = thread_cpu_ns();
        self.stack.push(Open {
            id,
            parent,
            name,
            op,
            start: Instant::now(),
            start_cpu_ns,
            child_ns: 0,
        });
        let r = f(self);
        let end = Instant::now();
        let cpu_ns = thread_cpu_ns();
        let o = self.stack.pop().expect("span stack");
        let dur = end.duration_since(o.start).as_nanos() as u64;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        let a = self.agg.entry(o.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        a.cpu_ns += cpu_ns - o.start_cpu_ns;
        if self.log.len() < self.cap {
            let start_ns = o.start.duration_since(self.epoch).as_nanos() as u64;
            self.log.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                op: o.op,
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            self.unlogged += 1;
        }
        r
    }

    /// Totals for one span name.
    pub fn agg(&self, name: &str) -> SpanAgg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Folds another recorder (another thread's, or an earlier phase's)
    /// into this one; its log is tagged with `thread` on output.
    pub fn absorb(&mut self, other: Spans, sink: &mut SpanLog, thread: &'static str) {
        for (k, v) in other.agg {
            let a = self.agg.entry(k).or_default();
            a.count += v.count;
            a.total_ns += v.total_ns;
            a.self_ns += v.self_ns;
            a.cpu_ns += v.cpu_ns;
        }
        sink.dropped += other.unlogged;
        sink.add(thread, &other.log);
    }

    /// Moves this recorder's own log into `sink`.
    pub fn drain_into(&mut self, sink: &mut SpanLog, thread: &'static str) {
        sink.dropped += std::mem::take(&mut self.unlogged);
        sink.add(thread, &self.log);
        self.log.clear();
    }
}

/// Most spans one dump holds; the rest still count in the totals.
const LOG_CAP: u64 = 300_000;

/// The span dump written when the benchmark exits: JSONL, one span per
/// line. Span ids are unique within one batch (one recorder's log).
#[derive(Default)]
pub struct SpanLog {
    out: String,
    batches: u64,
    /// Spans written.
    pub lines: u64,
    /// Spans left out of the dump (they still count in the totals).
    pub dropped: u64,
}

impl SpanLog {
    fn add(&mut self, thread: &'static str, spans: &[Span]) {
        let batch = self.batches;
        self.batches += 1;
        for s in spans {
            if self.lines == LOG_CAP {
                self.dropped += 1;
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                self.out,
                "{{\"thread\":\"{thread}\",\"batch\":{batch},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.op, s.start_ns, s.end_ns
            );
            self.lines += 1;
        }
    }

    /// Writes the dump to `path`, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &self.out)
    }
}

/// Repeats `f` until at least `min` wall time has passed (and at least
/// `min_iters` calls), returning mean nanoseconds per call.
pub fn time_per_call(min: Duration, min_iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while n < min_iters || start.elapsed() < min {
        for _ in 0..64 {
            f();
        }
        n += 64;
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
}

/// Pins the calling thread to the `nth` CPU this process may run on,
/// when there is one. The live workloads put the client on the first
/// CPU and the server on the second: left to the scheduler, the pair
/// sometimes shares a core, where a wake-up costs a fraction of a
/// cross-core one, and the round trip jumps between the two.
pub fn pin_to_nth_cpu(nth: usize) {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 names
    // the calling thread.
    if unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(cpu) = (0..1024).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).nth(nth) else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the mask names one CPU the process may use.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity: {}", std::io::Error::last_os_error());
}
