//! Cross-layer tracing: a low-overhead, runtime-gated span/event recorder,
//! its one reader, and its one auditor.
//!
//! Recording is off by default; every record call starts with one relaxed
//! atomic load, so instrumented hot paths (transport sends, per-bucket
//! submits) cost ~nothing when tracing is disabled. When enabled — via
//! [`enable`] or the `A2SGD_TRACE=<dir>` environment variable
//! ([`init_from_env`]) — events land in capped thread-local buffers
//! stamped with monotonic nanoseconds from a process-wide epoch; once a
//! buffer is full, new events are dropped and counted, never recorded
//! over old ones.
//!
//! Each rank *process* writes one JSONL file ([`flush_process_file`]);
//! in-process thread ranks share a file, with one thread section per rank.
//! [`load_dir`] reads every per-process file back, aligns the clocks on
//! the per-rank `sync_point` instants (recorded right after a barrier, so
//! they denote the same wall moment on every rank), and
//! [`chrome_trace_json`] renders the merged timeline as Chrome trace-event
//! JSON loadable in Perfetto: ranks as processes, spans as slices, sends
//! linked to their matching receives as flow arrows, and nonblocking
//! collective lifetimes as async events. [`audit()`] recomputes from the
//! merged spans what the run reported about itself (see [`mod@audit`]).
//!
//! The JSON codec is hand-rolled (the build environment is offline — no
//! serde): the writer emits only flat objects with controlled key names,
//! and the reader parses exactly that shape.

use parking_lot::Mutex;
use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub mod audit;
pub mod json;
pub mod merge;

pub use audit::audit;
pub use merge::{chrome_trace_json, load_dir, ThreadTrace, TraceData};

/// Per-thread event capacity; overflow increments a drop counter instead
/// of growing without bound.
const EVENT_CAP: usize = 1 << 20;

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ph {
    /// Duration-slice begin (`B`).
    SpanBegin,
    /// Duration-slice end (`E`).
    SpanEnd,
    /// Instant (`i`).
    Instant,
    /// Flow start (`s`) — binds to the enclosing slice.
    FlowOut,
    /// Flow finish (`f`) — binds to the enclosing slice.
    FlowIn,
    /// Async (nestable) begin (`b`), keyed by `id`.
    AsyncBegin,
    /// Async (nestable) end (`e`), keyed by `id`.
    AsyncEnd,
}

/// Typed event arguments — a small closed set instead of a string map, so
/// recording never allocates beyond the event itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Args {
    /// No arguments.
    None,
    /// A transport-level frame: root-absolute endpoints, full (spaced)
    /// tag, and the bytes the transport reported moving.
    Wire {
        /// Sending root-absolute rank.
        from: usize,
        /// Receiving root-absolute rank.
        to: usize,
        /// The full wire tag (tag-space bits included).
        tag: u64,
        /// Wire bytes (payload + framing as the transport reports them).
        bytes: u64,
    },
    /// A collective call on a communicator.
    Collective {
        /// Operation name (`allreduce`, `allgather`, …).
        op: &'static str,
        /// The communicator's plane label (`world`/`intra`/`inter`).
        plane: &'static str,
        /// Payload bytes of this rank's own contribution.
        bytes: u64,
    },
    /// A bucketed-sync event.
    Bucket {
        /// Bucket index within the step's partition.
        bucket: usize,
        /// Bucket payload bytes.
        bytes: u64,
    },
    /// A bare numeric value (audit instants, step counts). Non-finite
    /// values survive the file round trip.
    Value(f64),
    /// A tag-space → plane-label mapping announcement.
    Plane {
        /// The communicator's tag space (bits 48..63 of its tags).
        space: u64,
        /// The plane label.
        plane: &'static str,
    },
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Phase.
    pub ph: Ph,
    /// Nanoseconds since the process trace epoch (aligned across
    /// processes after [`load_dir`]).
    pub t_ns: u64,
    /// Event name.
    pub name: &'static str,
    /// Flow/async correlation id (0 when unused).
    pub id: u64,
    /// Typed arguments.
    pub args: Args,
}

struct ThreadBuf {
    events: Vec<Event>,
    dropped: u64,
    rank: Option<usize>,
    tid: u64,
    name: String,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static R: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

fn out_dir() -> &'static Mutex<Option<PathBuf>> {
    static D: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    D.get_or_init(|| Mutex::new(None))
}

fn epoch() -> Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    *E.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: OnceCell<Arc<Mutex<ThreadBuf>>> = const { OnceCell::new() };
}

fn with_local<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    LOCAL.with(|cell| {
        let arc = cell.get_or_init(|| {
            let name: String = std::thread::current()
                .name()
                .unwrap_or("thread")
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || "_.:-".contains(*c))
                .collect();
            let buf = Arc::new(Mutex::new(ThreadBuf {
                events: Vec::new(),
                dropped: 0,
                rank: None,
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                name,
            }));
            registry().lock().push(buf.clone());
            buf
        });
        f(&mut arc.lock())
    })
}

/// Whether recording is currently on — one relaxed load, the cost every
/// instrumented call site pays when tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on and directs [`flush_process_file`] to `dir`
/// (created if missing). Also pins the process trace epoch.
pub fn enable(dir: &Path) {
    let _ = std::fs::create_dir_all(dir);
    *out_dir().lock() = Some(dir.to_path_buf());
    let _ = epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off (buffers are kept until [`flush_process_file`] or
/// [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Enables tracing when `A2SGD_TRACE=<dir>` is set; returns whether it is
/// now on. TCP rank processes inherit the variable from their launcher, so
/// a traced multi-process run needs no per-child plumbing.
pub fn init_from_env() -> bool {
    match std::env::var("A2SGD_TRACE") {
        Ok(dir) if !dir.is_empty() => {
            enable(Path::new(&dir));
            true
        }
        _ => enabled(),
    }
}

/// Drops all buffered events and drop counts (test isolation).
pub fn reset() {
    for buf in registry().lock().iter() {
        let mut b = buf.lock();
        b.events.clear();
        b.dropped = 0;
        b.rank = None;
    }
}

/// Monotonic nanoseconds since the trace epoch; 0 when disabled (callers
/// always pair a `now_ns` with a later record call that is itself gated).
#[inline]
pub fn now_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    epoch().elapsed().as_nanos() as u64
}

#[inline]
fn record(ev: Event) {
    if !enabled() {
        return;
    }
    with_local(|b| {
        if b.events.len() < EVENT_CAP {
            b.events.push(ev);
        } else {
            b.dropped += 1;
        }
    });
}

/// Tags the calling thread's buffer with its rank — the merger turns each
/// rank into a Chrome process. No-op while disabled.
pub fn set_thread_rank(rank: usize) {
    if !enabled() {
        return;
    }
    with_local(|b| b.rank = Some(rank));
}

/// Records the clock-alignment instant. Call immediately after a barrier:
/// every rank's `sync_point` then denotes (approximately) the same wall
/// moment, which is what lets [`load_dir`] shift per-process clocks onto
/// one timeline.
pub fn mark_sync_point() {
    instant("sync_point", Args::None);
}

/// Records an already-elapsed span: `B` at `t0_ns` (a prior [`now_ns`]
/// reading), `E` now. No-op when disabled.
pub fn closed_span(name: &'static str, t0_ns: u64, args: Args) {
    if !enabled() {
        return;
    }
    record(Event { ph: Ph::SpanBegin, t_ns: t0_ns, name, id: 0, args });
    record(Event { ph: Ph::SpanEnd, t_ns: now_ns(), name: "", id: 0, args: Args::None });
}

/// Records an already-elapsed span carrying a flow endpoint: the flow
/// event sits just inside the slice so Chrome/Perfetto bind the arrow to
/// it. `out` chooses flow-start (send side) vs flow-finish (receive side).
pub fn closed_span_flow(name: &'static str, t0_ns: u64, args: Args, flow_id: u64, out: bool) {
    if !enabled() {
        return;
    }
    let t1 = now_ns();
    record(Event { ph: Ph::SpanBegin, t_ns: t0_ns, name, id: 0, args });
    let ph = if out { Ph::FlowOut } else { Ph::FlowIn };
    record(Event { ph, t_ns: t1, name: "msg", id: flow_id, args: Args::None });
    record(Event { ph: Ph::SpanEnd, t_ns: t1, name: "", id: 0, args: Args::None });
}

/// Records an instant event.
pub fn instant(name: &'static str, args: Args) {
    record(Event { ph: Ph::Instant, t_ns: now_ns(), name, id: 0, args });
}

/// Opens an async (lifetime) event keyed by `id` — nonblocking collective
/// launches. Close with [`async_end`] using the same name and id.
pub fn async_begin(name: &'static str, id: u64, args: Args) {
    record(Event { ph: Ph::AsyncBegin, t_ns: now_ns(), name, id, args });
}

/// Closes an async event opened by [`async_begin`].
pub fn async_end(name: &'static str, id: u64) {
    record(Event { ph: Ph::AsyncEnd, t_ns: now_ns(), name, id, args: Args::None });
}

/// Records a fully-elapsed async event from two prior [`now_ns`] readings
/// — the per-bucket in-flight window, whose begin is only known to have
/// mattered once the drain starts.
pub fn async_span_at(name: &'static str, id: u64, t0_ns: u64, t1_ns: u64, args: Args) {
    if !enabled() {
        return;
    }
    record(Event { ph: Ph::AsyncBegin, t_ns: t0_ns, name, id, args });
    record(Event { ph: Ph::AsyncEnd, t_ns: t1_ns, name, id, args: Args::None });
}

/// FNV-1a over three words — the flow id tying a frame's send span to its
/// matching receive span: hash (root-absolute from, to, full wire tag).
/// Tag spaces and per-op tag sequencing make the triple unique per frame.
pub fn flow_id(a: u64, b: u64, c: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [a, b, c] {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Writes (and drains) every thread buffer into `<dir>/trace-<pid>.jsonl`,
/// one file per rank process. Returns the path, or `None` when no output
/// directory was configured. Thread sections keep their rank tags, so
/// in-process thread ranks merge exactly like forked rank processes.
pub fn flush_process_file() -> Option<PathBuf> {
    let dir = out_dir().lock().clone()?;
    let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
    let mut out = String::new();
    let mut total_dropped = 0u64;
    let mut sections: Vec<(u64, Option<usize>, String, Vec<Event>)> = Vec::new();
    for buf in registry().lock().iter() {
        let mut b = buf.lock();
        total_dropped += b.dropped;
        let events = std::mem::take(&mut b.events);
        if events.is_empty() {
            continue;
        }
        sections.push((b.tid, b.rank, b.name.clone(), events));
    }
    out.push_str(&format!(
        "{{\"meta\":\"process\",\"pid\":{},\"dropped\":{}}}\n",
        std::process::id(),
        total_dropped
    ));
    for (tid, rank, name, events) in &sections {
        out.push_str(&format!("{{\"meta\":\"thread\",\"tid\":{tid}"));
        if let Some(r) = rank {
            out.push_str(&format!(",\"rank\":{r}"));
        }
        out.push_str(&format!(",\"name\":\"{name}\"}}\n"));
        for ev in events {
            json::write_event_line(&mut out, ev);
        }
    }
    std::fs::write(&path, out).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("a2sgd_trace_unit_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    // Unit tests share the process-global recorder: serialize them.
    fn lock() -> parking_lot::MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        L.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _g = lock();
        disable();
        reset();
        let before = now_ns();
        assert_eq!(before, 0, "disabled clock reads cost nothing and return 0");
        instant("never", Args::None);
        closed_span("never", before, Args::None);
        let d = tmp("disabled");
        enable(&d);
        let path = flush_process_file().expect("dir configured");
        disable();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(!text.contains("never"), "no events recorded while disabled");
        reset();
    }

    #[test]
    fn roundtrip_through_file_and_loader() {
        let _g = lock();
        let d = tmp("roundtrip");
        reset();
        enable(&d);
        set_thread_rank(3);
        mark_sync_point();
        let t0 = now_ns();
        instant("inner", Args::Wire { from: 0, to: 1, tag: 1 << 63, bytes: 16 });
        instant("loss", Args::Value(f64::NAN));
        closed_span("outer", t0, Args::Collective { op: "allreduce", plane: "world", bytes: 64 });
        async_span_at(
            "bucket/inflight",
            7,
            now_ns(),
            now_ns(),
            Args::Bucket { bucket: 7, bytes: 4 },
        );
        flush_process_file().unwrap();
        disable();
        let data = load_dir(&d).unwrap();
        let th = data.threads.iter().find(|t| t.rank == Some(3)).expect("ranked thread");
        let names: Vec<&str> = th.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"sync_point") && names.contains(&"outer"));
        let wire = th
            .events
            .iter()
            .find(|e| matches!(e.args, Args::Wire { .. }))
            .expect("wire args survive");
        assert_eq!(wire.args, Args::Wire { from: 0, to: 1, tag: 1 << 63, bytes: 16 });
        let loss = th.events.iter().find(|e| e.name == "loss").expect("a NaN value is kept");
        assert!(matches!(loss.args, Args::Value(v) if v.is_nan()));
        let js = chrome_trace_json(&data);
        json::validate(&js).expect("merged trace is well-formed JSON");
        assert!(js.contains("\"traceEvents\""));
        reset();
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let _g = lock();
        let d = tmp("overflow");
        reset();
        enable(&d);
        with_local(|b| {
            b.events.clear();
            for _ in 0..EVENT_CAP {
                b.events.push(Event {
                    ph: Ph::Instant,
                    t_ns: 0,
                    name: "fill",
                    id: 0,
                    args: Args::None,
                });
            }
        });
        instant("overflowing", Args::None);
        with_local(|b| {
            assert_eq!(b.events.len(), EVENT_CAP);
            assert_eq!(b.dropped, 1);
        });
        disable();
        reset();
    }

    #[test]
    fn flow_ids_differ_by_direction() {
        assert_ne!(flow_id(0, 1, 42), flow_id(1, 0, 42));
        assert_ne!(flow_id(0, 1, 42), flow_id(0, 1, 43));
    }
}
