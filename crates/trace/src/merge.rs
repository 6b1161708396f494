//! Loading per-process JSONL trace files back, aligning their clocks, and
//! emitting one merged Chrome trace-event JSON document.
//!
//! Each rank records a `sync_point` instant immediately after a barrier,
//! so every rank's sync point denotes (approximately) the same wall
//! moment. Monotonic clocks differ per *process*, so the merger shifts
//! each file — not each thread — so the sync points coincide, then
//! normalizes the merged timeline to start at zero. In-process thread
//! ranks share one file and therefore one clock; their shift is common,
//! which is exactly right.

use crate::json::{self, Value};
use crate::{Args, Event, Ph};
use std::fmt::Write as _;
use std::path::Path;

/// One thread's aligned event stream.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Chrome process id: the rank when known, else `9000 + file index`.
    pub pid: u64,
    /// Thread id, unique within its source process.
    pub tid: u64,
    /// The rank this thread drove, when it declared one.
    pub rank: Option<usize>,
    /// Thread name from the source process.
    pub name: String,
    /// Events with clock-aligned, zero-based `t_ns`.
    pub events: Vec<Event>,
}

/// A merged multi-process trace.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// All threads from all per-process files.
    pub threads: Vec<ThreadTrace>,
    /// Events recorded past a thread's buffer cap and therefore dropped,
    /// across processes. Non-zero means flow-matching audits may see
    /// unmatched ends.
    pub dropped: u64,
}

fn load_file(path: &Path, file_idx: usize) -> Result<TraceData, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: read failed: {e}", path.display()))?;
    let mut out = TraceData { threads: Vec::new(), dropped: 0 };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj =
            json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        if let Some(meta) = obj.get("meta").and_then(Value::as_str) {
            match meta {
                "process" => {
                    out.dropped += obj.get("dropped").and_then(Value::as_u64).unwrap_or(0);
                }
                "thread" => {
                    let tid = obj.get("tid").and_then(Value::as_u64).unwrap_or(0);
                    let rank = obj.get("rank").and_then(Value::as_u64).map(|r| r as usize);
                    let name =
                        obj.get("name").and_then(Value::as_str).unwrap_or("thread").to_owned();
                    let pid = rank.map(|r| r as u64).unwrap_or(9000 + file_idx as u64);
                    out.threads.push(ThreadTrace { pid, tid, rank, name, events: Vec::new() });
                }
                other => return Err(format!("{}: unknown meta {other:?}", path.display())),
            }
        } else {
            let ev = json::parse_event_line(&obj)
                .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
            out.threads
                .last_mut()
                .ok_or_else(|| format!("{}: event before any thread header", path.display()))?
                .events
                .push(ev);
        }
    }
    Ok(out)
}

fn file_sync_point(f: &TraceData) -> Option<u64> {
    f.threads
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.ph == Ph::Instant && e.name == "sync_point")
        .map(|e| e.t_ns)
        .min()
}

/// Reads every `trace-*.jsonl` file in `dir`, aligns per-process clocks on
/// the `sync_point` instants, and returns the merged, zero-based trace.
pub fn load_dir(dir: &Path) -> Result<TraceData, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("trace-") && n.ends_with(".jsonl"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no trace-*.jsonl files", dir.display()));
    }
    let mut files = Vec::new();
    for (idx, p) in paths.iter().enumerate() {
        files.push(load_file(p, idx)?);
    }

    // The reference clock: the file that hosted rank 0, else the first.
    let ref_idx =
        files.iter().position(|f| f.threads.iter().any(|t| t.rank == Some(0))).unwrap_or(0);
    let ref_sync = file_sync_point(&files[ref_idx]);

    let mut data = TraceData { threads: Vec::new(), dropped: 0 };
    for f in &mut files {
        let shift = match (ref_sync, file_sync_point(f)) {
            (Some(r), Some(s)) => r as i64 - s as i64,
            _ => 0,
        };
        for t in &mut f.threads {
            for ev in &mut t.events {
                ev.t_ns = (ev.t_ns as i64 + shift).max(i64::MIN + 1) as u64;
            }
        }
        data.dropped += f.dropped;
        data.threads.append(&mut f.threads);
    }

    // Normalize so the merged timeline starts at zero. Shifts can push
    // early events "negative" (stored as wrapped u64), so min over i64.
    let min_t =
        data.threads.iter().flat_map(|t| t.events.iter()).map(|e| e.t_ns as i64).min().unwrap_or(0);
    for t in &mut data.threads {
        for ev in &mut t.events {
            ev.t_ns = (ev.t_ns as i64 - min_t) as u64;
        }
    }
    Ok(data)
}

fn push_ts(out: &mut String, t_ns: u64) {
    // Chrome wants microseconds; keep nanosecond precision as decimals.
    let _ = write!(out, "{}.{:03}", t_ns / 1000, t_ns % 1000);
}

fn push_args_obj(out: &mut String, args: &Args) {
    out.push_str("\"args\":{");
    json::push_arg_fields(out, args);
    out.push('}');
}

/// Renders the merged trace as a Chrome trace-event JSON document —
/// `chrome://tracing` / Perfetto compatible: ranks as processes, spans as
/// slices, transport frames as flow arrows, nonblocking collectives as
/// nestable async events.
pub fn chrome_trace_json(data: &TraceData) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };

    let mut seen_pids: Vec<u64> = Vec::new();
    for t in &data.threads {
        if !seen_pids.contains(&t.pid) {
            seen_pids.push(t.pid);
            let pname = match t.rank {
                Some(r) => format!("rank {r}"),
                None => format!("aux {}", t.pid),
            };
            push_sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":",
                t.pid
            );
            json::push_str_lit(&mut out, &pname);
            out.push_str("}}");
            push_sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_sort_index\",\"args\":{{\"sort_index\":{}}}}}",
                t.pid, t.pid
            );
        }
        push_sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":",
            t.pid, t.tid
        );
        json::push_str_lit(&mut out, if t.name.is_empty() { "thread" } else { &t.name });
        out.push_str("}}");
    }

    for t in &data.threads {
        for ev in &t.events {
            push_sep(&mut out);
            out.push('{');
            let common = |out: &mut String, ph: &str| {
                let _ = write!(out, "\"ph\":\"{ph}\",\"pid\":{},\"tid\":{},\"ts\":", t.pid, t.tid);
                push_ts(out, ev.t_ns);
            };
            match ev.ph {
                Ph::SpanBegin => {
                    common(&mut out, "B");
                    out.push_str(",\"name\":");
                    json::push_str_lit(&mut out, ev.name);
                    out.push(',');
                    push_args_obj(&mut out, &ev.args);
                }
                Ph::SpanEnd => {
                    common(&mut out, "E");
                }
                Ph::Instant => {
                    common(&mut out, "i");
                    out.push_str(",\"s\":\"t\",\"name\":");
                    json::push_str_lit(&mut out, ev.name);
                    out.push(',');
                    push_args_obj(&mut out, &ev.args);
                }
                Ph::FlowOut | Ph::FlowIn => {
                    common(&mut out, if ev.ph == Ph::FlowOut { "s" } else { "f" });
                    if ev.ph == Ph::FlowIn {
                        out.push_str(",\"bp\":\"e\"");
                    }
                    let _ =
                        write!(out, ",\"cat\":\"flow\",\"name\":\"msg\",\"id\":\"{:016x}\"", ev.id);
                }
                Ph::AsyncBegin | Ph::AsyncEnd => {
                    common(&mut out, if ev.ph == Ph::AsyncBegin { "b" } else { "e" });
                    out.push_str(",\"cat\":\"nb\",\"name\":");
                    json::push_str_lit(&mut out, ev.name);
                    // Async ids are per-communicator; bake the pid in so
                    // two ranks' lifetimes never merge in the viewer.
                    let _ = write!(out, ",\"id\":\"p{}/{:x}\"", t.pid, ev.id);
                    if ev.ph == Ph::AsyncBegin {
                        out.push(',');
                        push_args_obj(&mut out, &ev.args);
                    }
                }
            }
            out.push('}');
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write_fake_file(dir: &Path, pid: u32, rank: usize, sync_ns: u64, extra: &[Event]) {
        let mut out = String::new();
        out.push_str(&format!("{{\"meta\":\"process\",\"pid\":{pid},\"dropped\":0}}\n"));
        out.push_str(&format!(
            "{{\"meta\":\"thread\",\"tid\":0,\"rank\":{rank},\"name\":\"r{rank}\"}}\n"
        ));
        json::write_event_line(
            &mut out,
            &Event { ph: Ph::Instant, t_ns: sync_ns, name: "sync_point", id: 0, args: Args::None },
        );
        for ev in extra {
            json::write_event_line(&mut out, ev);
        }
        std::fs::write(dir.join(format!("trace-{pid}.jsonl")), out).unwrap();
    }

    fn tmp(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("a2sgd_trace_merge_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clocks_align_on_sync_points() {
        let d = tmp("align");
        // Rank 0's clock reads 1_000 at the barrier; rank 1's reads
        // 501_000. Each records an instant exactly 2µs after its sync.
        let mk = |sync: u64| {
            vec![Event {
                ph: Ph::Instant,
                t_ns: sync + 2_000,
                name: "after",
                id: 0,
                args: Args::None,
            }]
        };
        write_fake_file(&d, 11, 0, 1_000, &mk(1_000));
        write_fake_file(&d, 22, 1, 501_000, &mk(501_000));
        let data = load_dir(&d).unwrap();
        let after: Vec<u64> = data
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.name == "after")
            .map(|e| e.t_ns)
            .collect();
        assert_eq!(after.len(), 2);
        assert_eq!(after[0], after[1], "aligned instants coincide");
        let min = data.threads.iter().flat_map(|t| t.events.iter()).map(|e| e.t_ns).min().unwrap();
        assert_eq!(min, 0, "timeline is normalized to start at zero");
    }

    #[test]
    fn ranks_become_chrome_processes() {
        let d = tmp("pids");
        write_fake_file(&d, 31, 0, 10, &[]);
        write_fake_file(&d, 32, 1, 10, &[]);
        let data = load_dir(&d).unwrap();
        let mut pids: Vec<u64> = data.threads.iter().map(|t| t.pid).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![0, 1], "pid = rank regardless of OS pid");
        let js = chrome_trace_json(&data);
        json::validate(&js).unwrap();
        assert!(js.contains("\"rank 0\"") && js.contains("\"rank 1\""));
    }

    #[test]
    fn flows_and_asyncs_survive_to_chrome_json() {
        let d = tmp("flows");
        let id = crate::flow_id(0, 1, 77);
        write_fake_file(
            &d,
            41,
            0,
            5,
            &[
                Event { ph: Ph::SpanBegin, t_ns: 10, name: "send", id: 0, args: Args::None },
                Event { ph: Ph::FlowOut, t_ns: 12, name: "msg", id, args: Args::None },
                Event { ph: Ph::SpanEnd, t_ns: 12, name: "", id: 0, args: Args::None },
                Event {
                    ph: Ph::AsyncBegin,
                    t_ns: 20,
                    name: "nb/allreduce",
                    id: 3,
                    args: Args::Collective { op: "allreduce", plane: "world", bytes: 8 },
                },
                Event { ph: Ph::AsyncEnd, t_ns: 30, name: "nb/allreduce", id: 3, args: Args::None },
            ],
        );
        write_fake_file(
            &d,
            42,
            1,
            5,
            &[
                Event { ph: Ph::SpanBegin, t_ns: 15, name: "recv", id: 0, args: Args::None },
                Event { ph: Ph::FlowIn, t_ns: 18, name: "msg", id, args: Args::None },
                Event { ph: Ph::SpanEnd, t_ns: 18, name: "", id: 0, args: Args::None },
            ],
        );
        let data = load_dir(&d).unwrap();
        let js = chrome_trace_json(&data);
        json::validate(&js).unwrap();
        let flow_id_str = format!("{id:016x}");
        assert_eq!(js.matches(&flow_id_str).count(), 2, "send and recv share the flow id");
        assert!(
            js.contains("\"ph\":\"s\"")
                && js.contains("\"ph\":\"f\"")
                && js.contains("\"bp\":\"e\"")
        );
        assert!(js.contains("\"p0/3\""), "async id is namespaced by pid");
    }
}
