//! The trace auditor: recomputes from span algebra the numbers a traced run
//! reported about itself through `audit/*` instants.
//!
//! - **Per-plane wire bytes and message counts** — every `send/*` span is
//!   billed to the communicator whose tag space its wire tag carries (the
//!   caller's classifier, `cluster_comm::tag_space`); per plane
//!   (world/intra/inter, from the `plane_map` instants) the sums must equal
//!   the corresponding `TrafficStats` exactly. Every ranked stream must
//!   carry the world plane's figures: a trace with no ranked stream, or a
//!   rank without `audit/wire_bytes/world`, fails rather than passing on
//!   nothing checked.
//! - **Overlap seconds** — the summed `bucket/inflight` async spans must
//!   match `SyncStats::overlap_seconds` within max(2 ms, 5 %): both
//!   measure the same launch→drain window with different clocks.
//! - **Overlap claim** — when the run declared `audit/overlap_enabled`, at
//!   least one in-flight exchange interval must intersect a
//!   `phase/backward` span on the same rank: the timeline itself must show
//!   communication under the backward pass.
//! - **Sched ledger** — the per-step `sched/local` + `sched/sync` instants
//!   must agree with the trainer's own step counters, and every step must
//!   be exactly one of the two.
//! - **Flow pairing** — every transport flow id emitted at a send must be
//!   consumed by exactly as many receive-side flow events.
//!
//! In **recovery** mode (`a2sgd-elastic` soak runs) the auditor also
//! validates the elastic recovery timeline: some rank recorded a death
//! (`elastic/killed` by the casualty, `elastic/peer_dead` by its
//! detectors), every surviving rank ran an `elastic/rerendezvous` span that
//! began after its own detection, and each such rank reached an
//! `elastic/first_sync` instant after its re-rendezvous ended — the trace
//! itself proves died → re-formed → resumed, in order. The elastic trainer
//! writes no `audit/*` instants, so their absence is not a failure there,
//! and a killed rank strands transport flows by design, so flow imbalance
//! is a warning.

use crate::{Args, Ph, ThreadTrace, TraceData};
use std::collections::HashMap;

/// What [`audit`] found.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable report, one line per entry, in print order.
    pub lines: Vec<String>,
    /// One sentence per failed check; empty when the trace passed.
    pub failures: Vec<String>,
}

/// Everything the auditor extracts from one rank's event stream.
#[derive(Default)]
struct RankView {
    /// Audit instants: name → value.
    audits: HashMap<&'static str, f64>,
    /// Tag space → plane label, from `plane_map` instants.
    planes: HashMap<u64, &'static str>,
    /// Tag space → (wire bytes, messages) summed over `send/*` spans.
    sends: HashMap<u64, (u64, u64)>,
    /// `bucket/inflight` intervals, ns.
    inflight: Vec<(u64, u64)>,
    /// `phase/backward` intervals, ns.
    backward: Vec<(u64, u64)>,
    /// `elastic/killed` instants, ns (the scripted casualty's own record).
    killed: Vec<u64>,
    /// `elastic/peer_dead` instants, ns (survivor-side detections).
    peer_dead: Vec<u64>,
    /// `elastic/rerendezvous` spans (census + reconnect), ns.
    rerendezvous: Vec<(u64, u64)>,
    /// `elastic/first_sync` instants, ns (first post-recovery collective).
    first_sync: Vec<u64>,
    /// `sched/local` instants — steps a sync schedule skipped the wire on.
    sched_local: u64,
    /// `sched/sync` instants — scheduled steps that ran the synchronizer.
    sched_sync: u64,
}

fn scan_thread(t: &ThreadTrace, tag_space: fn(u64) -> Option<u64>, view: &mut RankView) {
    // B/E spans pair as a stack per thread; async begin/ends pair FIFO
    // per (name, id).
    let mut stack: Vec<(&'static str, u64)> = Vec::new();
    let mut open_async: HashMap<(&'static str, u64), Vec<u64>> = HashMap::new();
    for ev in &t.events {
        match ev.ph {
            Ph::SpanBegin => {
                stack.push((ev.name, ev.t_ns));
                if ev.name.starts_with("send/") {
                    if let Args::Wire { tag, bytes, .. } = ev.args {
                        if let Some(space) = tag_space(tag) {
                            let e = view.sends.entry(space).or_insert((0, 0));
                            e.0 += bytes;
                            e.1 += 1;
                        }
                    }
                }
            }
            Ph::SpanEnd => {
                if let Some((name, t0)) = stack.pop() {
                    match name {
                        "phase/backward" => view.backward.push((t0, ev.t_ns)),
                        "elastic/rerendezvous" => view.rerendezvous.push((t0, ev.t_ns)),
                        _ => {}
                    }
                }
            }
            Ph::Instant => match ev.args {
                Args::Value(_) if ev.name.starts_with("elastic/") => match ev.name {
                    "elastic/killed" => view.killed.push(ev.t_ns),
                    "elastic/peer_dead" => view.peer_dead.push(ev.t_ns),
                    "elastic/first_sync" => view.first_sync.push(ev.t_ns),
                    _ => {}
                },
                Args::Value(v) if ev.name.starts_with("audit/") => {
                    view.audits.insert(ev.name, v);
                }
                Args::Plane { space, plane } => {
                    view.planes.insert(space, plane);
                }
                _ => match ev.name {
                    "sched/local" => view.sched_local += 1,
                    "sched/sync" => view.sched_sync += 1,
                    _ => {}
                },
            },
            Ph::AsyncBegin => {
                open_async.entry((ev.name, ev.id)).or_default().push(ev.t_ns);
            }
            Ph::AsyncEnd => {
                if ev.name == "bucket/inflight" {
                    if let Some(t0) = open_async
                        .get_mut(&(ev.name, ev.id))
                        .and_then(|q| (!q.is_empty()).then(|| q.remove(0)))
                    {
                        view.inflight.push((t0, ev.t_ns));
                    }
                }
            }
            Ph::FlowOut | Ph::FlowIn => {}
        }
    }
}

/// Unmatched flow ids: (send-side only, recv-side only).
fn flow_imbalance(data: &TraceData) -> (usize, usize) {
    let mut balance: HashMap<u64, i64> = HashMap::new();
    for t in &data.threads {
        for ev in &t.events {
            match ev.ph {
                Ph::FlowOut => *balance.entry(ev.id).or_default() += 1,
                Ph::FlowIn => *balance.entry(ev.id).or_default() -= 1,
                _ => {}
            }
        }
    }
    let extra_sends = balance.values().filter(|v| **v > 0).map(|v| *v as usize).sum();
    let extra_recvs = balance.values().filter(|v| **v < 0).map(|v| -*v as usize).sum();
    (extra_sends, extra_recvs)
}

fn intersects(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    a.iter().any(|&(a0, a1)| b.iter().any(|&(b0, b1)| a0 < b1 && b0 < a1))
}

/// Audits a merged trace (see the module docs for the checks). `tag_space`
/// classifies a wire tag into the communicator that accounts its frame —
/// `cluster_comm::tag_space`; `recovery` selects the elastic-timeline mode.
pub fn audit(data: &TraceData, tag_space: fn(u64) -> Option<u64>, recovery: bool) -> Report {
    let mut r = Report::default();
    if data.dropped > 0 {
        r.lines.push(format!(
            "warning: {} events dropped at the per-thread buffer cap — audits below may misreport",
            data.dropped
        ));
    }
    let events: usize = data.threads.iter().map(|t| t.events.len()).sum();
    r.lines.push(format!("loaded {} thread streams, {events} events", data.threads.len()));
    r.lines.push(String::new());

    let mut by_rank: HashMap<usize, RankView> = HashMap::new();
    for t in &data.threads {
        if let Some(rank) = t.rank {
            scan_thread(t, tag_space, by_rank.entry(rank).or_default());
        }
    }
    let mut views: Vec<_> = by_rank.into_iter().collect();
    views.sort_by_key(|(rank, _)| *rank);
    if views.is_empty() && !recovery {
        r.failures.push("no ranked thread stream: the trace holds nothing to audit".into());
    }
    for (rank, view) in &views {
        audit_rank(*rank, view, recovery, &mut r);
    }

    let (extra_sends, extra_recvs) = flow_imbalance(data);
    if extra_sends + extra_recvs > 0 {
        let msg = format!(
            "flow pairing: {extra_sends} send-side and {extra_recvs} recv-side flow events \
             have no partner"
        );
        if recovery {
            r.lines.push(format!("warning: {msg} (expected when a rank was killed)"));
        } else {
            r.lines.push(msg.clone());
            r.failures.push(msg);
        }
    } else {
        r.lines.push("flow pairing: all transport flow ids balance  ok".into());
    }

    if recovery {
        r.lines.push(String::new());
        audit_recovery(&views, &mut r);
    }
    r
}

/// One rank's wire-byte, overlap and sched-ledger checks.
fn audit_rank(rank: usize, view: &RankView, recovery: bool, r: &mut Report) {
    r.lines.push(format!("rank {rank}:"));
    // Wire-byte / message audit, per plane the runtime declared.
    for plane in ["world", "intra", "inter"] {
        let wire_key = format!("audit/wire_bytes/{plane}");
        let Some(&want_bytes) = view.audits.get(wire_key.as_str()) else {
            if plane == "world" && !recovery {
                r.failures.push(format!(
                    "rank {rank}: no {wire_key} instant — the run never reported its traffic"
                ));
            }
            continue;
        };
        let want_bytes = want_bytes as u64;
        let msg_key = format!("audit/messages/{plane}");
        let want_msgs = view.audits.get(msg_key.as_str()).copied().unwrap_or(0.0) as u64;
        let (got_bytes, got_msgs) = view
            .planes
            .iter()
            .filter(|(_, p)| **p == plane)
            .filter_map(|(space, _)| view.sends.get(space))
            .fold((0u64, 0u64), |acc, (b, m)| (acc.0 + b, acc.1 + m));
        let ok = got_bytes == want_bytes && got_msgs == want_msgs;
        r.lines.push(format!(
            "  {plane:5} wire bytes: spans {got_bytes:>10}  stats {want_bytes:>10}  \
             messages: spans {got_msgs:>6}  stats {want_msgs:>6}  {}",
            if ok { "ok" } else { "MISMATCH" }
        ));
        if !ok {
            r.failures.push(format!(
                "rank {rank} {plane}: span-derived wire traffic ({got_bytes} B / \
                 {got_msgs} msgs) != TrafficStats ({want_bytes} B / {want_msgs} msgs)"
            ));
        }
    }

    // Overlap audit: span algebra vs SyncStats::overlap_seconds.
    if let Some(&want) = view.audits.get("audit/overlap_seconds") {
        let got = view
            .inflight
            .iter()
            .map(|&(t0, t1)| t1.saturating_sub(t0) as f64 / 1e9)
            .sum::<f64>()
            .max(0.0); // empty f64 sums are -0.0
        let tol = (0.05 * want.abs()).max(2e-3);
        let ok = (got - want).abs() <= tol;
        r.lines.push(format!(
            "  overlap: spans {got:.6}s  stats {want:.6}s  (tol {tol:.4}s)  {}",
            if ok { "ok" } else { "MISMATCH" }
        ));
        if !ok {
            r.failures.push(format!(
                "rank {rank}: span-derived overlap {got:.6}s disagrees with \
                 SyncStats::overlap_seconds {want:.6}s (tol {tol:.4}s)"
            ));
        }
    }

    // The overlap *claim*: traced exchanges under the backward pass.
    if view.audits.get("audit/overlap_enabled").copied().unwrap_or(0.0) == 1.0 {
        let ok = intersects(&view.inflight, &view.backward);
        r.lines.push(format!(
            "  backward∩exchange concurrency: {} in-flight / {} backward spans  {}",
            view.inflight.len(),
            view.backward.len(),
            if ok { "ok" } else { "MISSING" }
        ));
        if !ok {
            r.failures.push(format!(
                "rank {rank}: overlap was enabled but no bucket/inflight interval \
                 intersects a phase/backward span"
            ));
        }
    }

    // Sync-schedule ledger: the per-step `sched/local` + `sched/sync`
    // instants must agree with the trainer's own audit counters, and every
    // step must be accounted as exactly one of the two.
    if let Some(&total) = view.audits.get("audit/sched/total_steps") {
        let want_local = view.audits.get("audit/sched/local_steps").copied().unwrap_or(f64::NAN);
        let want_sync = view.audits.get("audit/sched/sync_steps").copied().unwrap_or(f64::NAN);
        let ok = view.sched_local as f64 == want_local
            && view.sched_sync as f64 == want_sync
            && (view.sched_local + view.sched_sync) as f64 == total;
        r.lines.push(format!(
            "  sched ledger: instants {} local + {} sync  stats {want_local} + {want_sync}  \
             total {total}  {}",
            view.sched_local,
            view.sched_sync,
            if ok { "ok" } else { "MISMATCH" }
        ));
        if !ok {
            r.failures.push(format!(
                "rank {rank}: sched instants ({} local, {} sync) disagree with the \
                 trainer's ledger ({want_local} local, {want_sync} sync, {total} total)",
                view.sched_local, view.sched_sync
            ));
        }
    }
}

/// Validates the elastic recovery timeline: a recorded death, then — on
/// every rank that re-rendezvoused — detection before the re-rendezvous
/// span and a first post-recovery sync after it. Reports the timeline
/// relative to the earliest recorded death.
fn audit_recovery(views: &[(usize, RankView)], r: &mut Report) {
    r.lines.push("recovery timeline:".into());
    let first_death =
        views.iter().flat_map(|(_, v)| v.killed.iter().chain(&v.peer_dead)).copied().min();
    let Some(first_death) = first_death else {
        r.failures.push(
            "recovery: no elastic/killed or elastic/peer_dead instant anywhere in the trace".into(),
        );
        return;
    };
    let ms = |t: u64| t.saturating_sub(first_death) as f64 / 1e6;
    let mut recovered = 0usize;
    for (rank, v) in views {
        for &t in &v.killed {
            r.lines.push(format!("  rank {rank}: killed           +{:9.3} ms", ms(t)));
        }
        let Some(&(rdv0, rdv1)) = v.rerendezvous.iter().min_by_key(|s| s.0) else {
            // A rank that saw a peer die but never re-formed the world
            // hung or bailed — unless it was itself the casualty.
            if v.killed.is_empty() && !v.peer_dead.is_empty() {
                r.failures.push(format!(
                    "recovery: rank {rank} detected a dead peer but never re-rendezvoused"
                ));
            }
            continue;
        };
        recovered += 1;
        let detect = v.peer_dead.iter().copied().min();
        if let Some(d) = detect {
            r.lines.push(format!("  rank {rank}: peer death seen  +{:9.3} ms", ms(d)));
        } else {
            r.failures.push(format!(
                "recovery: rank {rank} re-rendezvoused without an elastic/peer_dead instant"
            ));
        }
        r.lines.push(format!(
            "  rank {rank}: re-rendezvous    +{:9.3} ms → +{:9.3} ms  ({:.3} ms)",
            ms(rdv0),
            ms(rdv1),
            rdv1.saturating_sub(rdv0) as f64 / 1e6
        ));
        if detect.is_some_and(|d| d > rdv0) {
            r.failures.push(format!(
                "recovery: rank {rank} re-rendezvous began before its peer-death detection"
            ));
        }
        match v.first_sync.iter().copied().find(|&t| t >= rdv1) {
            Some(t) => r.lines.push(format!("  rank {rank}: first sync       +{:9.3} ms", ms(t))),
            None => r.failures.push(format!(
                "recovery: rank {rank} has no elastic/first_sync after its re-rendezvous — \
                 the world re-formed but never completed a collective"
            )),
        }
    }
    if recovered == 0 {
        r.failures.push("recovery: a death was recorded but no rank re-rendezvoused".into());
    } else {
        r.lines.push(format!("  {recovered} rank(s) re-formed the world"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flow_id, Event};

    /// The real classifier's layout: collective tags carry their space in
    /// bits 48..63, tags with bit 63 set are unaccounted.
    fn space(tag: u64) -> Option<u64> {
        (tag >> 63 == 0).then_some(tag >> 48)
    }

    fn ev(ph: Ph, t_ns: u64, name: &'static str, id: u64, args: Args) -> Event {
        Event { ph, t_ns, name, id, args }
    }

    fn value(t_ns: u64, name: &'static str, v: f64) -> Event {
        ev(Ph::Instant, t_ns, name, 0, Args::Value(v))
    }

    fn end(t_ns: u64) -> Event {
        ev(Ph::SpanEnd, t_ns, "", 0, Args::None)
    }

    fn trace(threads: Vec<(usize, Vec<Event>)>) -> TraceData {
        let threads = threads
            .into_iter()
            .map(|(rank, events)| ThreadTrace {
                pid: rank as u64,
                tid: 0,
                rank: Some(rank),
                name: format!("r{rank}"),
                events,
            })
            .collect();
        TraceData { threads, dropped: 0 }
    }

    /// Two ranks, each sending one 100-byte world-plane frame to the other,
    /// with one 1 ms in-flight bucket launched inside its backward pass, one
    /// local and one sync scheduled step, and audit instants agreeing with
    /// all of it.
    fn clean() -> TraceData {
        let rank = |r: usize| {
            let (me, peer) = (r as u64, 1 - r as u64);
            let wire = |from: u64, to: u64| Args::Wire {
                from: from as usize,
                to: to as usize,
                tag: 5,
                bytes: 100,
            };
            let events = vec![
                ev(Ph::Instant, 0, "plane_map", 0, Args::Plane { space: 0, plane: "world" }),
                ev(Ph::SpanBegin, 10, "send/bytes", 0, wire(me, peer)),
                ev(Ph::FlowOut, 12, "msg", flow_id(me, peer, 5), Args::None),
                end(12),
                ev(Ph::SpanBegin, 20, "recv/bytes", 0, wire(peer, me)),
                ev(Ph::FlowIn, 22, "msg", flow_id(peer, me, 5), Args::None),
                end(22),
                ev(Ph::SpanBegin, 30, "phase/backward", 0, Args::None),
                ev(
                    Ph::AsyncBegin,
                    35,
                    "bucket/inflight",
                    0,
                    Args::Bucket { bucket: 0, bytes: 100 },
                ),
                end(40),
                ev(Ph::AsyncEnd, 1_000_035, "bucket/inflight", 0, Args::None),
                ev(Ph::Instant, 2_000_000, "sched/local", 0, Args::None),
                ev(Ph::Instant, 2_000_001, "sched/sync", 0, Args::None),
                value(3_000_000, "audit/wire_bytes/world", 100.0),
                value(3_000_000, "audit/messages/world", 1.0),
                value(3_000_000, "audit/overlap_seconds", 0.001),
                value(3_000_000, "audit/overlap_enabled", 1.0),
                value(3_000_000, "audit/sched/local_steps", 1.0),
                value(3_000_000, "audit/sched/sync_steps", 1.0),
                value(3_000_000, "audit/sched/total_steps", 2.0),
            ];
            (r, events)
        };
        trace(vec![rank(0), rank(1)])
    }

    /// Rank 2 is killed at 100 ns; ranks 0 and 1 see it at 150, re-form the
    /// world over 200–300 and complete a collective at 400. Each survivor
    /// also left one frame stranded at the casualty.
    fn recovery() -> TraceData {
        let survivor = |r: usize| {
            let events = vec![
                value(150, "elastic/peer_dead", 2.0),
                ev(Ph::SpanBegin, 200, "elastic/rerendezvous", 0, Args::Value(3.0)),
                end(300),
                value(400, "elastic/first_sync", 0.0),
                ev(Ph::FlowOut, 90, "msg", flow_id(r as u64, 2, 9), Args::None),
            ];
            (r, events)
        };
        trace(vec![survivor(0), survivor(1), (2, vec![value(100, "elastic/killed", 7.0)])])
    }

    fn events(data: &mut TraceData, rank: usize) -> &mut Vec<Event> {
        &mut data.threads.iter_mut().find(|t| t.rank == Some(rank)).unwrap().events
    }

    fn event<'a>(data: &'a mut TraceData, rank: usize, name: &str) -> &'a mut Event {
        events(data, rank).iter_mut().find(|e| e.name == name).unwrap()
    }

    /// The audit fails with exactly one failure, and it names `needle`.
    fn fails_with(data: &TraceData, recovery: bool, needle: &str) {
        let failures = audit(data, space, recovery).failures;
        assert!(
            failures.len() == 1 && failures[0].contains(needle),
            "expected one failure naming {needle:?}, got {failures:?}"
        );
    }

    #[test]
    fn a_clean_trace_passes() {
        let r = audit(&clean(), space, false);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let oks = r.lines.iter().filter(|l| l.ends_with("ok")).count();
        assert_eq!(oks, 2 * 4 + 1, "world bytes, overlap, concurrency, sched per rank + flows");
    }

    #[test]
    fn a_clean_recovery_passes_with_stranded_flows_as_a_warning() {
        let r = audit(&recovery(), space, true);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.lines.iter().any(|l| l.starts_with("warning: flow pairing: 2 send-side")));
        assert!(r.lines.iter().any(|l| l == "  2 rank(s) re-formed the world"));
    }

    #[test]
    fn a_trace_without_ranked_streams_fails() {
        let mut d = clean();
        d.threads.iter_mut().for_each(|t| t.rank = None);
        fails_with(&d, false, "no ranked thread stream");
    }

    #[test]
    fn a_rank_that_never_reported_its_traffic_fails() {
        let mut d = clean();
        events(&mut d, 1).retain(|e| e.name != "audit/wire_bytes/world");
        fails_with(&d, false, "rank 1: no audit/wire_bytes/world instant");
    }

    #[test]
    fn wire_bytes_or_messages_off_by_one_fail() {
        let mut d = clean();
        event(&mut d, 0, "audit/wire_bytes/world").args = Args::Value(101.0);
        fails_with(&d, false, "rank 0 world: span-derived wire traffic (100 B / 1 msgs)");
        let mut d = clean();
        event(&mut d, 1, "audit/messages/world").args = Args::Value(2.0);
        fails_with(&d, false, "rank 1 world: span-derived wire traffic (100 B / 1 msgs)");
    }

    #[test]
    fn a_reported_plane_with_no_spans_fails() {
        let mut d = clean();
        events(&mut d, 0).push(value(3_000_000, "audit/wire_bytes/intra", 64.0));
        fails_with(&d, false, "rank 0 intra: span-derived wire traffic (0 B / 0 msgs)");
    }

    #[test]
    fn overlap_seconds_outside_tolerance_fail() {
        let mut d = clean();
        event(&mut d, 0, "audit/overlap_seconds").args = Args::Value(0.0035);
        fails_with(&d, false, "rank 0: span-derived overlap 0.001000s disagrees");
    }

    #[test]
    fn an_overlap_claim_without_concurrency_fails() {
        let mut d = clean();
        event(&mut d, 1, "bucket/inflight").t_ns = 40;
        fails_with(&d, false, "rank 1: overlap was enabled but no bucket/inflight interval");
    }

    #[test]
    fn a_sched_ledger_that_disagrees_fails() {
        let mut d = clean();
        events(&mut d, 0).retain(|e| e.name != "sched/local");
        fails_with(&d, false, "rank 0: sched instants (0 local, 1 sync)");
        let mut d = clean();
        event(&mut d, 1, "audit/sched/total_steps").args = Args::Value(3.0);
        fails_with(&d, false, "rank 1: sched instants (1 local, 1 sync)");
    }

    #[test]
    fn an_unpaired_flow_fails_outside_recovery() {
        let mut d = clean();
        events(&mut d, 1).retain(|e| e.ph != Ph::FlowIn);
        fails_with(&d, false, "flow pairing: 1 send-side and 0 recv-side");
    }

    #[test]
    fn a_recovery_without_a_death_fails() {
        let mut d = recovery();
        for r in 0..3 {
            events(&mut d, r).retain(|e| !matches!(e.name, "elastic/killed" | "elastic/peer_dead"));
        }
        fails_with(&d, true, "no elastic/killed or elastic/peer_dead instant");
    }

    #[test]
    fn a_survivor_that_never_re_rendezvoused_fails() {
        let mut d = recovery();
        events(&mut d, 1).retain(|e| e.name != "elastic/rerendezvous");
        fails_with(&d, true, "rank 1 detected a dead peer but never re-rendezvoused");
    }

    #[test]
    fn a_re_rendezvous_without_detection_fails() {
        let mut d = recovery();
        events(&mut d, 0).retain(|e| e.name != "elastic/peer_dead");
        fails_with(&d, true, "rank 0 re-rendezvoused without an elastic/peer_dead instant");
    }

    #[test]
    fn a_re_rendezvous_before_detection_fails() {
        let mut d = recovery();
        event(&mut d, 1, "elastic/peer_dead").t_ns = 250;
        fails_with(&d, true, "rank 1 re-rendezvous began before its peer-death detection");
    }

    #[test]
    fn a_re_formed_world_that_never_synced_fails() {
        let mut d = recovery();
        event(&mut d, 0, "elastic/first_sync").t_ns = 250;
        fails_with(&d, true, "rank 0 has no elastic/first_sync after its re-rendezvous");
    }

    #[test]
    fn a_death_nobody_recovered_from_fails() {
        let mut d = recovery();
        d.threads.retain(|t| t.rank == Some(2));
        fails_with(&d, true, "a death was recorded but no rank re-rendezvoused");
    }
}
