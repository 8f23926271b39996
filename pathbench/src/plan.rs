//! The live frame plan: a recorded trace turned into the frame sequence
//! an instrumented producer would have sent, with a send time per frame.
//!
//! Unlike `stream::trace_frames` (thread by thread, what `critlock push`
//! sends), frames here go in global timestamp order: each thread buffers
//! its events and flushes an `Events` frame every
//! [`STREAM_FLUSH_EVENTS`] events and at its exit, as
//! `Session::stream_to` does. Registration frames (Start, Params,
//! Objects, every Thread in id order) go first, so the assembled trace
//! keeps the recorded thread order and the live report can equal the
//! offline one exactly.

use critlock_trace::stream::{Frame, RawFrame, StreamWriter};
use critlock_trace::{Event, EventKind, Trace};

/// Events a thread buffers before it flushes a frame, as the instrumented
/// producer's `STREAM_FLUSH_EVENTS`.
pub const STREAM_FLUSH_EVENTS: usize = 128;

/// One frame and when it is due, relative to the start of the replay.
pub struct Planned {
    pub due_ns: u64,
    pub frame: Frame,
}

/// Plan `trace` for a replay lasting `duration_ns`: event timestamps are
/// mapped linearly onto the replay window, and a frame is due when its
/// last event happened.
pub fn arrival_plan(trace: &Trace, duration_ns: u64) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut meta = trace.meta.clone();
    let params = std::mem::take(&mut meta.params);
    let at_start = |frame| Planned { due_ns: 0, frame };
    plan.push(at_start(Frame::Start { meta }));
    for (key, value) in params {
        plan.push(at_start(Frame::Param { key, value }));
    }
    if !trace.objects.is_empty() {
        plan.push(at_start(Frame::Objects { first_id: 0, objects: trace.objects.clone() }));
    }
    for stream in &trace.threads {
        plan.push(at_start(Frame::Thread { tid: stream.tid, name: stream.name.clone() }));
    }

    // Stable sort: equal timestamps keep thread order, then event order.
    let mut order: Vec<(u64, usize, usize)> = Vec::with_capacity(trace.num_events());
    for (ti, stream) in trace.threads.iter().enumerate() {
        order.extend(stream.events.iter().enumerate().map(|(ei, ev)| (ev.ts, ti, ei)));
    }
    order.sort_by_key(|&(ts, ti, _)| (ts, ti));
    let lo = order.first().map_or(0, |o| o.0);
    let span = order.last().map_or(0, |o| o.0).saturating_sub(lo).max(1);
    let due = |ts: u64| ((ts - lo) as u128 * duration_ns as u128 / span as u128) as u64;

    let mut buffers: Vec<Vec<Event>> = vec![Vec::new(); trace.threads.len()];
    for (ts, ti, ei) in order {
        let ev = trace.threads[ti].events[ei];
        buffers[ti].push(ev);
        if buffers[ti].len() >= STREAM_FLUSH_EVENTS || matches!(ev.kind, EventKind::ThreadExit) {
            let events = std::mem::take(&mut buffers[ti]);
            plan.push(Planned {
                due_ns: due(ts),
                frame: Frame::Events { tid: trace.threads[ti].tid, events },
            });
        }
    }
    for (ti, events) in buffers.into_iter().enumerate() {
        if !events.is_empty() {
            let frame = Frame::Events { tid: trace.threads[ti].tid, events };
            plan.push(Planned { due_ns: duration_ns, frame });
        }
    }
    plan.push(Planned { due_ns: duration_ns, frame: Frame::End });
    plan
}

/// One frame's wire bytes: length prefix, payload and CRC.
pub fn wire_bytes(frame: &Frame) -> Vec<u8> {
    let raw = RawFrame::encode(frame).expect("planned frames are well formed");
    let mut w = StreamWriter::append(Vec::new());
    w.write_raw_frame(&raw).expect("writing to memory cannot fail");
    w.into_inner()
}

/// Events carried by an `Events` frame (0 for registration frames).
pub fn frame_events(frame: &Frame) -> u64 {
    match frame {
        Frame::Events { events, .. } => events.len() as u64,
        _ => 0,
    }
}
