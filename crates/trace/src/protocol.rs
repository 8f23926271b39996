//! The per-thread synchronization protocol, as one state machine.
//!
//! [`Trace::validate`](crate::Trace::validate) and salvage walk every
//! thread stream through the same [`Protocol`]: a lock or rwlock goes
//! idle → acquiring → (contended →) held → idle, non-reentrant per
//! thread with arbitrary nesting across distinct objects; barrier
//! arrive/depart pairs match on barrier and epoch; condvar
//! wait-begin/wakeup pairs match on condvar. Strict validation turns the
//! first violation into a `TraceError::Protocol`; salvage cuts the stream
//! there and closes what is still open.
//!
//! State is dense: one slot per registered object, indexed by
//! [`ObjId::index`], plus a count of open lock sections so the
//! quiescence test at `ThreadExit` is O(1). Callers reject events whose
//! object is not registered with the expected kind ([`dangling_object`])
//! before stepping, so every id the machine sees indexes a slot.

use crate::event::{Event, EventKind, Ts, SEQ_UNKNOWN};
use crate::ids::{ObjId, ObjInfo, ObjKind};

const IDLE: u8 = 0;
const ACQUIRING: u8 = 1;
const CONTENDED: u8 = 2;
const HELD: u8 = 3;

/// The object an event references and the kind it must be registered
/// with, if it references one.
#[inline]
fn object_ref(kind: &EventKind) -> Option<(ObjId, ObjKind)> {
    match *kind {
        EventKind::LockAcquire { lock }
        | EventKind::LockContended { lock }
        | EventKind::LockObtain { lock }
        | EventKind::LockRelease { lock } => Some((lock, ObjKind::Lock)),
        EventKind::BarrierArrive { barrier, .. } | EventKind::BarrierDepart { barrier, .. } => {
            Some((barrier, ObjKind::Barrier))
        }
        EventKind::CondWaitBegin { cv }
        | EventKind::CondWakeup { cv, .. }
        | EventKind::CondSignal { cv, .. }
        | EventKind::CondBroadcast { cv, .. } => Some((cv, ObjKind::Condvar)),
        EventKind::Marker { id } => Some((id, ObjKind::Marker)),
        EventKind::RwAcquire { lock, .. }
        | EventKind::RwContended { lock, .. }
        | EventKind::RwObtain { lock, .. }
        | EventKind::RwRelease { lock, .. } => Some((lock, ObjKind::RwLock)),
        _ => None,
    }
}

/// The object an event references when it is not registered in
/// `objects` with the kind the event expects.
#[inline]
pub(crate) fn dangling_object(objects: &[ObjInfo], kind: &EventKind) -> Option<ObjId> {
    let (obj, expected) = object_ref(kind)?;
    match objects.get(obj.index()) {
        Some(info) if info.kind == expected => None,
        _ => Some(obj),
    }
}

/// One step of a lock section.
#[derive(Clone, Copy)]
enum Phase {
    Acquire { write: bool },
    Contended,
    Obtain,
    Release,
}

/// Per-object state: the lock machine's state, the rwlock mode of the
/// section in flight, and the stream positions of its acquire and
/// contended events (so salvage can excise an abandoned wait).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    state: u8,
    write: bool,
    acquire_at: usize,
    contended_at: usize,
}

/// The protocol state of one thread stream. [`reset`](Self::reset)
/// before each stream; one machine serves any number of streams of the
/// same trace, and resetting one that ended quiesced costs nothing.
#[derive(Debug)]
pub(crate) struct Protocol<'a> {
    objects: &'a [ObjInfo],
    slots: Vec<Slot>,
    /// Locks and rwlocks not idle.
    open: usize,
    barrier: Option<(ObjId, u32)>,
    wait: Option<ObjId>,
}

impl<'a> Protocol<'a> {
    /// An idle machine over a trace's object table.
    pub(crate) fn new(objects: &'a [ObjInfo]) -> Self {
        Protocol {
            objects,
            slots: vec![Slot::default(); objects.len()],
            open: 0,
            barrier: None,
            wait: None,
        }
    }

    /// The object table the machine indexes.
    pub(crate) fn objects(&self) -> &'a [ObjInfo] {
        self.objects
    }

    /// Return to the idle state for the next stream.
    pub(crate) fn reset(&mut self) {
        if self.open > 0 {
            self.slots.iter_mut().for_each(|s| s.state = IDLE);
            self.open = 0;
        }
        self.barrier = None;
        self.wait = None;
    }

    /// True if no lock section, barrier episode or condvar wait is open.
    #[inline]
    pub(crate) fn quiesced(&self) -> bool {
        self.open == 0 && self.barrier.is_none() && self.wait.is_none()
    }

    /// Apply one event, `at` being its position in the output stream.
    /// On a violation the state is left as it was and the violation's
    /// description is returned.
    #[inline]
    pub(crate) fn step(&mut self, kind: EventKind, at: usize) -> Result<(), String> {
        match kind {
            EventKind::LockAcquire { lock } => {
                self.section(lock, Phase::Acquire { write: false }, at, "")
            }
            EventKind::LockContended { lock } => self.section(lock, Phase::Contended, at, ""),
            EventKind::LockObtain { lock } => self.section(lock, Phase::Obtain, at, ""),
            EventKind::LockRelease { lock } => self.section(lock, Phase::Release, at, ""),
            EventKind::RwAcquire { lock, write } => {
                self.section(lock, Phase::Acquire { write }, at, "rw-")
            }
            EventKind::RwContended { lock, .. } => self.section(lock, Phase::Contended, at, "rw-"),
            EventKind::RwObtain { lock, .. } => self.section(lock, Phase::Obtain, at, "rw-"),
            EventKind::RwRelease { lock, .. } => self.section(lock, Phase::Release, at, "rw-"),
            EventKind::BarrierArrive { barrier, epoch } => match self.barrier {
                Some((b, _)) => Err(format!("arrive at {barrier} while inside {b}")),
                None => {
                    self.barrier = Some((barrier, epoch));
                    Ok(())
                }
            },
            EventKind::BarrierDepart { barrier, epoch } => match self.barrier {
                Some((b, e)) if b == barrier && e == epoch => {
                    self.barrier = None;
                    Ok(())
                }
                other => Err(format!("depart {barrier}@{epoch} but waiting on {other:?}")),
            },
            EventKind::CondWaitBegin { cv } => match self.wait {
                Some(c) => Err(format!("wait on {cv} while waiting on {c}")),
                None => {
                    self.wait = Some(cv);
                    Ok(())
                }
            },
            EventKind::CondWakeup { cv, .. } => match self.wait {
                Some(c) if c == cv => {
                    self.wait = None;
                    Ok(())
                }
                other => Err(format!("wakeup on {cv} but waiting on {other:?}")),
            },
            _ => Ok(()),
        }
    }

    /// One lock or rwlock transition; `prefix` is `"rw-"` for rwlocks.
    #[inline]
    fn section(
        &mut self,
        lock: ObjId,
        phase: Phase,
        at: usize,
        prefix: &str,
    ) -> Result<(), String> {
        let slot = &mut self.slots[lock.index()];
        let st = slot.state;
        match phase {
            Phase::Acquire { write } => {
                if st != IDLE {
                    return Err(format!("{prefix}acquire of {lock} while in state {st}"));
                }
                *slot = Slot { state: ACQUIRING, write, acquire_at: at, ..*slot };
                self.open += 1;
            }
            Phase::Contended => {
                if st != ACQUIRING {
                    return Err(format!("{prefix}contended on {lock} without acquire"));
                }
                slot.state = CONTENDED;
                slot.contended_at = at;
            }
            Phase::Obtain => {
                if st != ACQUIRING && st != CONTENDED {
                    return Err(format!("{prefix}obtain of {lock} without acquire"));
                }
                slot.state = HELD;
            }
            Phase::Release => {
                if st != HELD {
                    return Err(format!("{prefix}release of {lock} not held"));
                }
                slot.state = IDLE;
                self.open -= 1;
            }
        }
        Ok(())
    }

    /// Open objects of one kind, in id order, with their slots.
    fn open_slots(&self, kind: ObjKind) -> impl Iterator<Item = (ObjId, Slot)> + '_ {
        let scan = if self.open > 0 { self.slots.len() } else { 0 };
        self.slots[..scan]
            .iter()
            .zip(self.objects)
            .enumerate()
            .filter(move |(_, (slot, info))| slot.state != IDLE && info.kind == kind)
            .map(|(i, (slot, _))| (ObjId(i as u32), *slot))
    }

    /// What is still open when a stream ends, as strict validation
    /// reports it: rwlocks by id, then locks by id, then the barrier
    /// episode, then the condvar wait.
    pub(crate) fn exit_violation(&self) -> Option<String> {
        if let Some((lock, slot)) = self.open_slots(ObjKind::RwLock).next() {
            return Some(format!("thread exits with rwlock {lock} in state {}", slot.state));
        }
        if let Some((lock, slot)) = self.open_slots(ObjKind::Lock).next() {
            return Some(format!("thread exits with {lock} in state {}", slot.state));
        }
        if let Some((b, _)) = self.barrier {
            return Some(format!("thread exits inside barrier {b}"));
        }
        self.wait.map(|cv| format!("thread exits inside condvar wait {cv}"))
    }

    /// Close everything still open at the end of a salvaged stream, at
    /// time `ts`: in-flight acquires become zero-length holds, held locks
    /// are released (locks by id, then rwlocks by id), then an open
    /// condvar wait and barrier episode are resolved, and finally the
    /// acquire/contended pairs of abandoned contended waits are excised.
    /// Returns the number of events synthesized and excised.
    pub(crate) fn close(&self, events: &mut Vec<Event>, ts: Ts) -> (u64, u64) {
        let mut synthesized = 0u64;
        let mut excise: Vec<usize> = Vec::new();
        for (lock, slot) in self.open_slots(ObjKind::Lock) {
            match slot.state {
                ACQUIRING => {
                    events.push(Event::new(ts, EventKind::LockObtain { lock }));
                    events.push(Event::new(ts, EventKind::LockRelease { lock }));
                    synthesized += 2;
                }
                CONTENDED => excise.extend([slot.acquire_at, slot.contended_at]),
                _ => {
                    events.push(Event::new(ts, EventKind::LockRelease { lock }));
                    synthesized += 1;
                }
            }
        }
        for (lock, slot) in self.open_slots(ObjKind::RwLock) {
            let write = slot.write;
            match slot.state {
                ACQUIRING => {
                    events.push(Event::new(ts, EventKind::RwObtain { lock, write }));
                    events.push(Event::new(ts, EventKind::RwRelease { lock, write }));
                    synthesized += 2;
                }
                CONTENDED => excise.extend([slot.acquire_at, slot.contended_at]),
                _ => {
                    events.push(Event::new(ts, EventKind::RwRelease { lock, write }));
                    synthesized += 1;
                }
            }
        }
        if let Some(cv) = self.wait {
            events.push(Event::new(ts, EventKind::CondWakeup { cv, signal_seq: SEQ_UNKNOWN }));
            synthesized += 1;
        }
        if let Some((barrier, epoch)) = self.barrier {
            events.push(Event::new(ts, EventKind::BarrierDepart { barrier, epoch }));
            synthesized += 1;
        }
        if !excise.is_empty() {
            excise.sort_unstable();
            let mut next = 0usize;
            let mut idx = 0usize;
            events.retain(|_| {
                let drop = next < excise.len() && excise[next] == idx;
                if drop {
                    next += 1;
                }
                idx += 1;
                !drop
            });
        }
        (synthesized, excise.len() as u64)
    }
}
