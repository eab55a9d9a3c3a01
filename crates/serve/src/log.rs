//! The global failure-event log: lock-free ingestion, replayable reads.
//!
//! Every connection that ingests a failure event appends it here; every
//! reader replays the log into its private
//! [`ReplayEngine`](pcf_replay::ReplayEngine) before answering a query.
//! The log is the *only* shared mutable state on the event path, and it is
//! entirely atomic:
//!
//! * writers claim a slot with one `fetch_add` on the tail and publish
//!   the encoded event with one `Release` store — no lock, no allocation;
//! * readers `Acquire`-load the tail and replay any events they have not
//!   applied yet (O(new events), usually zero or one per query).
//!
//! A slot claimed but not yet published is bridged by a written-bit spin:
//! the two writer instructions are nanoseconds apart, so readers
//! effectively never wait. The log is append-only and bounded; `reset`
//! is itself an event (all links up, nominal capacities) rather than a
//! truncation, so readers never need to coordinate around state erasure.
//! When the log fills, further events are rejected with a structured
//! error — the operator resets or restarts rather than silently losing
//! history.

use pcf_replay::{EventKind, LinkEvent};
use pcf_topology::LinkId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One decoded log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEvent {
    /// A link liveness/capacity event, as the replay engine consumes it.
    Link(LinkEvent),
    /// Clear all failures and wobbles: back to the all-alive network.
    Reset,
}

/// Error returned when the log's fixed capacity is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFull {
    /// The capacity that was exceeded.
    pub capacity: usize,
}

impl std::fmt::Display for LogFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event log full ({} events)", self.capacity)
    }
}

impl std::error::Error for LogFull {}

// Slot encoding: bit 63 = published; bits 62..32 = permille
// (wobble/degrade); bits 31..3 = link index; bits 2..0 = kind.
const PUBLISHED: u64 = 1 << 63;
const KIND_DOWN: u64 = 0;
const KIND_UP: u64 = 1;
const KIND_WOBBLE: u64 = 2;
const KIND_RESET: u64 = 3;
const KIND_DEGRADE: u64 = 4;

/// Append-only bounded event log over preallocated atomic slots.
pub struct EventLog {
    slots: Vec<AtomicU64>,
    tail: AtomicUsize,
}

impl EventLog {
    /// Preallocates a log of `capacity` slots.
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            tail: AtomicUsize::new(0),
        }
    }

    /// Number of published (or in-flight) events, clamped to capacity.
    pub fn tail(&self) -> usize {
        self.tail.load(Ordering::Acquire).min(self.slots.len())
    }

    /// The log's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one event; returns its index. Lock-free: a `fetch_add`
    /// claims the slot, a `Release` store publishes it.
    pub fn push(&self, event: LogEvent) -> Result<usize, LogFull> {
        let encoded = match event {
            LogEvent::Reset => KIND_RESET,
            LogEvent::Link(ev) => {
                let link = u64::from(ev.link.0) << 3;
                match ev.kind {
                    EventKind::Down => KIND_DOWN | link,
                    EventKind::Up => KIND_UP | link,
                    EventKind::Wobble { permille } => {
                        KIND_WOBBLE | link | (u64::from(permille) << 32)
                    }
                    EventKind::Degrade { permille } => {
                        KIND_DEGRADE | link | (u64::from(permille) << 32)
                    }
                }
            }
        };
        let idx = self.tail.fetch_add(1, Ordering::AcqRel);
        // Overshot claims fail structurally: the tail keeps growing but
        // `tail()` clamps, so readers never chase phantom slots.
        let Some(slot) = self.slots.get(idx) else {
            return Err(LogFull {
                capacity: self.slots.len(),
            });
        };
        slot.store(encoded | PUBLISHED, Ordering::Release);
        Ok(idx)
    }

    /// Reads the event at `idx` (< [`EventLog::tail`]). If the slot is
    /// claimed but not yet published, spins briefly — the writer's store
    /// follows its claim by two instructions. The in-range contract is
    /// enforced where indices are produced: every caller iterates
    /// `0..tail()`, and `tail()` clamps to capacity.
    pub fn get(&self, idx: usize) -> LogEvent {
        let mut encoded = self.slots[idx].load(Ordering::Acquire);
        while encoded & PUBLISHED == 0 {
            std::hint::spin_loop();
            encoded = self.slots[idx].load(Ordering::Acquire);
        }
        let kind = encoded & 0b111;
        let link = LinkId(((encoded >> 3) & 0x1fff_ffff) as u32);
        let permille = ((encoded >> 32) & 0x7fff_ffff) as u32;
        match kind {
            KIND_RESET => LogEvent::Reset,
            KIND_DOWN => LogEvent::Link(LinkEvent {
                link,
                kind: EventKind::Down,
            }),
            KIND_UP => LogEvent::Link(LinkEvent {
                link,
                kind: EventKind::Up,
            }),
            KIND_DEGRADE => LogEvent::Link(LinkEvent {
                link,
                kind: EventKind::Degrade { permille },
            }),
            _ => LogEvent::Link(LinkEvent {
                link,
                kind: EventKind::Wobble { permille },
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn events_round_trip_through_the_encoding() {
        let log = EventLog::new(8);
        let events = [
            LogEvent::Link(LinkEvent {
                link: LinkId(0),
                kind: EventKind::Down,
            }),
            LogEvent::Link(LinkEvent {
                link: LinkId(12345),
                kind: EventKind::Up,
            }),
            LogEvent::Link(LinkEvent {
                link: LinkId(7),
                kind: EventKind::Wobble { permille: 250 },
            }),
            LogEvent::Link(LinkEvent {
                link: LinkId(9),
                kind: EventKind::Degrade { permille: 600 },
            }),
            LogEvent::Reset,
        ];
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(log.push(*ev).unwrap(), i);
        }
        assert_eq!(log.tail(), 5);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(log.get(i), *ev);
        }
    }

    #[test]
    fn full_log_rejects_without_corruption() {
        let log = EventLog::new(2);
        log.push(LogEvent::Reset).unwrap();
        log.push(LogEvent::Reset).unwrap();
        assert_eq!(log.push(LogEvent::Reset), Err(LogFull { capacity: 2 }));
        assert_eq!(log.push(LogEvent::Reset), Err(LogFull { capacity: 2 }));
        assert_eq!(log.tail(), 2);
        assert_eq!(log.get(1), LogEvent::Reset);
    }

    #[test]
    fn concurrent_writers_claim_distinct_slots() {
        let log = EventLog::new(1024);
        thread::scope(|s| {
            for t in 0..8u32 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..128u32 {
                        log.push(LogEvent::Link(LinkEvent {
                            link: LinkId(t * 1000 + i),
                            kind: EventKind::Down,
                        }))
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(log.tail(), 1024);
        // Every pushed link appears exactly once.
        let mut seen: Vec<u32> = (0..log.tail())
            .map(|i| match log.get(i) {
                LogEvent::Link(ev) => ev.link.0,
                LogEvent::Reset => unreachable!("only link events pushed"),
            })
            .collect();
        seen.sort_unstable();
        let mut expect: Vec<u32> = (0..8u32)
            .flat_map(|t| (0..128u32).map(move |i| t * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }
}
