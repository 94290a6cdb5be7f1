//! Deterministic discrete-event simulation engine.
//!
//! Every simulated component of the HiPress reproduction — cluster
//! nodes, NICs, GPU streams, the CaSync coordinator — runs on this
//! engine. The design is a minimal actor model:
//!
//! * time is a monotone integer nanosecond counter ([`SimTime`]),
//! * components are [`Actor`]s registered with the [`Engine`],
//! * all interaction is message passing: an actor handles one event at
//!   a time and may schedule future events for itself or others via
//!   the [`Ctx`] it receives,
//! * events at equal timestamps are delivered in schedule order
//!   (FIFO), making runs bit-reproducible,
//! * [`FifoResource`] models serially-shared hardware (a NIC
//!   direction, a GPU stream) as a busy-until timeline.

#![forbid(unsafe_code)]

mod resource;
mod time;

pub use resource::FifoResource;
pub use time::SimTime;

use hipress_util::{Error, Result};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies an actor registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

/// A simulated component.
///
/// `M` is the simulation's message type, chosen by whoever assembles
/// the actor graph (the CaSync runtime defines one message enum for
/// the whole synchronization simulation).
pub trait Actor<M: 'static>: Any {
    /// Handles one delivered message at the current simulation time.
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, msg: M);
}

/// What an actor can do while handling an event: read the clock,
/// schedule messages, and stop the run.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ActorId,
    pending: &'a mut Vec<(SimTime, ActorId, M)>,
    stop_requested: &'a mut bool,
}

impl<M> Ctx<'_, M> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor handling this event.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedules `msg` for `target` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (event-ordering would break).
    pub fn send_at(&mut self, at: SimTime, target: ActorId, msg: M) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        self.pending.push((at, target, msg));
    }

    /// Schedules `msg` for `target` after `delay_ns` nanoseconds.
    pub fn send_after(&mut self, delay_ns: u64, target: ActorId, msg: M) {
        self.send_at(self.now + delay_ns, target, msg);
    }

    /// Schedules `msg` for the current actor after `delay_ns`.
    pub fn send_self_after(&mut self, delay_ns: u64, msg: M) {
        self.send_after(delay_ns, self.self_id, msg);
    }

    /// Schedules `msg` for `target` at the current time (delivered
    /// after all already-scheduled events at this time).
    pub fn send_now(&mut self, target: ActorId, msg: M) {
        self.send_at(self.now, target, msg);
    }

    /// Asks the engine to stop after this event is handled. Remaining
    /// queued events are discarded.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// Ordering key: earliest time first, then schedule order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key(SimTime, u64);

/// The discrete-event engine: an event queue plus the actor registry.
pub struct Engine<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(Key, usize)>>,
    // Payloads are stored out-of-heap, indexed by the second tuple
    // element, so `M` needs no ordering.
    payloads: Vec<Option<(ActorId, M)>>,
    free_payload_slots: Vec<usize>,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    events_handled: u64,
    max_events: u64,
}

impl<M: 'static> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: 'static> Engine<M> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            free_payload_slots: Vec::new(),
            actors: Vec::new(),
            events_handled: 0,
            // A generous default backstop against runaway event loops.
            max_events: 200_000_000,
        }
    }

    /// Caps the total number of events the engine will process before
    /// reporting a runaway simulation.
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Registers an actor and returns its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        self.actors.push(Some(actor));
        ActorId(self.actors.len() - 1)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Schedules `msg` for `target` at absolute time `at` (must not be
    /// in the past).
    ///
    /// # Panics
    ///
    /// Panics if `at < self.now()` or `target` is unknown.
    pub fn schedule(&mut self, at: SimTime, target: ActorId, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        assert!(target.0 < self.actors.len(), "unknown actor {target:?}");
        let slot = match self.free_payload_slots.pop() {
            Some(i) => {
                self.payloads[i] = Some((target, msg));
                i
            }
            None => {
                self.payloads.push(Some((target, msg)));
                self.payloads.len() - 1
            }
        };
        self.queue.push(Reverse((Key(at, self.seq), slot)));
        self.seq += 1;
    }

    /// Runs until the queue is empty, an actor calls [`Ctx::stop`], or
    /// `until` (if given) is passed. Returns the finish time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] if the event cap is exceeded, which
    /// indicates a livelocked simulation.
    pub fn run(&mut self, until: Option<SimTime>) -> Result<SimTime> {
        let mut pending: Vec<(SimTime, ActorId, M)> = Vec::new();
        let mut stop = false;
        while let Some(&Reverse((Key(at, _), slot))) = self.queue.peek() {
            if let Some(limit) = until {
                if at > limit {
                    self.now = limit;
                    return Ok(self.now);
                }
            }
            self.queue.pop();
            let (target, msg) = self.payloads[slot]
                .take()
                .expect("payload slot must be filled for queued event");
            self.free_payload_slots.push(slot);
            self.now = at;
            self.events_handled += 1;
            if self.events_handled > self.max_events {
                return Err(Error::sim(format!(
                    "event cap exceeded ({} events): livelocked simulation?",
                    self.max_events
                )));
            }
            // Take the actor out so it can receive a context borrowing
            // the engine's queue-side state.
            let mut actor = self.actors[target.0]
                .take()
                .unwrap_or_else(|| panic!("event for unregistered or re-entered actor {target:?}"));
            {
                let mut ctx = Ctx {
                    now: self.now,
                    self_id: target,
                    pending: &mut pending,
                    stop_requested: &mut stop,
                };
                actor.on_event(&mut ctx, msg);
            }
            self.actors[target.0] = Some(actor);
            for (at, target, msg) in pending.drain(..) {
                self.schedule(at, target, msg);
            }
            if stop {
                break;
            }
        }
        Ok(self.now)
    }

    /// Borrows a registered actor, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the type does not match.
    pub fn actor<T: Actor<M>>(&self, id: ActorId) -> &T {
        let boxed = self.actors[id.0]
            .as_ref()
            .expect("actor is present outside of dispatch");
        let any: &dyn Any = boxed.as_ref();
        any.downcast_ref::<T>().expect("actor type mismatch")
    }

    /// Mutably borrows a registered actor, downcast to its concrete
    /// type.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the type does not match.
    pub fn actor_mut<T: Actor<M>>(&mut self, id: ActorId) -> &mut T {
        let boxed = self.actors[id.0]
            .as_mut()
            .expect("actor is present outside of dispatch");
        let any: &mut dyn Any = boxed.as_mut();
        any.downcast_mut::<T>().expect("actor type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple ping-pong pair: each actor forwards the counter to the
    /// other with a 10ns delay, until it reaches zero.
    struct PingPong {
        peer: Option<ActorId>,
        received: Vec<(SimTime, u32)>,
    }

    impl Actor<u32> for PingPong {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
            self.received.push((ctx.now(), msg));
            if msg > 0 {
                let peer = self.peer.expect("peer wired");
                ctx.send_after(10, peer, msg - 1);
            }
        }
    }

    #[test]
    fn ping_pong_alternates() {
        let mut engine: Engine<u32> = Engine::new();
        let a = engine.add_actor(Box::new(PingPong {
            peer: None,
            received: vec![],
        }));
        let b = engine.add_actor(Box::new(PingPong {
            peer: None,
            received: vec![],
        }));
        engine.actor_mut::<PingPong>(a).peer = Some(b);
        engine.actor_mut::<PingPong>(b).peer = Some(a);
        engine.schedule(SimTime::ZERO, a, 5);
        let end = engine.run(None).unwrap();
        assert_eq!(end, SimTime::from_ns(50));
        let pa = engine.actor::<PingPong>(a);
        let pb = engine.actor::<PingPong>(b);
        assert_eq!(pa.received.len(), 3); // 5, 3, 1
        assert_eq!(pb.received.len(), 3); // 4, 2, 0
        assert_eq!(pa.received[0], (SimTime::ZERO, 5));
        assert_eq!(pb.received[2], (SimTime::from_ns(50), 0));
    }

    /// An actor that records delivery order of same-time events.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<u32>,
    }

    impl Actor<u32> for Recorder {
        fn on_event(&mut self, _ctx: &mut Ctx<'_, u32>, msg: u32) {
            self.seen.push(msg);
        }
    }

    #[test]
    fn same_time_events_fifo() {
        let mut engine: Engine<u32> = Engine::new();
        let r = engine.add_actor(Box::new(Recorder::default()));
        for i in 0..10 {
            engine.schedule(SimTime::from_ns(100), r, i);
        }
        engine.schedule(SimTime::from_ns(50), r, 100);
        engine.run(None).unwrap();
        let rec = engine.actor::<Recorder>(r);
        assert_eq!(rec.seen[0], 100);
        assert_eq!(&rec.seen[1..], &(0..10).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn until_limit_stops_cleanly() {
        let mut engine: Engine<u32> = Engine::new();
        let r = engine.add_actor(Box::new(Recorder::default()));
        engine.schedule(SimTime::from_ns(10), r, 1);
        engine.schedule(SimTime::from_ns(1000), r, 2);
        let t = engine.run(Some(SimTime::from_ns(500))).unwrap();
        assert_eq!(t, SimTime::from_ns(500));
        assert_eq!(engine.actor::<Recorder>(r).seen, vec![1]);
        // Resuming picks up the rest.
        let t = engine.run(None).unwrap();
        assert_eq!(t, SimTime::from_ns(1000));
        assert_eq!(engine.actor::<Recorder>(r).seen, vec![1, 2]);
    }

    /// Self-perpetuating actor for the runaway guard.
    struct Livelock;

    impl Actor<u32> for Livelock {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
            ctx.send_self_after(1, msg);
        }
    }

    #[test]
    fn event_cap_detects_livelock() {
        let mut engine: Engine<u32> = Engine::new();
        engine.set_max_events(1000);
        let a = engine.add_actor(Box::new(Livelock));
        engine.schedule(SimTime::ZERO, a, 0);
        assert!(engine.run(None).is_err());
    }

    /// An actor that stops the engine on the first event.
    struct Stopper {
        fired: bool,
    }

    impl Actor<u32> for Stopper {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
            self.fired = true;
            ctx.stop();
        }
    }

    #[test]
    fn stop_request_halts_engine() {
        let mut engine: Engine<u32> = Engine::new();
        let s = engine.add_actor(Box::new(Stopper { fired: false }));
        engine.schedule(SimTime::from_ns(5), s, 0);
        engine.schedule(SimTime::from_ns(10), s, 1);
        engine.run(None).unwrap();
        assert!(engine.actor::<Stopper>(s).fired);
        assert_eq!(engine.now(), SimTime::from_ns(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut engine: Engine<u32> = Engine::new();
        let r = engine.add_actor(Box::new(Recorder::default()));
        engine.schedule(SimTime::from_ns(10), r, 1);
        engine.run(None).unwrap();
        engine.schedule(SimTime::from_ns(5), r, 2);
    }

    #[test]
    fn deterministic_replay() {
        // Two identical engines process identical workloads with
        // identical event counts and end times.
        let build = || {
            let mut engine: Engine<u32> = Engine::new();
            let a = engine.add_actor(Box::new(PingPong {
                peer: None,
                received: vec![],
            }));
            let b = engine.add_actor(Box::new(PingPong {
                peer: None,
                received: vec![],
            }));
            engine.actor_mut::<PingPong>(a).peer = Some(b);
            engine.actor_mut::<PingPong>(b).peer = Some(a);
            engine.schedule(SimTime::ZERO, a, 100);
            engine.run(None).unwrap();
            (engine.events_handled(), engine.now())
        };
        assert_eq!(build(), build());
    }
}
