//! Single-flight coalescing of identical in-flight work.
//!
//! Work is keyed by the request's spec hash: the first joiner becomes the
//! *leader* and receives a [`Completion`] token; everyone who joins the same
//! key while the leader's work is still in flight becomes a *follower* and
//! receives a [`Waiter`] that blocks until the leader publishes the shared
//! result. Followers never consume an execution slot — in the TCP front end
//! they wait *outside* the bounded executor queue, which is what turns an
//! identical-request storm into one execution instead of N.
//!
//! Correctness leans on the service's determinism guarantee: identical spec
//! hashes resolve to bit-identical reports, so handing a follower the
//! leader's result can never change its answer — only its cost. If a leader
//! disappears without publishing (a panic, or admission shed its job), its
//! followers observe `None` and fall back to computing on their own; they
//! are never left hanging.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use phase_core::ContentHash;

#[derive(Debug)]
enum FlightState<T> {
    Pending,
    Done(T),
    Abandoned,
}

#[derive(Debug)]
struct Flight<T> {
    state: Mutex<FlightState<T>>,
    ready: Condvar,
}

/// What joining a key yields: lead the computation or wait for the leader.
#[derive(Debug)]
pub(crate) enum Entry<T: Clone> {
    /// This joiner runs the work and must publish (or abandon) the result.
    Leader(Completion<T>),
    /// Another joiner is already running the work; wait for its result.
    Follower(Waiter<T>),
}

/// The in-flight table: one entry per key currently being computed.
#[derive(Debug)]
pub(crate) struct SingleFlight<T> {
    flights: Mutex<HashMap<ContentHash, Arc<Flight<T>>>>,
    coalesced: AtomicU64,
}

impl<T: Clone> Default for SingleFlight<T> {
    fn default() -> Self {
        Self {
            flights: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
        }
    }
}

impl<T: Clone> SingleFlight<T> {
    /// Joins the flight for `key`, creating it if absent.
    pub(crate) fn join(self: &Arc<Self>, key: ContentHash) -> Entry<T> {
        let mut flights = self.flights.lock();
        if let Some(flight) = flights.get(&key) {
            return Entry::Follower(Waiter {
                flight: Arc::clone(flight),
                table: Arc::clone(self),
            });
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        });
        flights.insert(key, Arc::clone(&flight));
        Entry::Leader(Completion {
            key,
            flight,
            table: Arc::clone(self),
            published: false,
        })
    }

    /// How many keys are in flight right now (the `inflight` stats gauge).
    pub(crate) fn len(&self) -> u64 {
        self.flights.lock().len() as u64
    }

    /// Followers served from a leader's result so far.
    pub(crate) fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    fn finish(&self, key: &ContentHash, flight: &Arc<Flight<T>>, state: FlightState<T>) {
        // Remove from the table *before* publishing: a joiner arriving after
        // publication must start a fresh flight, not read a stale result
        // (the store cache, not the flight table, is the service's memory).
        let mut flights = self.flights.lock();
        if let Some(current) = flights.get(key) {
            if Arc::ptr_eq(current, flight) {
                flights.remove(key);
            }
        }
        drop(flights);
        *flight.state.lock() = state;
        flight.ready.notify_all();
    }
}

/// The leader's obligation: publish the result with [`Completion::fulfill`].
/// Dropping it unfulfilled (panic, shed) abandons the flight and wakes the
/// followers into their fallback path.
#[derive(Debug)]
pub(crate) struct Completion<T: Clone> {
    key: ContentHash,
    flight: Arc<Flight<T>>,
    table: Arc<SingleFlight<T>>,
    published: bool,
}

impl<T: Clone> Completion<T> {
    /// Publishes the result to every follower and retires the flight.
    pub(crate) fn fulfill(mut self, value: T) {
        self.published = true;
        self.table
            .finish(&self.key, &self.flight, FlightState::Done(value));
    }
}

impl<T: Clone> Drop for Completion<T> {
    fn drop(&mut self) {
        if !self.published {
            self.table
                .finish(&self.key, &self.flight, FlightState::Abandoned);
        }
    }
}

/// A follower's handle: blocks until the leader publishes or abandons.
#[derive(Debug)]
pub(crate) struct Waiter<T: Clone> {
    flight: Arc<Flight<T>>,
    table: Arc<SingleFlight<T>>,
}

impl<T: Clone> Waiter<T> {
    /// Waits for the leader. `Some(result)` is the shared answer (counted as
    /// coalesced); `None` means the leader abandoned and the caller must
    /// compute for itself.
    pub(crate) fn wait(self) -> Option<T> {
        let mut state = self.flight.state.lock();
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.flight.ready.wait(state);
                }
                FlightState::Done(value) => {
                    self.table.coalesced.fetch_add(1, Ordering::Relaxed);
                    return Some(value.clone());
                }
                FlightState::Abandoned => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_core::StableHasher;

    fn key(tag: &str) -> ContentHash {
        let mut hasher = StableHasher::new();
        hasher.write_str(tag);
        hasher.finish()
    }

    #[test]
    fn followers_share_the_leaders_result() {
        let table: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::default());
        let Entry::Leader(completion) = table.join(key("a")) else {
            panic!("first joiner leads");
        };
        assert_eq!(table.len(), 1);
        let Entry::Follower(waiter) = table.join(key("a")) else {
            panic!("second joiner follows");
        };
        let handle = std::thread::spawn(move || waiter.wait());
        completion.fulfill(42);
        assert_eq!(handle.join().expect("waiter thread"), Some(42));
        assert_eq!(table.coalesced(), 1);
        assert_eq!(table.len(), 0, "the flight retired");
        // A new joiner after publication starts a fresh flight.
        assert!(matches!(table.join(key("a")), Entry::Leader(_)));
    }

    #[test]
    fn abandoned_flights_wake_followers_into_fallback() {
        let table: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::default());
        let Entry::Leader(completion) = table.join(key("b")) else {
            panic!("first joiner leads");
        };
        let Entry::Follower(waiter) = table.join(key("b")) else {
            panic!("second joiner follows");
        };
        let handle = std::thread::spawn(move || waiter.wait());
        drop(completion); // shed / panic path
        assert_eq!(handle.join().expect("waiter thread"), None);
        assert_eq!(table.coalesced(), 0, "abandonment is not coalescing");
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let table: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::default());
        let a = table.join(key("a"));
        let b = table.join(key("b"));
        assert!(matches!(a, Entry::Leader(_)));
        assert!(matches!(b, Entry::Leader(_)));
        assert_eq!(table.len(), 2);
    }
}
