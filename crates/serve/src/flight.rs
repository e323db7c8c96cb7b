//! Single-flight deduplication.
//!
//! When N callers ask for the same `(fingerprint, epoch)` at once,
//! exactly one — the *leader* — enqueues an execution; the rest park on
//! the leader's [`Flight`] and share its result. This bounds worker
//! work under query storms: a popular dashboard query costs one
//! execution no matter how many clinicians refresh it.
//!
//! The per-flight result slot uses `std::sync` directly because
//! waiters need a `Condvar`, which the ranked wrappers do not pair
//! with; its place in the lock hierarchy is declared with a
//! `lock:rank` annotation instead.

use crate::cache::CacheKey;
use crate::error::{ServeError, ServeResult};
use crate::request::QueryOutcome;
use obs::{LockRank, RankedMutex, SpanContext};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One in-flight execution that any number of waiters may join.
pub struct Flight {
    result: Mutex<Option<ServeResult<Arc<QueryOutcome>>>>, // lock:rank(FlightSlot)
    done: Condvar,
    /// The leader's request span, so coalesced followers can link their
    /// own trace to the execution that actually serves them.
    leader: Option<SpanContext>,
}

impl Flight {
    fn new(leader: Option<SpanContext>) -> Flight {
        Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
            leader,
        }
    }

    /// The span context of the leader that owns this execution, when
    /// tracing was enabled at creation.
    pub fn leader_context(&self) -> Option<SpanContext> {
        self.leader
    }

    /// Publish the outcome and wake every waiter. Later calls are
    /// ignored (first writer wins).
    pub fn complete(&self, outcome: ServeResult<Arc<QueryOutcome>>) {
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(outcome);
        }
        drop(slot);
        self.done.notify_all();
    }

    /// Block until the flight completes or `deadline` elapses.
    pub fn wait(&self, deadline: Duration) -> ServeResult<Arc<QueryOutcome>> {
        let start = Instant::now(); // lint:allow(no-raw-timing, "deadline arithmetic needs a local monotonic clock, not a traced span")
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return Err(ServeError::DeadlineExceeded {
                    deadline,
                    trace: None,
                });
            }
            let (guard, timeout) = self
                .done
                .wait_timeout(slot, deadline - elapsed) // lint:allow(A301, "condvar wait atomically releases the slot lock while parked; the pairing is the point")
                .unwrap_or_else(|e| e.into_inner());
            slot = guard;
            if timeout.timed_out() && slot.is_none() {
                return Err(ServeError::DeadlineExceeded {
                    deadline,
                    trace: None,
                });
            }
        }
    }
}

/// Whether a caller leads or joins an execution.
pub enum FlightRole {
    /// This caller must enqueue the execution (and then wait).
    Leader(Arc<Flight>),
    /// An identical execution is already in flight; just wait.
    Follower(Arc<Flight>),
}

/// The table of in-flight executions, keyed like the cache.
pub struct FlightTable {
    flights: RankedMutex<HashMap<CacheKey, Arc<Flight>>>,
}

impl Default for FlightTable {
    fn default() -> FlightTable {
        FlightTable {
            flights: RankedMutex::new(LockRank::Admission, "serve.flights", HashMap::new()),
        }
    }
}

impl FlightTable {
    /// Join the flight for `key`, creating it (as leader) if absent.
    /// `ctx` is the joining request's span context: it becomes the
    /// flight's leader context when this caller creates the flight.
    pub fn join(&self, key: &CacheKey, ctx: Option<SpanContext>) -> FlightRole {
        let mut flights = self.flights.lock();
        if let Some(flight) = flights.get(key) {
            FlightRole::Follower(Arc::clone(flight))
        } else {
            let flight = Arc::new(Flight::new(ctx));
            flights.insert(key.clone(), Arc::clone(&flight));
            FlightRole::Leader(flight)
        }
    }

    /// Retire the flight for `key` so later callers start a fresh one.
    /// Publish to the cache first, then retire, then complete the
    /// flight — so no caller can join an already-completed flight.
    pub fn retire(&self, key: &CacheKey) {
        self.flights.lock().remove(key);
    }

    /// Number of executions currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flights.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap::PivotTable;
    use std::thread;

    fn outcome() -> Arc<QueryOutcome> {
        Arc::new(QueryOutcome::pivot(PivotTable {
            row_axis: "r".into(),
            col_axis: String::new(),
            row_headers: vec![],
            col_headers: vec![],
            cells: vec![],
        }))
    }

    #[test]
    fn second_joiner_is_a_follower() {
        let table = FlightTable::default();
        let key = ("q".to_string(), 1);
        assert!(matches!(table.join(&key, None), FlightRole::Leader(_)));
        assert!(matches!(table.join(&key, None), FlightRole::Follower(_)));
        assert_eq!(table.in_flight(), 1);
        table.retire(&key);
        assert!(matches!(table.join(&key, None), FlightRole::Leader(_)));
    }

    #[test]
    fn leader_context_is_visible_to_followers() {
        let table = FlightTable::default();
        let key = ("q".to_string(), 1);
        let ctx = SpanContext {
            trace: obs::TraceId(7),
            span: obs::SpanId(9),
        };
        let FlightRole::Leader(led) = table.join(&key, Some(ctx)) else {
            panic!("first joiner must lead");
        };
        assert_eq!(led.leader_context(), Some(ctx));
        let FlightRole::Follower(followed) = table.join(&key, None) else {
            panic!("second joiner must follow");
        };
        assert_eq!(followed.leader_context(), Some(ctx));
    }

    #[test]
    fn waiters_receive_the_completed_result() {
        let flight = Arc::new(Flight::new(None));
        let value = outcome();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let f = Arc::clone(&flight);
                thread::spawn(move || f.wait(Duration::from_secs(5)))
            })
            .collect();
        flight.complete(Ok(Arc::clone(&value)));
        for h in handles {
            let got = h.join().unwrap().unwrap();
            assert!(Arc::ptr_eq(&got, &value));
        }
    }

    #[test]
    fn wait_times_out_without_completion() {
        let flight = Flight::new(None);
        let err = flight.wait(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }));
    }

    #[test]
    fn first_completion_wins() {
        let flight = Flight::new(None);
        flight.complete(Err(ServeError::ShuttingDown));
        flight.complete(Ok(outcome()));
        assert_eq!(
            flight.wait(Duration::from_secs(1)).unwrap_err(),
            ServeError::ShuttingDown
        );
    }
}
