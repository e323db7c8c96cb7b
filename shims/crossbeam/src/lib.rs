//! Offline stand-in for `crossbeam`, covering what this workspace
//! uses: [`channel`] — a Mutex + Condvar MPMC channel with `bounded` /
//! `unbounded` constructors, cloneable senders and receivers,
//! non-blocking `try_send`, and timeout-aware receives. This is the
//! backbone of the `serve` crate's worker pool; throughput is far
//! below real crossbeam's lock-free queues but semantics match.

pub mod channel;
