//! Service counters and latency histogram, backed by the unified
//! `obs` metrics registry.
//!
//! All instruments are relaxed atomics — they are observability, not
//! synchronisation; the serving data structures carry their own locks.
//! Registering through [`obs::MetricsRegistry`] buys Prometheus-style
//! text exposition ([`ServeMetrics::render_prometheus`]) and snapshot
//! diffing for free, while [`MetricsSnapshot`] keeps its original
//! field-for-field shape for existing consumers.

use obs::{percentile_from_buckets, Counter, Histogram, MetricsRegistry};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Upper bounds (µs) of the latency histogram buckets; the last bucket
/// is unbounded.
const BUCKET_BOUNDS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, u64::MAX];

/// Live counters maintained by the service.
pub struct ServeMetrics {
    registry: MetricsRegistry,
    hits: Counter,
    reused_cross_epoch: Counter,
    patched_incremental: Counter,
    delta_log_aged_out: Counter,
    misses: Counter,
    coalesced: Counter,
    rejected: Counter,
    rejected_invalid: Counter,
    quota_rejected: Counter,
    executed: Counter,
    deadline_exceeded: Counter,
    failed: Counter,
    worker_panics: Counter,
    served_stale: Counter,
    breaker_open: Counter,
    retries: Counter,
    rows_scanned: Counter,
    segments_pruned: Counter,
    morsels_executed: Counter,
    latency: Arc<Histogram>,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// A fresh metrics set with every instrument registered.
    pub fn new() -> ServeMetrics {
        let registry = MetricsRegistry::new();
        ServeMetrics {
            hits: registry.counter("serve_cache_hits_total"),
            reused_cross_epoch: registry.counter("serve_cache_reused_cross_epoch_total"),
            patched_incremental: registry.counter("serve_cache_patched_incremental_total"),
            delta_log_aged_out: registry.counter("serve_delta_log_aged_out_total"),
            misses: registry.counter("serve_cache_misses_total"),
            coalesced: registry.counter("serve_coalesced_total"),
            rejected: registry.counter("serve_rejected_total"),
            rejected_invalid: registry.counter("serve_rejected_invalid_total"),
            quota_rejected: registry.counter("serve_quota_rejected_total"),
            executed: registry.counter("serve_executed_total"),
            deadline_exceeded: registry.counter("serve_deadline_exceeded_total"),
            failed: registry.counter("serve_failed_total"),
            worker_panics: registry.counter("serve_worker_panics_total"),
            served_stale: registry.counter("serve_served_stale_total"),
            breaker_open: registry.counter("serve_breaker_open_total"),
            retries: registry.counter("serve_retries_total"),
            rows_scanned: registry.counter("serve_rows_scanned_total"),
            segments_pruned: registry.counter("serve_segments_pruned_total"),
            morsels_executed: registry.counter("serve_morsels_executed_total"),
            latency: registry.histogram("serve_latency_us", &BUCKET_BOUNDS_US),
            registry,
        }
    }

    /// Record a cache hit.
    pub fn record_hit(&self) {
        self.hits.inc();
    }

    /// Record a cache hit that was served across an epoch boundary:
    /// delta revalidation proved the stale entry untouched by the
    /// intervening mutations. (Also counted as a hit.)
    pub fn record_reused_cross_epoch(&self) {
        self.reused_cross_epoch.inc();
    }

    /// Record a cache hit produced by incrementally patching a
    /// retained cube with a delta's appended rows instead of
    /// rebuilding. (Also counted as a hit.)
    pub fn record_patched_incremental(&self) {
        self.patched_incremental.inc();
    }

    /// Record a revalidation attempt that found the delta log aged
    /// out: the cached entry's epoch predates the oldest retained
    /// delta, so reuse cannot be proven and the entry is dropped.
    pub fn record_delta_log_aged_out(&self) {
        self.delta_log_aged_out.inc();
    }

    /// Record a cache miss (the caller became a flight leader).
    pub fn record_miss(&self) {
        self.misses.inc();
    }

    /// Record a request coalesced onto an in-flight execution.
    pub fn record_coalesced(&self) {
        self.coalesced.inc();
    }

    /// Record an admission-control rejection.
    pub fn record_rejected(&self) {
        self.rejected.inc();
    }

    /// Record a semantic-analysis rejection at admission (distinct
    /// from load shedding: the request was wrong, not unlucky).
    pub fn record_rejected_invalid(&self) {
        self.rejected_invalid.inc();
    }

    /// Record a request rejected by a per-user admission quota (the
    /// session's token bucket ran dry; other sessions unaffected).
    pub fn record_quota_rejected(&self) {
        self.quota_rejected.inc();
    }

    /// Record a completed execution.
    pub fn record_executed(&self) {
        self.executed.inc();
    }

    /// Record a caller giving up on its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.inc();
    }

    /// Record a query-level failure.
    pub fn record_failed(&self) {
        self.failed.inc();
    }

    /// Record an execution that panicked (contained on its caller's
    /// thread as a typed `Internal` error).
    pub fn record_worker_panic(&self) {
        self.worker_panics.inc();
    }

    /// Record a request answered from a stale cache entry while the
    /// circuit breaker deflected execution. (Also counted as a hit.)
    pub fn record_served_stale(&self) {
        self.served_stale.inc();
    }

    /// Record a request deflected by an open circuit breaker.
    pub fn record_breaker_open(&self) {
        self.breaker_open.inc();
    }

    /// Record `n` transient-fault retries performed on a request path.
    pub fn record_retries(&self, n: u64) {
        self.retries.add(n);
    }

    /// Record the rows scanned by one execution (from its
    /// query profile), so scan volume is visible on the scrape surface
    /// and in flight-recorder metric deltas.
    pub fn record_rows_scanned(&self, n: u64) {
        self.rows_scanned.add(n);
    }

    /// Record the zone-map-pruned segments of one execution (from its
    /// query profile).
    pub fn record_segments_pruned(&self, n: u64) {
        self.segments_pruned.add(n);
    }

    /// Record the morsels one execution's vectorized scan claimed
    /// (from its query profile; 0 for scalar/legacy scans).
    pub fn record_morsels_executed(&self, n: u64) {
        self.morsels_executed.add(n);
    }

    /// Record the end-to-end latency of one served request.
    pub fn record_latency(&self, latency: Duration) {
        self.latency
            .record(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// The backing registry (for exposition or snapshot diffing).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Every instrument in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counts = self.latency.counts();
        MetricsSnapshot {
            hits: self.hits.get(),
            reused_cross_epoch: self.reused_cross_epoch.get(),
            patched_incremental: self.patched_incremental.get(),
            delta_log_aged_out: self.delta_log_aged_out.get(),
            misses: self.misses.get(),
            coalesced: self.coalesced.get(),
            rejected: self.rejected.get(),
            rejected_invalid: self.rejected_invalid.get(),
            quota_rejected: self.quota_rejected.get(),
            executed: self.executed.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            failed: self.failed.get(),
            worker_panics: self.worker_panics.get(),
            served_stale: self.served_stale.get(),
            breaker_open: self.breaker_open.get(),
            retries: self.retries.get(),
            rows_scanned: self.rows_scanned.get(),
            segments_pruned: self.segments_pruned.get(),
            morsels_executed: self.morsels_executed.get(),
            latency_us_sum: self.latency.sum(),
            latency_buckets: std::array::from_fn(|i| counts.get(i).copied().unwrap_or(0)),
        }
    }
}

/// A frozen copy of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests answered from the result cache.
    pub hits: u64,
    /// Hits served across an epoch boundary after delta revalidation
    /// (subset of `hits`).
    pub reused_cross_epoch: u64,
    /// Hits served by incrementally patching a retained cube
    /// (subset of `hits`).
    pub patched_incremental: u64,
    /// Revalidations that found the delta log aged out (the cached
    /// epoch predates the oldest retained delta; entry dropped).
    pub delta_log_aged_out: u64,
    /// Requests that found no cached result and led an execution.
    pub misses: u64,
    /// Requests coalesced onto an identical in-flight execution.
    pub coalesced: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests the semantic analyzer rejected at admission.
    pub rejected_invalid: u64,
    /// Requests rejected by per-user admission quotas.
    pub quota_rejected: u64,
    /// Executions run by single-flight leaders.
    pub executed: u64,
    /// Requests whose caller gave up on its deadline.
    pub deadline_exceeded: u64,
    /// Executions that failed at the query layer.
    pub failed: u64,
    /// Executions that panicked, each contained on its caller's thread.
    pub worker_panics: u64,
    /// Requests served from stale cache while a breaker was open
    /// (subset of `hits`).
    pub served_stale: u64,
    /// Requests deflected by an open circuit breaker.
    pub breaker_open: u64,
    /// Transient-fault retries performed across request paths.
    pub retries: u64,
    /// Rows scanned by executions (profile-attributed).
    pub rows_scanned: u64,
    /// Segments skipped by zone-map pruning across executions.
    pub segments_pruned: u64,
    /// Morsels claimed by vectorized scans across executions.
    pub morsels_executed: u64,
    /// Sum of recorded latencies (µs).
    pub latency_us_sum: u64,
    /// Latency histogram counts, aligned with the bucket bounds.
    pub latency_buckets: [u64; 6],
}

impl MetricsSnapshot {
    /// Total requests that received an answer (hit, miss or coalesced).
    pub fn served(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }

    /// Mean recorded latency, if any latencies were recorded.
    pub fn mean_latency(&self) -> Option<Duration> {
        let n: u64 = self.latency_buckets.iter().sum();
        self.latency_us_sum
            .checked_div(n)
            .map(Duration::from_micros)
    }

    /// Estimated latency quantile by linear interpolation within the
    /// histogram buckets (`None` when no latencies were recorded).
    pub fn latency_percentile(&self, q: f64) -> Option<Duration> {
        percentile_from_buckets(&BUCKET_BOUNDS_US, &self.latency_buckets, q)
            .map(Duration::from_micros)
    }

    /// Estimated median latency.
    pub fn p50(&self) -> Option<Duration> {
        self.latency_percentile(0.50)
    }

    /// Estimated 95th-percentile latency.
    pub fn p95(&self) -> Option<Duration> {
        self.latency_percentile(0.95)
    }

    /// Estimated 99th-percentile latency.
    pub fn p99(&self) -> Option<Duration> {
        self.latency_percentile(0.99)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} (hits {} [reused x-epoch {} | patched {}] | misses {} | \
             coalesced {}), rejected {}, rejected-invalid {}, executed {}, \
             deadline-exceeded {}, failed {}",
            self.served(),
            self.hits,
            self.reused_cross_epoch,
            self.patched_incremental,
            self.misses,
            self.coalesced,
            self.rejected,
            self.rejected_invalid,
            self.executed,
            self.deadline_exceeded,
            self.failed,
        )?;
        if self.worker_panics + self.breaker_open + self.served_stale + self.retries > 0 {
            writeln!(
                f,
                "robustness: panics {}, breaker-open {}, served-stale {}, retries {}",
                self.worker_panics, self.breaker_open, self.served_stale, self.retries,
            )?;
        }
        if let Some(mean) = self.mean_latency() {
            writeln!(f, "mean latency {mean:?}")?;
        }
        if let (Some(p50), Some(p95), Some(p99)) = (self.p50(), self.p95(), self.p99()) {
            writeln!(
                f,
                "latency estimate p50 {p50:?} | p95 {p95:?} | p99 {p99:?}"
            )?;
        }
        write!(f, "latency histogram:")?;
        let labels = ["<100µs", "<1ms", "<10ms", "<100ms", "<1s", "≥1s"];
        for (label, count) in labels.iter().zip(self.latency_buckets.iter()) {
            write!(f, "  {label}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = ServeMetrics::default();
        m.record_latency(Duration::from_micros(50));
        m.record_latency(Duration::from_micros(500));
        m.record_latency(Duration::from_millis(5));
        m.record_latency(Duration::from_secs(2));
        let s = m.snapshot();
        assert_eq!(s.latency_buckets, [1, 1, 1, 0, 0, 1]);
        assert!(s.mean_latency().is_some());
    }

    #[test]
    fn served_counts_hits_misses_and_coalesced() {
        let m = ServeMetrics::default();
        m.record_miss();
        m.record_hit();
        m.record_hit();
        m.record_coalesced();
        let s = m.snapshot();
        assert_eq!(s.served(), 4);
        assert!(s.to_string().contains("hits 2"));
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let m = ServeMetrics::default();
        assert_eq!(m.snapshot().p50(), None);
        for _ in 0..99 {
            m.record_latency(Duration::from_micros(500));
        }
        m.record_latency(Duration::from_millis(500));
        let s = m.snapshot();
        let p50 = s.p50().unwrap();
        assert!(p50 < Duration::from_millis(1), "p50 = {p50:?}");
        let p99 = s.p99().unwrap();
        assert!(p99 >= Duration::from_micros(900), "p99 = {p99:?}");
        assert!(s.to_string().contains("latency estimate p50"));
    }

    #[test]
    fn scan_counters_reach_the_scrape_surface() {
        let m = ServeMetrics::default();
        m.record_rows_scanned(2500);
        m.record_segments_pruned(3);
        m.record_delta_log_aged_out();
        let text = m.render_prometheus();
        assert!(text.contains("serve_rows_scanned_total 2500"));
        assert!(text.contains("serve_segments_pruned_total 3"));
        assert!(text.contains("serve_delta_log_aged_out_total 1"));
        let s = m.snapshot();
        assert_eq!((s.rows_scanned, s.segments_pruned), (2500, 3));
    }

    #[test]
    fn prometheus_exposition_covers_the_counters() {
        let m = ServeMetrics::default();
        m.record_hit();
        m.record_executed();
        m.record_latency(Duration::from_micros(50));
        let text = m.render_prometheus();
        assert!(text.contains("serve_cache_hits_total 1"));
        assert!(text.contains("serve_executed_total 1"));
        assert!(text.contains("serve_latency_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("serve_latency_us_count 1"));
    }
}
