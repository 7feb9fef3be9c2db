//! Self-tuning maintenance: an error-budget policy deciding *when* the cheap
//! merge steps a store pays in steady state ([`SynopsisStore::update_merge`])
//! have degraded the served synopsis enough to be worth a refit, and the one
//! background thread carrying the refits out.
//!
//! The economics come straight from the paper's merge/refit trade-off:
//! merging an adjacent-chunk synopsis into the served one is ~two orders of
//! magnitude cheaper than refitting, but every budgeted merge spends accuracy
//! — the greedy re-merge's accepted cost is exactly
//! `‖merged − left ⊕ right‖₂²` ([`hist_core::MergeStats`]). The store sums
//! the per-merge `ℓ₂` deltas; by the triangle inequality that sum
//! upper-bounds how far the served synopsis has drifted from the
//! concatenation of everything it absorbed. [`MaintenancePolicy`] turns the
//! accumulator into a decision: once the spent error exceeds the budget (and
//! a minimum merge interval has passed, or a maximum interval forces the
//! issue), [`SynopsisStore::try_begin_refit`] claims a refit and the
//! [`MaintenanceWorker`]'s thread rebuilds the synopsis by `tree_merge`-ing
//! the retained chunk synopses down to the compaction budget — a balanced
//! merge tree whose error does not carry the left-deep chain's accumulated
//! drift — publishing the result through the normal epoch-stamped path.
//! Readers are never blocked (they only ever touch the snapshot pointer) and
//! no epoch is lost (refits serialize with writers on the store's writer
//! mutex). The same thread sweeps every key of a [`crate::StoreMap`] whose
//! policy has a wall-clock bound, so idle keys are refreshed too.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hist_core::{Error, Result, Synopsis};

use crate::store::SynopsisStore;

/// When to stop paying cheap merges and schedule a refit: the error-budget
/// policy of a [`SynopsisStore`] / [`crate::StoreMap`].
///
/// A refit triggers once **both** hold:
///
/// * at least `min_merges_between_refits` merges happened since the last
///   refit (back-pressure: a refit is never scheduled on every update), and
/// * the accumulated merge error exceeds `error_budget`, **or** the optional
///   `max_merges_between_refits` interval has elapsed (a freshness bound for
///   streams whose merges are individually cheap but numerous).
///
/// Both intervals above are *merge-counted*, so a key whose writer goes
/// quiet keeps serving its drifted left-deep merge chain indefinitely. The
/// optional **wall-clock** bound `max_wall_between_refits` closes that gap:
/// once that much time has passed since the key's last refit (or baseline)
/// with at least one merge absorbed, a refit is due regardless of the merge
/// counters — deliberately bypassing the `min_merges_between_refits`
/// back-pressure, because for an idle key freshness is the whole point.
/// Wall-clock triggers are evaluated by the write path *and* by the
/// [`crate::StoreMap`]'s maintenance thread, which sweeps keys whose writers
/// have paused.
///
/// The refit `tree_merge`s the retained chunk synopses down to
/// `compaction_budget` pieces; `max_retained_chunks` bounds how many chunks
/// are kept between refits (oldest pairs are folded together beyond it).
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenancePolicy {
    error_budget: f64,
    min_merges_between_refits: u64,
    max_merges_between_refits: Option<u64>,
    max_wall_between_refits: Option<Duration>,
    compaction_budget: usize,
    max_retained_chunks: usize,
}

/// Default retained-chunk cap: deep enough that steady-state refits see a
/// genuinely balanced tree, small enough to bound per-key memory.
const DEFAULT_RETAINED_CHUNKS: usize = 64;

impl MaintenancePolicy {
    /// A policy refitting once the accumulated merge error exceeds
    /// `error_budget`, compacting to `compaction_budget` pieces; interval
    /// bounds default to `min = 1`, no forced maximum, and a retained-chunk
    /// cap of 64.
    pub fn new(error_budget: f64, compaction_budget: usize) -> Self {
        Self {
            error_budget,
            min_merges_between_refits: 1,
            max_merges_between_refits: None,
            max_wall_between_refits: None,
            compaction_budget,
            max_retained_chunks: DEFAULT_RETAINED_CHUNKS,
        }
    }

    /// Requires at least `min` merges between refits.
    pub fn min_interval(mut self, min: u64) -> Self {
        self.min_merges_between_refits = min;
        self
    }

    /// Forces a refit every `max` merges even while under the error budget.
    pub fn max_interval(mut self, max: u64) -> Self {
        self.max_merges_between_refits = Some(max);
        self
    }

    /// Forces a refit once `max` wall-clock time has passed since the last
    /// refit with at least one merge absorbed — the freshness bound for keys
    /// whose writers go quiet (merge-counted intervals never fire there).
    pub fn max_wall_interval(mut self, max: Duration) -> Self {
        self.max_wall_between_refits = Some(max);
        self
    }

    /// Caps how many chunk synopses are retained between refits.
    pub fn retained_chunks(mut self, cap: usize) -> Self {
        self.max_retained_chunks = cap;
        self
    }

    /// The `ℓ₂` error budget.
    #[inline]
    pub fn error_budget(&self) -> f64 {
        self.error_budget
    }

    /// Minimum merges between refits.
    #[inline]
    pub fn min_merges_between_refits(&self) -> u64 {
        self.min_merges_between_refits
    }

    /// Forced-refit merge interval, when set.
    #[inline]
    pub fn max_merges_between_refits(&self) -> Option<u64> {
        self.max_merges_between_refits
    }

    /// Forced-refit wall-clock interval, when set.
    #[inline]
    pub fn max_wall_between_refits(&self) -> Option<Duration> {
        self.max_wall_between_refits
    }

    /// The piece budget refits compact to.
    #[inline]
    pub fn compaction_budget(&self) -> usize {
        self.compaction_budget
    }

    /// The retained-chunk cap.
    #[inline]
    pub fn max_retained_chunks(&self) -> usize {
        self.max_retained_chunks
    }

    /// Validates the knobs: positive finite error budget, non-zero
    /// compaction budget, non-inverted intervals, a foldable retained cap.
    pub fn validate(&self) -> Result<()> {
        if !self.error_budget.is_finite() || self.error_budget <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "error_budget",
                reason: format!("must be a positive finite number, got {}", self.error_budget),
            });
        }
        if self.compaction_budget == 0 {
            return Err(Error::InvalidParameter {
                name: "compaction_budget",
                reason: "a refit must keep at least one piece".into(),
            });
        }
        if let Some(max) = self.max_merges_between_refits {
            if max == 0 || max < self.min_merges_between_refits {
                return Err(Error::InvalidParameter {
                    name: "refit_interval",
                    reason: format!(
                        "inverted interval: max {max} must be ≥ min {} and ≥ 1",
                        self.min_merges_between_refits
                    ),
                });
            }
        }
        if self.max_wall_between_refits.is_some_and(|max| max.is_zero()) {
            return Err(Error::InvalidParameter {
                name: "max_wall_between_refits",
                reason: "the wall-clock refit interval must be non-zero".into(),
            });
        }
        if self.max_retained_chunks < 2 {
            return Err(Error::InvalidParameter {
                name: "max_retained_chunks",
                reason: "maintenance needs at least two retained chunks to fold".into(),
            });
        }
        Ok(())
    }

    /// Whether a synopsis with `merges_since_refit` merges and
    /// `accumulated_error` spent since its last refit is due for one,
    /// considering only the merge-counted triggers (as if no wall-clock bound
    /// were set). Equivalent to [`MaintenancePolicy::due_with_elapsed`] with
    /// an unknown elapsed time.
    pub fn due(&self, merges_since_refit: u64, accumulated_error: f64) -> bool {
        self.due_with_elapsed(merges_since_refit, accumulated_error, None)
    }

    /// [`MaintenancePolicy::due`] with the wall clock included:
    /// `elapsed_since_refit` is the time since the key's last refit (or
    /// baseline), `None` when unknown. The wall-clock trigger needs only one
    /// absorbed merge — it deliberately bypasses the
    /// `min_merges_between_refits` back-pressure, because its purpose is
    /// exactly the idle key that will never accumulate more merges.
    pub fn due_with_elapsed(
        &self,
        merges_since_refit: u64,
        accumulated_error: f64,
        elapsed_since_refit: Option<Duration>,
    ) -> bool {
        let counted = merges_since_refit >= self.min_merges_between_refits
            && (accumulated_error > self.error_budget
                || self.max_merges_between_refits.is_some_and(|max| merges_since_refit >= max));
        let wall = merges_since_refit >= 1
            && self
                .max_wall_between_refits
                .zip(elapsed_since_refit)
                .is_some_and(|(max, elapsed)| elapsed >= max);
        counted || wall
    }
}

/// Per-synopsis maintenance accounting, kept by every [`SynopsisStore`] and
/// surfaced through [`SynopsisStore::maintenance_stats`] /
/// [`crate::StoreMapStats`] / the wire protocol's store stats.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MaintenanceStats {
    /// Total `update_merge` merges absorbed (over the store's lifetime).
    pub merges: u64,
    /// Merges since the last refit (or since the first publish).
    pub merges_since_refit: u64,
    /// Cumulative mass of every merged-in chunk.
    pub merged_mass: f64,
    /// Summed per-merge `ℓ₂` deltas since the last refit — the error-budget
    /// accumulator the policy triggers on.
    pub accumulated_error: f64,
    /// Summed per-merge `ℓ₂` deltas over the store's lifetime (monotone).
    pub total_error: f64,
    /// Background refits published.
    pub refits: u64,
    /// Epoch of the last refit publication (0 if none yet).
    pub last_refit_epoch: u64,
    /// Chunk synopses currently retained for the next refit.
    pub retained_chunks: u64,
}

/// The per-store maintenance bookkeeping behind the store's maintenance
/// mutex: the policy (if enabled), the counters, and the retained chunk
/// decomposition of the served synopsis.
///
/// Invariant: when `policy` is set and `retained` is non-empty, the retained
/// synopses concatenate (in order) to exactly the served domain — update
/// paths append to both under the store's writer mutex.
#[derive(Debug, Default)]
pub(crate) struct MaintenanceState {
    pub(crate) policy: Option<MaintenancePolicy>,
    pub(crate) merges: u64,
    pub(crate) merges_since_refit: u64,
    pub(crate) merged_mass: f64,
    pub(crate) accumulated_error: f64,
    pub(crate) total_error: f64,
    pub(crate) refits: u64,
    pub(crate) last_refit_epoch: u64,
    /// When the key was last refitted or re-baselined — the reference point
    /// of the policy's wall-clock trigger. `None` until the first baseline.
    pub(crate) last_refit_at: Option<Instant>,
    pub(crate) retained: Vec<Synopsis>,
    pub(crate) inflight: bool,
}

impl MaintenanceState {
    pub(crate) fn stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            merges: self.merges,
            merges_since_refit: self.merges_since_refit,
            merged_mass: self.merged_mass,
            accumulated_error: self.accumulated_error,
            total_error: self.total_error,
            refits: self.refits,
            last_refit_epoch: self.last_refit_epoch,
            retained_chunks: self.retained.len() as u64,
        }
    }

    /// Appends a merged-in chunk to the retained decomposition, folding the
    /// two oldest entries together once the policy's cap is exceeded. Called
    /// with the store's writer mutex held, so the decomposition stays in
    /// lockstep with the served synopsis.
    pub(crate) fn retain_chunk(&mut self, chunk: Synopsis) {
        let Some(policy) = &self.policy else {
            return;
        };
        let (cap, budget) = (policy.max_retained_chunks, policy.compaction_budget);
        self.retained.push(chunk);
        if self.retained.len() > cap {
            let first = self.retained.remove(0);
            let second = self.retained.remove(0);
            match first.merge(&second, budget) {
                Ok(folded) => self.retained.insert(0, folded),
                // A fold failure would desynchronize the decomposition from
                // the served domain; drop the decomposition instead (the next
                // baseline reseed restores it) rather than serve a bad refit.
                Err(_) => self.retained.clear(),
            }
        }
    }

    /// Re-baselines the retained decomposition on `served` — after a direct
    /// publish, a refit, or enabling the policy on a live store.
    pub(crate) fn rebaseline(&mut self, served: Option<Synopsis>) {
        self.retained.clear();
        if self.policy.is_some() {
            if let Some(synopsis) = served {
                self.retained.push(synopsis);
            }
        }
        self.merges_since_refit = 0;
        self.accumulated_error = 0.0;
        self.last_refit_at = Some(Instant::now());
    }
}

/// The one background thread running maintenance refits, so they never
/// run on (or block) a query or ingest thread.
///
/// Scheduling is idempotent per store: [`MaintenanceWorker::schedule`]
/// claims the store's in-flight slot ([`SynopsisStore::try_begin_refit`])
/// before enqueueing, so at most one refit per store is queued or running at
/// any time. Dropping the worker runs every queued refit and joins the
/// thread.
#[derive(Debug)]
pub struct MaintenanceWorker {
    jobs: Option<mpsc::Sender<Arc<SynopsisStore>>>,
    thread: Option<JoinHandle<()>>,
}

/// The stores a maintenance thread sweeps for due refits, and how often —
/// the evaluation point of the policy's wall-clock trigger on keys whose
/// writers have paused (their write path never comes back to evaluate it).
pub(crate) struct Sweep {
    pub(crate) every: Duration,
    pub(crate) stores: Box<dyn Fn() -> Vec<Arc<SynopsisStore>> + Send>,
}

impl Default for MaintenanceWorker {
    fn default() -> Self {
        Self::new()
    }
}

impl MaintenanceWorker {
    /// A worker running scheduled refits on its own thread.
    pub fn new() -> Self {
        Self::spawn(None)
    }

    /// A worker whose thread also runs `sweep`, if given, on a deadline.
    pub(crate) fn spawn(sweep: Option<Sweep>) -> Self {
        let (jobs, queue) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("hist-maintenance".into())
            .spawn(move || run(&queue, sweep))
            .expect("spawning the maintenance thread");
        Self { jobs: Some(jobs), thread: Some(thread) }
    }

    /// Enqueues a refit of `store` if it is due and none is in flight;
    /// returns whether it did. The refit releases the in-flight slot when it
    /// publishes (or is found unnecessary).
    pub fn schedule(&self, store: &Arc<SynopsisStore>) -> bool {
        if !store.try_begin_refit() {
            return false;
        }
        self.jobs
            .as_ref()
            .expect("the job sender lives until drop")
            .send(Arc::clone(store))
            .expect("the maintenance thread lives until drop");
        true
    }
}

impl Drop for MaintenanceWorker {
    fn drop(&mut self) {
        // Closing the channel ends the thread once the queue has drained.
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() && !thread::panicking() {
                panic!("the maintenance thread panicked while running a refit");
            }
        }
    }
}

/// The maintenance thread: runs queued refits in order until the worker is
/// dropped. With a sweep, each wait is bounded by the next sweep's deadline
/// and the deadline is checked after every job too, so a steady stream of
/// refits cannot starve the sweep the way a plain idle timeout would.
fn run(queue: &mpsc::Receiver<Arc<SynopsisStore>>, sweep: Option<Sweep>) {
    let Some(sweep) = sweep else {
        queue.iter().for_each(|store| refit(&store));
        return;
    };
    let mut next_sweep = Instant::now() + sweep.every;
    loop {
        match queue.recv_timeout(next_sweep.saturating_duration_since(Instant::now())) {
            Ok(store) => refit(&store),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if Instant::now() >= next_sweep {
            for store in (sweep.stores)() {
                if store.try_begin_refit() {
                    refit(&store);
                }
            }
            next_sweep = Instant::now() + sweep.every;
        }
    }
}

/// Runs a refit whose in-flight slot the caller claimed.
fn refit(store: &SynopsisStore) {
    // A failed refit (nothing retained, policy raced off) already cleared
    // the in-flight flag and left the served synopsis as it was; the
    // counters keep accumulating toward the next attempt.
    let _ = store.run_refit();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation_rejects_hostile_knobs() {
        assert!(MaintenancePolicy::new(1.0, 9).validate().is_ok());
        // Zero, negative, NaN and infinite budgets are typed errors.
        for budget in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = MaintenancePolicy::new(budget, 9).validate().unwrap_err();
            assert!(matches!(err, Error::InvalidParameter { name: "error_budget", .. }), "{err}");
        }
        let err = MaintenancePolicy::new(1.0, 0).validate().unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { name: "compaction_budget", .. }));
        // Inverted and degenerate intervals.
        let err = MaintenancePolicy::new(1.0, 9).min_interval(10).max_interval(3);
        assert!(err.validate().is_err(), "max < min must be rejected");
        assert!(MaintenancePolicy::new(1.0, 9).max_interval(0).validate().is_err());
        assert!(MaintenancePolicy::new(1.0, 9).retained_chunks(1).validate().is_err());
        assert!(MaintenancePolicy::new(1.0, 9).min_interval(3).max_interval(3).validate().is_ok());
        // Wall-clock intervals must be non-zero.
        let err = MaintenancePolicy::new(1.0, 9).max_wall_interval(Duration::ZERO);
        assert!(err.validate().is_err(), "zero wall interval must be rejected");
        let ok = MaintenancePolicy::new(1.0, 9).max_wall_interval(Duration::from_millis(50));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn due_requires_min_interval_and_budget_or_max() {
        let policy = MaintenancePolicy::new(2.0, 9).min_interval(3).max_interval(100);
        assert!(!policy.due(0, 10.0), "min interval gates even a blown budget");
        assert!(!policy.due(2, 10.0));
        assert!(policy.due(3, 10.0));
        assert!(!policy.due(3, 1.0), "under budget, under max: not due");
        assert!(!policy.due(99, 2.0), "budget is exceeded strictly");
        assert!(policy.due(100, 0.0), "max interval forces a refit");
    }

    #[test]
    fn wall_clock_trigger_fires_for_idle_keys() {
        let secs = Duration::from_secs;
        let policy = MaintenancePolicy::new(100.0, 9).min_interval(10).max_wall_interval(secs(60));
        // Without the wall clock nothing below is due (budget huge, min 10).
        assert!(!policy.due(1, 0.0));
        // Wall trigger: fires once elapsed ≥ max, bypassing min_interval —
        // an idle key will never reach the merge-counted thresholds.
        assert!(policy.due_with_elapsed(1, 0.0, Some(secs(60))));
        assert!(policy.due_with_elapsed(1, 0.0, Some(secs(61))));
        assert!(!policy.due_with_elapsed(1, 0.0, Some(secs(59))), "not elapsed yet");
        // But never with nothing absorbed: a refit needs at least one merge
        // since the last baseline, or there is nothing new to rebuild.
        assert!(!policy.due_with_elapsed(0, 0.0, Some(secs(3600))));
        // Unknown elapsed time (or no wall bound) → merge-counted rules only.
        assert!(!policy.due_with_elapsed(1, 0.0, None));
        let unbounded = MaintenancePolicy::new(100.0, 9).min_interval(10);
        assert!(!unbounded.due_with_elapsed(1, 0.0, Some(secs(3600))));
        // The merge-counted triggers still work alongside the wall bound.
        assert!(policy.due_with_elapsed(10, 200.0, Some(secs(1))));
    }
}
