//! Shared fixtures for the integration-test suite: the seeded fixture
//! signals every property sweep, golden test and merge/streaming bound runs
//! over, plus the estimator fleet configured the same way everywhere.
//!
//! Integration-test binaries pull this in with `mod common;`, so every test
//! file exercises the *same* signal family instead of re-rolling its own —
//! which is what makes the committed golden outputs and error-bound constants
//! meaningful across files.

// Each test binary compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use std::sync::{Arc, Mutex, MutexGuard};

use approx_hist::{Estimator, EstimatorBuilder, HistServer, ServerConfig, Signal, StoreMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Binds an ephemeral loopback server over `map` with the default config.
pub fn spawn_server(map: Arc<StoreMap>) -> HistServer {
    HistServer::bind("127.0.0.1:0", map, ServerConfig::default()).expect("ephemeral bind")
}

/// Registers each scenario `fn $name()` as the test case `$name::evented`:
/// the scenario run once against the server's evented readiness loop. The
/// per-scenario module gives every net suite the same test paths, with room
/// for a sibling case where a suite adds one (`net_evented` pairs its
/// pipelining scenarios with `::blocking` lock-step controls).
#[macro_export]
macro_rules! evented_cases {
    ($($name:ident),+ $(,)?) => {
        $(
            mod $name {
                #[test]
                fn evented() {
                    super::$name();
                }
            }
        )+
    };
}

/// The shared piece budget of the fixture suite.
pub const FIXTURE_K: usize = 5;

/// Serializes the saturating stress harnesses inside one test binary: each
/// spawns a dozen busy threads, and running two at once on a small machine
/// starves the writers of their deadline-bound progress quotas. (Each test
/// binary compiles its own copy of this gate; binaries themselves already
/// run sequentially under `cargo test`.)
static STRESS_GATE: Mutex<()> = Mutex::new(());

/// Claims the stress gate, surviving a poisoning panic in an earlier holder.
pub fn stress_gate() -> MutexGuard<'static, ()> {
    STRESS_GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Deterministic noise values in `[-amplitude, amplitude]`, seeded.
pub fn seeded_noise(seed: u64, n: usize, amplitude: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-amplitude..=amplitude)).collect()
}

/// A plateaued step signal: `plateaus` levels over `n` values with
/// deterministic seeded jitter of the given amplitude.
pub fn noisy_steps(seed: u64, n: usize, plateaus: usize, amplitude: f64) -> Signal {
    let noise = seeded_noise(seed, n, amplitude);
    let width = n.div_ceil(plateaus).max(1);
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let level = match (i / width) % 4 {
                0 => 2.0,
                1 => 7.0,
                2 => 1.0,
                _ => 5.0,
            };
            level + noise[i]
        })
        .collect();
    Signal::from_dense(values).unwrap()
}

/// The named fixture suite: small, fully deterministic signals covering the
/// shapes the algorithms care about (steps, ramps, spikes, flats, noise).
pub fn fixture_signals() -> Vec<(&'static str, Signal)> {
    let ramp: Vec<f64> = (0..200).map(|i| 0.5 + i as f64 * 0.1).collect();
    let mut spike = vec![0.25; 128];
    spike[40] = 100.0;
    vec![
        ("steps", noisy_steps(2015, 256, 4, 0.0)),
        ("noisy-steps", noisy_steps(7, 400, 5, 0.05)),
        ("ramp", Signal::from_dense(ramp).unwrap()),
        ("spike", Signal::from_dense(spike).unwrap()),
        ("flat", Signal::from_dense(vec![3.0; 100]).unwrap()),
    ]
}

/// The builder the whole suite shares: fixture `k`, fixed seed, explicit
/// sample size so the sample learner stays fast and deterministic.
pub fn fixture_builder() -> EstimatorBuilder {
    EstimatorBuilder::new(FIXTURE_K).samples(60_000).seed(2015)
}

/// One instance of every estimator in the workspace, fixture-configured.
pub fn fixture_fleet() -> Vec<Box<dyn Estimator>> {
    approx_hist::all_estimators(fixture_builder())
}

/// Splits a signal's dense view into `parts` contiguous chunks (the last one
/// absorbs the remainder), for chunked-fitting and merge tests.
pub fn split_chunks(signal: &Signal, parts: usize) -> Vec<Signal> {
    let values = signal.dense_values();
    let chunk_len = values.len().div_ceil(parts).max(1);
    values.chunks(chunk_len).map(|c| Signal::from_slice(c).unwrap()).collect()
}
