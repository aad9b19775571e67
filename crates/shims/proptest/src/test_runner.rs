//! Runner configuration, and the runner the `proptest!` macro expands to.

use crate::strategy::Strategy;
use crate::TestRng;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl Config {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }
}

impl Default for Config {
    fn default() -> Self {
        // Upstream defaults to 256; the shim keeps the functional GPU
        // simulator suites fast while still exploring a meaningful space.
        Config { cases: 64 }
    }
}

/// Shrink attempts a failing property may spend before it reports.
const MAX_SHRINK_RUNS: usize = 4096;

/// Run `body` once per case on values of `strategy` drawn from the stream
/// the test name seeds. The first value that fails is shrunk — greedily,
/// to the first smaller value that still fails, until none does — and the
/// property panics with the minimal value, its failure and the seed of
/// its case: `strategy.sample(&mut TestRng::from_seed(seed))` draws the
/// original value again.
pub fn run<S>(name: &str, config: Config, strategy: S, mut body: impl FnMut(S::Value))
where
    S: Strategy,
    S::Value: Clone + Debug,
{
    let mut rng = TestRng::deterministic(name);
    for case in 0..config.cases {
        let seed = rng.seed();
        let value = strategy.sample(&mut rng);
        let Some(mut failure) = fails(&mut body, value.clone()) else {
            continue;
        };
        let (mut minimal, mut steps, mut runs) = (value, 0, 0);
        'shrink: while runs < MAX_SHRINK_RUNS {
            for candidate in strategy.shrink(&minimal) {
                runs += 1;
                if let Some(f) = fails(&mut body, candidate.clone()) {
                    (minimal, failure, steps) = (candidate, f, steps + 1);
                    continue 'shrink;
                }
                if runs >= MAX_SHRINK_RUNS {
                    break;
                }
            }
            break;
        }
        panic!(
            "property {name} failed at case {case} (seed {seed:#018x}); \
             minimal failing input after {steps} shrink steps: {minimal:?}\n{failure}"
        );
    }
}

/// The panic message of `body` on `value`, if it panics.
fn fails<V>(body: &mut impl FnMut(V), value: V) -> Option<String> {
    let payload = panic::catch_unwind(AssertUnwindSafe(|| body(value))).err()?;
    Some(match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "(no message)".to_string(), |s| s.to_string()),
    })
}
