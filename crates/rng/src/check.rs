//! A minimal `forall`-style property-test runner.
//!
//! Design goals, in order: determinism, debuggability, zero dependencies.
//! Unlike proptest there is no strategy algebra — a test supplies a plain
//! generator closure over [`Pcg32`] — and shrinking is "lite": the caller
//! optionally provides a function producing smaller candidate inputs, and
//! the runner greedily descends while the property keeps failing, bounded
//! by an iteration cap.
//!
//! Every case runs on a seed derived from a fixed base seed, so a failure
//! report (`case`, `seed`) reproduces bit-for-bit by rerunning the test.
//!
//! ```
//! use pcf_rng::{forall, no_shrink, Config, Pcg32};
//!
//! forall(
//!     "abs is nonnegative",
//!     &Config::default(),
//!     |rng: &mut Pcg32| rng.range_f64(-100.0, 100.0),
//!     no_shrink,
//!     |&x| {
//!         if x.abs() >= 0.0 {
//!             Ok(())
//!         } else {
//!             Err(format!("abs({x}) < 0"))
//!         }
//!     },
//! );
//! ```

use crate::{Pcg32, SplitMix64};

/// Runner configuration: how many cases, from which seed corpus, and how
/// hard to shrink.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases.
    pub cases: usize,
    /// Base seed; per-case seeds are derived from it with [`SplitMix64`].
    pub seed: u64,
    /// Cap on shrink steps once a failure is found.
    pub max_shrink_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: 0x9cf_2020, // the paper's venue, for a memorable corpus
            max_shrink_steps: 200,
        }
    }
}

impl Config {
    /// A config running `cases` cases with the default corpus.
    pub fn with_cases(cases: usize) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// The trivial shrinker: no candidates.
pub fn no_shrink<T>(_: &T) -> Vec<T> {
    Vec::new()
}

/// Checks `prop` on `cfg.cases` inputs drawn from `gen`.
///
/// On the first failing input, applies shrinking-lite: repeatedly asks
/// `shrink` for candidate reductions and descends into the first candidate
/// that still fails, up to `cfg.max_shrink_steps` candidate evaluations.
/// Then panics with the (shrunk) input, its provenance (case index and
/// seed), and the property's error message.
///
/// # Panics
/// Panics iff the property fails on some generated input.
#[expect(clippy::panic, reason = "a failing property panics by design")]
pub fn forall<T: std::fmt::Debug>(
    name: &str,
    cfg: &Config,
    mut gen: impl FnMut(&mut Pcg32) -> T,
    shrink: impl Fn(&T) -> Vec<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let mut seeds = SplitMix64::new(cfg.seed);
    for case in 0..cfg.cases {
        let case_seed = seeds.next_u64();
        let mut rng = Pcg32::seed_from_u64(case_seed);
        let input = gen(&mut rng);
        let Err(first_err) = prop(&input) else {
            continue;
        };

        // Shrinking-lite: greedy descent through caller-provided candidates.
        let mut best = input;
        let mut best_err = first_err;
        let mut budget = cfg.max_shrink_steps;
        'outer: while budget > 0 {
            for cand in shrink(&best) {
                budget -= 1;
                if let Err(e) = prop(&cand) {
                    best = cand;
                    best_err = e;
                    continue 'outer; // restart from the smaller input
                }
                if budget == 0 {
                    break;
                }
            }
            break; // no candidate still fails: local minimum
        }

        panic!(
            "property {name:?} failed (case {case}/{total}, seed {case_seed:#x}):\n  \
             input: {best:?}\n  error: {best_err}",
            total = cfg.cases,
        );
    }
}

/// One to four byte-level mutations of `doc`, for fuzzing a parser with
/// [`forall`]: flip a bit, insert a byte drawn from `alphabet` (which must
/// not be empty), delete, truncate, or duplicate a span.
pub fn mutate_bytes(doc: &[u8], alphabet: &[u8], rng: &mut Pcg32) -> Vec<u8> {
    let mut doc = doc.to_vec();
    for _ in 0..rng.range_usize_inclusive(1, 4) {
        let at = rng.range_usize_inclusive(0, doc.len());
        match rng.below(5) {
            0 if at < doc.len() => doc[at] ^= 1 << rng.below(8),
            1 => doc.insert(at, *rng.pick(alphabet)),
            2 if at < doc.len() => {
                doc.remove(at);
            }
            3 => doc.truncate(at),
            _ => {
                let end = rng.range_usize_inclusive(at, doc.len());
                let span = doc[at..end].to_vec();
                doc.splice(at..at, span);
            }
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases_deterministically() {
        let cfg = Config::with_cases(10);
        let mut ran = 0usize;
        let mut first = Vec::new();
        forall(
            "collect",
            &cfg,
            |rng| {
                let v = rng.next_u32();
                first.push(v);
                ran += 1;
                v
            },
            no_shrink,
            |_| Ok(()),
        );
        assert_eq!(ran, 10);
        let mut second = Vec::new();
        forall(
            "collect again",
            &cfg,
            |rng| {
                let v = rng.next_u32();
                second.push(v);
                v
            },
            no_shrink,
            |_| Ok(()),
        );
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "property \"always fails\" failed")]
    fn failing_property_panics_with_context() {
        forall(
            "always fails",
            &Config::with_cases(3),
            |rng| rng.range_usize(0, 100),
            no_shrink,
            |&x| Err(format!("nope: {x}")),
        );
    }

    #[test]
    fn shrinking_descends_to_a_minimal_failure() {
        // Property: x < 10. Generator draws large values; the integer
        // halving shrinker must land exactly on 10.
        let result = std::panic::catch_unwind(|| {
            forall(
                "x < 10",
                &Config::with_cases(5),
                |rng| rng.range_usize(50, 100),
                |&x| if x > 0 { vec![x / 2, x - 1] } else { vec![] },
                |&x| {
                    if x < 10 {
                        Ok(())
                    } else {
                        Err(format!("{x} >= 10"))
                    }
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("input: 10"), "shrunk message: {msg}");
    }
}
