//! The shim's shrinking: a planted failure is reported at its minimum,
//! with a seed that draws the original failing input again.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::{run, Config};
use proptest::TestRng;
use std::panic::{self, AssertUnwindSafe};

/// The panic message of a property run.
fn report<S>(strategy: S, body: impl FnMut(S::Value)) -> String
where
    S: Strategy,
    S::Value: Clone + std::fmt::Debug,
{
    let payload = panic::catch_unwind(AssertUnwindSafe(|| {
        run("planted", Config::with_cases(64), strategy, body)
    }))
    .expect_err("the planted property must fail");
    *payload.downcast::<String>().expect("a formatted report")
}

/// The `{:?}` after "input after N shrink steps: ".
fn minimal(report: &str) -> &str {
    let at = report.find("shrink steps: ").expect("names the minimum") + "shrink steps: ".len();
    report[at..].lines().next().unwrap()
}

/// The seed the report names.
fn seed(report: &str) -> u64 {
    let at = report.find("(seed 0x").expect("names the seed") + "(seed 0x".len();
    u64::from_str_radix(&report[at..at + 16], 16).unwrap()
}

#[test]
fn a_planted_failure_shrinks_to_one_offending_element() {
    let strategy = (vec(0u32..1000, 0..40),);
    let fails = |v: &Vec<u32>| v.iter().any(|&x| x >= 900);
    let report = report(&strategy, |(v,)| {
        assert!(!fails(&v), "{v:?} holds a large element")
    });
    // Halving and dropping leave exactly the element that fails.
    let shrunk: Vec<u32> = minimal(&report)
        .trim_matches(|c| "()[],".contains(c))
        .split(", ")
        .map(|x| x.parse().unwrap())
        .collect();
    assert_eq!(shrunk.len(), 1, "{report}");
    assert!(shrunk[0] >= 900, "{report}");
    assert!(report.contains("holds a large element"), "{report}");
    // The seed draws the original input, which fails too.
    let (original,) = strategy.sample(&mut TestRng::from_seed(seed(&report)));
    assert!(fails(&original) && original.len() > 1, "{report}");
}

#[test]
fn a_tuple_shrinks_its_vec_to_the_shortest_failing_length() {
    let strategy = (any::<u64>(), vec(any::<u8>(), 0..64));
    let report = report(strategy, |(_, v)| assert!(v.len() < 3));
    let shrunk = minimal(&report);
    assert_eq!(
        shrunk.matches(", ").count(),
        3,
        "a seed and three bytes: {report}"
    );
}

#[test]
fn size_ranges_bound_the_shrink() {
    // Every vector fails; none may shrink below five elements.
    let report = report((vec(0u8..4, 5..20),), |_| panic!("always"));
    assert_eq!(minimal(&report).matches(',').count(), 5, "{report}");
}
