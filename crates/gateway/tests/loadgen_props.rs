//! Load-generator determinism properties: a schedule is a pure function
//! of its config — equal configs (seed included) produce byte-identical
//! schedules under every profile; different seeds diverge. Without this,
//! the load the gateway tests replay would not be reproducible across
//! hosts. The profiles' names and rates are pinned here too.

mod loadgen;

use loadgen::{LoadConfig, LoadProfile};
use proptest::prelude::*;
use sw_serve::SearchRequest;

fn profile_of(tag: u8) -> LoadProfile {
    match tag % 3 {
        0 => LoadProfile::Steady,
        1 => LoadProfile::Bursty,
        _ => LoadProfile::Overload,
    }
}

proptest! {
    #[test]
    fn schedule_is_a_pure_function_of_config(
        seed in any::<u64>(),
        n in 1usize..80,
        tag in 0u8..3,
    ) {
        let cfg = LoadConfig {
            profile: profile_of(tag),
            tenants: vec!["a".into(), "b".into(), "c".into()],
            ..LoadConfig::small(n, seed)
        };
        let s1 = cfg.schedule();
        let s2 = cfg.schedule();
        prop_assert_eq!(s1.len(), n);
        prop_assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(&s2) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.tenant, &b.tenant);
            prop_assert_eq!(&a.query, &b.query);
            prop_assert_eq!(a.arrival_seconds, b.arrival_seconds);
            prop_assert_eq!(a.deadline_seconds, b.deadline_seconds);
        }
        // Structural invariants: ids dense, arrivals sorted and strictly
        // positive gaps impossible to reorder, lengths and slacks in range.
        let (lo, hi) = cfg.query_len;
        let (slo, shi) = cfg.deadline_slack_seconds;
        for (i, r) in s1.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64);
            prop_assert!((lo..=hi).contains(&r.query.len()));
            let slack = r.deadline_seconds - r.arrival_seconds;
            prop_assert!(slack >= slo && slack <= shi.max(slo));
        }
        prop_assert!(s1.windows(2).all(|w| w[0].arrival_seconds <= w[1].arrival_seconds));
        prop_assert!(s1.iter().all(|r| r.arrival_seconds >= 0.0));
    }

    #[test]
    fn different_seeds_diverge(seed in any::<u64>(), tag in 0u8..3) {
        let mk = |s: u64| LoadConfig {
            profile: profile_of(tag),
            ..LoadConfig::small(24, s)
        }
        .schedule();
        let a = mk(seed);
        let b = mk(seed ^ 0x9E37_79B9_7F4A_7C15);
        prop_assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.query != y.query || x.arrival_seconds != y.arrival_seconds)
        );
    }
}

#[test]
fn profiles_have_stable_names() {
    assert_eq!(LoadProfile::Steady.as_str(), "steady");
    assert_eq!(LoadProfile::Bursty.as_str(), "bursty");
    assert_eq!(LoadProfile::Overload.as_str(), "overload");
}

#[test]
fn overload_schedule_arrives_faster() {
    let steady = LoadConfig::small(200, 9).schedule();
    let overload = LoadConfig {
        profile: LoadProfile::Overload,
        ..LoadConfig::small(200, 9)
    }
    .schedule();
    let last = |s: &[SearchRequest]| s.last().map_or(0.0, |r| r.arrival_seconds);
    assert!(last(&overload) < last(&steady) / 2.0);
}

#[test]
fn bursty_alternates_rates() {
    let cfg = LoadConfig {
        profile: LoadProfile::Bursty,
        ..LoadConfig::small(2_000, 11)
    };
    // Count arrivals in hot vs cold phases; hot must dominate.
    let sched = cfg.schedule();
    let period = cfg.burst_period_seconds;
    let (mut hot, mut cold) = (0usize, 0usize);
    for r in &sched {
        if ((r.arrival_seconds / period) as u64).is_multiple_of(2) {
            hot += 1;
        } else {
            cold += 1;
        }
    }
    assert!(hot > cold * 2, "hot {hot} cold {cold}");
}
