//! The [`ByteSimd`] contract, exhaustively, for every implementor this host
//! can run.
//!
//! A lane holds a score level `0..=255` in an encoding its implementor
//! owns: the portable and SSE2 vectors keep Farrar's plain unsigned byte,
//! AVX2 stores `level ^ 0x80` and works in signed saturating arithmetic.
//! The byte kernel is written against levels only, so one generic check —
//! every level against every level, score and amount — is what makes the
//! encodings interchangeable. It exists because the end-to-end suites did
//! not notice a decay of 255 subtracted as `127` then `128`: `128 as i8` is
//! negative and `vpsubsb` adds it. The grouped pass's table lookup, which
//! reads raw index bytes, is held to the scalar lookup over every index.

use sw_simd::backend::ByteSimd;
use sw_simd::portable::U8x16;

/// The levels of `v`'s lanes, read the way the hand-off reads them.
fn levels<V: ByteSimd>(v: V) -> Vec<u8> {
    let mut raw = vec![0u8; V::LANES];
    v.store(&mut raw);
    raw.into_iter().map(V::decode).collect()
}

/// A vector holding `levels[k]` in lane `k`, built from the raw byte
/// `V::level` stores for each level.
fn from_levels<V: ByteSimd>(lane_levels: &[u8]) -> V {
    let mut raw = vec![0u8; V::LANES];
    let mut one = vec![0u8; V::LANES];
    for (slot, &l) in raw.iter_mut().zip(lane_levels) {
        V::level(l).store(&mut one);
        *slot = one[0];
    }
    V::load(&raw)
}

fn uniform(v: Vec<u8>, expected: u8, what: &str) {
    assert!(v.iter().all(|&x| x == expected), "{what}: {v:?}");
}

fn contract<V: ByteSimd>(name: &str) {
    let lanes = V::LANES;
    // Lanes either side of every 64- and 128-bit seam a vector can have.
    let spots = [0, 7, 8, lanes / 2 - 1, lanes / 2, lanes - 1];
    uniform(levels(V::zero()), 0, "zero()");

    for a in 0..=255u8 {
        let x = V::level(a);
        uniform(levels(x), a, &format!("{name}: level({a}) read back"));

        // Every b at once, LANES of them a vector.
        for base in (0..256).step_by(lanes) {
            let bs: Vec<u8> = (base..base + lanes).map(|b| b as u8).collect();
            let y = from_levels::<V>(&bs);
            assert_eq!(levels(y), bs, "{name}: per-lane levels read back");
            let expected: Vec<u8> = bs.iter().map(|&b| a.max(b)).collect();
            assert_eq!(levels(x.max(y)), expected, "{name}: max({a}, {base}..)");
            assert_eq!(levels(y.max(x)), expected, "{name}: max({base}.., {a})");
        }

        for b in 0..=255u8 {
            let y = V::level(b);
            assert_eq!(x.any_gt(y), a > b, "{name}: {a} any_gt {b}");
            // One lane at `a` in a vector of `b`s: a single lane decides
            // both answers, wherever it sits.
            for &k in &spots {
                let mut mixed = vec![b; lanes];
                mixed[k] = a;
                let v = from_levels::<V>(&mixed);
                assert_eq!(v.any_gt(y), a > b, "{name}: lane {k} = {a} any_gt {b}");
                assert_eq!(
                    v.horizontal_max(),
                    a.max(b),
                    "{name}: horizontal_max, lane {k} = {a} among {b}"
                );
            }
        }

        // Amounts: one `sat_sub` up to the implementor's limit, any amount
        // through `sub_amount`.
        for n in 0..=255u8 {
            let expected = a.saturating_sub(n);
            if n <= V::SUB_LIMIT {
                let got = levels(x.sat_sub(V::splat(n)));
                uniform(got, expected, &format!("{name}: {a} sat_sub {n}"));
            }
            let got = levels(x.sub_amount(n));
            uniform(got, expected, &format!("{name}: {a} sub_amount {n}"));
        }

        // Scores: every encodable one under three biases. Inside the
        // headroom the kernel's hand-off keeps (`a + s + bias ≤ 255`) the
        // sum is exact and floored at level 0; past it the biased bytes
        // stop at `255 − bias`, so the contract there is only "saturates,
        // never wraps or overstates".
        for bias in [0u8, 4, 128] {
            let v_bias = V::splat(bias);
            for s in -(bias as i32)..=127 {
                let profile = V::load(&vec![V::encode_score(s, bias); lanes]);
                let got = levels(x.add_score(profile, v_bias));
                let truth = (a as i32 + s).clamp(0, 255) as u8;
                if a as i32 + s + bias as i32 <= 255 {
                    uniform(
                        got,
                        truth,
                        &format!("{name}: {a} add_score {s} bias {bias}"),
                    );
                } else {
                    assert!(
                        got.iter().all(|&g| g <= truth && g >= 255 - bias),
                        "{name}: {a} add_score {s} bias {bias} past the headroom: {got:?}"
                    );
                }
            }
        }
    }

    // Shifts move levels towards higher lanes and fill with level 0, across
    // the 128-bit seam of a 256-bit vector, for the scan's 1, 2, 4, 8, 16
    // and every distance between. The ramp's levels are non-zero, some with
    // the top bit set and some without.
    let ramp: Vec<u8> = (0..lanes).map(|k| (k as u8 + 1) * 7).collect();
    let v = from_levels::<V>(&ramp);
    for n in 0..=lanes + 1 {
        let mut expected = vec![0u8; n.min(lanes)];
        expected.extend_from_slice(&ramp[..lanes - n.min(lanes)]);
        assert_eq!(
            levels(v.shift_lanes(n)),
            expected,
            "{name}: shift_lanes({n})"
        );
    }
    assert_eq!(
        levels(v.shift()),
        levels(v.shift_lanes(1)),
        "{name}: shift()"
    );

    // Lookups read raw bytes: every index 0..32 in every lane, from a
    // table whose 32 bytes differ and span both signs and every nibble, so
    // neither table half and no encoding can stand in for another.
    let table: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(200));
    for first in 0..32 {
        let idx: Vec<u8> = (0..lanes).map(|k| ((first + k) % 32) as u8).collect();
        let mut got = vec![0u8; lanes];
        V::load(&idx).lookup(&table).store(&mut got);
        let want: Vec<u8> = idx.iter().map(|&i| table[i as usize]).collect();
        assert_eq!(got, want, "{name}: lookup from index {first}");
    }
}

#[test]
fn portable_bytes_keep_the_contract() {
    contract::<U8x16>("portable");
}

#[cfg(all(target_arch = "x86_64", feature = "native-simd"))]
mod x86 {
    use super::contract;
    use sw_simd::backend::Backend;
    use sw_simd::x86::{Avx2Backend, U8x16Sse, U8x32Avx};

    #[test]
    fn sse2_bytes_keep_the_contract() {
        contract::<U8x16Sse>("sse2");
    }

    #[test]
    fn avx2_bytes_keep_the_contract() {
        if Avx2Backend::available() {
            contract::<U8x32Avx>("avx2");
        }
    }
}
