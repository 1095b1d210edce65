//! Property-based tests: the bitmap behaves like a reference
//! `Vec<bool>` — one flag per bit — under arbitrary operation
//! sequences, read back through its one reader, the range walk; and
//! that walk's cost follows the range, not the map.

use fg_types::{AtomicBitmap, VertexId};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// The model's set bits in `lo..hi`, clamped to the model.
fn model_ones(model: &[bool], lo: usize, hi: usize) -> Vec<usize> {
    (lo..hi.min(model.len())).filter(|&i| model[i]).collect()
}

fn walk(b: &AtomicBitmap, lo: usize, hi: usize) -> Vec<usize> {
    b.iter_ones_in_range(lo..hi).map(|v| v.index()).collect()
}

#[derive(Debug, Clone)]
enum Op {
    Set(usize),
    Clear(usize),
    ClearAll,
}

fn op_strategy(len: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..len).prop_map(Op::Set),
        (0..len).prop_map(Op::Clear),
        Just(Op::ClearAll),
    ]
}

proptest! {
    // Bounded so tier-1 stays fast; raise via PROPTEST_CASES for
    // deeper soak runs.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_matches_reference_set(
        len in 1usize..500,
        ops in prop::collection::vec(op_strategy(500), 0..200),
    ) {
        let bm = AtomicBitmap::new(len);
        let mut model = vec![false; len];
        for op in ops {
            match op {
                Op::Set(i) if i < len => {
                    let was = bm.set(VertexId::from_index(i));
                    prop_assert_eq!(was, std::mem::replace(&mut model[i], true));
                }
                Op::Clear(i) if i < len => {
                    let was = bm.clear(VertexId::from_index(i));
                    prop_assert_eq!(was, std::mem::replace(&mut model[i], false));
                }
                Op::ClearAll => {
                    bm.clear_all();
                    model.fill(false);
                }
                _ => {}
            }
        }
        prop_assert_eq!(bm.count_ones(), model.iter().filter(|&&b| b).count());
        prop_assert_eq!(walk(&bm, 0, len), model_ones(&model, 0, len));
    }

    #[test]
    fn atomic_bitmap_matches_plain_bitmap(
        len in 1usize..300,
        sets in prop::collection::vec(0usize..300, 0..150),
    ) {
        let atomic = AtomicBitmap::new(len);
        let mut plain = vec![false; len];
        for i in sets {
            if i < len {
                atomic.set(VertexId::from_index(i));
                plain[i] = true;
            }
        }
        // Every one-bit range reads back exactly that bit.
        let got: Vec<bool> = (0..len).map(|i| !walk(&atomic, i, i + 1).is_empty()).collect();
        prop_assert_eq!(got, plain);
    }

    #[test]
    fn iter_range_is_filtered_iter(
        len in 1usize..300,
        sets in prop::collection::vec(0usize..300, 0..100),
        ranges in prop::collection::vec((0usize..400, 0usize..400), 1..16),
    ) {
        let b = AtomicBitmap::new(len);
        let mut model = vec![false; len];
        for i in sets {
            if i < len {
                b.set(VertexId::from_index(i));
                model[i] = true;
            }
        }
        // Bounds drawn past `len` and in either order: ranges that are
        // empty, reversed, off the word grid, or run past the map.
        for (lo, hi) in ranges {
            prop_assert_eq!(walk(&b, lo, hi), model_ones(&model, lo, hi));
        }
    }
}

/// The shortest of `reps` timings of `f`: a preempted rep cannot fail
/// the comparison below.
fn fastest(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .unwrap()
}

/// Walking 64 short ranges at the start of a 2^24-bit map with no bit
/// set past them must cost far less than one walk of the whole map:
/// the walk stops at its range's last word instead of loading every
/// word up to the end of the map.
#[test]
fn a_short_range_walk_costs_its_range_not_the_map() {
    const BITS: usize = 1 << 24;
    let b = AtomicBitmap::new(BITS);
    b.set(VertexId::from_index(0));
    let short = fastest(5, || {
        for r in 0..64 {
            std::hint::black_box(b.iter_ones_in_range(r * 64..r * 64 + 40).count());
        }
    });
    let whole = fastest(5, || {
        std::hint::black_box(b.iter_ones_in_range(0..BITS).count());
    });
    assert!(
        short * 100 < whole,
        "64 short walks took {short:?}, one walk of the whole map {whole:?}"
    );
}
