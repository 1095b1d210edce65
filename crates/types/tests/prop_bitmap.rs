//! Property-based tests: the bitmap behaves like a reference
//! `Vec<bool>` — one flag per bit — under arbitrary operation
//! sequences.

use fg_types::{AtomicBitmap, VertexId};
use proptest::prelude::*;

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
        let got: Vec<usize> = bm.iter_ones().map(|v| v.index()).collect();
        let want: Vec<usize> = (0..len).filter(|&i| model[i]).collect();
        prop_assert_eq!(got, want);
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
        let got: Vec<bool> = (0..len).map(|i| atomic.get(VertexId::from_index(i))).collect();
        prop_assert_eq!(got, plain);
    }

    #[test]
    fn iter_range_is_filtered_iter(
        len in 1usize..300,
        sets in prop::collection::vec(0usize..300, 0..100),
        lo in 0usize..300,
        width in 0usize..300,
    ) {
        let b = AtomicBitmap::new(len);
        for i in sets {
            if i < len {
                b.set(VertexId::from_index(i));
            }
        }
        let hi = lo.saturating_add(width);
        let got: Vec<_> = b.iter_ones_in_range(lo..hi).collect();
        let want: Vec<_> = b
            .iter_ones()
            .filter(|v| v.index() >= lo && v.index() < hi)
            .collect();
        prop_assert_eq!(got, want);
    }
}
