//! Engine-level I/O request merging (§3.6).
//!
//! Within an issue batch the engine sorts edge-list requests by their
//! byte offset on SSDs and coalesces those that touch the *same or
//! adjacent pages* into a single I/O request. Because the default
//! scheduler walks vertices in id order and edge lists are laid out in
//! id order, batches are nearly sorted already and merge extremely
//! well — the paper measures a 40 % BFS / >100 % WCC speedup from
//! doing this in the engine rather than in the filesystem or kernel
//! (Figure 12), since the engine merges with a global view and no
//! extra locking.
//!
//! Merging is oblivious to what a byte range *is*: full edge lists,
//! partial-range slices of one hub's list, and attribute runs all
//! flow through as [`RangeReq`]s. Adjacent ranges of one long list
//! therefore coalesce back into large device reads whenever they land
//! in the same issue batch — asking for a list in ranges bounds the
//! *callback* granularity without shrinking the *I/O* granularity.
//!
//! The pipelined scheduler deliberately batches the way a lock-step
//! loop would: requests buffer until a full batch (or claim
//! exhaustion) flushes them, and only the *overlap* of batches with
//! computation differs. Flushing eagerly on every scheduler round
//! would fragment batches and re-read pages that a full batch's
//! page-disjoint covers fetch once.
//!
//! One cover grows to at most [`MAX_MERGE_BYTES`], a constant, so
//! that it stripes across the array rather than landing on one drive;
//! only a request that shares a page with the cover may carry it past.
//!
//! The rule is stated once, in `joins`, and walked once, by
//! `covers`, which cuts a *sorted* batch into covers that are index
//! ranges of it. It has two callers: the engine (`SemIo::flush` sorts
//! its issue batch in place and keeps each cover as a range of that
//! batch — nothing is copied per cover), and [`merge_requests`], the
//! owning form the ledger's `merge.ns_per_req` probe and the property
//! tests call.

use std::ops::Range;

/// One logical edge-list (or attribute-run) request before merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeReq {
    /// Absolute byte offset of the run.
    pub offset: u64,
    /// Length in bytes (never zero; zero-degree vertices complete
    /// without I/O).
    pub bytes: u64,
    /// Caller-side metadata index carried through the merge.
    pub meta: u32,
}

/// A merged I/O request covering one or more [`RangeReq`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedReq {
    /// Absolute byte offset of the merged read.
    pub offset: u64,
    /// Length in bytes of the merged read.
    pub bytes: u64,
    /// The constituent requests, sorted by offset.
    pub parts: Vec<RangeReq>,
}

/// The engine's cap on one merged read, in bytes (see
/// [`merge_requests`]). Without a cap a well-sorted issue batch
/// coalesces into a single giant device read that lands on one drive
/// and serializes the array. A few MB is large enough that merging
/// still amortizes request overhead, and small enough that one cover
/// cannot monopolize a drive (a couple of stripes on the paper's array
/// geometry).
pub const MAX_MERGE_BYTES: u64 = 4 << 20;

/// One cover of a sorted batch: the merged read and the index range of
/// the requests it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cover {
    pub(crate) offset: u64,
    pub(crate) bytes: u64,
    pub(crate) parts: Range<u32>,
}

/// The order [`covers`] expects. The tie-break on `meta` (unique within
/// a batch) makes the unstable sort deterministic, and an unstable sort
/// needs no scratch buffer.
pub(crate) fn sort_requests(reqs: &mut [RangeReq]) {
    reqs.sort_unstable_by_key(|r| (r.offset, r.bytes, r.meta));
}

/// The merge rule: the length the cover `[offset, offset + bytes)`
/// grows to by taking in `r` — the next request in sorted order — or
/// `None` when `r` starts a cover of its own. `r` joins when it starts
/// on the cover's last page or the one after it (same page, adjacent
/// page, or overlapping bytes) and either the grown cover stays within
/// `cap` bytes or `r` *shares a page* with the cover (overlap,
/// containment, or a mid-page boundary) — splitting there would read
/// the shared page twice from the device within one batch, so the cap
/// yields.
fn joins(offset: u64, bytes: u64, r: &RangeReq, page_bytes: u64, cap: u64) -> Option<u64> {
    let last_page = (offset + bytes - 1) / page_bytes;
    let r_page = r.offset / page_bytes;
    let grown = (offset + bytes).max(r.offset + r.bytes) - offset;
    (r_page <= last_page + 1 && (grown <= cap || r_page <= last_page)).then_some(grown)
}

/// Cuts `sorted` (see [`sort_requests`]) into its covers, in ascending
/// offset order; `merge` and `cap` as for
/// [`merge_requests`]. Allocates nothing.
pub(crate) fn covers(
    sorted: &[RangeReq],
    page_bytes: u64,
    merge: bool,
    cap: u64,
) -> impl Iterator<Item = Cover> + '_ {
    let mut next = 0;
    std::iter::from_fn(move || {
        let first = sorted.get(next)?;
        debug_assert!(first.bytes > 0, "zero-byte requests never reach merging");
        let lo = next as u32;
        let mut bytes = first.bytes;
        next += 1;
        // With `merge` off, every request is a cover of its own.
        while let Some(r) = sorted.get(next).filter(|_| merge) {
            debug_assert!(r.bytes > 0, "zero-byte requests never reach merging");
            let Some(grown) = joins(first.offset, bytes, r, page_bytes, cap) else {
                break;
            };
            bytes = grown;
            next += 1;
        }
        Some(Cover {
            offset: first.offset,
            bytes,
            parts: lo..next as u32,
        })
    })
}

/// Sorts `reqs` by offset and merges runs that share a page or sit on
/// adjacent pages (`page_bytes` granularity). With `merge` false the
/// requests are still sorted — preserving the sequential issue order
/// the scheduler worked for — but each becomes its own [`MergedReq`],
/// which is the "merge in SAFS" configuration where coalescing is
/// left to the I/O threads.
///
/// `cap` bounds how large one merged cover may grow (the engine passes
/// [`MAX_MERGE_BYTES`]):
/// without a cap, a well-sorted batch (the common case under the
/// default id-order scheduler) collapses into one giant device read,
/// serializing onto a single drive and defeating parallelism across
/// the SSD array. A request that would push the cover past the cap
/// starts a new cover instead — but only when it begins on a page the
/// cover does not already touch. A request that *shares a page* with
/// the cover (overlapping bytes, fully contained, or simply starting
/// mid-page where the cover ends) is always absorbed: splitting it
/// off would read the shared page twice from the device within one
/// batch. The cap is therefore exact at page-clean split points and
/// best-effort across page-straddling request chains; the covers of
/// one batch never overlap, not even at page granularity. The
/// overshoot a straddling chain can force is bounded: the cover
/// splits at the first request that starts page-aligned (for
/// contiguous 4-byte edge lists one boundary in ~`page/edge_width`
/// is page-clean in expectation), and a chain can never outgrow its
/// issue batch, whose flush cadence bounds the span in the first
/// place.
pub fn merge_requests(
    mut reqs: Vec<RangeReq>,
    page_bytes: u64,
    merge: bool,
    cap: u64,
) -> Vec<MergedReq> {
    sort_requests(&mut reqs);
    covers(&reqs, page_bytes, merge, cap)
        .map(|c| MergedReq {
            offset: c.offset,
            bytes: c.bytes,
            parts: reqs[c.parts.start as usize..c.parts.end as usize].to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cap no cover reaches.
    const UNCAPPED: u64 = u64::MAX;

    fn req(offset: u64, bytes: u64, meta: u32) -> RangeReq {
        RangeReq {
            offset,
            bytes,
            meta,
        }
    }

    #[test]
    fn same_page_requests_merge() {
        // The paper's Figure 6: v1 and v2 on page 1 merge; v6 and v8
        // on adjacent pages merge; the two groups stay separate.
        let reqs = vec![
            req(100, 50, 1),   // page 0
            req(200, 40, 2),   // page 0
            req(9000, 100, 6), // page 2
            req(13000, 80, 8), // page 3 (adjacent to page 2)
        ];
        let merged = merge_requests(reqs, 4096, true, UNCAPPED);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].parts.len(), 2);
        assert_eq!(merged[1].parts.len(), 2);
        assert_eq!(merged[0].offset, 100);
        assert_eq!(merged[0].bytes, 200 + 40 - 100);
        assert_eq!(merged[1].offset, 9000);
        assert_eq!(merged[1].bytes, 13000 + 80 - 9000);
    }

    #[test]
    fn distant_requests_do_not_merge() {
        let reqs = vec![req(0, 10, 0), req(3 * 4096, 10, 1)];
        let merged = merge_requests(reqs, 4096, true, UNCAPPED);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let reqs = vec![req(8192, 10, 1), req(0, 10, 0), req(4096, 10, 2)];
        let merged = merge_requests(reqs, 4096, true, UNCAPPED);
        // Pages 0,1,2 are all adjacent once sorted: one request.
        assert_eq!(merged.len(), 1);
        let metas: Vec<u32> = merged[0].parts.iter().map(|p| p.meta).collect();
        assert_eq!(metas, vec![0, 2, 1]);
    }

    #[test]
    fn merge_disabled_only_sorts() {
        let reqs = vec![req(4096, 10, 1), req(0, 10, 0)];
        let merged = merge_requests(reqs, 4096, false, UNCAPPED);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].offset, 0);
        assert_eq!(merged[1].offset, 4096);
    }

    #[test]
    fn overlapping_requests_cover_union() {
        let reqs = vec![req(100, 500, 0), req(300, 1000, 1)];
        let merged = merge_requests(reqs, 4096, true, UNCAPPED);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].offset, 100);
        assert_eq!(merged[0].bytes, 1200);
    }

    #[test]
    fn contained_request_does_not_shrink_cover() {
        let reqs = vec![req(0, 4096, 0), req(100, 10, 1)];
        let merged = merge_requests(reqs, 4096, true, UNCAPPED);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].bytes, 4096);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(merge_requests(Vec::new(), 4096, true, UNCAPPED).is_empty());
    }

    #[test]
    fn cap_splits_well_sorted_batch() {
        // Regression: a perfectly sequential batch used to collapse
        // into one giant cover. With a 4-page cap, 16 adjacent pages
        // become 4 covers of 4 pages each.
        let reqs: Vec<RangeReq> = (0..16).map(|i| req(i * 4096, 4096, i as u32)).collect();
        let merged = merge_requests(reqs, 4096, true, 4 * 4096);
        assert_eq!(merged.len(), 4);
        for m in &merged {
            assert_eq!(m.bytes, 4 * 4096);
            assert_eq!(m.parts.len(), 4);
        }
    }

    #[test]
    fn single_oversized_request_stays_whole() {
        // A part larger than the cap is never split; it just cannot
        // absorb neighbours.
        let reqs = vec![req(0, 10 * 4096, 0), req(10 * 4096, 100, 1)];
        let merged = merge_requests(reqs, 4096, true, 4096);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].bytes, 10 * 4096);
        assert_eq!(merged[0].parts.len(), 1);
        assert_eq!(merged[1].parts.len(), 1);
    }

    #[test]
    fn contained_request_joins_oversized_cover() {
        // Regression: a request fully inside an already-over-cap cover
        // must be absorbed, not split into an overlapping duplicate
        // read.
        let reqs = vec![req(0, 10 * 4096, 0), req(100, 10, 1)];
        let merged = merge_requests(reqs, 4096, true, 4096);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].bytes, 10 * 4096);
        assert_eq!(merged[0].parts.len(), 2);
    }

    /// Pages covered by each merged request, for overlap audits.
    fn pages_of(m: &MergedReq, page_bytes: u64) -> std::ops::RangeInclusive<u64> {
        m.offset / page_bytes..=(m.offset + m.bytes - 1) / page_bytes
    }

    /// Asserts the no-duplicate-read invariant: within one batch, no
    /// page belongs to two covers.
    fn assert_page_disjoint(merged: &[MergedReq], page_bytes: u64) {
        let mut seen = std::collections::HashSet::new();
        for m in merged {
            for p in pages_of(m, page_bytes) {
                assert!(
                    seen.insert(p),
                    "page {p} covered twice (cover at {}+{})",
                    m.offset,
                    m.bytes
                );
            }
        }
    }

    #[test]
    fn cap_preserves_every_part() {
        let reqs: Vec<RangeReq> = (0..50).map(|i| req(i * 1000, 900, i as u32)).collect();
        let merged = merge_requests(reqs, 4096, true, 8192);
        let mut metas: Vec<u32> = merged
            .iter()
            .flat_map(|m| m.parts.iter().map(|p| p.meta))
            .collect();
        metas.sort_unstable();
        assert_eq!(metas, (0..50).collect::<Vec<_>>());
        assert_page_disjoint(&merged, 4096);
        // The cap is best-effort across page-straddling chains: a
        // cover exceeds it only while every absorbed request shared a
        // page with the cover so far (re-simulate the greedy walk).
        for m in &merged {
            let mut end = 0u64;
            for p in &m.parts {
                if end != 0 && end - m.offset + 1 > 8192 {
                    assert!(
                        p.offset / 4096 <= (end - 1) / 4096,
                        "part at {} extended an over-cap cover without sharing a page",
                        p.offset
                    );
                }
                end = end.max(p.offset + p.bytes);
            }
        }
    }

    #[test]
    fn cap_never_duplicates_overlapping_requests() {
        // Regression: a request *overlapping* the cover used to start
        // a new cover at its own offset when the cap was exceeded,
        // re-reading the shared pages from the device. Now it is
        // absorbed (the cap yields), and the batch's covers stay
        // page-disjoint under any cap.
        let reqs = vec![
            req(0, 3 * 4096, 0),          // pages 0-2
            req(2 * 4096 + 100, 3000, 1), // overlaps page 2
            req(5 * 4096, 4096, 2),       // page 5: clean split allowed
        ];
        for cap in [4096, 2 * 4096, 3 * 4096, 8 * 4096] {
            let merged = merge_requests(reqs.clone(), 4096, true, cap);
            assert_page_disjoint(&merged, 4096);
            // Every part sits inside its cover (the delivery slicer
            // relies on containment).
            for m in &merged {
                for p in &m.parts {
                    assert!(p.offset >= m.offset);
                    assert!(p.offset + p.bytes <= m.offset + m.bytes);
                }
            }
        }
        // With the tightest cap, the overlapping request must have
        // joined the first cover rather than duplicating page 2.
        let merged = merge_requests(reqs, 4096, true, 4096);
        assert_eq!(merged[0].parts.len(), 2);
        assert_eq!(merged[0].bytes, 3 * 4096);
    }

    #[test]
    fn cap_absorbs_overlap_that_extends_the_cover() {
        // An overlapping request that *extends* the cover past the cap
        // (not merely contained in it) must still be absorbed: the
        // overlapped pages would otherwise be read twice.
        let reqs = vec![req(0, 4000, 0), req(3000, 4000, 1)];
        let merged = merge_requests(reqs, 4096, true, 4096);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].offset, 0);
        assert_eq!(merged[0].bytes, 7000);
        assert_page_disjoint(&merged, 4096);
    }

    #[test]
    fn mid_page_contiguous_boundary_still_splits() {
        // Two contiguous lists meeting exactly at a page boundary
        // split at the cap; meeting mid-page they do not (the split
        // would re-read the boundary page).
        let aligned = vec![req(0, 4096, 0), req(4096, 4096, 1)];
        let merged = merge_requests(aligned, 4096, true, 4096);
        assert_eq!(merged.len(), 2);
        assert_page_disjoint(&merged, 4096);

        let straddling = vec![req(0, 4000, 0), req(4000, 4096, 1)];
        let merged = merge_requests(straddling, 4096, true, 4096);
        assert_eq!(merged.len(), 1, "mid-page split would duplicate page 0");
        assert_page_disjoint(&merged, 4096);
    }

    #[test]
    fn adjacent_subranges_of_one_list_remerge() {
        // 6 ranges of one hub list (adjacent 1000-byte subranges) in
        // one batch collapse back into a single device read: ranged
        // requests change delivery granularity, not I/O granularity.
        let reqs: Vec<RangeReq> = (0..6)
            .map(|i| req(10_000 + i * 1000, 1000, i as u32))
            .collect();
        let merged = merge_requests(reqs, 4096, true, UNCAPPED);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].offset, 10_000);
        assert_eq!(merged[0].bytes, 6000);
        assert_eq!(merged[0].parts.len(), 6);
    }

    #[test]
    fn overlapping_subranges_share_pages() {
        // Two samplers probing nearby positions of the same hub list:
        // the covers share the page, so one read serves both.
        let reqs = vec![req(8192 + 40, 4, 0), req(8192 + 400, 4, 1)];
        let merged = merge_requests(reqs, 4096, true, UNCAPPED);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].parts.len(), 2);
    }

    #[test]
    fn parts_cover_is_exact() {
        // Invariant: every part's range lies inside its merged cover.
        let reqs: Vec<RangeReq> = (0..100)
            .map(|i| req((i * 37 % 50) * 1000, 500 + i % 300, i as u32))
            .collect();
        for merged in merge_requests(reqs, 4096, true, UNCAPPED) {
            for p in &merged.parts {
                assert!(p.offset >= merged.offset);
                assert!(p.offset + p.bytes <= merged.offset + merged.bytes);
            }
        }
    }
}
