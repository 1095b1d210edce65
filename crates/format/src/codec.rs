//! Group-varint edge-list compression for the v2 on-SSD image.
//!
//! Real-world adjacency lists are sorted runs of nearby ids, so the
//! gaps between consecutive neighbours are small. Storing each gap in
//! one to four bytes shrinks most lists to well under half their raw
//! `u32`-per-edge size (§3.5 stores the graph compactly so every
//! semi-external iteration moves fewer device bytes). The gaps are
//! stored in *groups* of four behind one control byte, the layout
//! family of Stream VByte (Lemire, Kurz and Rupp, arXiv:1709.08990):
//! the control byte alone says where all four values lie, so a reader
//! decodes a group with one table lookup and four masked loads rather
//! than a branch per byte, and a compressed list walks close to the
//! speed of a raw one.
//!
//! # Block layout
//!
//! A *compressed block* for a list of `d` edges with skip interval
//! `k` (a multiple of [`GROUP`]) is:
//!
//! ```text
//! [ skip table ] skip_entries(d, k) × u32 LE payload offsets (hubs)
//! [ payload    ] ceil(d / 4) groups
//! ```
//!
//! A group is one control byte, then four values little-endian. Bits
//! `2i..2i + 2` of the control byte hold the byte length of value `i`
//! less one (1–4 bytes), so a group takes 5–17 bytes. The list's last
//! group is padded with zero values of one byte each.
//!
//! The payload is a gap stream with *restarts*: the value at list
//! position `0` and at every position `m·k` holds the neighbour id
//! itself (absolute); every other position holds the gap from its
//! predecessor (`>= 0`; duplicate neighbours encode as gap `0`).
//! Since `k` is a multiple of four, every restart opens a group. A
//! hub list (at least [`LARGE_DEGREE`] edges) carries a skip table:
//! entry `m - 1` holds the payload byte offset of the control byte of
//! the restart at position `m·k`, so a reader can begin decoding at
//! any restart without touching the preceding bytes — that is what
//! lets [`crate::GraphIndex::locate_slice`] resolve a *byte subrange*
//! for a ranged hub request instead of fetching the whole list. The
//! index loads only hubs' tables and fetches a shorter list whole, so
//! a shorter list carries none.
//!
//! A *raw block* is the v1 layout unchanged: `d` little-endian
//! `u32`s. The encoder falls back to raw for tiny lists (below
//! [`TINY_RAW_DEGREE`] edges) and for incompressible lists (a group
//! of four 4-byte values is 17 bytes against raw's 16); which
//! encoding a vertex got is recorded in the image's per-vertex length
//! table via [`RAW_LIST_FLAG`], never guessed. Weighted images force
//! every block raw so attribute runs stay positionally aligned with
//! their edges.

use fg_types::{FgError, Result};

use crate::LARGE_DEGREE;

/// Top bit of a per-vertex block-length entry: set when the block is
/// raw (4 bytes/edge), clear when it is a compressed block.
pub const RAW_LIST_FLAG: u32 = 1 << 31;

/// Lists below this many edges are always written raw: one group of
/// gaps cannot beat 4 bytes/edge by enough to matter, and raw keeps
/// their decode free.
pub const TINY_RAW_DEGREE: usize = 4;

/// Default restart/skip interval in edges — one skip-table entry (4
/// bytes) per this many edges. Mirrors the index's
/// [`crate::CHECKPOINT_INTERVAL`]: fine enough that a ranged hub
/// request over-reads less than one interval per end, coarse enough
/// that the table stays a small fraction of the payload.
pub const DEFAULT_SKIP_INTERVAL: u32 = 32;

/// Values per group: one control byte describes four.
pub const GROUP: usize = 4;

/// Bytes of the longest group: the control byte and four 4-byte
/// values.
const MAX_GROUP_BYTES: usize = 1 + 4 * GROUP;

/// Bytes [`read_group`] looks at: a value's load starts at a masked
/// offset below 16 and reads 4 bytes, so a window of 20 bytes keeps
/// every load in bounds without a check. A reader holding fewer bytes
/// than this copies the group into a zeroed window first.
pub const GROUP_WINDOW: usize = 20;

/// Number of skip-table entries for a list of `degree` edges at
/// interval `k` — for a hub list (at least [`LARGE_DEGREE`] edges) one
/// per restart position `k, 2k, ...` strictly inside the list, for a
/// shorter one none: no reader would use them.
#[inline]
pub fn skip_entries(degree: u64, k: u32) -> u64 {
    debug_assert!(k > 0, "skip interval must be positive");
    if degree < LARGE_DEGREE {
        return 0;
    }
    (degree - 1) / k as u64
}

/// Where the four values of a group lie, for one control byte.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Byte offset of each value from the control byte.
    at: [u8; GROUP],
    /// The low bytes of a 4-byte load that belong to each value.
    mask: [u32; GROUP],
    /// The group's length, control byte included.
    len: u8,
}

/// The [`Layout`] of every control byte.
static LAYOUTS: [Layout; 256] = {
    let mut table = [Layout {
        at: [0; GROUP],
        mask: [0; GROUP],
        len: 0,
    }; 256];
    let mut control = 0;
    while control < 256 {
        let mut at = 1;
        let mut lane = 0;
        while lane < GROUP {
            let bytes = (control >> (2 * lane)) & 3;
            table[control].at[lane] = at as u8;
            table[control].mask[lane] = u32::MAX >> (8 * (3 - bytes));
            at += bytes + 1;
            lane += 1;
        }
        table[control].len = at as u8;
        control += 1;
    }
    table
};

/// The byte length of the group whose control byte is `control`.
#[inline]
pub fn group_len(control: u8) -> usize {
    LAYOUTS[control as usize].len as usize
}

/// The four values of the group at the head of `window`, as stored
/// (gaps, or an absolute id in a restart's first value), and the
/// group's length. Bytes of `window` past the group are read and
/// masked away, never used.
#[inline(always)]
pub fn read_group(window: &[u8; GROUP_WINDOW]) -> ([u32; GROUP], usize) {
    let layout = &LAYOUTS[window[0] as usize];
    let value = |lane: usize| {
        let at = (layout.at[lane] & 15) as usize;
        u32::from_le_bytes(window[at..at + 4].try_into().expect("4-byte load")) & layout.mask[lane]
    };
    (
        [value(0), value(1), value(2), value(3)],
        layout.len as usize,
    )
}

/// The neighbour ids of a group whose stored values are `gaps`, the
/// first summed onto `base` (0 at a restart, else the id before the
/// group). `None` when a sum leaves the id space — corrupt data, ids
/// are `u32`. Gaps are never negative, so the last sum is the largest
/// and one check covers the group.
#[inline(always)]
pub fn sum_group(base: u32, gaps: [u32; GROUP]) -> Option<[u32; GROUP]> {
    let s0 = u64::from(base) + u64::from(gaps[0]);
    let s1 = s0 + u64::from(gaps[1]);
    let s2 = s1 + u64::from(gaps[2]);
    let s3 = s2 + u64::from(gaps[3]);
    (s3 <= u64::from(u32::MAX)).then_some([s0 as u32, s1 as u32, s2 as u32, s3 as u32])
}

/// Bytes needed to store `v`: 1–4.
#[inline(always)]
fn value_bytes(v: u32) -> usize {
    (39 - (v | 1).leading_zeros() as usize) / 8
}

/// Encodes `list` (sorted ascending, duplicates allowed) as a
/// compressed block — skip table then restart-gap groups — appended
/// to `out`. Returns `false` without touching `out` when the list
/// should stay raw: fewer than [`TINY_RAW_DEGREE`] edges, or a
/// compressed block at least as large as the raw 4 bytes/edge.
///
/// # Panics
///
/// Panics if `k` is not a positive multiple of [`GROUP`], and (debug)
/// if `list` is not sorted.
pub fn encode_list(list: &[u32], k: u32, out: &mut Vec<u8>) -> bool {
    assert!(
        k > 0 && k as usize % GROUP == 0,
        "skip interval must be a positive multiple of {GROUP}, not {k}"
    );
    debug_assert!(
        list.windows(2).all(|w| w[0] <= w[1]),
        "edge lists must be sorted before delta encoding"
    );
    if list.len() < TINY_RAW_DEGREE {
        return false;
    }
    let n_skips = skip_entries(list.len() as u64, k) as usize;
    let raw_bytes = list.len() * 4;
    let start = out.len();
    // Reserve the skip table (a hub's); entries are patched as
    // restarts are reached during the single payload pass.
    out.resize(start + n_skips * 4, 0);
    let payload_base = out.len();
    let per_restart = k as usize / GROUP;
    let mut prev = 0u32;
    for (g, values) in list.chunks(GROUP).enumerate() {
        if g % per_restart == 0 {
            prev = 0;
            if g > 0 && n_skips > 0 {
                let entry = start + (g / per_restart - 1) * 4;
                let off = (out.len() - payload_base) as u32;
                out[entry..entry + 4].copy_from_slice(&off.to_le_bytes());
            }
        }
        // The group is built whole, then appended once: each value is
        // stored as a full 4-byte word the next one overwrites from
        // its length on, and padding lanes are the buffer's zeros.
        let mut group = [0u8; MAX_GROUP_BYTES];
        let mut at = 1;
        for (lane, &v) in values.iter().enumerate() {
            let gap = v - prev;
            prev = v;
            let bytes = value_bytes(gap);
            group[at..at + 4].copy_from_slice(&gap.to_le_bytes());
            group[0] |= ((bytes - 1) as u8) << (2 * lane);
            at += bytes;
        }
        out.extend_from_slice(&group[..at + GROUP - values.len()]);
        if out.len() - start >= raw_bytes {
            out.truncate(start);
            return false; // incompressible: keep raw
        }
    }
    true
}

/// The stored values and length of the group at byte `at` of
/// `payload`, read in place when a whole window remains; `None` when
/// the group runs past `payload`.
#[inline(always)]
fn checked_group(payload: &[u8], at: usize) -> Option<([u32; GROUP], usize)> {
    let rest = payload.get(at..)?;
    if let Some(window) = rest.first_chunk::<GROUP_WINDOW>() {
        return Some(read_group(window));
    }
    let len = group_len(*rest.first()?);
    let mut window = [0u8; GROUP_WINDOW];
    window[..len].copy_from_slice(rest.get(..len)?);
    Some(read_group(&window))
}

/// Decodes the first `count` values of a gap stream whose first byte
/// is a restart's control byte — the payload of a whole block, or the
/// restart-aligned subrange [`crate::GraphIndex::locate_slice`] fetched
/// for a ranged request. `None` when a group runs past `payload` or a
/// gap overflows the id space. Unlike [`decode_list`] it checks
/// neither skip entries nor padding, sortedness nor length: it is the
/// plain reader of a located slice.
pub fn decode_stream(payload: &[u8], k: u32, count: usize) -> Option<Vec<u32>> {
    let per_restart = (k as usize / GROUP).max(1);
    let mut out = Vec::with_capacity(count.next_multiple_of(GROUP));
    let mut at = 0;
    while out.len() < count {
        let (gaps, len) = checked_group(payload, at)?;
        let restart = (out.len() / GROUP) % per_restart == 0;
        let base = if restart { 0 } else { out[out.len() - 1] };
        out.extend(sum_group(base, gaps)?);
        at += len;
    }
    out.truncate(count);
    Some(out)
}

/// Fully validates and decodes one compressed block of `degree`
/// edges.
///
/// This is the fallible decode surface: it never panics and never
/// reads outside `block`, making it the oracle for the corrupt-image
/// robustness tests (truncated sections, bit flips, groups that run
/// past their block). The engine's hot path decodes the same stream a
/// group at a time inside `PageVertex` without materialising a vector.
///
/// # Errors
///
/// [`FgError::CorruptImage`] when `k` is not a positive multiple of
/// [`GROUP`], the skip table does not fit the block, a skip entry is
/// not the byte offset of its restart's control byte, a group runs
/// past the block, a gap overflows the id space, the list comes out
/// unsorted, a padding value of the last group is not a one-byte
/// zero, or the payload length does not match `degree` exactly. A
/// padding value is a zero gap, so a `degree` too large by less than
/// the padding reads it as duplicates of the last id: the degree is
/// trusted like the block length.
pub fn decode_list(block: &[u8], degree: u64, k: u32) -> Result<Vec<u32>> {
    let mut list = Vec::new();
    decode_list_into(block, degree, k, &mut list)?;
    Ok(list)
}

/// [`decode_list`] appending to `out` — the form sweeps use to decode
/// list after list into one buffer. On an error `out` may hold a
/// prefix of the failed list.
///
/// # Errors
///
/// See [`decode_list`].
pub fn decode_list_into(block: &[u8], degree: u64, k: u32, out: &mut Vec<u32>) -> Result<()> {
    if k == 0 || k as usize % GROUP != 0 {
        return Err(FgError::CorruptImage(format!(
            "skip interval {k} is not a positive multiple of {GROUP}"
        )));
    }
    let n_skips = skip_entries(degree, k) as usize;
    let table_bytes = n_skips.checked_mul(4).filter(|&t| t <= block.len());
    let Some(table_bytes) = table_bytes else {
        return Err(FgError::CorruptImage(format!(
            "skip table of {n_skips} entries exceeds {}-byte block",
            block.len()
        )));
    };
    let (table, payload) = block.split_at(table_bytes);
    let mut entries = table.chunks_exact(4);
    let per_restart = k / GROUP as u32;
    let mut until_restart = 0;
    let mut at = 0usize;
    let mut prev = 0u32;
    // Bounded by the payload: a corrupt degree allocates nothing more.
    out.reserve(degree.min(payload.len() as u64) as usize);
    for i in (0..degree).step_by(GROUP) {
        let restart = until_restart == 0;
        until_restart = if restart { per_restart } else { until_restart } - 1;
        // A hub's table holds one entry per restart inside the list.
        // Each is compared with the byte its restart was actually
        // decoded at, which also proves the entries monotone and
        // inside the payload: `at` only grows, and a group is read at
        // it next.
        if let Some(entry) = (restart && i > 0).then(|| entries.next()).flatten() {
            let want = u32::from_le_bytes(entry.try_into().expect("4-byte entry")) as usize;
            if at != want {
                return Err(FgError::CorruptImage(format!(
                    "restart at position {i} lies at payload byte {at}, skip table says {want}"
                )));
            }
        }
        let (gaps, len) = checked_group(payload, at).ok_or_else(|| {
            FgError::CorruptImage(format!("group at position {i} runs past the block"))
        })?;
        let values = sum_group(if restart { 0 } else { prev }, gaps)
            .ok_or_else(|| FgError::CorruptImage(format!("gap overflow in group at {i}")))?;
        // Within a group values only grow; a restart may step back.
        if i > 0 && values[0] < prev {
            return Err(FgError::CorruptImage(format!(
                "decoded list unsorted at position {i}"
            )));
        }
        let real = (degree - i).min(GROUP as u64) as usize;
        if real < GROUP && (payload[at] >> (2 * real) != 0 || gaps[real..].iter().any(|&g| g != 0))
        {
            return Err(FgError::CorruptImage(format!(
                "last group at position {i} pads with non-zero values"
            )));
        }
        out.extend_from_slice(&values[..real]);
        prev = values[real - 1];
        at += len;
    }
    if at != payload.len() {
        return Err(FgError::CorruptImage(format!(
            "payload holds {} bytes, decode consumed {at}",
            payload.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(list: &[u32], k: u32) -> Vec<u8> {
        let mut block = Vec::new();
        assert!(encode_list(list, k, &mut block), "list should compress");
        assert_eq!(decode_list(&block, list.len() as u64, k).unwrap(), list);
        block
    }

    #[test]
    fn group_round_trips_boundary_values() {
        // Each boundary value in each lane, stored in as few bytes as
        // it needs, read back by `read_group` and by the block decoder.
        for (v, bytes) in [
            (0u32, 1),
            (0xFF, 1),
            (0x100, 2),
            (0xFFFF, 2),
            (0x1_0000, 3),
            (0xFF_FFFF, 3),
            (0x100_0000, 4),
            (u32::MAX, 4),
        ] {
            for lane in 0..GROUP {
                let mut gaps = [0u32; GROUP];
                gaps[lane] = v;
                let mut stored = vec![((bytes - 1) as u8) << (2 * lane)];
                for (l, g) in gaps.iter().enumerate() {
                    stored.extend_from_slice(&g.to_le_bytes()[..if l == lane { bytes } else { 1 }]);
                }
                let mut window = [0u8; GROUP_WINDOW];
                window[..stored.len()].copy_from_slice(&stored);
                assert_eq!(
                    read_group(&window),
                    (gaps, stored.len()),
                    "{v:#x} lane {lane}"
                );
                let list = sum_group(0, gaps).unwrap();
                let mut block = Vec::new();
                assert!(encode_list(&list, 4, &mut block));
                assert_eq!(block, stored, "{v:#x} lane {lane}");
                assert_eq!(decode_list(&block, 4, 4).unwrap(), list);
            }
        }
    }

    #[test]
    fn group_rejects_overrun_and_overflow() {
        // A control byte promising four 4-byte values over 12 bytes.
        let mut block = vec![0xFF];
        block.extend_from_slice(&[1; 12]);
        assert!(checked_group(&block, 0).is_none());
        assert!(decode_list(&block, 4, 4).is_err());
        assert!(decode_stream(&block, 4, 1).is_none());
        block.extend_from_slice(&[1; 4]);
        assert_eq!(decode_stream(&block, 4, 1), Some(vec![0x0101_0101]));
        // Sums past u32::MAX.
        assert_eq!(sum_group(u32::MAX, [0, 0, 0, 1]), None);
        assert_eq!(sum_group(1, [u32::MAX, 0, 0, 0]), None);
        assert_eq!(
            sum_group(u32::MAX - 3, [1, 1, 1, 0]),
            Some([u32::MAX - 2, u32::MAX - 1, u32::MAX, u32::MAX])
        );
    }

    #[test]
    fn gap_stream_round_trips() {
        let list: Vec<u32> = (0..200u32).map(|i| i * 7 + (i % 7)).collect();
        let block = round_trip(&list, 16);
        assert!(block.len() < list.len() * 4, "gaps of ~7 must compress");
    }

    #[test]
    fn duplicates_and_max_ids_round_trip() {
        let list = vec![5, 5, 5, 9, 9, u32::MAX - 1, u32::MAX, u32::MAX];
        round_trip(&list, 4);
    }

    #[test]
    fn tiny_lists_stay_raw() {
        let mut out = Vec::new();
        assert!(!encode_list(&[1, 2, 3], 32, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn incompressible_lists_fall_back_to_raw() {
        // Ids and gaps of 2^28 need 4-byte values: 17 bytes a group,
        // worse than raw's 16.
        let list: Vec<u32> = (1..=8u32).map(|i| i << 28).collect();
        let mut out = Vec::new();
        out.push(0xEE); // pre-existing bytes must survive the rollback
        assert!(!encode_list(&list, 32, &mut out));
        assert_eq!(out, vec![0xEE]);
    }

    #[test]
    #[should_panic(expected = "positive multiple of 4")]
    fn skip_interval_off_the_group_grid_panics() {
        encode_list(&[1, 2, 3, 4, 5], 6, &mut Vec::new());
    }

    #[test]
    fn skip_table_counts_restarts() {
        assert_eq!(skip_entries(0, 32), 0);
        // Below a hub's degree no list carries a table.
        assert_eq!(skip_entries(LARGE_DEGREE - 1, 4), 0);
        assert_eq!(skip_entries(LARGE_DEGREE, 32), 7);
        assert_eq!(skip_entries(288, 32), 8); // positions 0..288: 288 is not inside
        assert_eq!(skip_entries(289, 32), 9);
    }

    #[test]
    fn skip_entries_land_on_decodable_restarts() {
        // Gaps of one to three bytes, so groups differ in length.
        let mut v = 0u32;
        let list: Vec<u32> = (0..302u32)
            .map(|i| {
                v += [2, 300, 70_000][i as usize % 3];
                v
            })
            .collect();
        for k in [4u32, 8, 12] {
            let mut block = Vec::new();
            assert!(encode_list(&list, k, &mut block));
            let n_skips = skip_entries(list.len() as u64, k) as usize;
            let payload = &block[n_skips * 4..];
            // The control bytes, walked group by group from the start.
            let mut controls = vec![0usize];
            while *controls.last().unwrap() < payload.len() {
                let at = *controls.last().unwrap();
                controls.push(at + group_len(payload[at]));
            }
            assert_eq!(controls.pop(), Some(payload.len()));
            assert_eq!(controls.len(), list.len().div_ceil(GROUP));
            for m in 1..=n_skips {
                let off =
                    u32::from_le_bytes(block[(m - 1) * 4..m * 4].try_into().unwrap()) as usize;
                // It is the control byte of the group opening position
                // m·k, and decoding from it reproduces the tail.
                assert_eq!(off, controls[m * k as usize / GROUP], "k {k} restart {m}");
                let tail = &list[m * k as usize..];
                assert_eq!(
                    decode_stream(&payload[off..], k, tail.len()).unwrap(),
                    tail,
                    "k {k} restart {m}"
                );
            }
        }
        // A shorter list carries no table: its block is the payload.
        let short = &list[..LARGE_DEGREE as usize - 1];
        let mut block = Vec::new();
        assert!(encode_list(short, 8, &mut block));
        assert_eq!(decode_stream(&block, 8, short.len()).unwrap(), short);
    }

    #[test]
    fn decode_rejects_corruption() {
        let list: Vec<u32> = (0..64u32).map(|i| i * 5).collect();
        let mut block = Vec::new();
        assert!(encode_list(&list, 8, &mut block));
        let d = list.len() as u64;
        // Truncation anywhere must error, never panic.
        for cut in 0..block.len() {
            assert!(decode_list(&block[..cut], d, 8).is_err(), "cut {cut}");
        }
        // Wrong degree: a stored gap where padding should be, or a
        // group past the payload.
        assert!(decode_list(&block, d - 1, 8).is_err());
        assert!(decode_list(&block, d + 1, 8).is_err());
        // A skip interval off the group grid.
        assert!(decode_list(&block, d, 6).is_err());
        // Of 62 values the last group holds two, then two padding
        // lanes: a non-zero padding byte, or a padding lane two bytes
        // wide, is corrupt.
        let mut block = Vec::new();
        assert!(encode_list(&list[..62], 8, &mut block));
        let control = block.len() - 5;
        assert_eq!(block[control], 0);
        let mut bad = block.clone();
        bad[control + 4] = 1;
        assert!(decode_list(&bad, 62, 8).is_err());
        let mut bad = block.clone();
        bad[control] |= 1 << 6;
        bad.push(0);
        assert!(decode_list(&bad, 62, 8).is_err());
        assert_eq!(decode_list(&block, 62, 8).unwrap(), &list[..62]);
    }
}
