//! Delta-varint edge-list compression for the v2 on-SSD image.
//!
//! Real-world adjacency lists are sorted runs of nearby ids, so the
//! gaps between consecutive neighbours are small; storing each gap as
//! an LEB128 varint shrinks most lists to 40–60 % of their raw
//! `u32`-per-edge size — and since SSD throughput, not CPU, bounds
//! semi-external execution (§3.5 stores the graph compactly for
//! exactly this reason), fewer on-device bytes translate directly
//! into faster iterations.
//!
//! # Block layout
//!
//! A *compressed block* for a list of `d` edges with skip interval
//! `k` is:
//!
//! ```text
//! [ skip table ] skip_entries(d, k) × u32 LE payload offsets
//! [ payload    ] d varints
//! ```
//!
//! The payload is a gap stream with *restarts*: the varint at list
//! position `0` and at every position `m·k` holds the neighbour id
//! itself (absolute); every other position holds the gap from its
//! predecessor (`>= 0`; duplicate neighbours encode as gap `0`).
//! Skip-table entry `m - 1` holds the payload byte offset of the
//! restart at position `m·k`, so a reader can begin decoding at any
//! restart without touching the preceding bytes — that is what lets
//! [`crate::GraphIndex::locate_slice`] resolve a *byte subrange* for
//! a ranged hub request instead of fetching the whole list.
//!
//! A *raw block* is the v1 layout unchanged: `d` little-endian
//! `u32`s. The encoder falls back to raw for tiny lists (varint
//! framing cannot win below [`TINY_RAW_DEGREE`] edges) and for
//! incompressible lists (worst-case varints are 5 bytes/edge); which
//! encoding a vertex got is recorded in the image's per-vertex length
//! table via [`RAW_LIST_FLAG`], never guessed. Weighted images force
//! every block raw so attribute runs stay positionally aligned with
//! their edges.

use fg_types::{FgError, Result};

/// Top bit of a per-vertex block-length entry: set when the block is
/// raw (4 bytes/edge), clear when it is a compressed block.
pub const RAW_LIST_FLAG: u32 = 1 << 31;

/// Lists below this many edges are always written raw: a varint
/// stream cannot beat 4 bytes/edge by enough to matter, and raw keeps
/// their decode free.
pub const TINY_RAW_DEGREE: usize = 4;

/// Default restart/skip interval in edges — one skip-table entry (4
/// bytes) per this many edges. Mirrors the index's
/// [`crate::CHECKPOINT_INTERVAL`]: fine enough that a ranged hub
/// request over-reads less than one interval per end, coarse enough
/// that the table stays a small fraction of the payload.
pub const DEFAULT_SKIP_INTERVAL: u32 = 32;

/// Number of skip-table entries for a list of `degree` edges at
/// interval `k` — one per restart position `k, 2k, ...` strictly
/// inside the list.
#[inline]
pub fn skip_entries(degree: u64, k: u32) -> u64 {
    debug_assert!(k > 0, "skip interval must be positive");
    degree.saturating_sub(1) / k as u64
}

/// Appends `v` as an LEB128 varint (1–5 bytes).
#[inline]
pub fn push_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 `u32` from `next`, which yields successive bytes
/// (or `None` at end of data). Returns `None` on truncation, on a
/// varint longer than 5 bytes, and on a 5-byte varint whose high bits
/// overflow 32 bits — the over-long encodings the robustness tests
/// feed in.
#[inline]
pub fn read_varint(next: &mut impl FnMut() -> Option<u8>) -> Option<u32> {
    let mut v: u32 = 0;
    for i in 0..5 {
        let b = next()?;
        let payload = (b & 0x7F) as u32;
        if i == 4 && payload > 0x0F {
            return None; // bits 32+ set: not a u32
        }
        v |= payload << (7 * i);
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None // continuation bit still set after 5 bytes
}

/// Incremental gap-stream value reconstruction: feed it each decoded
/// varint in payload order and it returns the neighbour id at that
/// position, handling absolute restarts at multiples of `k`.
///
/// `new(stream_pos, k)` starts at full-list position `stream_pos`,
/// which must be a restart position (0 or a multiple of `k`) — the
/// only places a reader may enter the stream.
#[derive(Debug, Clone, Copy)]
pub struct GapDecoder {
    prev: u32,
    k: u32,
    /// Values left before the next absolute restart (0 = the next
    /// value is one) — a countdown, so a step costs no division.
    until_restart: u32,
}

impl GapDecoder {
    /// A decoder entering the stream at restart position `stream_pos`.
    #[inline]
    pub fn new(stream_pos: u64, k: u32) -> Self {
        debug_assert!(k > 0, "skip interval must be positive");
        debug_assert_eq!(
            stream_pos % k as u64,
            0,
            "stream entry must be a restart position"
        );
        GapDecoder {
            prev: 0,
            k,
            until_restart: 0,
        }
    }

    /// Absorbs the varint decoded at the current position and returns
    /// the neighbour id there; `None` when a gap overflows the id
    /// space (corrupt data — ids are `u32`).
    #[inline]
    pub fn step(&mut self, raw: u32) -> Option<u32> {
        let value = if self.until_restart == 0 {
            self.until_restart = self.k;
            raw
        } else {
            self.prev.checked_add(raw)?
        };
        self.until_restart -= 1;
        self.prev = value;
        Some(value)
    }
}

/// Encodes `list` (sorted ascending, duplicates allowed) as a
/// compressed block — skip table then restart-gap payload — appended
/// to `out`. Returns `false` without touching `out` when the list
/// should stay raw: fewer than [`TINY_RAW_DEGREE`] edges, or a
/// compressed block at least as large as the raw 4 bytes/edge.
///
/// # Panics
///
/// Panics (debug) if `list` is not sorted or `k` is zero.
pub fn encode_list(list: &[u32], k: u32, out: &mut Vec<u8>) -> bool {
    assert!(k > 0, "skip interval must be positive");
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
    // Reserve the skip table; entries are patched as restarts are
    // reached during the single payload pass.
    out.resize(start + n_skips * 4, 0);
    let payload_base = out.len();
    let mut prev = 0u32;
    for (i, &v) in list.iter().enumerate() {
        if i % k as usize == 0 {
            if i > 0 {
                let entry = i / k as usize - 1;
                let off = (out.len() - payload_base) as u32;
                out[start + entry * 4..start + entry * 4 + 4].copy_from_slice(&off.to_le_bytes());
            }
            push_varint(out, v);
        } else {
            push_varint(out, v - prev);
        }
        prev = v;
        if out.len() - start >= raw_bytes {
            out.truncate(start);
            return false; // incompressible: keep raw
        }
    }
    true
}

/// Fully validates and decodes one compressed block of `degree`
/// edges.
///
/// This is the fallible decode surface: it never panics and never
/// reads outside `block`, making it the oracle for the corrupt-image
/// robustness tests (truncated sections, bit flips, over-long
/// varints). The engine's hot path decodes the same stream
/// incrementally inside `PageVertex` without materialising a vector.
///
/// # Errors
///
/// [`FgError::CorruptImage`] when the skip table does not fit the
/// block, its offsets are not monotone or point outside the payload
/// or at non-restart bytes, a varint is truncated or over-long, a gap
/// overflows the id space, the list comes out unsorted, or the
/// payload length does not match `degree` exactly.
pub fn decode_list(block: &[u8], degree: u64, k: u32) -> Result<Vec<u32>> {
    let mut list = Vec::with_capacity(degree as usize);
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
    if k == 0 {
        return Err(FgError::CorruptImage("zero skip interval".into()));
    }
    let n_skips = skip_entries(degree, k) as usize;
    let table_bytes = n_skips.checked_mul(4).filter(|&t| t <= block.len());
    let Some(table_bytes) = table_bytes else {
        return Err(FgError::CorruptImage(format!(
            "skip table of {n_skips} entries exceeds {}-byte block",
            block.len()
        )));
    };
    let payload = &block[table_bytes..];
    let mut at = 0usize;
    let next = |at: &mut usize| -> Option<u8> {
        let b = payload.get(*at).copied();
        *at += 1;
        b
    };
    let mut gaps = GapDecoder::new(0, k);
    let mut prev = None;
    for i in 0..degree {
        if i > 0 && i % k as u64 == 0 {
            // Every table entry is compared with the byte its restart
            // was actually decoded at, which also proves the entries
            // monotone and inside the payload: `at` only grows, and a
            // varint is read at it next.
            let e = (i / k as u64 - 1) as usize;
            let want = u32::from_le_bytes(block[e * 4..e * 4 + 4].try_into().unwrap()) as usize;
            if at != want {
                return Err(FgError::CorruptImage(format!(
                    "restart at position {i} lies at payload byte {at}, skip table says {want}"
                )));
            }
        }
        let raw = read_varint(&mut || next(&mut at)).ok_or_else(|| {
            FgError::CorruptImage(format!("truncated or over-long varint at position {i}"))
        })?;
        let v = gaps
            .step(raw)
            .ok_or_else(|| FgError::CorruptImage(format!("gap overflow at position {i}")))?;
        if prev.is_some_and(|p| v < p) {
            return Err(FgError::CorruptImage(format!(
                "decoded list unsorted at position {i}"
            )));
        }
        prev = Some(v);
        out.push(v);
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
    fn varint_round_trips_boundary_values() {
        for v in [0u32, 1, 127, 128, 16383, 16384, u32::MAX - 1, u32::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert!(buf.len() <= 5);
            let mut it = buf.iter().copied();
            assert_eq!(read_varint(&mut || it.next()), Some(v), "value {v}");
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // Truncated: continuation bit with no next byte.
        let mut it = [0x80u8].iter().copied();
        assert_eq!(read_varint(&mut || it.next()), None);
        // Over-long: 5 continuation bytes.
        let mut it = [0x80u8, 0x80, 0x80, 0x80, 0x80].iter().copied();
        assert_eq!(read_varint(&mut || it.next()), None);
        // 5th byte with bits above u32: 0xFF ends the varint but
        // carries payload 0x7F > 0x0F.
        let mut it = [0x80u8, 0x80, 0x80, 0x80, 0x7F].iter().copied();
        assert_eq!(read_varint(&mut || it.next()), None);
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
        // Gaps near 2^29 need 5-byte varints: worse than raw.
        let list: Vec<u32> = (0..8u32).map(|i| i << 29).collect();
        let mut out = Vec::new();
        out.push(0xEE); // pre-existing bytes must survive the rollback
        assert!(!encode_list(&list, 32, &mut out));
        assert_eq!(out, vec![0xEE]);
    }

    #[test]
    fn skip_table_counts_restarts() {
        assert_eq!(skip_entries(0, 32), 0);
        assert_eq!(skip_entries(32, 32), 0); // positions 0..32: no restart inside
        assert_eq!(skip_entries(33, 32), 1);
        assert_eq!(skip_entries(65, 32), 2);
    }

    #[test]
    fn skip_entries_land_on_decodable_restarts() {
        let list: Vec<u32> = (0..100u32).map(|i| i * 2).collect();
        let k = 8u32;
        let mut block = Vec::new();
        assert!(encode_list(&list, k, &mut block));
        let n_skips = skip_entries(list.len() as u64, k) as usize;
        let payload = &block[n_skips * 4..];
        for m in 1..=n_skips {
            let off = u32::from_le_bytes(block[(m - 1) * 4..m * 4].try_into().unwrap()) as usize;
            // Decoding from the restart reproduces the list's tail.
            let mut at = off;
            let mut gaps = GapDecoder::new((m * k as usize) as u64, k);
            let mut got = Vec::new();
            while got.len() < list.len() - m * k as usize {
                let raw = read_varint(&mut || {
                    let b = payload.get(at).copied();
                    at += 1;
                    b
                })
                .unwrap();
                got.push(gaps.step(raw).unwrap());
            }
            assert_eq!(got, &list[m * k as usize..], "restart {m}");
        }
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
        // Wrong degree: payload length mismatch.
        assert!(decode_list(&block, d - 1, 8).is_err());
        assert!(decode_list(&block, d + 1, 8).is_err());
    }
}
