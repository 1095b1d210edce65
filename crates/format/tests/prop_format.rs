//! Property tests: any graph round-trips through the on-SSD image
//! (raw *and* group-varint compressed), the compact index locates
//! every edge list exactly, the codec round-trips arbitrary sorted
//! lists with seekable skip tables, and the decoder survives
//! arbitrary corruption without panicking or reading out of bounds.

use fg_format::codec::{decode_list, decode_stream, encode_list, skip_entries};
use fg_format::{
    load_index, read_list, required_capacity, required_capacity_with, write_image,
    write_image_with, ImageFormat, WriteOptions,
};
use fg_graph::GraphBuilder;
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, VertexId};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (bool, Vec<(u32, u32)>)> {
    (
        any::<bool>(),
        prop::collection::vec((0u32..120, 0u32..120), 1..300),
    )
}

/// Arbitrary *sorted* neighbour lists spanning the codec's edge
/// cases: empty, single, duplicate-heavy, near-max ids, and
/// hub-sized. The base (offset) stretches some lists toward
/// `u32::MAX`; sorting makes any draw a valid adjacency list.
fn arb_sorted_list() -> impl Strategy<Value = Vec<u32>> {
    (
        prop_oneof![Just(0u32), Just(1u32 << 20), Just(u32::MAX - 4000),],
        prop::collection::vec(0u32..3000, 0..700),
    )
        .prop_map(|(base, mut v)| {
            for x in &mut v {
                *x += base;
            }
            v.sort_unstable();
            v
        })
}

/// Skip intervals on the group grid: multiples of 4 up to 76, so a
/// list's length takes every residue mod 4 against its groups.
fn arb_skip_interval() -> impl Strategy<Value = u32> {
    (1u32..20).prop_map(|groups| 4 * groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn image_round_trips_any_graph((directed, edges) in arb_graph()) {
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for &(s, d) in &edges {
            b.add_edge(VertexId(s), VertexId(d));
        }
        let g = b.build();
        let array =
            SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(&g)).unwrap();
        let meta = write_image(&g, &array).unwrap();
        prop_assert_eq!(meta.num_vertices as usize, g.num_vertices());
        prop_assert_eq!(meta.num_edges, g.num_edges());

        let (_, index) = load_index(&array).unwrap();
        let dirs: &[EdgeDir] = if directed {
            &[EdgeDir::Out, EdgeDir::In]
        } else {
            &[EdgeDir::Out]
        };
        for v in g.vertices() {
            for &dir in dirs {
                let want: Vec<u32> = g.csr(dir).neighbors(v).iter().map(|n| n.0).collect();
                let loc = index.locate(v, dir);
                prop_assert_eq!(loc.degree as usize, want.len());
                let mut got = Vec::new();
                if loc.bytes > 0 {
                    let mut buf = vec![0u8; loc.bytes as usize];
                    array.read(loc.offset, &mut buf).unwrap();
                    got = buf
                        .chunks_exact(4)
                        .map(|q| u32::from_le_bytes(q.try_into().unwrap()))
                        .collect();
                }
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn edge_lists_are_densely_packed((directed, edges) in arb_graph()) {
        // Adjacent vertices' lists must touch: offset(v+1) ==
        // offset(v) + bytes(v). This is the invariant the paper's
        // offset recomputation relies on.
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for &(s, d) in &edges {
            b.add_edge(VertexId(s), VertexId(d));
        }
        let g = b.build();
        let array =
            SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(&g)).unwrap();
        write_image(&g, &array).unwrap();
        let (_, index) = load_index(&array).unwrap();
        for v in 0..g.num_vertices().saturating_sub(1) {
            let cur = index.locate(VertexId::from_index(v), EdgeDir::Out);
            let next = index.locate(VertexId::from_index(v + 1), EdgeDir::Out);
            prop_assert_eq!(next.offset, cur.offset + cur.bytes);
        }
    }

    #[test]
    fn compressed_image_round_trips_any_graph(
        (directed, edges) in arb_graph(),
        k in arb_skip_interval(),
    ) {
        // Same property as the raw round trip, but through the v2
        // writer at an arbitrary skip interval and the validating
        // reader (`read_list`) — blocks stay packed densely too.
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for &(s, d) in &edges {
            b.add_edge(VertexId(s), VertexId(d));
        }
        let g = b.build();
        let opts = WriteOptions::compressed().with_skip_interval(k);
        let array =
            SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(&g, &opts))
                .unwrap();
        let meta = write_image_with(&g, &array, &opts).unwrap();
        prop_assert_eq!(meta.format, ImageFormat::Compressed);
        prop_assert_eq!(meta.skip_interval, k);
        let (meta, index) = load_index(&array).unwrap();
        let dirs: &[EdgeDir] = if directed {
            &[EdgeDir::Out, EdgeDir::In]
        } else {
            &[EdgeDir::Out]
        };
        for v in g.vertices() {
            for &dir in dirs {
                let want: Vec<u32> = g.csr(dir).neighbors(v).iter().map(|n| n.0).collect();
                prop_assert_eq!(read_list(&array, &meta, &index, v, dir).unwrap(), want);
            }
        }
        for v in 0..g.num_vertices().saturating_sub(1) {
            let cur = index.locate(VertexId::from_index(v), EdgeDir::Out);
            let next = index.locate(VertexId::from_index(v + 1), EdgeDir::Out);
            prop_assert_eq!(next.offset, cur.offset + cur.bytes);
        }
    }

    #[test]
    fn codec_round_trips_arbitrary_sorted_lists(
        list in arb_sorted_list(),
        k in arb_skip_interval(),
    ) {
        let mut block = Vec::new();
        if encode_list(&list, k, &mut block) {
            // Strictly smaller than raw, and decode is exact.
            prop_assert!(block.len() < list.len() * 4);
            prop_assert_eq!(decode_list(&block, list.len() as u64, k).unwrap(), list);
        } else {
            // Raw fallback (tiny or incompressible list): the buffer
            // is untouched, and the raw 4-byte layout is trivially
            // exact — nothing further to decode.
            prop_assert!(block.is_empty());
        }
    }

    #[test]
    fn skip_entries_seek_within_k_of_any_position(
        list in arb_sorted_list(),
        k in arb_skip_interval(),
        pos_seed in 0u64..1 << 30,
    ) {
        let mut block = Vec::new();
        if !encode_list(&list, k, &mut block) {
            return Ok(());
        }
        let d = list.len() as u64;
        let n_skips = skip_entries(d, k);
        let pos = pos_seed % d;
        // On a hub the restart at or before `pos` is at most k - 1
        // edges back, and decoding from its skip-table offset reaches
        // `pos` reproducing the original values; a shorter list has no
        // table and decodes from its head.
        let m0 = if n_skips > 0 { pos / k as u64 } else { 0 };
        prop_assert!(n_skips == 0 || (pos - m0 * k as u64) < (k as u64));
        let payload = &block[(n_skips * 4) as usize..];
        let entry_off = if m0 == 0 {
            0
        } else {
            let e = (m0 - 1) as usize * 4;
            u32::from_le_bytes(block[e..e + 4].try_into().unwrap()) as usize
        };
        let run = decode_stream(&payload[entry_off..], k, (pos - m0 * k as u64) as usize + 1);
        let last = *run.unwrap().last().unwrap();
        prop_assert_eq!(last, list[pos as usize]);
    }

    #[test]
    fn decoder_survives_arbitrary_corruption(
        list in arb_sorted_list(),
        k in arb_skip_interval(),
        flip_seed in 0u64..1 << 30,
        cut_seed in 0u64..1 << 30,
    ) {
        // Truncations and bit flips anywhere in a compressed block
        // must yield `Err` or a *different valid* list — never a
        // panic, never an out-of-bounds read (decode_list only ever
        // indexes its input slice).
        let mut block = Vec::new();
        if !encode_list(&list, k, &mut block) {
            return Ok(());
        }
        let d = list.len() as u64;
        // Truncation always fails (payload length is validated).
        let cut = (cut_seed % block.len() as u64) as usize;
        prop_assert!(decode_list(&block[..cut], d, k).is_err());
        // A single bit flip: clean error or a different list.
        let mut flipped = block.clone();
        let byte = (flip_seed % block.len() as u64) as usize;
        let bit = (flip_seed / block.len() as u64) % 8;
        flipped[byte] ^= 1 << bit;
        match decode_list(&flipped, d, k) {
            Err(_) => {}
            Ok(other) => prop_assert_ne!(other, list),
        }
        // A first group of 4-byte values whose first id is u32::MAX
        // cannot decode: its second gap, at least 0xFF, overflows.
        let n_skips = (skip_entries(d, k) * 4) as usize;
        let mut overflow = block.clone();
        for b in overflow[n_skips..].iter_mut().take(6) {
            *b = 0xFF;
        }
        prop_assert!(decode_list(&overflow, d, k).is_err());
    }

    #[test]
    fn corrupt_compressed_sections_never_panic_at_read(
        (directed, edges) in arb_graph(),
        victim_seed in 0u64..1 << 30,
    ) {
        // Image-level fuzz next to `bad_magic`/`truncated_image`:
        // flip a byte inside the out-edge section of a compressed
        // image and read every list back — `read_list` must return
        // (Ok or Err), never panic, for every vertex.
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for &(s, d) in &edges {
            b.add_edge(VertexId(s), VertexId(d));
        }
        let g = b.build();
        let opts = WriteOptions::compressed().with_skip_interval(4);
        let array =
            SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(&g, &opts))
                .unwrap();
        write_image_with(&g, &array, &opts).unwrap();
        let (meta, index) = load_index(&array).unwrap();
        let section = meta.total_bytes - meta.out_edges_offset;
        if section == 0 {
            return Ok(());
        }
        let at = meta.out_edges_offset + victim_seed % section;
        let mut byte = [0u8; 1];
        array.read(at, &mut byte).unwrap();
        byte[0] ^= 0x41;
        array.write(at, &byte).unwrap();
        for v in g.vertices() {
            // Any outcome but a panic is acceptable; corrupt bytes
            // must surface as CorruptImage, not as wild reads.
            let _ = read_list(&array, &meta, &index, v, EdgeDir::Out);
            let _ = read_list(&array, &meta, &index, v, EdgeDir::In);
        }
    }
}
