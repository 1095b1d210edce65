//! fig_compress — what the delta-varint compressed image (v2) buys.
//!
//! FlashGraph's semi-external execution is bounded by device bytes,
//! not CPU (§3.5 stores the graph compactly for exactly this reason);
//! the compressed image shrinks every sorted edge list to its
//! gap-varint encoding, so every iteration moves fewer bytes over the
//! I/O bus. This harness asserts, via the SSD simulator's `IoStats`:
//!
//! 1. **Image sizes**: the compressed image's edge sections are
//!    strictly smaller than raw on every fixture (the measured ratios
//!    quoted in the README come from this table).
//! 2. **Format transparency with strictly fewer device bytes**: BFS,
//!    PageRank, WCC, and TC produce oracle-identical results on the
//!    compressed image, deliver exactly the same number of edges as
//!    on the raw image, and read strictly fewer device bytes.
//! 3. **Ranged hub requests**: a short position range
//!    of a hub's compressed list (resolved through the block's skip
//!    table) reads strictly fewer device bytes than fetching the
//!    hub's full compressed list.

use fg_bench::report::{bytes, count, ratio, Table};
use fg_bench::{build_sem_image, scale_bump, symmetrize, traversal_root, SemFixture};
use fg_format::WriteOptions;
use fg_graph::gen::{rmat, RmatSkew};
use fg_graph::Graph;
use fg_safs::SafsConfig;
use fg_ssdsim::ArrayConfig;
use fg_types::{EdgeDir, VertexId};
use flashgraph::{
    Engine, EngineConfig, Init, PageVertex, Request, RunStats, VertexContext, VertexProgram,
};

const SEED: u64 = 0xC0ED;

fn formats() -> [(&'static str, WriteOptions); 2] {
    [
        ("raw", WriteOptions::default()),
        ("compressed", WriteOptions::compressed()),
    ]
}

fn mount(g: &Graph, opts: &WriteOptions) -> SemFixture {
    let fx = build_sem_image(
        g,
        fg_bench::PAPER_CACHE_FRACTION,
        SafsConfig::default(),
        ArrayConfig::paper_array(),
        opts,
    )
    .expect("fixture");
    fx.safs.reset_stats();
    fx
}

fn cfg() -> EngineConfig {
    EngineConfig {
        num_threads: 2,
        range_shift: 11,
        max_pending: 512,
        ..EngineConfig::default()
    }
}

/// Bytes of the out-edge section (its end is the next section start).
fn out_section_bytes(meta: &fg_format::ImageMeta) -> u64 {
    if meta.directed {
        meta.in_edges_offset - meta.out_edges_offset
    } else {
        meta.total_bytes - meta.out_edges_offset
    }
}

/// One matrix cell: a fresh mount, one app run, stats collected.
fn run_cell<R>(
    g: &Graph,
    opts: &WriteOptions,
    f: impl Fn(&Engine<'_>) -> (R, RunStats),
) -> (R, RunStats) {
    let fx = mount(g, opts);
    let engine = Engine::new_sem(&fx.safs, fx.index.clone(), cfg());
    fx.safs.reset_stats();
    f(&engine)
}

/// A probe issuing one request for `subject`'s out-list (whole or a
/// position range) from the subject itself.
struct HubProbe {
    subject: VertexId,
    range: Option<(u64, u64)>,
}

#[derive(Default, Clone)]
struct HubState {
    edges_seen: u64,
}

impl VertexProgram for HubProbe {
    type State = HubState;
    type Msg = ();

    fn run(&self, v: VertexId, _s: &mut HubState, ctx: &mut VertexContext<'_, ()>) {
        let req = match self.range {
            None => Request::edges(EdgeDir::Out),
            Some((start, len)) => Request::edges(EdgeDir::Out).range(start, len),
        };
        ctx.request(v, req);
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        s: &mut HubState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        assert_eq!(vertex.id(), self.subject);
        s.edges_seen += vertex.degree() as u64;
    }
}

fn main() {
    let bump = scale_bump();
    let g = rmat(13 + bump, 16, RmatSkew::default(), SEED);
    let u = symmetrize(&rmat(11 + bump, 8, RmatSkew::default(), SEED));
    println!(
        "directed: {} vertices / {} edges; undirected: {} vertices / {} edges\n",
        g.num_vertices(),
        g.num_edges(),
        u.num_vertices(),
        u.num_edges()
    );

    // ---- part 1: image sizes ----
    let mut sizes = Table::new(
        "fig_compress — image sizes (raw vs delta-varint v2)",
        &[
            "fixture",
            "format",
            "image",
            "out-edge section",
            "section ratio",
        ],
    );
    for (gname, graph) in [("directed rmat", &g), ("undirected sym", &u)] {
        let mut section = Vec::new();
        for (fname, opts) in formats() {
            let fx = mount(graph, &opts);
            let sec = out_section_bytes(&fx.meta);
            section.push(sec);
            sizes.row(&[
                gname.to_string(),
                fname.to_string(),
                bytes(fx.image_bytes),
                bytes(sec),
                ratio(sec as f64 / section[0] as f64),
            ]);
        }
        assert!(
            section[1] < section[0],
            "{gname}: compressed section {} not below raw {}",
            section[1],
            section[0]
        );
    }
    sizes.print();

    // ---- part 2: the app × format matrix ----
    let root = traversal_root(&g);
    let bfs_oracle = fg_baselines::direct::bfs_levels(&g, root);
    let wcc_oracle = fg_baselines::direct::wcc_labels(&g);
    let tc_oracle = fg_baselines::direct::triangle_count(&u);
    let (pr_oracle, _) =
        fg_apps::pagerank(&Engine::new_mem(&g, cfg()), 0.85, 0.0, 6).expect("mem pagerank");

    let mut matrix = Table::new(
        "fig_compress — device bytes per run (results oracle-identical everywhere)",
        &["app", "raw bytes", "v2 bytes", "v2/raw", "edges delivered"],
    );
    type AppRun<'a> = (
        &'a str,
        &'a Graph,
        Box<dyn Fn(&Engine<'_>) -> RunStats + 'a>,
    );
    let apps: Vec<AppRun<'_>> = vec![
        (
            "BFS",
            &g,
            Box::new(|e: &Engine<'_>| {
                let (levels, stats) = fg_apps::bfs(e, root).expect("bfs");
                assert_eq!(levels, bfs_oracle, "BFS diverged from the oracle");
                stats
            }),
        ),
        (
            "PR",
            &g,
            Box::new(|e: &Engine<'_>| {
                let (ranks, stats) = fg_apps::pagerank(e, 0.85, 0.0, 6).expect("pagerank");
                for (i, (a, b)) in ranks.iter().zip(&pr_oracle).enumerate() {
                    assert!((a - b).abs() < 1e-3, "PR vertex {i}: {a} vs {b}");
                }
                stats
            }),
        ),
        (
            "WCC",
            &g,
            Box::new(|e: &Engine<'_>| {
                let (labels, stats) = fg_apps::wcc(e).expect("wcc");
                assert_eq!(labels, wcc_oracle, "WCC diverged from the oracle");
                stats
            }),
        ),
        (
            "TC",
            &u,
            Box::new(|e: &Engine<'_>| {
                let (total, _, stats) = fg_apps::triangle_count(e, false).expect("tc");
                assert_eq!(total, tc_oracle, "TC diverged from the oracle");
                stats
            }),
        ),
    ];
    for (app, graph, run) in &apps {
        let mut cells = Vec::new();
        for (_, opts) in formats() {
            let ((), stats) = run_cell(graph, &opts, |e| ((), run(e)));
            cells.push(stats);
        }
        let raw_io = cells[0].io.as_ref().unwrap();
        let v2_io = cells[1].io.as_ref().unwrap();
        assert_eq!(
            cells[0].edges_delivered, cells[1].edges_delivered,
            "{app}: formats delivered different edge counts"
        );
        assert!(
            v2_io.bytes_read < raw_io.bytes_read,
            "{app}: compressed read {} bytes, raw {}",
            v2_io.bytes_read,
            raw_io.bytes_read
        );
        matrix.row(&[
            app.to_string(),
            bytes(raw_io.bytes_read),
            bytes(v2_io.bytes_read),
            ratio(v2_io.bytes_read as f64 / raw_io.bytes_read as f64),
            count(cells[0].edges_delivered),
        ]);
    }
    matrix.print();

    // ---- part 3: ranged hub requests on compressed lists ----
    // A social-skew graph so the top hub's *compressed* block spans
    // several pages — a one-page block would make ranged and full
    // fetches indistinguishable at device granularity.
    let h = rmat(15 + bump, 16, RmatSkew::social(), SEED);
    let hub = h
        .vertices()
        .max_by_key(|&v| h.out_degree(v))
        .expect("non-empty graph");
    let d = h.out_degree(hub) as u64;
    let chunk = 64u64.min(d / 2);
    let opts = WriteOptions::compressed();
    {
        let fx = mount(&h, &opts);
        let block = fx.index.locate(hub, EdgeDir::Out);
        assert!(
            block.bytes > 4096,
            "hub block of {} bytes fits one page; ranged savings unmeasurable",
            block.bytes
        );
        println!(
            "hub {hub}: degree {d}, compressed block {} ({} raw)\n",
            bytes(block.bytes),
            bytes(d * 4)
        );
    }
    let run_probe = |range: Option<(u64, u64)>| -> (u64, u64) {
        let fx = mount(&h, &opts);
        let engine = Engine::new_sem(&fx.safs, fx.index.clone(), cfg());
        fx.safs.reset_stats();
        let probe = HubProbe {
            subject: hub,
            range,
        };
        let (states, stats) = engine.run(&probe, Init::Seeds(vec![hub])).expect("probe");
        (states[hub.index()].edges_seen, stats.io.unwrap().bytes_read)
    };
    let (full_edges, full_bytes) = run_probe(None);
    assert_eq!(full_edges, d, "full fetch must deliver the whole list");
    let mut ranged = Table::new(
        "fig_compress — hub list (compressed): full fetch vs ranged chunks",
        &["request", "edges", "device bytes", "vs full"],
    );
    ranged.row(&[
        "full list".into(),
        count(full_edges),
        bytes(full_bytes),
        ratio(1.0),
    ]);
    for start in [0u64, d / 2, d - chunk] {
        let (got, b) = run_probe(Some((start, chunk)));
        assert_eq!(got, chunk, "range [{start}, +{chunk}) clamped wrong");
        assert!(
            b < full_bytes,
            "ranged hub request at {start} read {b} bytes, full list {full_bytes}"
        );
        ranged.row(&[
            format!("range [{start}, +{chunk})"),
            count(got),
            bytes(b),
            ratio(b as f64 / full_bytes as f64),
        ]);
    }
    ranged.print();

    println!("\nfig_compress: all assertions passed");
}
