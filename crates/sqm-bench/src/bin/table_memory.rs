//! §4.1 table accounting: sizes of the symbolic artifacts.
//!
//! Paper: quality regions are `|A|·|Q| = 8,323` integers (≈ 300 KB
//! measured allocation on the iPod build); control relaxation regions are
//! `2·|A|·|Q|·|ρ| = 99,876` integers (≈ 800 KB) for
//! `ρ = {1, 10, 20, 30, 40, 50}`.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin table_memory
//! ```

use sqm_bench::net::NetExperiment;
use sqm_bench::report;
use sqm_bench::workload::{AudioExperiment, Workload};
use sqm_core::approx::ApproxRegionTable;
use sqm_core::arena::RowStore;
use sqm_core::artifact::Artifact;
use sqm_core::compiler::{compile_regions, compile_relaxation, TableStats};
use sqm_core::regions::QualityRegionTable;
use sqm_core::relaxation::{RelaxationTable, StepSet};
use sqm_core::tables;
use sqm_core::time::Time;
use sqm_mpeg::{EncoderConfig, MpegEncoder};

/// Storage accounting for one workload's symbolic tables across the
/// artifact layer's representations.
fn artifact_row(
    label: &str,
    regions: &QualityRegionTable,
    relax: Option<&RelaxationTable>,
) -> Vec<String> {
    let arena_bytes = regions.arena().byte_size()
        + relax.map_or(0, |rx| {
            if rx.arena().ptr_eq(regions.arena()) {
                0
            } else {
                rx.arena().byte_size()
            }
        });
    let artifact_bytes = Artifact::encode(regions, relax).len();

    // Content-addressed dedup of this workload's own rows (staircases
    // repeat across states): directories + pools, in cells of 8 bytes.
    let nq = regions.qualities().len();
    let mut reg_store = RowStore::new(nq);
    let mut dir_cells = 0usize;
    for state in 0..regions.n_states() {
        reg_store.intern(regions.row(state));
        dir_cells += 1;
    }
    let mut pool_cells = reg_store.pool().len();
    if let Some(rx) = relax {
        let mut lo = RowStore::new(nq * rx.rho().len());
        let mut up = RowStore::new(nq * rx.rho().len());
        for state in 0..rx.n_states() {
            lo.intern(rx.lower_row(state));
            up.intern(rx.upper_row(state));
            dir_cells += 2;
        }
        pool_cells += lo.pool().len() + up.pool().len();
    }
    let dedup_bytes = (dir_cells + pool_cells) * 8;

    vec![
        label.to_string(),
        format!("{:.1}", arena_bytes as f64 / 1024.0),
        format!("{:.1}", artifact_bytes as f64 / 1024.0),
        format!("{:.1}", dedup_bytes as f64 / 1024.0),
    ]
}

fn main() {
    let encoder = MpegEncoder::new(EncoderConfig::paper(2024)).unwrap();
    let sys = encoder.system();
    let regions = compile_regions(sys);
    let relax = compile_relaxation(sys, &regions, StepSet::paper_mpeg());

    let r_stats = TableStats::of_regions(&regions);
    let x_stats = TableStats::of_relaxation(&relax);

    println!("== §4.1 symbolic table sizes (|A| = 1189, |Q| = 7, ρ = {{1,10,20,30,40,50}}) ==\n");
    let mut rows = vec![vec![
        "artifact".to_string(),
        "integers".to_string(),
        "paper integers".to_string(),
        "payload KiB".to_string(),
        "paper reported".to_string(),
    ]];
    rows.push(vec![
        "quality regions Rq".into(),
        format!("{}", r_stats.integers),
        "8323".into(),
        format!("{:.1}", r_stats.bytes as f64 / 1024.0),
        "~300 KB (incl. runtime)".into(),
    ]);
    rows.push(vec![
        "relaxation regions Rrq".into(),
        format!("{}", x_stats.integers),
        "99876".into(),
        format!("{:.1}", x_stats.bytes as f64 / 1024.0),
        "~800 KB (incl. runtime)".into(),
    ]);
    print!("{}", report::table(&rows));

    assert_eq!(r_stats.integers, 8_323, "must match the paper exactly");
    assert_eq!(x_stats.integers, 99_876, "must match the paper exactly");

    // Serialized artifact sizes (the form that crosses the tool boundary).
    let regions_text = tables::regions_to_string(&regions);
    let relax_text = tables::relaxation_to_string(&relax);
    println!(
        "\nserialized (text format): regions {:.1} KiB, relaxation {:.1} KiB",
        regions_text.len() as f64 / 1024.0,
        relax_text.len() as f64 / 1024.0
    );

    // Artifact-layer representations, per workload: the live arena, the
    // binary artifact (header + arena) and content-addressed row dedup.
    println!("\nartifact layer (KiB; dedup = per-workload row pools + directories):");
    let audio = AudioExperiment::tiny(5);
    let net = NetExperiment::tiny(5);
    let rows = vec![
        vec![
            "workload".to_string(),
            "arena".to_string(),
            "artifact".to_string(),
            "deduped".to_string(),
        ],
        artifact_row("mpeg (paper)", &regions, Some(&relax)),
        artifact_row("audio (tiny)", audio.regions(), None),
        artifact_row("net (tiny)", net.regions(), None),
    ];
    print!("{}", report::table(&rows));

    // Bonus: the linear-approximation extension's compression of Rq.
    println!("\nlinear-constraint approximation of Rq (conclusion's future work):");
    let mut rows = vec![vec![
        "tolerance".to_string(),
        "integers".to_string(),
        "vs exact".to_string(),
    ]];
    for tol_us in [0i64, 50, 200, 1_000] {
        let approx = ApproxRegionTable::compress(&regions, Time::from_us(tol_us));
        rows.push(vec![
            format!("{} us", tol_us),
            format!("{}", approx.integer_count()),
            format!(
                "{:.1}%",
                100.0 * approx.integer_count() as f64 / r_stats.integers as f64
            ),
        ]);
    }
    print!("{}", report::table(&rows));
}
