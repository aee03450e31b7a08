//! The traced run's deterministic counts — pinned-arm DP cells per
//! query class and static-table routing of the query pool — must repeat
//! exactly for one seed: they are the regression-gate-grade part of the
//! per-layer report, with no wall-clock time in them.

use simsearch_core::presets;
use simsearch_perfbench::spec;
use simsearch_perfbench::trace::{build_arms, counts, Counts};

fn counts_for(workload: &str, records: usize, seed: u64) -> Counts {
    let spec = spec::by_name(workload).unwrap();
    let dataset = match workload {
        "dna_read" => presets::dna(records).dataset,
        _ => presets::city(records).dataset,
    };
    let pool = spec.query_pool(&dataset, seed);
    let arms = build_arms(&dataset);
    counts(&arms, &dataset, &pool, 24)
}

#[test]
fn city_counts_repeat_exactly_for_a_seed() {
    let a = counts_for("city_read", 3_000, 11);
    let b = counts_for("city_read", 3_000, 11);
    assert_eq!(a, b);
    assert_eq!(
        a.static_routes.iter().map(|r| r.1).sum::<u64>(),
        spec::by_name("city_read").unwrap().pool as u64,
        "every pool query routed once"
    );
    assert!(a
        .cells_by_k
        .iter()
        .all(|&(_, v7, v8, n)| n > 0 && v7 > 0 && v8 > 0));
    assert_ne!(
        a,
        counts_for("city_read", 3_000, 12),
        "another seed draws other queries"
    );
}

#[test]
fn dna_counts_repeat_exactly_for_a_seed() {
    let a = counts_for("dna_read", 400, 5);
    assert_eq!(a, counts_for("dna_read", 400, 5));
    let ks: Vec<u32> = a.cells_by_k.iter().map(|e| e.0).collect();
    assert_eq!(ks, vec![0, 4, 8, 16], "the paper's DNA threshold cycle");
}
