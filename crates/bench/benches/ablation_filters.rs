//! Ablation for the paper's §6 "Frequency vectors" future-work question
//! (early filtering via symbol counts) and the q-gram baseline: compares
//! the plain compressed index, the frequency-annotated index, and the
//! inverted q-gram index.

use simsearch_bench::Scale;
use simsearch_core::{EngineKind, IdxVariant, SearchEngine, Strategy};
use simsearch_testkit::bench::Harness;

fn main() {
    let h = Harness::new();
    let scale = Scale::bench();
    for (name, preset, queries) in [("city", scale.city(), 50), ("dna", scale.dna(), 20)] {
        let workload = preset.workload.prefix(h.queries(queries));
        let mut group = h.group(&format!("ablation_filters_{name}"));
        let plain = SearchEngine::build(
            &preset.dataset,
            EngineKind::IndexModern(IdxVariant::I2Compressed),
        );
        group.bench("radix_plain", || plain.run(&workload));
        let freq = SearchEngine::build(
            &preset.dataset,
            EngineKind::RadixFreq {
                strategy: Strategy::Sequential,
            },
        );
        group.bench("radix_freq_vectors", || freq.run(&workload));
        let qgram = SearchEngine::build(
            &preset.dataset,
            EngineKind::Qgram {
                q: if name == "dna" { 3 } else { 2 },
                strategy: Strategy::Sequential,
            },
        );
        group.bench("qgram_index", || qgram.run(&workload));
        group.finish();
    }
}
