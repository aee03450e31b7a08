//! The three workloads and their seeded request streams.
//!
//! Datasets come from `simsearch_core::presets` (fixed seeds), so every
//! run serves identical bytes; only the query/operation stream depends
//! on the run's `--seed`. The same seed gives the same stream, which is
//! what lets the traced in-process replay execute exactly the requests
//! the loopback run sent.

use simsearch_core::presets;
use simsearch_data::{
    Alphabet, CityGenerator, Dataset, RecordId, Workload, WorkloadSpec, Xoshiro256,
    CITY_THRESHOLDS, DNA_THRESHOLDS,
};
use std::collections::HashSet;

/// Which served configuration a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Frozen city names, `--backend auto`: QUERY under load, plus an
    /// unloaded TOPK probe in traced runs.
    CityRead,
    /// Frozen DNA reads, `--backend auto`: QUERY only.
    DnaRead,
    /// City names seeded into `--live --shards 2 --shard-by hash`:
    /// QUERY, INSERT and DELETE.
    CityLive,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The `--workload` name.
    pub name: &'static str,
    /// Served configuration and traffic shape.
    pub kind: Kind,
    /// Records in the served dataset.
    pub records: usize,
    /// Offered rate (requests/s) of the warm-up and reference phases.
    pub ref_qps: f64,
    /// Latency limit of the rate search, milliseconds (p99 over all
    /// operations).
    pub slo_ms: f64,
    /// Distinct QUERY texts per run; requests draw from this pool, so
    /// every reply to the same text must be identical.
    pub pool: usize,
    /// Pool entries re-checked against the in-process V1 scan (per run
    /// on frozen data, per daemon on live data).
    pub oracle_sample: usize,
    /// Pool entries pinned through every backend arm in the traced run.
    pub pinned_sample: usize,
    /// `--memtable-cap` of the live daemon (unused when frozen).
    pub memtable_cap: usize,
    /// Daemon start-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// `TOPK` requests ask for this many neighbours.
pub const TOPK_COUNT: u32 = 10;
/// Shards of the live workload.
pub const LIVE_SHARDS: usize = 2;

/// Every workload the benchmark knows.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "city_read",
        kind: Kind::CityRead,
        records: presets::CITY_FULL_RECORDS,
        ref_qps: 70.0,
        slo_ms: 50.0,
        pool: 2_000,
        oracle_sample: 8,
        pinned_sample: 48,
        memtable_cap: 0,
        setups: 3,
    },
    Spec {
        name: "dna_read",
        kind: Kind::DnaRead,
        records: presets::DNA_FULL_RECORDS / 10,
        ref_qps: 8.0,
        slo_ms: 250.0,
        pool: 120,
        oracle_sample: 3,
        pinned_sample: 16,
        memtable_cap: 0,
        setups: 2,
    },
    Spec {
        name: "city_live",
        kind: Kind::CityLive,
        records: presets::CITY_FULL_RECORDS,
        ref_qps: 60.0,
        slo_ms: 100.0,
        pool: 2_000,
        oracle_sample: 4,
        pinned_sample: 0,
        memtable_cap: 32,
        setups: 3,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The served dataset (deterministic: preset seeds).
    pub fn dataset(&self) -> Dataset {
        match self.kind {
            Kind::CityRead | Kind::CityLive => presets::city(self.records).dataset,
            Kind::DnaRead => presets::dna(self.records).dataset,
        }
    }

    /// The `simsearch serve` flags beyond `--data`.
    pub fn serve_flags(&self) -> Vec<String> {
        let flags: Vec<String> = match self.kind {
            Kind::CityRead | Kind::DnaRead => vec!["--backend".into(), "auto".into()],
            Kind::CityLive => vec![
                "--live".into(),
                "--shards".into(),
                LIVE_SHARDS.to_string(),
                "--shard-by".into(),
                "hash".into(),
                "--memtable-cap".into(),
                self.memtable_cap.to_string(),
            ],
        };
        flags
    }

    /// The run's QUERY text pool, drawn from the dataset with the paper's
    /// threshold cycle and the run seed.
    pub fn query_pool(&self, dataset: &Dataset, seed: u64) -> Workload {
        let alphabet = Alphabet::from_corpus(dataset.records());
        let thresholds: &[u32] = match self.kind {
            Kind::DnaRead => &DNA_THRESHOLDS,
            _ => &CITY_THRESHOLDS,
        };
        WorkloadSpec::new(thresholds, self.pool, seed ^ 0x9E37_79B9_7F4A_7C15)
            .generate(dataset, &alphabet)
    }

    /// The run's operation stream.
    pub fn ops(&self, dataset_len: usize, seed: u64) -> OpStream {
        OpStream {
            kind: self.kind,
            rng: Xoshiro256::seed_from_u64(seed ^ 0x0B5E_55ED),
            pool: self.pool,
            inserts: CityGenerator::new(seed ^ 0x1A5E_27ED).generate(INSERT_POOL),
            inserted: 0,
            seed_records: dataset_len,
            deleted: HashSet::new(),
        }
    }
}

/// `TOPK` probes per traced `city_read` run (pool entries `0..`).
pub const TOPK_PROBES: usize = 4;
/// Distinct insert texts per run (reused cyclically beyond that).
const INSERT_POOL: usize = 8_192;

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `QUERY k text` with the pool entry's threshold.
    Query {
        /// Pool index.
        q: usize,
    },
    /// `TOPK 10 text` for a pool entry.
    TopK {
        /// Pool index.
        q: usize,
    },
    /// `INSERT text`.
    Insert {
        /// The record.
        text: Vec<u8>,
    },
    /// `DELETE id` of a seed record not deleted before in this stream.
    Delete {
        /// Global record id.
        id: RecordId,
    },
}

impl Op {
    /// The wire frame (no terminator).
    pub fn frame(&self, pool: &Workload) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Op::Query { q } => {
                let rec = &pool.queries[*q];
                out.extend_from_slice(format!("QUERY {} ", rec.threshold).as_bytes());
                out.extend_from_slice(&rec.text);
            }
            Op::TopK { q } => {
                out.extend_from_slice(format!("TOPK {TOPK_COUNT} ").as_bytes());
                out.extend_from_slice(&pool.queries[*q].text);
            }
            Op::Insert { text } => {
                out.extend_from_slice(b"INSERT ");
                out.extend_from_slice(text);
            }
            Op::Delete { id } => out.extend_from_slice(format!("DELETE {id}").as_bytes()),
        }
        out
    }

    /// Short class label for per-verb latency splits.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Query { .. } => OpClass::Query,
            Op::TopK { .. } => OpClass::TopK,
            Op::Insert { .. } | Op::Delete { .. } => OpClass::Write,
        }
    }
}

/// Latency classes reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `QUERY`
    Query,
    /// `TOPK`
    TopK,
    /// `INSERT` / `DELETE`
    Write,
}

/// The seeded operation generator: the mix is drawn per request, so a
/// prefix of the stream is the same no matter how long the run is.
pub struct OpStream {
    kind: Kind,
    rng: Xoshiro256,
    pool: usize,
    inserts: Dataset,
    inserted: usize,
    seed_records: usize,
    deleted: HashSet<RecordId>,
}

impl OpStream {
    /// The next request.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(1_000);
        match self.kind {
            Kind::CityLive if (700..950).contains(&roll) => {
                let text = self
                    .inserts
                    .get((self.inserted % self.inserts.len()) as u32)
                    .to_vec();
                self.inserted += 1;
                Op::Insert { text }
            }
            Kind::CityLive if roll >= 950 => loop {
                // Seed ids are known to be live until this stream
                // deletes them; never pick one twice.
                let id = self.rng.index(self.seed_records) as RecordId;
                if self.deleted.insert(id) {
                    break Op::Delete { id };
                }
            },
            _ => Op::Query {
                q: self.rng.index(self.pool),
            },
        }
    }
}

/// Poisson arrival offsets (seconds from phase start) for `rate`
/// requests/s over `seconds`.
pub fn poisson_arrivals(rng: &mut Xoshiro256, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 - u keeps ln() finite.
        t += -(1.0 - rng.f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_never_delete_twice() {
        let spec = by_name("city_live").unwrap();
        let a: Vec<Op> = {
            let mut s = spec.ops(1_000, 7);
            (0..500).map(|_| s.next_op()).collect()
        };
        let b: Vec<Op> = {
            let mut s = spec.ops(1_000, 7);
            (0..500).map(|_| s.next_op()).collect()
        };
        assert_eq!(a, b);
        let mut seen = HashSet::new();
        for op in &a {
            if let Op::Delete { id } = op {
                assert!(seen.insert(*id));
            }
        }
        assert!(a.iter().any(|o| matches!(o, Op::Insert { .. })));
    }

    #[test]
    fn poisson_rate_is_close() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let n = poisson_arrivals(&mut rng, 200.0, 50.0).len() as f64;
        assert!((n / 10_000.0 - 1.0).abs() < 0.05, "{n}");
    }
}
