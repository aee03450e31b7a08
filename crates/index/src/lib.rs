//! # simsearch-index
//!
//! Index structures for the `simsearch` workspace — the "well-known
//! index" side of the paper plus its q-gram baseline:
//!
//! * [`trie`] — the paper's base index (§4.1): uncompressed prefix tree
//!   with per-node min/max subtree lengths and incremental-DP descent;
//! * [`radix`] — the paper's compressed index (§4.2): radix trie with
//!   labelled edges, optional frequency-vector annotations (§6);
//! * [`qgram`] — inverted q-gram filter-and-verify baseline from the
//!   surrounding literature.
//!
//! All structures answer the same question — every record within edit
//! distance `k` of a query — and return a normalized
//! [`simsearch_data::MatchSet`], so cross-validation against the
//! sequential scan is an equality check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;
pub mod qgram;
pub mod radix;
pub mod trace;
pub mod trie;

pub use persist::{
    load_radix, load_radix_full, load_radix_with_stats, save_radix, save_radix_with_calibration,
    save_radix_with_stats, CalibrationRecord, PersistError,
};
pub use qgram::QgramIndex;
pub use radix::RadixTrie;
pub use trace::SearchTrace;
pub use trie::Trie;
