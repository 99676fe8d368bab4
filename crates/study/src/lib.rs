//! The bargaining-vs-aggregate study harness.
//!
//! ROADMAP named two unwritten studies the scenario layer (PR 2) was
//! built for: a systematic **bargaining-vs-aggregate** comparison
//! (Kannan & Wei's strategic-vs-aggregate energy minimization;
//! Khodaian et al.'s utility-energy trade-off) and a sweep of
//! **agreement drift** across topology irregularity, hotspot intensity
//! and burst duty. This crate runs both:
//!
//! 1. [`StudyGrid`] (from `edmac-core`) enumerates the scenario space —
//!    topology preset × node count × hotspot intensity × burst duty ×
//!    ring depth — with a deterministic seed per cell;
//! 2. [`run_cells`] fans (cell × protocol) work items over a
//!    `std::thread` pool; each item solves (P1)/(P2), the continuous
//!    NBS, and the full discrete [`SolutionConcept`] panel (symmetric
//!    and weighted Nash, Kalai–Smorodinsky, egalitarian, and the
//!    weighted-sum aggregate) on the same sampled frontier;
//! 3. a configurable subset of agreements is cross-validated
//!    **packet-by-packet** through `Scenario::simulation` at the NBS
//!    parameters, yielding model-vs-sim energy/delay error bands;
//! 4. [`summarize`] reduces the outcomes to the headline numbers and
//!    [`write_artifacts`] streams everything to schema-versioned,
//!    bit-deterministic CSV/JSON artifacts.
//!
//! Determinism is load-bearing: equal configs produce byte-identical
//! artifacts regardless of worker count, which is what lets CI diff a
//! smoke run against golden files.
//!
//! [`SolutionConcept`]: edmac_game::SolutionConcept
//!
//! # Example
//!
//! ```
//! use edmac_study::StudyConfig;
//!
//! let mut config = StudyConfig::smoke();
//! config.validate_every = 0; // skip simulations in this example
//! let outcomes = edmac_study::run_cells(&config);
//! let summary = edmac_study::summarize(&outcomes);
//! assert_eq!(summary.protocol_cells, 12);
//! assert!(summary.solved_cells > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs, missing_debug_implementations)]

mod artifact;
mod cache;
mod cell;
mod coexistence;
pub mod json;
mod manifest;
mod runner;
mod summary;

pub use artifact::{
    cells_csv, summary_json, validation_csv, write_artifacts, CELLS_SCHEMA, CELLS_SCHEMA_VERSION,
    SUMMARY_SCHEMA, VALIDATION_SCHEMA, VALIDATION_SCHEMA_VERSION,
};
pub use cache::{
    cache_key, item_key, item_protocol_config, render_entry, CacheKey, CacheReport, CacheStats,
    CellCache, SchemaVersions, CACHE_ENTRY_SCHEMA, MODEL_SCHEMA_VERSION,
};
pub use cell::{
    models_for, solve_cell, validate_cell, weight_grid, CellOutcome, ConceptOutcome,
    ValidationOutcome, WeightSweep, PROTOCOLS, VALIDATION_SAMPLE_FLOOR, WEIGHT_MATCH_TOL,
};
pub use coexistence::{
    coexistence_cells_csv, coexistence_summary_json, run_coexistence_study,
    write_coexistence_artifacts, CoexistenceConfig, CoexistenceOutcome, JointCell, NetworkMeasure,
    NetworkPlan, COEXISTENCE_SCHEMA, COEXISTENCE_SCHEMA_VERSION, STRATEGY_SCALES,
};
pub use manifest::{ItemSource, ItemStatus, Manifest, ManifestItem, MANIFEST_SCHEMA};
pub use runner::{
    cache_stats, run_cells, run_study, validation_intent, RunOptions, StudyRunReport,
};
pub use summary::{
    summarize, AggregateGap, DriftBucket, StudySummary, SummaryAccumulator, ValidationBands,
    WeightSweepSummary,
};

use edmac_core::{AppRequirements, PresetKind, StudyGrid};
use edmac_units::{Joules, Seconds};
use std::path::PathBuf;

/// One study run's knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// The scenario grid to sweep.
    pub grid: StudyGrid,
    /// Restrict the run to one preset family (`None` = all). The
    /// filter is applied *after* grid enumeration so every cell keeps
    /// the index and seed it has in the full grid — a `--preset
    /// hotspot` run reproduces the full run's topology draws and
    /// agreements exactly (only run-composition aggregates like the
    /// ring-baseline drift differ).
    pub preset: Option<PresetKind>,
    /// Requirement caps every cell is solved under. The defaults are
    /// deliberately loose (0.5 J per 10 s epoch, 30 s delay) so the
    /// study observes each protocol's *unconstrained* frontier; tight
    /// caps turn unreachable cells into recorded `infeasible` rows.
    pub requirements: AppRequirements,
    /// Validate every k-th (cell × protocol) work item packet-by-
    /// packet (0 disables validation).
    pub validate_every: usize,
    /// Simulated horizon of each validation run.
    pub sim_horizon: Seconds,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Has no effect. It once set the shard count of each validation
    /// simulation, and every value always produced the same bytes; the
    /// sharded engine is gone. The field stays only for the benchmark
    /// harness, which still sets it, and for the manifest's v1 layout,
    /// which records it so existing manifests still resume. It goes
    /// once a benchmark change retires the `smoke-shards2` workload and
    /// the `grid-full` shard probe.
    pub shards: usize,
    /// The protocol panel, as registry names resolved against
    /// [`edmac_proto::ProtocolRegistry::builtin`] (default: the paper
    /// trio). Order is sweep order and artifact row order.
    pub protocols: Vec<String>,
    /// Content-addressed cell cache directory (`None` = caching off).
    /// Work items found under their [`cache_key`] are served from
    /// disk instead of re-solved; misses are written back. The key
    /// embeds the schema/model versions, so a bump re-runs exactly the
    /// cells it invalidates — and because cached outcomes are
    /// bit-exact, a warm run's artifacts are byte-identical to a cold
    /// run's (CI's `study-cache` job asserts this).
    pub cache_dir: Option<PathBuf>,
}

impl StudyConfig {
    fn with_grid(grid: StudyGrid, validate_every: usize) -> StudyConfig {
        StudyConfig {
            grid,
            preset: None,
            requirements: AppRequirements::new(Joules::new(0.5), Seconds::new(30.0))
                .expect("static requirements are valid"),
            validate_every,
            sim_horizon: Seconds::new(600.0),
            threads: 0,
            shards: 1,
            protocols: edmac_proto::PAPER_TRIO
                .iter()
                .map(|s| s.to_string())
                .collect(),
            cache_dir: None,
        }
    }

    /// The pinned CI smoke run: 4 scenarios × 3 protocols, every 4th
    /// cell validated.
    pub fn smoke() -> StudyConfig {
        StudyConfig::with_grid(StudyGrid::smoke(), 4)
    }

    /// The full sweep: 72 scenarios × 3 protocols (216 cells), every
    /// 8th cell validated.
    pub fn full() -> StudyConfig {
        StudyConfig::with_grid(StudyGrid::full(), 8)
    }
}
