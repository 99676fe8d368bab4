//! The parallel grid runner: fan the (cell × protocol) work list over
//! a `std::thread` worker pool, stream completed outcomes back to the
//! coordinating thread in deterministic work order, and — when a cache
//! or manifest is attached — serve items from the content-addressed
//! cache, write misses back, and checkpoint per-item progress so a
//! killed run resumes byte-identically.

use crate::cache::{item_key, CacheKey, CacheStats, CellCache, SchemaVersions};
use crate::cell::{solve_cell, validate_cell, CellOutcome};
use crate::manifest::{ItemSource, ItemStatus, Manifest, ManifestItem};
use crate::summary::SummaryAccumulator;
use crate::{CacheReport, StudyConfig, StudySummary};
use edmac_core::GridCell;
use edmac_proto::{ProtocolRegistry, ProtocolSuite};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Knobs of one [`run_study`] session beyond the [`StudyConfig`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Write (and incrementally checkpoint) a run manifest here. When
    /// the file already exists it is loaded and *verified* — same
    /// config, same work list, same content keys — and the run
    /// becomes a resume: `done` items come back as cache hits, only
    /// pending items solve.
    pub manifest: Option<PathBuf>,
    /// Stop after this many work items (in sweep order), leaving the
    /// rest `pending` in the manifest — the CI resume gate's way of
    /// producing a partial run deterministically. `None` = all.
    pub max_items: Option<usize>,
    /// Artifact directory recorded in the manifest, so `--resume` can
    /// finish the artifacts where the killed run intended them.
    pub out_dir: Option<PathBuf>,
}

/// What one [`run_study`] session produced.
#[derive(Debug)]
pub struct StudyRunReport {
    /// Completed outcomes, in sweep order (a capped run returns the
    /// completed prefix).
    pub outcomes: Vec<CellOutcome>,
    /// The streamed summary over exactly those outcomes.
    pub summary: StudySummary,
    /// Cache counters (`None` when no cache directory is attached).
    pub cache: Option<CacheStats>,
    /// Work items the config enumerates.
    pub total_items: usize,
    /// Work items completed this session (≤ `total_items` under
    /// [`RunOptions::max_items`]).
    pub completed_items: usize,
}

/// Runs every (cell, protocol) work item of `config`'s grid and
/// returns the outcomes sorted by (cell index, protocol index) —
/// identical output regardless of worker count, because each item is
/// fully determined by its grid coordinates and per-cell seed.
///
/// This is the plain face of [`run_study`]: no cache, no manifest, no
/// item cap — and none of their overhead (content keys are not even
/// computed).
///
/// # Panics
///
/// Panics when a name in [`StudyConfig::protocols`] does not resolve
/// in [`ProtocolRegistry::builtin`] — validate user-supplied panels
/// first (the `study` binary does, via `edmac_bench::protocols_filter`).
pub fn run_cells(config: &StudyConfig) -> Vec<CellOutcome> {
    let mut plain = config.clone();
    plain.cache_dir = None;
    run_study(&plain, &RunOptions::default())
        .expect("a run without cache or manifest performs no I/O")
        .outcomes
}

/// Enumerates the work list: preset-filtered cells (each keeping its
/// full-grid index and seed) and the resolved protocol panel.
fn work_list(config: &StudyConfig) -> (Vec<GridCell>, Vec<Arc<dyn ProtocolSuite>>) {
    let mut cells = config.grid.cells();
    if let Some(preset) = config.preset {
        // Filter *after* enumeration: each kept cell retains its
        // full-grid index and seed, so a restricted run reproduces
        // the full run's rows exactly.
        cells.retain(|c| c.preset == preset);
    }
    // Resolve the panel once; suites are `Send + Sync`, so workers
    // share them and mint thread-local models per work item.
    let suites = ProtocolRegistry::builtin()
        .select(&config.protocols)
        .unwrap_or_else(|e| panic!("study protocol panel: {e}"));
    (cells, suites)
}

/// The validation intent of work item `grid_work`: `Some(horizon)`
/// when the run's stride selects it for packet-level validation. Part
/// of the content key — a cached outcome must not be served into a
/// run that would have validated it.
pub fn validation_intent(config: &StudyConfig, grid_work: usize) -> Option<edmac_units::Seconds> {
    (config.validate_every > 0 && grid_work.is_multiple_of(config.validate_every))
        .then_some(config.sim_horizon)
}

/// Content keys for the full work list, in sweep order. Realizes each
/// cell's deployment once to derive the [`edmac_mac::ProtocolConfig`]
/// the key hashes — only called when a cache or manifest is attached.
fn compute_keys(
    config: &StudyConfig,
    cells: &[GridCell],
    suites: &[Arc<dyn ProtocolSuite>],
) -> Vec<CacheKey> {
    let schema = SchemaVersions::current();
    let panel = suites.len();
    let mut keys = Vec::with_capacity(cells.len() * panel);
    for cell in cells {
        for (suite_idx, suite) in suites.iter().enumerate() {
            let grid_work = cell.index * panel + suite_idx;
            keys.push(item_key(
                &schema,
                cell,
                suite.as_ref(),
                config.requirements,
                validation_intent(config, grid_work),
            ));
        }
    }
    keys
}

/// Loads an existing manifest and verifies it pins *this* work list:
/// same config, same items, and — the strong check — every recorded
/// content key equal to the freshly recomputed one. A mismatch means
/// the code, schema, or config changed under the manifest; resuming
/// would silently mix regimes, so it is an error instead.
fn verify_resume(
    existing: &Manifest,
    config: &StudyConfig,
    cells: &[GridCell],
    suites: &[Arc<dyn ProtocolSuite>],
    keys: &[CacheKey],
) -> io::Result<()> {
    let err = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    // Threads are an execution knob, proven byte-invariant (see the
    // invariance test below) and absent from the content keys — a
    // resume may legitimately pick a different count. The no-op
    // `shards` field is ignored the same way, so a manifest recorded
    // with any shard count still resumes.
    let mut pinned = existing.config.clone();
    pinned.threads = config.threads;
    pinned.shards = config.shards;
    if pinned != *config {
        return err(format!(
            "manifest config does not match this run's config \
             (manifest: {:?})",
            existing.config
        ));
    }
    if existing.items.len() != keys.len() {
        return err(format!(
            "manifest enumerates {} items, this config {}",
            existing.items.len(),
            keys.len()
        ));
    }
    let panel = suites.len();
    for (work, (item, key)) in existing.items.iter().zip(keys).enumerate() {
        let cell = &cells[work / panel];
        let suite = &suites[work % panel];
        if item.work != work || item.cell != cell.index || item.protocol != suite.name() {
            return err(format!(
                "manifest item {work} pins ({}, {}), this config has ({}, {})",
                item.cell,
                item.protocol,
                cell.index,
                suite.name()
            ));
        }
        if item.key != key.digest_hex() {
            return err(format!(
                "manifest item {work} ({}, {}) was keyed {} but this code computes {} — \
                 the schema, model, or solver changed; re-run without --resume",
                item.cell,
                item.protocol,
                item.key,
                key.digest_hex()
            ));
        }
    }
    Ok(())
}

/// Runs the study with optional content-addressed caching, a resumable
/// manifest, and an item cap — streaming completed outcomes through a
/// [`SummaryAccumulator`] in deterministic work order.
///
/// Byte-determinism contract: for a fixed config, the artifacts
/// rendered from the returned report are identical whether items were
/// solved or served from cache, completed in one session or across a
/// kill/`--resume` pair — the cache round-trip is bit-exact and the
/// fold order is the sweep order, always.
///
/// # Errors
///
/// Fails on cache/manifest I/O errors and on resume-verification
/// mismatches; a run with neither attached performs no I/O.
///
/// # Panics
///
/// Panics when a name in [`StudyConfig::protocols`] does not resolve
/// (see [`run_cells`]), or when a worker thread panics.
pub fn run_study(config: &StudyConfig, options: &RunOptions) -> io::Result<StudyRunReport> {
    let (cells, suites) = work_list(config);
    let panel = suites.len();
    let total = cells.len() * panel;
    let limit = options.max_items.unwrap_or(total).min(total);

    let cache = match &config.cache_dir {
        Some(dir) => Some(CellCache::open(dir)?),
        None => None,
    };
    // Content keys are only needed (and only paid for) when something
    // consumes them.
    let keys = if cache.is_some() || options.manifest.is_some() {
        compute_keys(config, &cells, &suites)
    } else {
        Vec::new()
    };

    let mut manifest = match &options.manifest {
        Some(path) if path.exists() => {
            let existing = Manifest::load(path)?;
            verify_resume(&existing, config, &cells, &suites, &keys)?;
            Some(existing)
        }
        Some(_) => Some(Manifest {
            config: config.clone(),
            out_dir: options.out_dir.clone(),
            items: (0..total)
                .map(|work| ManifestItem {
                    work,
                    cell: cells[work / panel].index,
                    scenario: cells[work / panel].scenario.name.clone(),
                    protocol: suites[work % panel].name().to_string(),
                    key: keys[work].digest_hex(),
                    status: ItemStatus::Pending,
                    source: None,
                })
                .collect(),
        }),
        None => None,
    };
    if let (Some(m), Some(path)) = (&manifest, &options.manifest) {
        m.write(path)?;
    }

    let workers = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(limit.max(1))
    } else {
        config.threads.min(limit.max(1))
    };

    let next = AtomicUsize::new(0);
    // A worker's cache-store failure is fatal to the run but must not
    // poison the channel protocol; it parks the error here and the
    // coordinator surfaces it after the pool drains.
    let store_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let (tx, rx) = mpsc::channel::<(usize, CellOutcome, ItemSource)>();

    let mut acc = SummaryAccumulator::new();
    let mut outcomes: Vec<CellOutcome> = Vec::with_capacity(limit);
    let mut stats = CacheStats::default();
    let mut write_error: Option<io::Error> = None;

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            // Each worker moves in its own sender clone and shared
            // references; the coordinator keeps the receiving end.
            let tx = tx.clone();
            let (cells, suites, keys) = (&cells, &suites, &keys);
            let (cache, next, store_error) = (cache.as_ref(), &next, &store_error);
            scope.spawn(move || {
                // `dyn MacModel` is not `Send`, so each work item
                // mints its model from the shared suite; construction
                // is free.
                loop {
                    let work = next.fetch_add(1, Ordering::Relaxed);
                    if work >= limit {
                        break;
                    }
                    let cell = &cells[work / panel];
                    let suite_idx = work % panel;
                    let suite = suites[suite_idx].as_ref();
                    // Stride on the cell's *full-grid* work coordinate
                    // (not the filtered counter), so a preset-filtered
                    // run validates exactly the cells the full run
                    // would. Unfiltered runs: both coordinates agree.
                    let grid_work = cell.index * panel + suite_idx;
                    if let Some(cache) = cache {
                        if let Some(hit) = cache.load(&keys[work], cell, suite.name()) {
                            if tx.send((work, hit, ItemSource::Cache)).is_err() {
                                break;
                            }
                            continue;
                        }
                    }
                    let model = suite.model();
                    let mut outcome = solve_cell(cell, model.as_ref(), config.requirements);
                    if validation_intent(config, grid_work).is_some() && outcome.solved() {
                        outcome.validation =
                            validate_cell(cell, &outcome, suite, config.sim_horizon, 1);
                    }
                    if let Some(cache) = cache {
                        if let Err(e) = cache.store(&keys[work], &outcome) {
                            store_error
                                .lock()
                                .expect("store-error lock")
                                .get_or_insert(e);
                            break;
                        }
                    }
                    if tx.send((work, outcome, ItemSource::Solved)).is_err() {
                        break;
                    }
                }
            });
        }
        // The coordinator holds no sender: the loop ends when the last
        // worker drops its clone (normally or by panicking — the scope
        // re-raises the panic afterwards either way).
        drop(tx);

        // Reorder buffer: workers finish out of order, but the fold,
        // the manifest checkpoints, and the outcome vector all advance
        // strictly in work order — the same order a single thread
        // would produce, which is what keeps every downstream byte
        // deterministic.
        let mut pending: BTreeMap<usize, (CellOutcome, ItemSource)> = BTreeMap::new();
        let mut next_fold = 0usize;
        for (work, outcome, source) in rx.iter() {
            pending.insert(work, (outcome, source));
            while let Some((outcome, source)) = pending.remove(&next_fold) {
                acc.fold(&outcome);
                match source {
                    ItemSource::Cache => stats.hits += 1,
                    ItemSource::Solved => {
                        stats.misses += 1;
                        if cache.is_some() {
                            stats.writes += 1;
                        }
                    }
                }
                outcomes.push(outcome);
                if let (Some(m), Some(path)) = (&mut manifest, &options.manifest) {
                    m.items[next_fold].status = ItemStatus::Done;
                    m.items[next_fold].source = Some(source);
                    if write_error.is_none() {
                        if let Err(e) = m.write(path) {
                            write_error = Some(e);
                        }
                    }
                }
                next_fold += 1;
            }
        }
    });

    if let Some(e) = store_error.into_inner().expect("workers joined") {
        return Err(e);
    }
    if let Some(e) = write_error {
        return Err(e);
    }

    let completed_items = outcomes.len();
    fill_drift(&mut outcomes);
    Ok(StudyRunReport {
        summary: acc.finish(),
        outcomes,
        cache: cache.map(|_| stats),
        total_items: total,
        completed_items,
    })
}

/// Audits a cache directory against `config`'s work list without
/// solving anything: how many items would hit, how many would miss,
/// and how many on-disk entries no current key addresses (stale
/// survivors of a schema/model bump — or entries some *other* config
/// owns, when directories are shared).
///
/// # Errors
///
/// Propagates filesystem errors.
///
/// # Panics
///
/// Panics when a name in [`StudyConfig::protocols`] does not resolve
/// (see [`run_cells`]).
pub fn cache_stats(config: &StudyConfig, dir: &std::path::Path) -> io::Result<CacheReport> {
    let (cells, suites) = work_list(config);
    let keys = compute_keys(config, &cells, &suites);
    let cache = CellCache::open(dir)?;
    let mut hits = 0usize;
    for key in &keys {
        if cache.probe(key) {
            hits += 1;
        }
    }
    let addressed: std::collections::BTreeSet<String> =
        keys.iter().map(CacheKey::digest_hex).collect();
    let on_disk = cache.entry_digests()?;
    let invalidated = on_disk.iter().filter(|d| !addressed.contains(*d)).count();
    Ok(CacheReport {
        items: keys.len(),
        hits,
        misses: keys.len() - hits,
        invalidated,
        entries: on_disk.len(),
    })
}

/// Fills each outcome's `drift_nash`: the Euclidean distance between
/// its Nash concession profile and the mean profile of the *ring*
/// cells of the same protocol — how far the agreement's position
/// drifts from the paper's regular-ring regime as the topology gets
/// irregular. (The [`SummaryAccumulator`] replays this same
/// arithmetic over its recorded scalars; the two must stay in
/// lockstep.)
fn fill_drift(outcomes: &mut [CellOutcome]) {
    use edmac_core::PresetKind;
    // Per-protocol ring baseline profile.
    let mut baselines: Vec<(&'static str, (f64, f64), usize)> = Vec::new();
    for o in outcomes.iter() {
        if o.cell.preset != PresetKind::Ring || !o.solved() {
            continue;
        }
        if let Some(nash) = o.concept("nash") {
            let p = nash.profile(o.spans());
            match baselines
                .iter_mut()
                .find(|(name, _, _)| *name == o.protocol)
            {
                Some((_, sum, n)) => {
                    sum.0 += p.0;
                    sum.1 += p.1;
                    *n += 1;
                }
                None => baselines.push((o.protocol, p, 1)),
            }
        }
    }
    for (_, sum, n) in baselines.iter_mut() {
        sum.0 /= *n as f64;
        sum.1 /= *n as f64;
    }
    for o in outcomes.iter_mut() {
        let Some(&(_, base, _)) = baselines.iter().find(|(name, _, _)| *name == o.protocol) else {
            continue;
        };
        if let Some(nash) = o.concept("nash") {
            let p = nash.profile(o.spans());
            o.drift_nash = ((p.0 - base.0).powi(2) + (p.1 - base.1).powi(2)).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{run_study, RunOptions};
    use crate::manifest::{ItemSource, ItemStatus, Manifest};
    use crate::StudyConfig;
    use std::path::PathBuf;

    #[test]
    fn smoke_run_is_thread_count_invariant() {
        // A short horizon and a sparse stride keep this to a few
        // validation simulations while still proving the artifact
        // bytes cannot depend on the worker count.
        let mut base = StudyConfig::smoke();
        base.validate_every = 16;
        base.sim_horizon = edmac_units::Seconds::new(60.0);
        base.threads = 1;
        let reference = super::run_cells(&base);
        assert_eq!(
            reference.len(),
            base.grid.scenario_count() * crate::PROTOCOLS
        );
        assert!(
            reference.iter().any(|o| o.validation.is_some()),
            "stride must validate at least one cell"
        );
        for threads in [4, 2] {
            let mut config = base.clone();
            config.threads = threads;
            let outcomes = super::run_cells(&config);
            // Debug strings: NaN placeholders compare equal, unlike the
            // IEEE `PartialEq` they would fail under.
            assert_eq!(
                format!("{reference:?}"),
                format!("{outcomes:?}"),
                "outcomes must not depend on threads={threads}"
            );
            assert_eq!(
                crate::cells_csv(&reference),
                crate::cells_csv(&outcomes),
                "study_cells.csv must not depend on threads={threads}"
            );
            assert_eq!(
                crate::validation_csv(&reference),
                crate::validation_csv(&outcomes),
                "study_validation.csv must not depend on threads={threads}"
            );
        }
    }

    #[test]
    fn preset_filter_preserves_full_grid_cells_and_agreements() {
        let mut full = StudyConfig::smoke();
        full.validate_every = 0;
        let mut hotspot_only = full.clone();
        hotspot_only.preset = Some(edmac_core::PresetKind::HotspotDisk);
        let all = super::run_cells(&full);
        let filtered = super::run_cells(&hotspot_only);
        let expected: Vec<_> = all
            .iter()
            .filter(|o| o.cell.preset == edmac_core::PresetKind::HotspotDisk)
            .collect();
        assert_eq!(filtered.len(), expected.len());
        for (f, e) in filtered.iter().zip(expected) {
            // Same full-grid index, seed, and solve outputs; only the
            // run-composition drift column may differ (no ring
            // baseline in the filtered run). Debug strings: failed
            // concepts carry NaN fields, which IEEE PartialEq would
            // spuriously reject.
            assert_eq!(f.cell, e.cell);
            assert_eq!(f.nbs, e.nbs);
            assert_eq!(format!("{:?}", f.concepts), format!("{:?}", e.concepts));
        }
    }

    #[test]
    fn ring_cells_anchor_zero_ish_drift() {
        let mut config = StudyConfig::smoke();
        config.validate_every = 0;
        let outcomes = super::run_cells(&config);
        for o in outcomes
            .iter()
            .filter(|o| o.cell.preset == edmac_core::PresetKind::Ring && o.solved())
        {
            // One ring scenario in the smoke grid: its drift from its
            // own baseline is exactly zero.
            assert!(
                o.drift_nash.abs() < 1e-12,
                "{}: drift {}",
                o.protocol,
                o.drift_nash
            );
        }
        // Non-ring cells got *some* finite drift value.
        assert!(outcomes
            .iter()
            .filter(|o| o.solved() && o.cell.preset != edmac_core::PresetKind::Ring)
            .all(|o| o.drift_nash.is_finite()));
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edmac-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The tentpole's whole contract in one test: cold run populates
    /// the cache, warm run is 100% hits with zero solves, and every
    /// artifact byte matches.
    #[test]
    fn warm_cache_run_is_byte_identical_with_zero_solves() {
        let root = temp_root("warm");
        let mut config = StudyConfig::smoke();
        config.validate_every = 0;
        config.cache_dir = Some(root.join("cache"));
        let cold = run_study(&config, &RunOptions::default()).unwrap();
        let cold_stats = cold.cache.unwrap();
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses, 12);
        assert_eq!(cold_stats.writes, 12);
        let warm = run_study(&config, &RunOptions::default()).unwrap();
        let warm_stats = warm.cache.unwrap();
        assert_eq!(warm_stats.hits, 12, "warm run must be 100% cache hits");
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(
            crate::cells_csv(&cold.outcomes),
            crate::cells_csv(&warm.outcomes)
        );
        assert_eq!(
            crate::validation_csv(&cold.outcomes),
            crate::validation_csv(&warm.outcomes)
        );
        assert_eq!(
            crate::summary_json(&cold.summary),
            crate::summary_json(&warm.summary)
        );
        // And both match the plain (cache-less) path.
        let mut plain = config.clone();
        plain.cache_dir = None;
        let reference = super::run_cells(&plain);
        assert_eq!(
            crate::cells_csv(&reference),
            crate::cells_csv(&warm.outcomes)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A capped run leaves a partial manifest; resuming it completes
    /// only the missing items and reproduces the one-shot bytes.
    #[test]
    fn capped_then_resumed_run_matches_one_shot() {
        let root = temp_root("resume");
        let mut config = StudyConfig::smoke();
        config.validate_every = 0;
        config.cache_dir = Some(root.join("cache"));
        let manifest_path = root.join("manifest.json");
        let options = RunOptions {
            manifest: Some(manifest_path.clone()),
            max_items: Some(5),
            out_dir: Some(root.join("artifacts")),
        };
        let partial = run_study(&config, &options).unwrap();
        assert_eq!(partial.completed_items, 5);
        assert_eq!(partial.total_items, 12);
        assert_eq!(partial.outcomes.len(), 5);
        let ledger = Manifest::load(&manifest_path).unwrap();
        assert_eq!(ledger.done(), 5);
        assert_eq!(ledger.items[4].status, ItemStatus::Done);
        assert_eq!(ledger.items[5].status, ItemStatus::Pending);
        assert_eq!(ledger.out_dir, Some(root.join("artifacts")));

        // Resume: same manifest path, no cap. The 5 done items come
        // back as hits; the 7 pending ones solve.
        let resumed = run_study(
            &config,
            &RunOptions {
                manifest: Some(manifest_path.clone()),
                max_items: None,
                out_dir: Some(root.join("artifacts")),
            },
        )
        .unwrap();
        let stats = resumed.cache.unwrap();
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 7);
        let ledger = Manifest::load(&manifest_path).unwrap();
        assert_eq!(ledger.done(), 12);
        assert_eq!(ledger.items[0].source, Some(ItemSource::Cache));
        assert_eq!(ledger.items[11].source, Some(ItemSource::Solved));

        let mut plain = config.clone();
        plain.cache_dir = None;
        let one_shot = super::run_cells(&plain);
        assert_eq!(
            crate::cells_csv(&one_shot),
            crate::cells_csv(&resumed.outcomes),
            "resumed artifacts must match a one-shot run byte for byte"
        );
        assert_eq!(
            crate::summary_json(&crate::summarize(&one_shot)),
            crate::summary_json(&resumed.summary)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Resuming under changed code/config must refuse, not silently
    /// mix regimes.
    #[test]
    fn resume_rejects_a_foreign_manifest() {
        let root = temp_root("reject");
        let mut config = StudyConfig::smoke();
        config.validate_every = 0;
        config.cache_dir = Some(root.join("cache"));
        let manifest_path = root.join("manifest.json");
        run_study(
            &config,
            &RunOptions {
                manifest: Some(manifest_path.clone()),
                max_items: Some(2),
                out_dir: None,
            },
        )
        .unwrap();

        // Different config (validation stride) → config mismatch.
        let mut other = config.clone();
        other.validate_every = 4;
        let err = run_study(
            &other,
            &RunOptions {
                manifest: Some(manifest_path.clone()),
                max_items: None,
                out_dir: None,
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Tampered key → key mismatch (the model/schema-drift guard).
        let mut ledger = Manifest::load(&manifest_path).unwrap();
        ledger.items[0].key = "0".repeat(32);
        ledger.write(&manifest_path).unwrap();
        let err = run_study(
            &config,
            &RunOptions {
                manifest: Some(manifest_path),
                max_items: None,
                out_dir: None,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("re-run without --resume"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// `cache_stats` audits without solving: all-miss on a fresh dir,
    /// all-hit after a run, and stale entries counted after a key
    /// change.
    #[test]
    fn cache_stats_reports_hits_misses_and_stale_entries() {
        let root = temp_root("stats");
        let mut config = StudyConfig::smoke();
        config.validate_every = 0;
        let dir = root.join("cache");
        let fresh = super::cache_stats(&config, &dir).unwrap();
        assert_eq!((fresh.items, fresh.hits, fresh.misses), (12, 0, 12));
        assert_eq!(fresh.entries, 0);

        config.cache_dir = Some(dir.clone());
        run_study(&config, &RunOptions::default()).unwrap();
        let warm = super::cache_stats(&config, &dir).unwrap();
        assert_eq!((warm.hits, warm.misses, warm.invalidated), (12, 0, 0));
        assert_eq!(warm.entries, 12);

        // A config change (validation stride) re-keys the strided
        // items: those entries become stale, the rest still hit.
        let mut strided = config.clone();
        strided.validate_every = 4;
        let after = super::cache_stats(&strided, &dir).unwrap();
        assert_eq!(after.items, 12);
        assert_eq!(after.hits, 9, "only the 3 re-keyed items miss");
        assert_eq!(after.misses, 3);
        assert_eq!(after.invalidated, 3, "their old entries are now stale");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
