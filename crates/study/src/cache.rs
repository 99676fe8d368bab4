//! The content-addressed cell cache: one serialized [`CellOutcome`]
//! per (cell × protocol) work item, addressed by a stable content key.
//!
//! The key canonicalizes everything an outcome depends on — the
//! scenario parameters (topology spec, traffic spec, axis
//! coordinates), the per-cell seed, the solve requirements, the
//! protocol name plus its derived [`ProtocolConfig`], the validation
//! intent, and the schema/model versions ([`SchemaVersions`]) — and
//! nothing it does not (thread count, shard count, grid position).
//! Two consequences, both load-bearing:
//!
//! * a model or schema change re-runs exactly the cells it
//!   invalidates: bumping [`MODEL_SCHEMA_VERSION`] (or an artifact
//!   schema version) shifts every key, while a change confined to one
//!   protocol's configuration shifts only that protocol's keys;
//! * the key doubles as the determinism contract — equal keys must
//!   mean byte-equal outcomes, which is what lets CI rerun the smoke
//!   grid warm and diff the artifacts against a cold run bit for bit.
//!
//! Entries are written atomically (temp file, fsync, rename) and every
//! float round-trips through its IEEE bit pattern, so a cache hit
//! reproduces the solved outcome *exactly* — not to six decimals, but
//! to the bit. A corrupt, truncated, or stale entry (its embedded
//! canonical key no longer matches) is treated as a miss and
//! overwritten, never trusted.

use crate::cell::{CellOutcome, ConceptOutcome, ValidationOutcome, WeightSweep};
use edmac_core::{AppRequirements, GridCell, TopologySpec, TrafficSpec};
use edmac_mac::ProtocolConfig;
use edmac_proto::ProtocolSuite;
use edmac_units::Seconds;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the analytic solve itself: the model formulas, the
/// frontier sampler, the concept panel, and the optimizer chain. Bump
/// on any change that shifts a solved cell's numbers without touching
/// an artifact schema — it invalidates every cache entry, which is the
/// point: a cache must never serve outcomes an old solver produced.
pub const MODEL_SCHEMA_VERSION: u32 = 1;

/// Schema tag of one serialized cache entry file.
pub const CACHE_ENTRY_SCHEMA: &str = "edmac-study/cache-entry/v1";

/// The schema-version tuple a content key embeds. CI also keys the
/// persistent `--cache-dir` on this tuple, so bumping any component
/// forces a clean cross-run miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaVersions {
    /// [`crate::CELLS_SCHEMA_VERSION`]: the per-cell artifact schema.
    pub cells: u32,
    /// [`crate::VALIDATION_SCHEMA_VERSION`]: the validation artifact
    /// schema (validation rows are derived from cached outcomes).
    pub validation: u32,
    /// [`MODEL_SCHEMA_VERSION`]: the solver/model formula version.
    pub model: u32,
}

impl SchemaVersions {
    /// The tuple every production run keys on.
    pub const fn current() -> SchemaVersions {
        SchemaVersions {
            cells: crate::CELLS_SCHEMA_VERSION,
            validation: crate::VALIDATION_SCHEMA_VERSION,
            model: MODEL_SCHEMA_VERSION,
        }
    }
}

/// IEEE-exact float field: the 16-hex-digit bit pattern. `1.5` and
/// `1.50` canonicalize identically; NaN payloads round-trip.
fn fbits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_fbits(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// A content key: the human-auditable canonical string plus its
/// 128-bit digest (the cache filename).
///
/// Distinct canonical strings are distinct keys by definition; the
/// digest only names the file. Entry files embed the canonical string
/// and verify it on load, so even a digest collision degrades to a
/// cache miss, never to a wrong outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    canonical: String,
    digest: [u64; 2],
}

impl CacheKey {
    /// Builds the key from an explicit canonical string (the
    /// production constructor is [`item_key`]).
    pub fn from_canonical(canonical: String) -> CacheKey {
        let digest = digest128(canonical.as_bytes());
        CacheKey { canonical, digest }
    }

    /// The canonical key string (every hashed component, in order).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 32-hex-digit digest used as the entry filename.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}{:016x}", self.digest[0], self.digest[1])
    }
}

/// 128-bit content digest: FNV-1a over the bytes forward and over the
/// bytes reversed (two independent mixing orders). Collisions are
/// astronomically unlikely at study scale, and harmless anyway — the
/// embedded canonical string is the source of truth.
fn digest128(bytes: &[u8]) -> [u64; 2] {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fold = |acc: u64, b: &u8| (acc ^ u64::from(*b)).wrapping_mul(PRIME);
    [
        bytes.iter().fold(OFFSET, fold),
        bytes.iter().rev().fold(!OFFSET, fold),
    ]
}

fn topology_canonical(spec: &TopologySpec) -> String {
    match *spec {
        TopologySpec::Ring { depth, density } => format!("ring(d={depth},c={density})"),
        TopologySpec::UniformDisk {
            nodes,
            field_radius,
        } => format!("disk(n={nodes},r={})", fbits(field_radius)),
        TopologySpec::Line { nodes, spacing } => {
            format!("line(n={nodes},s={})", fbits(spacing))
        }
        TopologySpec::Grid {
            cols,
            rows,
            spacing,
        } => {
            format!("grid(c={cols},r={rows},s={})", fbits(spacing))
        }
    }
}

fn traffic_canonical(spec: &TrafficSpec) -> String {
    match *spec {
        TrafficSpec::Uniform { sample_period } => {
            format!("uniform(p={})", fbits(sample_period.value()))
        }
        TrafficSpec::Hotspot {
            sample_period,
            factor,
            fraction,
        } => format!(
            "hotspot(p={},f={},q={})",
            fbits(sample_period.value()),
            fbits(factor),
            fbits(fraction)
        ),
        TrafficSpec::EventBurst {
            sample_period,
            factor,
            every,
            duration,
        } => format!(
            "burst(p={},f={},e={},d={})",
            fbits(sample_period.value()),
            fbits(factor),
            fbits(every.value()),
            fbits(duration.value())
        ),
    }
}

/// Builds the content key for one (cell × protocol) work item.
///
/// `config` is the protocol's deployment-derived [`ProtocolConfig`]
/// (`None` when the deployment itself fails to build — the infeasible
/// outcome is content too, and cacheable). `validation` is the item's
/// validation intent: `Some(horizon)` when the run's stride selects it
/// for packet-level validation. The cell's grid *index* is
/// deliberately absent — a scenario keeps its cache entries when the
/// grid around it grows or reorders.
pub fn cache_key(
    schema: &SchemaVersions,
    cell: &GridCell,
    requirements: AppRequirements,
    protocol: &str,
    config: Option<&ProtocolConfig>,
    validation: Option<Seconds>,
) -> CacheKey {
    let mut canonical = String::with_capacity(256);
    let _ = write!(
        canonical,
        "cells=v{};validation=v{};model=v{};preset={};topology={};traffic={};nodes={};\
         depth={};hotspot={};duty={};seed={};budget={};bound={};protocol={};config={};validate={}",
        schema.cells,
        schema.validation,
        schema.model,
        cell.preset,
        topology_canonical(&cell.scenario.topology),
        traffic_canonical(&cell.scenario.traffic),
        cell.nodes,
        cell.depth,
        fbits(cell.hotspot_factor),
        fbits(cell.burst_duty),
        cell.seed,
        fbits(requirements.energy_budget().value()),
        fbits(requirements.latency_bound().value()),
        protocol,
        config.map(|c| c.to_string()).unwrap_or_else(|| "NA".into()),
        validation
            .map(|h| format!("h{}", fbits(h.value())))
            .unwrap_or_else(|| "none".into()),
    );
    CacheKey::from_canonical(canonical)
}

/// Derives the item's [`ProtocolConfig`] the way [`crate::solve_cell`]
/// will (realize the topology, build the deployment, `configure`), so
/// the key hashes the exact structural record the solve runs under.
/// `None` when the deployment fails to build — which is itself a
/// deterministic, cacheable fact about the cell.
pub fn item_protocol_config(cell: &GridCell, suite: &dyn ProtocolSuite) -> Option<ProtocolConfig> {
    let env = cell.scenario.deployment(cell.seed).ok()?;
    Some(suite.model().configure(&env))
}

/// Builds the content key for a work item through its suite: the
/// production path ([`cache_key`] is the component-explicit core the
/// invalidation tests drive directly).
pub fn item_key(
    schema: &SchemaVersions,
    cell: &GridCell,
    suite: &dyn ProtocolSuite,
    requirements: AppRequirements,
    validation: Option<Seconds>,
) -> CacheKey {
    let config = item_protocol_config(cell, suite);
    cache_key(
        schema,
        cell,
        requirements,
        suite.name(),
        config.as_ref(),
        validation,
    )
}

/// Per-run cache counters (completed work items only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Items served from the cache.
    pub hits: usize,
    /// Items that had to be solved.
    pub misses: usize,
    /// Entries written back after a miss.
    pub writes: usize,
}

/// What `study cache-stats` reports for a (config, cache-dir) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheReport {
    /// Work items the config enumerates.
    pub items: usize,
    /// Items whose entry is present and loadable (a rerun's hits).
    pub hits: usize,
    /// Items with no usable entry (a rerun's misses).
    pub misses: usize,
    /// Entry files in the directory that no current key addresses —
    /// stale survivors of a schema/model bump or an old grid. (Entries
    /// another config still addresses count here too; the report is
    /// relative to *this* config's work list.)
    pub invalidated: usize,
    /// Total entry files in the directory.
    pub entries: usize,
}

/// The on-disk cache: one [`CACHE_ENTRY_SCHEMA`] file per key digest
/// under the cache directory.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Opens (creating if missing) the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<CellCache> {
        std::fs::create_dir_all(dir)?;
        Ok(CellCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.entry", key.digest_hex()))
    }

    /// Loads the outcome stored under `key`, reattaching the caller's
    /// grid coordinates. Any mismatch — missing file, schema drift,
    /// stale canonical key, parse failure, wrong protocol — is a miss
    /// (`None`), never an error: the caller re-solves and overwrites.
    pub fn load(
        &self,
        key: &CacheKey,
        cell: &GridCell,
        protocol: &'static str,
    ) -> Option<CellOutcome> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        parse_entry(&text, key, cell, protocol)
    }

    /// Whether a usable entry exists under `key`: the file is present,
    /// schema-tagged, and embeds exactly this canonical key (what
    /// `study cache-stats` counts as a hit without deserializing the
    /// whole outcome).
    pub fn probe(&self, key: &CacheKey) -> bool {
        let Ok(text) = std::fs::read_to_string(self.entry_path(key)) else {
            return false;
        };
        let mut lines = text.lines();
        lines.next() == Some(CACHE_ENTRY_SCHEMA)
            && lines.next().and_then(|l| l.strip_prefix("key ")) == Some(key.canonical())
    }

    /// Loads the *verbatim text* of the entry stored under `key`,
    /// validating it end to end first: the text must fully parse back
    /// into an outcome via the same strict path as [`CellCache::load`],
    /// so a truncated or corrupt file degrades to a miss (`None`) and
    /// is never served. This is the disk tier of `edmac-serve`, where
    /// the response contract is byte-identity with the stored entry.
    pub fn load_text(
        &self,
        key: &CacheKey,
        cell: &GridCell,
        protocol: &'static str,
    ) -> Option<String> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        parse_entry(&text, key, cell, protocol)?;
        Some(text)
    }

    /// Serializes `outcome` under `key` (atomic rename, fsync'd).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, key: &CacheKey, outcome: &CellOutcome) -> io::Result<()> {
        write_atomic(&self.entry_path(key), &render_entry(key, outcome))
    }

    /// Digest set of every `.entry` file currently in the directory.
    pub fn entry_digests(&self) -> io::Result<Vec<String>> {
        let mut digests = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(digest) = name.strip_suffix(".entry") {
                digests.push(digest.to_string());
            }
        }
        digests.sort_unstable();
        Ok(digests)
    }
}

/// Writes `contents` to `path` durably: temp file in the same
/// directory, fsync, atomic rename (plus a best-effort directory
/// fsync, so a crash leaves either the old file or the new one, never
/// a torn half-write).
pub(crate) fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    use std::io::Write as _;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

fn opt4(v: Option<(f64, f64, f64, f64)>) -> String {
    match v {
        Some((a, b, c, d)) => format!("{} {} {} {}", fbits(a), fbits(b), fbits(c), fbits(d)),
        None => "none".into(),
    }
}

fn config_line(config: Option<&ProtocolConfig>) -> String {
    match config {
        None => "none".into(),
        Some(ProtocolConfig::Xmac { strobe_budget }) => format!("xmac {strobe_budget}"),
        Some(ProtocolConfig::Dmac { stagger_depth }) => format!("dmac {stagger_depth}"),
        Some(ProtocolConfig::Lmac {
            frame_slots,
            slot_demand,
        }) => match slot_demand {
            Some(need) => format!("lmac {frame_slots} {need}"),
            None => format!("lmac {frame_slots} -"),
        },
        Some(ProtocolConfig::Scp { sync_period_ms }) => format!("scp {sync_period_ms}"),
        Some(ProtocolConfig::Csma { contenders }) => format!("csma {contenders}"),
    }
}

fn parse_config_line(rest: &str) -> Option<Option<ProtocolConfig>> {
    if rest == "none" {
        return Some(None);
    }
    let mut parts = rest.split(' ');
    let tag = parts.next()?;
    let config = match tag {
        "xmac" => ProtocolConfig::Xmac {
            strobe_budget: parts.next()?.parse().ok()?,
        },
        "dmac" => ProtocolConfig::Dmac {
            stagger_depth: parts.next()?.parse().ok()?,
        },
        "lmac" => {
            let frame_slots = parts.next()?.parse().ok()?;
            let demand = parts.next()?;
            ProtocolConfig::Lmac {
                frame_slots,
                slot_demand: if demand == "-" {
                    None
                } else {
                    Some(demand.parse().ok()?)
                },
            }
        }
        "scp" => ProtocolConfig::Scp {
            sync_period_ms: parts.next()?.parse().ok()?,
        },
        "csma" => ProtocolConfig::Csma {
            contenders: parts.next()?.parse().ok()?,
        },
        _ => return None,
    };
    Some(Some(config))
}

/// One-line escaping for free-form strings (infeasibility messages):
/// backslash and newline, the only bytes that would break the
/// line-oriented format.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Serializes one outcome to the cache-entry text stored under `key` —
/// the exact bytes [`CellCache::store`] writes, and the exact payload
/// `edmac-serve` returns for the key, which is what extends the
/// byte-determinism gate to the wire.
pub fn render_entry(key: &CacheKey, o: &CellOutcome) -> String {
    let mut out = String::with_capacity(2048);
    let _ = writeln!(out, "{CACHE_ENTRY_SCHEMA}");
    let _ = writeln!(out, "key {}", key.canonical());
    let _ = writeln!(out, "protocol {}", o.protocol);
    match &o.infeasible {
        None => {
            let _ = writeln!(out, "status ok");
        }
        Some(msg) => {
            let _ = writeln!(out, "status infeasible {}", escape(msg));
        }
    }
    let _ = writeln!(out, "realized {} {}", o.realized_nodes, o.realized_depth);
    let _ = writeln!(out, "irregularity {}", fbits(o.irregularity));
    let _ = writeln!(out, "config {}", config_line(o.config.as_ref()));
    let _ = writeln!(out, "anchors {}", opt4(o.anchors));
    match &o.nbs {
        None => {
            let _ = writeln!(out, "nbs none");
        }
        Some((e, l, params)) => {
            let _ = write!(out, "nbs {} {}", fbits(*e), fbits(*l));
            for p in params {
                let _ = write!(out, " {}", fbits(*p));
            }
            out.push('\n');
        }
    }
    let _ = writeln!(out, "fairness {}", fbits(o.fairness_gap));
    let _ = writeln!(out, "concepts {}", o.concepts.len());
    for c in &o.concepts {
        // The concept key is last on the line, so it may contain
        // spaces without ambiguity.
        let _ = writeln!(
            out,
            "concept {} {} {} {} {} {} {} {} {}",
            u8::from(c.strategic),
            u8::from(c.solved),
            fbits(c.energy_j),
            fbits(c.latency_s),
            fbits(c.gain_e),
            fbits(c.gain_l),
            fbits(c.nash_product),
            fbits(c.min_gain_norm),
            c.key,
        );
    }
    match &o.weight_sweep {
        None => {
            let _ = writeln!(out, "wsweep none");
        }
        Some(s) => {
            let _ = write!(
                out,
                "wsweep {} {} {}",
                fbits(s.best_w),
                fbits(s.best_distance),
                s.samples.len()
            );
            for (w, d) in &s.samples {
                let _ = write!(out, " {}:{}", fbits(*w), fbits(*d));
            }
            out.push('\n');
        }
    }
    match &o.validation {
        None => {
            let _ = writeln!(out, "validation none");
        }
        Some(v) => {
            let _ = write!(out, "validation {} {}", v.seed, v.params.len());
            for p in &v.params {
                let _ = write!(out, " {}", fbits(*p));
            }
            let _ = writeln!(
                out,
                " {} {} {} {} {} {} {} {} {} {}",
                fbits(v.model_e),
                fbits(v.sim_e),
                fbits(v.err_e),
                fbits(v.model_l),
                fbits(v.sim_l),
                v.sim_l_samples,
                fbits(v.sim_l_p95),
                fbits(v.sim_l_max),
                fbits(v.err_l),
                fbits(v.delivery),
            );
        }
    }
    out
}

/// Strict parse of one entry; any deviation returns `None` (a miss).
fn parse_entry(
    text: &str,
    key: &CacheKey,
    cell: &GridCell,
    protocol: &'static str,
) -> Option<CellOutcome> {
    let mut lines = text.lines();
    if lines.next()? != CACHE_ENTRY_SCHEMA {
        return None;
    }
    if lines.next()?.strip_prefix("key ")? != key.canonical() {
        return None;
    }
    if lines.next()?.strip_prefix("protocol ")? != protocol {
        return None;
    }
    let status = lines.next()?.strip_prefix("status ")?;
    let infeasible = if status == "ok" {
        None
    } else {
        Some(unescape(status.strip_prefix("infeasible ")?))
    };
    let mut realized = lines.next()?.strip_prefix("realized ")?.split(' ');
    let realized_nodes = realized.next()?.parse().ok()?;
    let realized_depth = realized.next()?.parse().ok()?;
    let irregularity = parse_fbits(lines.next()?.strip_prefix("irregularity ")?)?;
    let config = parse_config_line(lines.next()?.strip_prefix("config ")?)?;
    let anchors_line = lines.next()?.strip_prefix("anchors ")?;
    let anchors = if anchors_line == "none" {
        None
    } else {
        let mut f = anchors_line.split(' ').map(parse_fbits);
        Some((f.next()??, f.next()??, f.next()??, f.next()??))
    };
    let nbs_line = lines.next()?.strip_prefix("nbs ")?;
    let nbs = if nbs_line == "none" {
        None
    } else {
        let mut f = nbs_line.split(' ');
        let e = parse_fbits(f.next()?)?;
        let l = parse_fbits(f.next()?)?;
        let params: Option<Vec<f64>> = f.map(parse_fbits).collect();
        Some((e, l, params?))
    };
    let fairness_gap = parse_fbits(lines.next()?.strip_prefix("fairness ")?)?;
    let count: usize = lines.next()?.strip_prefix("concepts ")?.parse().ok()?;
    let mut concepts = Vec::new();
    for _ in 0..count {
        let line = lines.next()?.strip_prefix("concept ")?;
        let mut f = line.splitn(9, ' ');
        let strategic = f.next()? == "1";
        let solved = f.next()? == "1";
        let energy_j = parse_fbits(f.next()?)?;
        let latency_s = parse_fbits(f.next()?)?;
        let gain_e = parse_fbits(f.next()?)?;
        let gain_l = parse_fbits(f.next()?)?;
        let nash_product = parse_fbits(f.next()?)?;
        let min_gain_norm = parse_fbits(f.next()?)?;
        let key = f.next()?.to_string();
        concepts.push(ConceptOutcome {
            key,
            strategic,
            solved,
            energy_j,
            latency_s,
            gain_e,
            gain_l,
            nash_product,
            min_gain_norm,
        });
    }
    let sweep_line = lines.next()?.strip_prefix("wsweep ")?;
    let weight_sweep = if sweep_line == "none" {
        None
    } else {
        let mut f = sweep_line.split(' ');
        let best_w = parse_fbits(f.next()?)?;
        let best_distance = parse_fbits(f.next()?)?;
        let n: usize = f.next()?.parse().ok()?;
        let mut samples = Vec::new();
        for _ in 0..n {
            let (w, d) = f.next()?.split_once(':')?;
            samples.push((parse_fbits(w)?, parse_fbits(d)?));
        }
        if f.next().is_some() {
            return None;
        }
        Some(WeightSweep {
            samples,
            best_w,
            best_distance,
        })
    };
    let val_line = lines.next()?.strip_prefix("validation ")?;
    let validation = if val_line == "none" {
        None
    } else {
        let mut f = val_line.split(' ');
        let seed = f.next()?.parse().ok()?;
        let n: usize = f.next()?.parse().ok()?;
        let params: Option<Vec<f64>> = (0..n).map(|_| parse_fbits(f.next()?)).collect();
        let outcome = ValidationOutcome {
            seed,
            params: params?,
            model_e: parse_fbits(f.next()?)?,
            sim_e: parse_fbits(f.next()?)?,
            err_e: parse_fbits(f.next()?)?,
            model_l: parse_fbits(f.next()?)?,
            sim_l: parse_fbits(f.next()?)?,
            sim_l_samples: f.next()?.parse().ok()?,
            sim_l_p95: parse_fbits(f.next()?)?,
            sim_l_max: parse_fbits(f.next()?)?,
            err_l: parse_fbits(f.next()?)?,
            delivery: parse_fbits(f.next()?)?,
        };
        if f.next().is_some() {
            return None;
        }
        Some(outcome)
    };
    if lines.next().is_some() {
        return None;
    }
    Some(CellOutcome {
        cell: cell.clone(),
        protocol,
        infeasible,
        realized_nodes,
        realized_depth,
        irregularity,
        config,
        anchors,
        nbs,
        fairness_gap,
        concepts,
        weight_sweep,
        // Run-composition aggregate, recomputed over the assembled run
        // (see `fill_drift`): a cached per-item value would be wrong
        // under a different preset filter or panel.
        drift_nash: f64::NAN,
        validation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StudyConfig;
    use edmac_core::StudyGrid;
    use edmac_proto::ProtocolRegistry;
    use edmac_units::Joules;

    fn reqs() -> AppRequirements {
        AppRequirements::new(Joules::new(0.5), Seconds::new(30.0)).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("edmac-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_round_trips_bit_for_bit() {
        let cells = StudyGrid::smoke().cells();
        let suite = ProtocolRegistry::builtin().suite("X-MAC").unwrap();
        for cell in &cells {
            let mut outcome = crate::solve_cell(cell, suite.model().as_ref(), reqs());
            if cell.index == 0 {
                outcome.validation =
                    crate::validate_cell(cell, &outcome, suite.as_ref(), Seconds::new(60.0), 1);
            }
            let key = item_key(
                &SchemaVersions::current(),
                cell,
                suite.as_ref(),
                reqs(),
                (cell.index == 0).then(|| Seconds::new(60.0)),
            );
            let dir = temp_dir(&format!("roundtrip-{}", cell.index));
            let cache = CellCache::open(&dir).unwrap();
            cache.store(&key, &outcome).unwrap();
            let loaded = cache.load(&key, cell, suite.name()).expect("hit");
            // Everything except the run-composition drift column must
            // round-trip exactly; Debug strings make NaN comparable.
            let mut expect = outcome.clone();
            expect.drift_nash = f64::NAN;
            assert_eq!(format!("{expect:?}"), format!("{loaded:?}"));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn infeasible_outcomes_are_cacheable() {
        let cells = StudyGrid::smoke().cells();
        let suite = ProtocolRegistry::builtin().suite("X-MAC").unwrap();
        let tight = AppRequirements::new(Joules::new(1e-9), Seconds::new(30.0)).unwrap();
        let outcome = crate::solve_cell(&cells[0], suite.model().as_ref(), tight);
        assert!(!outcome.solved());
        let key = item_key(
            &SchemaVersions::current(),
            &cells[0],
            suite.as_ref(),
            tight,
            None,
        );
        let dir = temp_dir("infeasible");
        let cache = CellCache::open(&dir).unwrap();
        cache.store(&key, &outcome).unwrap();
        let loaded = cache.load(&key, &cells[0], suite.name()).expect("hit");
        assert_eq!(loaded.infeasible, outcome.infeasible);
        assert!(loaded.concepts.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_and_corrupt_entries_are_misses() {
        let cells = StudyGrid::smoke().cells();
        let suite = ProtocolRegistry::builtin().suite("X-MAC").unwrap();
        let outcome = crate::solve_cell(&cells[0], suite.model().as_ref(), reqs());
        let schema = SchemaVersions::current();
        let key = item_key(&schema, &cells[0], suite.as_ref(), reqs(), None);
        let dir = temp_dir("stale");
        let cache = CellCache::open(&dir).unwrap();
        cache.store(&key, &outcome).unwrap();

        // A bumped model version produces a different key: clean miss.
        let bumped = SchemaVersions {
            model: schema.model + 1,
            ..schema
        };
        let new_key = item_key(&bumped, &cells[0], suite.as_ref(), reqs(), None);
        assert_ne!(key.digest_hex(), new_key.digest_hex());
        assert!(cache.load(&new_key, &cells[0], suite.name()).is_none());

        // An entry whose embedded canonical key no longer matches the
        // lookup key (same filename, different content) is a miss too.
        let path = cache.dir().join(format!("{}.entry", new_key.digest_hex()));
        std::fs::copy(
            cache.dir().join(format!("{}.entry", key.digest_hex())),
            &path,
        )
        .unwrap();
        assert!(cache.load(&new_key, &cells[0], suite.name()).is_none());

        // Truncation is a miss, not a panic or an error.
        let text = std::fs::read_to_string(cache.dir().join(format!("{}.entry", key.digest_hex())))
            .unwrap();
        std::fs::write(
            cache.dir().join(format!("{}.entry", key.digest_hex())),
            &text[..text.len() / 2],
        )
        .unwrap();
        assert!(cache.load(&key, &cells[0], suite.name()).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A validated and an infeasible outcome of the first smoke cell,
    /// rendered under their keys: between them every entry line form.
    fn sample_entries() -> Vec<(CacheKey, GridCell, &'static str, String)> {
        let cell = StudyGrid::smoke().cells().remove(0);
        let suite = ProtocolRegistry::builtin().suite("X-MAC").unwrap();
        let schema = SchemaVersions::current();
        let mut solved = crate::solve_cell(&cell, suite.model().as_ref(), reqs());
        solved.validation =
            crate::validate_cell(&cell, &solved, suite.as_ref(), Seconds::new(60.0), 1);
        assert!(solved.validation.is_some() && solved.weight_sweep.is_some());
        let tight = AppRequirements::new(Joules::new(1e-9), Seconds::new(30.0)).unwrap();
        let infeasible = crate::solve_cell(&cell, suite.model().as_ref(), tight);
        [(solved, reqs()), (infeasible, tight)]
            .into_iter()
            .map(|(outcome, r)| {
                let key = item_key(&schema, &cell, suite.as_ref(), r, None);
                let text = render_entry(&key, &outcome);
                (key, cell.clone(), suite.name(), text)
            })
            .collect()
    }

    #[test]
    fn truncated_and_corrupted_entries_never_panic() {
        for (key, cell, protocol, text) in sample_entries() {
            assert!(parse_entry(&text, &key, &cell, protocol).is_some());
            for corrupt in crate::json::corruptions(&text) {
                let _ = parse_entry(&corrupt, &key, &cell, protocol);
            }
        }
    }

    #[test]
    fn counts_beyond_the_entry_are_misses() {
        // A count is only a promise about the lines that follow; a
        // corrupt one must not size an allocation (one too large for
        // the address space panics, one merely too large for the host
        // aborts the process).
        for ((key, cell, protocol, text), huge) in sample_entries()
            .into_iter()
            .flat_map(|entry| [(entry.clone(), usize::MAX / 2), (entry, 1 << 40)])
        {
            let concepts = text
                .lines()
                .find(|l| l.starts_with("concepts "))
                .unwrap()
                .to_string();
            let bad = text.replace(&concepts, &format!("concepts {huge}"));
            assert!(parse_entry(&bad, &key, &cell, protocol).is_none());
            if let Some(sweep) = text
                .lines()
                .find(|l| l.starts_with("wsweep ") && *l != "wsweep none")
            {
                let mut fields: Vec<&str> = sweep.split(' ').collect();
                let n = huge.to_string();
                fields[3] = &n;
                let bad = text.replace(sweep, &fields.join(" "));
                assert!(parse_entry(&bad, &key, &cell, protocol).is_none());
            }
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes, alone or after a valid header, are a miss
        /// or (by chance) an entry: never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let cell = StudyGrid::smoke().cells().remove(0);
            let key = CacheKey::from_canonical("k".into());
            let tail = String::from_utf8_lossy(&bytes);
            let _ = parse_entry(&tail, &key, &cell, "X-MAC");
            let headed = format!("{CACHE_ENTRY_SCHEMA}\nkey k\nprotocol X-MAC\n{tail}");
            let _ = parse_entry(&headed, &key, &cell, "X-MAC");
        }
    }

    #[test]
    fn smoke_config_keys_are_distinct_across_items() {
        let config = StudyConfig::smoke();
        let cells = config.grid.cells();
        let suites = ProtocolRegistry::builtin()
            .select(&config.protocols)
            .unwrap();
        let mut digests = Vec::new();
        for cell in &cells {
            for suite in &suites {
                digests.push(
                    item_key(
                        &SchemaVersions::current(),
                        cell,
                        suite.as_ref(),
                        config.requirements,
                        None,
                    )
                    .digest_hex(),
                );
            }
        }
        let n = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), n, "work items must not share keys");
    }
}
