//! The resumable run manifest: a schema-versioned `manifest.json`
//! enumerating a run's work list with per-item status, rewritten
//! atomically (temp file, fsync, rename) after every completed item.
//!
//! A killed run restarts with `--resume <manifest>`: the manifest
//! reconstructs the exact [`StudyConfig`] (grid axes, requirements,
//! panel, cache directory), the runner recomputes every content key
//! and refuses to resume if any differs from the recorded one (the
//! code or environment changed under the manifest), and the already-
//! `done` items are served from the cache the original run wrote —
//! so the resumed run's artifacts are byte-identical to a one-shot
//! run's. A manifest is a work-list pin plus a progress ledger; the
//! *outcomes* always live in the content-addressed cache.
//!
//! The format is a strict, hand-rendered JSON subset (objects, arrays,
//! strings, numbers, booleans, `null`) parsed by the shared mini
//! parser in [`crate::json`] — the repo vendors no serde. Floats
//! render via Rust's shortest-round-trip `{:?}` so every axis value
//! survives the round-trip bit for bit; `seed_base` renders as a
//! decimal *string* because a `u64` does not fit in a JSON double.

use crate::cache::write_atomic;
use crate::json::{jarr_f64, jarr_usize, jstr, Json, ParseResult};
use crate::StudyConfig;
use edmac_core::{AppRequirements, PresetKind, StudyGrid};
use edmac_units::{Joules, Seconds};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag of `manifest.json`.
pub const MANIFEST_SCHEMA: &str = "edmac-study/manifest/v1";

/// Completion state of one work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemStatus {
    /// Not yet completed (a resume picks it up).
    Pending,
    /// Outcome produced and folded into the run.
    Done,
}

/// Where a completed item's outcome came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemSource {
    /// Served from the content-addressed cache.
    Cache,
    /// Solved in this run (and written back when a cache is attached).
    Solved,
}

/// One (cell × protocol) work item of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestItem {
    /// Work index in the run's deterministic sweep order.
    pub work: usize,
    /// Full-grid cell index (survives preset filtering).
    pub cell: usize,
    /// Scenario name, for human audit of the work list.
    pub scenario: String,
    /// Protocol registry name.
    pub protocol: String,
    /// Content-key digest ([`crate::CacheKey::digest_hex`]); recomputed
    /// and verified on resume.
    pub key: String,
    /// Completion state.
    pub status: ItemStatus,
    /// Provenance of a completed outcome (`None` while pending).
    pub source: Option<ItemSource>,
}

/// A run manifest: the config snapshot plus the work-item ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The exact config of the run (a resume reconstructs it from
    /// here; CLI flags other than `--resume` are rejected).
    pub config: StudyConfig,
    /// The artifact output directory of the run, when one was set.
    pub out_dir: Option<PathBuf>,
    /// The work items, in sweep order.
    pub items: Vec<ManifestItem>,
}

impl Manifest {
    /// Renders and writes the manifest atomically (fsync'd temp file +
    /// rename), so a crash mid-write leaves the previous version.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        write_atomic(path, &self.render())
    }

    /// Loads and validates a manifest.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, schema mismatch, or any structural
    /// deviation from the [`MANIFEST_SCHEMA`] format.
    pub fn load(path: &Path) -> io::Result<Manifest> {
        let text = std::fs::read_to_string(path)?;
        parse_manifest(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Number of completed items.
    pub fn done(&self) -> usize {
        self.items
            .iter()
            .filter(|i| i.status == ItemStatus::Done)
            .count()
    }

    /// Serializes to the manifest JSON text.
    pub fn render(&self) -> String {
        let c = &self.config;
        let g = &c.grid;
        let mut out = String::with_capacity(1024 + self.items.len() * 160);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", jstr(MANIFEST_SCHEMA));
        out.push_str("  \"config\": {\n");
        out.push_str("    \"grid\": {\n");
        let _ = writeln!(
            out,
            "      \"ring_depths\": {},",
            jarr_usize(&g.ring_depths)
        );
        let _ = writeln!(
            out,
            "      \"ring_densities\": {},",
            jarr_usize(&g.ring_densities)
        );
        let _ = writeln!(out, "      \"disk_nodes\": {},", jarr_usize(&g.disk_nodes));
        let _ = writeln!(
            out,
            "      \"hotspot_nodes\": {},",
            jarr_usize(&g.hotspot_nodes)
        );
        let _ = writeln!(
            out,
            "      \"hotspot_factors\": {},",
            jarr_f64(&g.hotspot_factors)
        );
        let _ = writeln!(
            out,
            "      \"burst_nodes\": {},",
            jarr_usize(&g.burst_nodes)
        );
        let _ = writeln!(
            out,
            "      \"burst_duties\": {},",
            jarr_f64(&g.burst_duties)
        );
        let _ = writeln!(
            out,
            "      \"sample_period_s\": {:?},",
            g.sample_period.value()
        );
        let _ = writeln!(out, "      \"hotspot_fraction\": {:?},", g.hotspot_fraction);
        let _ = writeln!(out, "      \"burst_every_s\": {:?},", g.burst_every.value());
        let _ = writeln!(out, "      \"burst_factor\": {:?},", g.burst_factor);
        let _ = writeln!(out, "      \"seed_base\": \"{}\"", g.seed_base);
        out.push_str("    },\n");
        let _ = writeln!(
            out,
            "    \"preset\": {},",
            match c.preset {
                Some(p) => jstr(p.label()),
                None => "null".into(),
            }
        );
        let _ = writeln!(
            out,
            "    \"energy_budget_j\": {:?},",
            c.requirements.energy_budget().value()
        );
        let _ = writeln!(
            out,
            "    \"latency_bound_s\": {:?},",
            c.requirements.latency_bound().value()
        );
        let _ = writeln!(out, "    \"validate_every\": {},", c.validate_every);
        let _ = writeln!(out, "    \"sim_horizon_s\": {:?},", c.sim_horizon.value());
        let _ = writeln!(out, "    \"threads\": {},", c.threads);
        let _ = writeln!(out, "    \"shards\": {},", c.shards);
        let _ = writeln!(
            out,
            "    \"protocols\": [{}],",
            c.protocols
                .iter()
                .map(|p| jstr(p))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "    \"cache_dir\": {}",
            match &c.cache_dir {
                Some(p) => jstr(&p.display().to_string()),
                None => "null".into(),
            }
        );
        out.push_str("  },\n");
        let _ = writeln!(
            out,
            "  \"out_dir\": {},",
            match &self.out_dir {
                Some(p) => jstr(&p.display().to_string()),
                None => "null".into(),
            }
        );
        out.push_str("  \"items\": [\n");
        for (i, item) in self.items.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"work\": {}, \"cell\": {}, \"scenario\": {}, \"protocol\": {}, \
                 \"key\": {}, \"status\": {}, \"source\": {}}}",
                item.work,
                item.cell,
                jstr(&item.scenario),
                jstr(&item.protocol),
                jstr(&item.key),
                jstr(match item.status {
                    ItemStatus::Pending => "pending",
                    ItemStatus::Done => "done",
                }),
                match item.source {
                    None => "null".into(),
                    Some(ItemSource::Cache) => jstr("cache"),
                    Some(ItemSource::Solved) => jstr("solved"),
                },
            );
            out.push_str(if i + 1 < self.items.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn parse_manifest(text: &str) -> ParseResult<Manifest> {
    let root = Json::parse(text)?;
    let schema = root.str_("schema")?;
    if schema != MANIFEST_SCHEMA {
        return Err(format!(
            "manifest schema '{schema}' is not '{MANIFEST_SCHEMA}'"
        ));
    }
    let c = root.get("config")?;
    let g = c.get("grid")?;
    let grid = StudyGrid {
        ring_depths: g.usize_arr("ring_depths")?,
        ring_densities: g.usize_arr("ring_densities")?,
        disk_nodes: g.usize_arr("disk_nodes")?,
        hotspot_nodes: g.usize_arr("hotspot_nodes")?,
        hotspot_factors: g.f64_arr("hotspot_factors")?,
        burst_nodes: g.usize_arr("burst_nodes")?,
        burst_duties: g.f64_arr("burst_duties")?,
        sample_period: Seconds::new(g.f64_("sample_period_s")?),
        hotspot_fraction: g.f64_("hotspot_fraction")?,
        burst_every: Seconds::new(g.f64_("burst_every_s")?),
        burst_factor: g.f64_("burst_factor")?,
        seed_base: g
            .str_("seed_base")?
            .parse()
            .map_err(|e| format!("field 'seed_base': {e}"))?,
    };
    let preset = match c.opt_str("preset")? {
        None => None,
        Some(label) => {
            Some(PresetKind::parse(label).ok_or_else(|| format!("unknown preset '{label}'"))?)
        }
    };
    let requirements = AppRequirements::new(
        Joules::new(c.f64_("energy_budget_j")?),
        Seconds::new(c.f64_("latency_bound_s")?),
    )
    .map_err(|e| format!("manifest requirements: {e}"))?;
    let protocols = c
        .arr("protocols")?
        .iter()
        .map(|v| match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(format!("protocol entry is not a string: {other:?}")),
        })
        .collect::<ParseResult<Vec<String>>>()?;
    let config = StudyConfig {
        grid,
        preset,
        requirements,
        validate_every: c.usize_("validate_every")?,
        sim_horizon: Seconds::new(c.f64_("sim_horizon_s")?),
        threads: c.usize_("threads")?,
        shards: c.usize_("shards")?,
        protocols,
        cache_dir: c.opt_str("cache_dir")?.map(PathBuf::from),
    };
    let out_dir = root.opt_str("out_dir")?.map(PathBuf::from);
    let items = root
        .arr("items")?
        .iter()
        .map(|item| {
            let status = match item.str_("status")? {
                "pending" => ItemStatus::Pending,
                "done" => ItemStatus::Done,
                other => return Err(format!("unknown item status '{other}'")),
            };
            let source = match item.opt_str("source")? {
                None => None,
                Some("cache") => Some(ItemSource::Cache),
                Some("solved") => Some(ItemSource::Solved),
                Some(other) => return Err(format!("unknown item source '{other}'")),
            };
            Ok(ManifestItem {
                work: item.usize_("work")?,
                cell: item.usize_("cell")?,
                scenario: item.str_("scenario")?.to_string(),
                protocol: item.str_("protocol")?.to_string(),
                key: item.str_("key")?.to_string(),
                status,
                source,
            })
        })
        .collect::<ParseResult<Vec<ManifestItem>>>()?;
    Ok(Manifest {
        config,
        out_dir,
        items,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut config = StudyConfig::smoke();
        config.preset = Some(PresetKind::HotspotDisk);
        config.cache_dir = Some(PathBuf::from("/tmp/study cache"));
        config.grid.seed_base = u64::MAX - 7; // beyond f64's 2^53 exactness
        Manifest {
            config,
            out_dir: Some(PathBuf::from("artifacts/run \"7\"")),
            items: vec![
                ManifestItem {
                    work: 0,
                    cell: 2,
                    scenario: "hotspot-n40-f3".into(),
                    protocol: "X-MAC".into(),
                    key: "00ff".repeat(8),
                    status: ItemStatus::Done,
                    source: Some(ItemSource::Solved),
                },
                ManifestItem {
                    work: 1,
                    cell: 2,
                    scenario: "hotspot-n40-f3".into(),
                    protocol: "LMAC".into(),
                    key: "7e".repeat(16),
                    status: ItemStatus::Pending,
                    source: None,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips_exactly() {
        let manifest = sample();
        let rendered = manifest.render();
        let parsed = parse_manifest(&rendered).expect("round-trip parse");
        assert_eq!(parsed, manifest);
        // Including a second render: the format is a fixed point.
        assert_eq!(parsed.render(), rendered);
    }

    #[test]
    fn manifest_survives_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("edmac-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let manifest = sample();
        manifest.write(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), manifest);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_drift_is_rejected() {
        let bad = sample().render().replace("manifest/v1", "manifest/v0");
        assert!(parse_manifest(&bad).unwrap_err().contains("schema"));
    }

    #[test]
    fn malformed_json_reports_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"schema\": }",
            "[1, 2",
            "{\"schema\": \"edmac-study/manifest/v1\"}",
            "{\"a\": 1} trailing",
            "{\"a\": \"\\u12\"}",
        ] {
            assert!(parse_manifest(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn truncated_and_corrupted_manifests_never_panic() {
        for text in crate::json::corruptions(&sample().render()) {
            let _ = parse_manifest(&text);
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let _ = parse_manifest(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn full_config_defaults_round_trip() {
        let manifest = Manifest {
            config: StudyConfig::full(),
            out_dir: None,
            items: Vec::new(),
        };
        assert_eq!(parse_manifest(&manifest.render()).expect("parse"), manifest);
    }
}
