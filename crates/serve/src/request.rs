//! The line-delimited JSON wire protocol: one request object per line
//! in, one response object per line out, both rendered and parsed by
//! the shared mini-JSON module ([`edmac_study::json`]).
//!
//! A solve request is a *scenario spec*, not a grid coordinate: it
//! carries the preset family, its topology/traffic parameters, the
//! per-cell seed, the protocol, the solve requirements, and the
//! validation intent — exactly the inputs the study's content key
//! hashes. [`SolveRequest::to_cell`] reconstructs the corresponding
//! [`GridCell`] with the *same* arithmetic the grid enumerator uses
//! (same `disk_radius`, same `every × duty` burst duration), so a
//! request that describes a grid cell resolves to that cell's exact
//! cache key. Floats travel as shortest-round-trip `{:?}` tokens and
//! the seed as a decimal string, so every parameter survives the wire
//! bit for bit.

use edmac_core::{
    disk_radius, AppRequirements, GridCell, PresetKind, Scenario, TopologySpec, TrafficSpec,
};
use edmac_study::json::{jstr, Json};
use edmac_units::{Joules, Seconds};
use std::io::{self, Write};

/// Schema tag of one request/response line.
pub const WIRE_SCHEMA: &str = "edmac-serve/wire/v1";

/// Sends one wire line, newline included, in a single `write_all`.
/// `writeln!` on a bare `TcpStream` writes the text and the newline
/// separately; with `TCP_NODELAY` that is two segments, and the peer's
/// line read may wake once for each.
pub(crate) fn write_line(out: &mut impl Write, line: &str) -> io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    out.write_all(framed.as_bytes())
}

/// A parsed request line: either a solve query or a stats probe.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Resolve one deployment through the hot/disk/solve tiers.
    Solve(SolveRequest),
    /// Return the server's [`crate::StatsReport`].
    Stats,
}

/// One deployment-planning query.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Preset family (selects which parameters below apply).
    pub preset: PresetKind,
    /// Ring depth `D` (ring preset; 0 otherwise).
    pub depth: usize,
    /// Ring density `C` (ring preset; 0 otherwise).
    pub density: usize,
    /// Node count (disk/hotspot/burst presets; rings derive theirs).
    pub nodes: usize,
    /// Hotspot rate multiplier (hotspot preset; 1 otherwise).
    pub hotspot_factor: f64,
    /// Hotspot spatial fraction (hotspot preset).
    pub hotspot_fraction: f64,
    /// Burst duty `duration / every` (burst preset; 0 otherwise).
    pub burst_duty: f64,
    /// Burst recurrence interval (burst preset).
    pub burst_every: Seconds,
    /// Burst rate multiplier (burst preset).
    pub burst_factor: f64,
    /// Baseline sampling period.
    pub sample_period: Seconds,
    /// Topology/simulation seed (decimal string on the wire: u64).
    pub seed: u64,
    /// Protocol registry name.
    pub protocol: String,
    /// Per-epoch energy budget (J).
    pub energy_budget: Joules,
    /// End-to-end latency bound (s).
    pub latency_bound: Seconds,
    /// Validation intent: `Some(horizon)` asks for packet-level
    /// validation, and is part of the content key.
    pub validate_horizon: Option<Seconds>,
    /// Per-request deadline in milliseconds (`None` = server default).
    pub deadline_ms: Option<u64>,
}

impl SolveRequest {
    /// A request describing grid cell `cell` (the client's replay
    /// path): [`SolveRequest::to_cell`] of the result reconstructs a
    /// cell with identical scenario, coordinates, and seed.
    pub fn for_cell(
        cell: &GridCell,
        grid: &edmac_core::StudyGrid,
        protocol: &str,
        requirements: AppRequirements,
        validate_horizon: Option<Seconds>,
    ) -> SolveRequest {
        let density = match cell.scenario.topology {
            TopologySpec::Ring { density, .. } => density,
            _ => 0,
        };
        SolveRequest {
            preset: cell.preset,
            depth: cell.depth,
            density,
            nodes: cell.nodes,
            hotspot_factor: cell.hotspot_factor,
            hotspot_fraction: grid.hotspot_fraction,
            burst_duty: cell.burst_duty,
            burst_every: grid.burst_every,
            burst_factor: grid.burst_factor,
            sample_period: grid.sample_period,
            seed: cell.seed,
            protocol: protocol.to_string(),
            energy_budget: requirements.energy_budget(),
            latency_bound: requirements.latency_bound(),
            validate_horizon,
            deadline_ms: None,
        }
    }

    /// Reconstructs the [`GridCell`] this request describes, using the
    /// grid enumerator's own construction arithmetic. The grid *index*
    /// is not wire content (the content key ignores it); it is pinned
    /// to 0.
    pub fn to_cell(&self) -> GridCell {
        let (scenario, nodes, depth, hotspot_factor, burst_duty) = match self.preset {
            PresetKind::Ring => {
                let (depth, density) = (self.depth, self.density);
                let nodes = 1 + density * depth * (depth + 1) / 2;
                let scenario = Scenario::ring(depth, density, self.sample_period);
                (scenario, nodes, depth, 1.0, 0.0)
            }
            PresetKind::UniformDisk => {
                let nodes = self.nodes;
                let scenario = Scenario {
                    name: format!("disk_n{nodes}"),
                    topology: TopologySpec::UniformDisk {
                        nodes,
                        field_radius: disk_radius(nodes),
                    },
                    traffic: TrafficSpec::Uniform {
                        sample_period: self.sample_period,
                    },
                };
                (scenario, nodes, 0, 1.0, 0.0)
            }
            PresetKind::HotspotDisk => {
                let (nodes, factor) = (self.nodes, self.hotspot_factor);
                let scenario = Scenario {
                    name: format!("hotspot_n{nodes}_f{factor}"),
                    topology: TopologySpec::UniformDisk {
                        nodes,
                        field_radius: disk_radius(nodes),
                    },
                    traffic: TrafficSpec::Hotspot {
                        sample_period: self.sample_period,
                        factor,
                        fraction: self.hotspot_fraction,
                    },
                };
                (scenario, nodes, 0, factor, 0.0)
            }
            PresetKind::BurstDisk => {
                let (nodes, duty) = (self.nodes, self.burst_duty);
                let scenario = Scenario {
                    name: format!("burst_n{nodes}_d{duty}"),
                    topology: TopologySpec::UniformDisk {
                        nodes,
                        field_radius: disk_radius(nodes),
                    },
                    traffic: TrafficSpec::EventBurst {
                        sample_period: self.sample_period,
                        factor: self.burst_factor,
                        every: self.burst_every,
                        duration: Seconds::new(self.burst_every.value() * duty),
                    },
                };
                (scenario, nodes, 0, 1.0, duty)
            }
        };
        GridCell {
            index: 0,
            scenario,
            preset: self.preset,
            nodes,
            depth,
            hotspot_factor,
            burst_duty,
            seed: self.seed,
        }
    }

    /// The request's requirement caps.
    ///
    /// # Errors
    ///
    /// Propagates the requirement validator's message (non-positive or
    /// non-finite caps).
    pub fn requirements(&self) -> Result<AppRequirements, String> {
        AppRequirements::new(self.energy_budget, self.latency_bound).map_err(|e| e.to_string())
    }
}

impl Request {
    /// Renders one wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Stats => Json::Obj(vec![
                ("schema".into(), Json::from_str_(WIRE_SCHEMA)),
                ("verb".into(), Json::from_str_("stats")),
            ])
            .render(),
            Request::Solve(q) => {
                let mut fields = vec![
                    ("schema".into(), Json::from_str_(WIRE_SCHEMA)),
                    ("verb".into(), Json::from_str_("solve")),
                    ("preset".into(), Json::from_str_(q.preset.label())),
                    ("depth".into(), Json::from_usize(q.depth)),
                    ("density".into(), Json::from_usize(q.density)),
                    ("nodes".into(), Json::from_usize(q.nodes)),
                    ("hotspot_factor".into(), Json::from_f64(q.hotspot_factor)),
                    (
                        "hotspot_fraction".into(),
                        Json::from_f64(q.hotspot_fraction),
                    ),
                    ("burst_duty".into(), Json::from_f64(q.burst_duty)),
                    (
                        "burst_every_s".into(),
                        Json::from_f64(q.burst_every.value()),
                    ),
                    ("burst_factor".into(), Json::from_f64(q.burst_factor)),
                    (
                        "sample_period_s".into(),
                        Json::from_f64(q.sample_period.value()),
                    ),
                    // Decimal string: a u64 seed does not fit in a
                    // JSON double.
                    ("seed".into(), Json::Str(q.seed.to_string())),
                    ("protocol".into(), Json::from_str_(&q.protocol)),
                    (
                        "energy_budget_j".into(),
                        Json::from_f64(q.energy_budget.value()),
                    ),
                    (
                        "latency_bound_s".into(),
                        Json::from_f64(q.latency_bound.value()),
                    ),
                    (
                        "validate_h_s".into(),
                        match q.validate_horizon {
                            Some(h) => Json::from_f64(h.value()),
                            None => Json::Null,
                        },
                    ),
                ];
                if let Some(ms) = q.deadline_ms {
                    fields.push(("deadline_ms".into(), Json::from_u64(ms)));
                }
                Json::Obj(fields).render()
            }
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, schema drift, an unknown
    /// verb, or a missing/mistyped field.
    pub fn parse(line: &str) -> Result<Request, String> {
        let root = Json::parse(line)?;
        let schema = root.str_("schema")?;
        if schema != WIRE_SCHEMA {
            return Err(format!("wire schema '{schema}' is not '{WIRE_SCHEMA}'"));
        }
        match root.str_("verb")? {
            "stats" => Ok(Request::Stats),
            "solve" => Ok(Request::Solve(SolveRequest {
                preset: {
                    let label = root.str_("preset")?;
                    PresetKind::parse(label).ok_or_else(|| format!("unknown preset '{label}'"))?
                },
                depth: root.usize_("depth")?,
                density: root.usize_("density")?,
                nodes: root.usize_("nodes")?,
                hotspot_factor: root.f64_("hotspot_factor")?,
                hotspot_fraction: root.f64_("hotspot_fraction")?,
                burst_duty: root.f64_("burst_duty")?,
                burst_every: Seconds::new(root.f64_("burst_every_s")?),
                burst_factor: root.f64_("burst_factor")?,
                sample_period: Seconds::new(root.f64_("sample_period_s")?),
                seed: root.u64_("seed")?,
                protocol: root.str_("protocol")?.to_string(),
                energy_budget: Joules::new(root.f64_("energy_budget_j")?),
                latency_bound: Seconds::new(root.f64_("latency_bound_s")?),
                validate_horizon: match root.get("validate_h_s")? {
                    Json::Null => None,
                    Json::Num(s) => Some(Seconds::new(
                        s.parse().map_err(|e| format!("validate_h_s: {e}"))?,
                    )),
                    other => Err(format!("validate_h_s is not a number or null: {other:?}"))?,
                },
                deadline_ms: match root.opt("deadline_ms") {
                    None => None,
                    Some(_) => Some(root.u64_("deadline_ms")?),
                },
            })),
            other => Err(format!("unknown verb '{other}'")),
        }
    }
}

/// Which tier answered a solve request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// In-memory LRU hit.
    Hot,
    /// Disk cache-entry hit.
    Disk,
    /// Cold NBS solve (write-through on success).
    Solve,
}

impl Tier {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Hot => "hot",
            Tier::Disk => "disk",
            Tier::Solve => "solved",
        }
    }

    /// Parses a wire label (the inverse of [`Tier::label`]).
    pub fn parse(label: &str) -> Option<Tier> {
        match label {
            "hot" => Some(Tier::Hot),
            "disk" => Some(Tier::Disk),
            "solved" => Some(Tier::Solve),
            _ => None,
        }
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The solve resolved: which tier answered, the content digest,
    /// service time, and the *verbatim* cache-entry text — byte-equal
    /// to the `.entry` file the offline runner writes for this key.
    Outcome {
        /// Tier that answered.
        tier: Tier,
        /// 32-hex-digit content digest of the key.
        digest: String,
        /// Service time in microseconds.
        elapsed_us: u64,
        /// Verbatim serialized [`edmac_study::CellOutcome`].
        outcome: String,
    },
    /// The stats verb's report, as a rendered JSON object.
    Stats(Json),
    /// The deadline expired before the solve finished (the solve still
    /// completes server-side and populates the cache).
    Timeout {
        /// Content digest of the key that timed out.
        digest: String,
        /// Time spent before giving up, in microseconds.
        elapsed_us: u64,
    },
    /// The server shed the request instead of queueing it unboundedly.
    Overloaded,
    /// Malformed request or failed resolve.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Renders one wire line (no trailing newline).
    pub fn render(&self) -> String {
        let fields = match self {
            Response::Outcome {
                tier,
                digest,
                elapsed_us,
                outcome,
            } => vec![
                ("status".into(), Json::from_str_("ok")),
                ("tier".into(), Json::from_str_(tier.label())),
                ("digest".into(), Json::from_str_(digest)),
                ("elapsed_us".into(), Json::from_u64(*elapsed_us)),
                ("outcome".into(), Json::Str(outcome.clone())),
            ],
            Response::Stats(report) => vec![
                ("status".into(), Json::from_str_("ok")),
                ("stats".into(), report.clone()),
            ],
            Response::Timeout { digest, elapsed_us } => vec![
                ("status".into(), Json::from_str_("timeout")),
                ("digest".into(), Json::from_str_(digest)),
                ("elapsed_us".into(), Json::from_u64(*elapsed_us)),
            ],
            Response::Overloaded => vec![("status".into(), Json::from_str_("overloaded"))],
            Response::Error { message } => vec![
                ("status".into(), Json::from_str_("error")),
                ("message".into(), Json::Str(message.clone())),
            ],
        };
        Json::Obj(fields).render()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or an unknown status/tier.
    pub fn parse(line: &str) -> Result<Response, String> {
        let root = Json::parse(line)?;
        match root.str_("status")? {
            "overloaded" => Ok(Response::Overloaded),
            "timeout" => Ok(Response::Timeout {
                digest: root.str_("digest")?.to_string(),
                elapsed_us: root.u64_("elapsed_us")?,
            }),
            "error" => Ok(Response::Error {
                message: root.str_("message")?.to_string(),
            }),
            "ok" => {
                if let Some(stats) = root.opt("stats") {
                    return Ok(Response::Stats(stats.clone()));
                }
                let tier_label = root.str_("tier")?;
                Ok(Response::Outcome {
                    tier: Tier::parse(tier_label)
                        .ok_or_else(|| format!("unknown tier '{tier_label}'"))?,
                    digest: root.str_("digest")?.to_string(),
                    elapsed_us: root.u64_("elapsed_us")?,
                    outcome: root.str_("outcome")?.to_string(),
                })
            }
            other => Err(format!("unknown status '{other}'")),
        }
    }

    /// One grep-able log line for this response (the server's
    /// structured per-request log).
    pub fn log_line(&self, peer: &str) -> String {
        match self {
            Response::Outcome {
                tier,
                digest,
                elapsed_us,
                ..
            } => format!(
                "serve: request peer={peer} status=ok tier={} digest={digest} elapsed_us={elapsed_us}",
                tier.label()
            ),
            Response::Stats(_) => format!("serve: request peer={peer} status=ok verb=stats"),
            Response::Timeout { digest, elapsed_us } => format!(
                "serve: request peer={peer} status=timeout digest={digest} elapsed_us={elapsed_us}"
            ),
            Response::Overloaded => format!("serve: request peer={peer} status=overloaded"),
            Response::Error { message } => format!(
                "serve: request peer={peer} status=error message={}",
                jstr(message)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edmac_proto::ProtocolRegistry;
    use edmac_study::{item_key, validation_intent, SchemaVersions, StudyConfig};

    fn sample_solve() -> SolveRequest {
        SolveRequest {
            preset: PresetKind::BurstDisk,
            depth: 0,
            density: 0,
            nodes: 40,
            hotspot_factor: 1.0,
            hotspot_fraction: 0.25,
            burst_duty: 0.1,
            burst_every: Seconds::new(300.0),
            burst_factor: 4.0,
            sample_period: Seconds::new(60.0),
            seed: u64::MAX - 11,
            protocol: "X-MAC".into(),
            energy_budget: Joules::new(0.5),
            latency_bound: Seconds::new(30.0),
            validate_horizon: Some(Seconds::new(600.0)),
            deadline_ms: Some(2500),
        }
    }

    #[test]
    fn a_wire_line_is_one_write() {
        /// Records each `write` call's bytes.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let line = Request::Solve(sample_solve()).render();
        let mut out = Writes(Vec::new());
        write_line(&mut out, &line).unwrap();
        assert_eq!(out.0, vec![format!("{line}\n").into_bytes()]);
    }

    #[test]
    fn requests_round_trip() {
        for request in [Request::Solve(sample_solve()), Request::Stats] {
            let line = request.render();
            assert_eq!(Request::parse(&line).expect("round trip"), request);
        }
        // Optional fields: no deadline, no validation.
        let mut q = sample_solve();
        q.deadline_ms = None;
        q.validate_horizon = None;
        let request = Request::Solve(q);
        assert_eq!(Request::parse(&request.render()).unwrap(), request);
    }

    #[test]
    fn responses_round_trip() {
        let outcome = Response::Outcome {
            tier: Tier::Disk,
            digest: "ab".repeat(16),
            elapsed_us: 812,
            outcome: "edmac-study/cache-entry/v1\nkey x\nprotocol X-MAC\n".into(),
        };
        let timeout = Response::Timeout {
            digest: "0".repeat(32),
            elapsed_us: 1_000_000,
        };
        let error = Response::Error {
            message: "unknown preset 'mesh'".into(),
        };
        for response in [outcome, timeout, Response::Overloaded, error] {
            let line = response.render();
            assert_eq!(Response::parse(&line).expect("round trip"), response);
        }
    }

    #[test]
    fn schema_and_verb_drift_are_rejected() {
        let line = Request::Stats.render().replace("wire/v1", "wire/v0");
        assert!(Request::parse(&line).unwrap_err().contains("schema"));
        let line = Request::Stats.render().replace("stats", "destroy");
        assert!(Request::parse(&line).unwrap_err().contains("verb"));
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn truncated_and_corrupted_lines_never_panic() {
        let lines = [
            Request::Solve(sample_solve()).render(),
            Request::Stats.render(),
        ];
        for line in &lines {
            let bytes = line.as_bytes();
            for i in 0..bytes.len() {
                let _ = Request::parse(&String::from_utf8_lossy(&bytes[..i]));
                for mask in [0x01u8, 0x20, 0x80] {
                    let mut corrupt = bytes.to_vec();
                    corrupt[i] ^= mask;
                    let _ = Request::parse(&String::from_utf8_lossy(&corrupt));
                }
            }
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes, valid UTF-8 or not, parse to `Ok` or `Err`
        /// in both directions of the wire: never a panic.
        #[test]
        fn arbitrary_lines_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let line = String::from_utf8_lossy(&bytes);
            let _ = Request::parse(&line);
            let _ = Response::parse(&line);
        }
    }

    /// The load-bearing equivalence: a request built from any grid
    /// cell reconstructs a cell with the *same content key* — for the
    /// full 72-cell grid across the whole protocol panel, including
    /// the validation-intent stride.
    #[test]
    fn grid_cells_round_trip_through_requests_key_exactly() {
        let registry = ProtocolRegistry::builtin();
        let schema = SchemaVersions::current();
        for config in [StudyConfig::smoke(), StudyConfig::full()] {
            let suites = registry.select(&config.protocols).unwrap();
            for cell in config.grid.cells() {
                for (suite_idx, suite) in suites.iter().enumerate() {
                    let grid_work = cell.index * suites.len() + suite_idx;
                    let validation = validation_intent(&config, grid_work);
                    let expected = item_key(
                        &schema,
                        &cell,
                        suite.as_ref(),
                        config.requirements,
                        validation,
                    );
                    let request = SolveRequest::for_cell(
                        &cell,
                        &config.grid,
                        suite.name(),
                        config.requirements,
                        validation,
                    );
                    // Through the wire and back: parse(render) first.
                    let line = Request::Solve(request).render();
                    let Request::Solve(parsed) = Request::parse(&line).unwrap() else {
                        panic!("solve request parsed as stats");
                    };
                    let rebuilt = parsed.to_cell();
                    assert_eq!(rebuilt.scenario, cell.scenario, "{}", cell.scenario.name);
                    let key = item_key(
                        &schema,
                        &rebuilt,
                        suite.as_ref(),
                        parsed.requirements().unwrap(),
                        parsed.validate_horizon,
                    );
                    assert_eq!(
                        key.canonical(),
                        expected.canonical(),
                        "{} × {}",
                        cell.scenario.name,
                        suite.name()
                    );
                }
            }
        }
    }
}
