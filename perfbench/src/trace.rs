//! The traced run: each workload's outputs come from the library's own
//! entry point (`run_study` on one thread, `run_coexistence_study`),
//! called once inside a span. The layers that call contains are then
//! re-driven item by item, in work order, on the same thread, as calls
//! of their own with a span around each. Spans (name, start, end,
//! parent, item) stay in memory and are written to
//! `.perfbench/spans-<workload>.tsv` when the run ends. The traced
//! outputs must equal an untraced run's byte for byte.
//!
//! The calls a library function makes internally are invisible from
//! here, so the inner layers are re-driven beside it on the same item:
//! `study.panel.self_s` is `solve_cell` minus the topology realization,
//! deployment and bargain it contains, each timed as a separate call,
//! and a validation's build and run are re-driven from the parameters
//! the study chose. The re-driven simulations must reproduce the
//! program's own figures (delivery ratios), so the per-layer times
//! describe the work the program did.

use crate::batch::{
    artifact_digests, coexistence_config, coexistence_run, diff_artifacts, study_config, study_run,
    COEXISTENCE_ARTIFACTS, STUDY_ARTIFACTS, STUDY_WORKERS,
};
use crate::{secs, Outcome, Workload};
use edmac_core::{AppRequirements, CoexistenceScenario, GridCell, Scenario, TradeoffAnalysis};
use edmac_mac::MacModel;
use edmac_phy::{ChannelModel, SinrChannel};
use edmac_proto::{ProtocolRegistry, ProtocolSuite};
use edmac_sim::{FrameKind, SimConfig, SimProtocol, SimReport, Simulation, WakeMode};
use edmac_study::{
    item_key, solve_cell, validation_intent, CellOutcome, CoexistenceConfig, CoexistenceOutcome,
    Manifest, SchemaVersions, StudyConfig,
};
use edmac_units::Seconds;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    item: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, item: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            item,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, item: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, item);
        let out = black_box(f());
        self.exit(id);
        out
    }

    /// Busy seconds summed over the spans called `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + secs(s.end - s.start))
    }

    /// Self time of the `parent` spans: per item that has one, its busy
    /// time minus that of the `parts` re-driven beside it on the same
    /// item.
    pub fn self_time(&self, parent: &str, parts: &[&str]) -> f64 {
        let mut per_item: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let d = secs(s.end - s.start);
            if s.name == parent {
                per_item.entry(s.item).or_default().0 += d;
            } else if parts.contains(&s.name) {
                per_item.entry(s.item).or_default().1 += d;
            }
        }
        per_item
            .values()
            .filter(|(whole, _)| *whole > 0.0)
            .fold(0.0, |sum, (whole, parts)| sum + whole - parts)
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Busy seconds of `name` spans on item `item`.
    pub fn item_busy(&self, name: &str, item: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.item == item)
            .fold(0.0, |sum, s| sum + secs(s.end - s.start))
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut text = String::from("id\tparent\titem\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.item,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }

    /// The span count.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Where a workload's spans are written.
pub fn spans_path(workload: Workload) -> std::path::PathBuf {
    Path::new(".perfbench").join(format!("spans-{}.tsv", workload.name()))
}

/// Frame and delivery totals of simulation reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimTally {
    frames_tx: u64,
    frames_rx: u64,
    delivered: u64,
    destroyed: u64,
    captured: u64,
    below_noise: u64,
}

impl SimTally {
    fn add(&mut self, report: &SimReport) {
        for node in report.per_node() {
            for kind in FrameKind::ALL {
                self.frames_tx += node.counters.tx(kind);
                self.frames_rx += node.counters.rx(kind);
            }
        }
        self.delivered += report.delivered_count() as u64;
        let (destroyed, captured, below_noise) = report.collision_causes();
        self.destroyed += destroyed;
        self.captured += captured;
        self.below_noise += below_noise;
    }

    fn record(&self, out: &mut Outcome, sim_busy_s: f64) {
        for (name, value) in [
            ("sim.frames_tx", self.frames_tx),
            ("sim.frames_rx", self.frames_rx),
            ("sim.delivered", self.delivered),
            ("sim.collisions.destroyed", self.destroyed),
            ("sim.collisions.captured", self.captured),
            ("sim.collisions.below_noise", self.below_noise),
        ] {
            out.exact(name, value);
        }
        if self.frames_tx > 0 {
            let per_frame = sim_busy_s * 1e9 / self.frames_tx as f64;
            out.metrics.insert("sim.host_ns_per_frame", per_frame);
        }
    }
}

/// Span name of a protocol's `Simulation::run`.
fn run_span(protocol: &str) -> &'static str {
    match protocol {
        "X-MAC" => "sim.run.xmac",
        "DMAC" => "sim.run.dmac",
        "LMAC" => "sim.run.lmac",
        _ => "sim.run.other",
    }
}

/// Validated items a sequential traced study also simulates with two
/// shards, for `sim.shard.slowdown`.
const SHARD_PROBES: usize = 3;

/// The layers inside `solve_cell` that the traced runs re-drive.
const SOLVE_PARTS: [&str; 3] = ["net.realize", "core.deployment", "core.bargain"];

/// Records the layer metrics every traced workload shares.
pub fn record_layers(out: &mut Outcome, tr: &Tracer) {
    for (metric, span) in [
        ("net.realize.calls", "net.realize"),
        ("core.bargain.calls", "core.bargain"),
        ("study.solve_cell.calls", "study.solve_cell"),
        ("study.manifest_write.calls", "study.manifest_write"),
    ] {
        out.exact(metric, tr.calls(span));
    }
    out.exact("trace.spans", tr.len() as u64);
    for (metric, span) in [
        ("net.realize.busy_s", "net.realize"),
        ("core.deployment.busy_s", "core.deployment"),
        ("core.bargain.busy_s", "core.bargain"),
        ("study.solve_cell.busy_s", "study.solve_cell"),
        ("study.item_key.busy_s", "study.item_key"),
        ("study.manifest_write.busy_s", "study.manifest_write"),
        ("sim.build.busy_s", "sim.build"),
        ("sim.run.xmac_s", "sim.run.xmac"),
        ("sim.run.dmac_s", "sim.run.dmac"),
        ("sim.run.lmac_s", "sim.run.lmac"),
        ("sim.run_coexistence.busy_s", "sim.run_coexistence"),
        ("phy.realize.busy_s", "phy.realize"),
    ] {
        out.metrics.insert(metric, tr.busy(span));
    }
    out.metrics.insert(
        "study.panel.self_s",
        tr.self_time("study.solve_cell", &SOLVE_PARTS),
    );
}

/// `grid-full` / `smoke-shards2`, traced.
pub fn study(workload: Workload, seed: u64, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let config = study_config(workload, seed);

    // The untraced reference run, exactly as the end-to-end run makes it.
    let untraced_dir = work.join("untraced");
    let started = Instant::now();
    study_run(&config, &untraced_dir)?;
    let untraced_wall = secs(started.elapsed());
    let reference_artifacts = artifact_digests(&untraced_dir, &STUDY_ARTIFACTS)?;

    // The program's own run, on one thread: its artifacts are the traced
    // outputs.
    let mut tr = Tracer::new();
    let started = Instant::now();
    let dir = work.join("traced");
    let single = StudyConfig {
        threads: 1,
        ..config.clone()
    };
    let report = tr.span("study.run", 0, || study_run(&single, &dir))?;
    let total = report.outcomes.len();
    let artifacts = artifact_digests(&dir, &STUDY_ARTIFACTS)?;
    out.attempted = total as u64;
    if !diff_artifacts(
        &mut out,
        "traced vs untraced",
        &reference_artifacts,
        &artifacts,
    ) {
        out.failed = total as u64;
    }

    // The layers inside that run, re-driven item by item in work order.
    // The manifest is the run's own, rewritten beside it once for the
    // work list and once per item.
    let manifest = Manifest::load(&dir.join("manifest.json"))?;
    let side_manifest = work.join("manifest-redriven.json");
    tr.span("study.manifest_write", total, || {
        manifest.write(&side_manifest)
    })?;
    let cells = config.grid.cells();
    let suites = ProtocolRegistry::builtin()
        .select(&config.protocols)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let panel = suites.len();
    let schema = SchemaVersions::current();
    let mut tally = SimTally::default();
    let (mut sharded_s, mut sequential_s, mut probes, mut probe_total) = (0.0, 0.0, 0, 0.0);
    for (work_idx, outcome) in report.outcomes.iter().enumerate() {
        let (cell, suite) = (&cells[work_idx / panel], suites[work_idx % panel].as_ref());
        let item = tr.enter("study.item", work_idx);
        let intent = validation_intent(&config, cell.index * panel + work_idx % panel);
        tr.span("study.item_key", work_idx, || {
            item_key(&schema, cell, suite, config.requirements, intent)
        });
        let model = suite.model();
        redrive_solve(
            &mut tr,
            work_idx,
            cell,
            Some(model.as_ref()),
            config.requirements,
        );
        tr.span("study.solve_cell", work_idx, || {
            solve_cell(cell, model.as_ref(), config.requirements)
        });
        if let (Some(horizon), Some(validation)) = (intent, &outcome.validation) {
            let build = || validation_simulation(cell, outcome, suite, horizon);
            let sim = tr.span("sim.build", work_idx, build).ok_or_else(|| {
                io::Error::other(format!("item {work_idx}: its validation does not rebuild"))
            })?;
            let report = tr.span(run_span(suite.name()), work_idx, || {
                sim.with_shards(config.shards).run()
            });
            out.check(
                report.delivery_ratio().to_bits() == validation.delivery.to_bits(),
                || format!("item {work_idx}: the re-driven simulation differs from the study's"),
            );
            tally.add(&report);
            // The shard probe: sharded runs simulate the item
            // sequentially too; sequential runs simulate their first few
            // validated items with two shards. Both reports must be
            // identical.
            let probe = if config.shards > 1 {
                Some(1)
            } else {
                (probes < SHARD_PROBES).then_some(2)
            };
            if let Some(sim) = probe.and_then(|p| Some(build()?.with_shards(p))) {
                let started = Instant::now();
                let probe_report = black_box(sim.run());
                let probe_s = secs(started.elapsed());
                probes += 1;
                probe_total += probe_s;
                let primary_s = tr.item_busy(run_span(suite.name()), work_idx);
                if config.shards > 1 {
                    sharded_s += primary_s;
                    sequential_s += probe_s;
                } else {
                    sharded_s += probe_s;
                    sequential_s += primary_s;
                }
                out.check(format!("{report:?}") == format!("{probe_report:?}"), || {
                    format!("item {work_idx}: SimReports differ between 1 and 2 shards")
                });
            }
        }
        tr.span("study.manifest_write", work_idx, || {
            manifest.write(&side_manifest)
        })?;
        tr.exit(item);
    }
    let traced_wall = secs(started.elapsed()) - probe_total;
    tr.write(&spans_path(workload))?;

    record_layers(&mut out, &tr);
    let sim_busy = tr.busy("sim.run.xmac") + tr.busy("sim.run.dmac") + tr.busy("sim.run.lmac");
    tally.record(&mut out, sim_busy);
    if sequential_s > 0.0 {
        out.metrics
            .insert("sim.shard.slowdown", sharded_s / sequential_s);
    }
    // The one-thread run is the pool's whole work; spread over the
    // workers it would fill this share of their untraced wall.
    out.metrics.insert(
        "study.pool_efficiency",
        tr.busy("study.run") / (STUDY_WORKERS as f64 * untraced_wall),
    );
    out.metrics
        .insert("trace.overhead_s", traced_wall - untraced_wall);
    out.counters.extend(artifacts);
    Ok(out)
}

/// Re-drives the layers inside `solve_cell` as calls of their own:
/// topology realization, deployment and, given a model, the bargain.
pub fn redrive_solve(
    tr: &mut Tracer,
    item: usize,
    cell: &GridCell,
    model: Option<&dyn MacModel>,
    reqs: AppRequirements,
) {
    let Ok(topology) = tr.span("net.realize", item, || {
        cell.scenario.topology.realize(cell.seed)
    }) else {
        return;
    };
    let Ok(env) = tr.span("core.deployment", item, || {
        cell.scenario.deployment_from(&topology)
    }) else {
        return;
    };
    if let Some(model) = model {
        tr.span("core.bargain", item, || {
            TradeoffAnalysis::new(model, &env, reqs).bargain().is_ok()
        });
    }
}

/// The packet simulation `validate_cell` builds for a solved item: the
/// suite's simulator at the item's NBS parameters, over `horizon` with a
/// tenth of it as warm-up, coarse wakes.
fn validation_simulation(
    cell: &GridCell,
    outcome: &CellOutcome,
    suite: &dyn ProtocolSuite,
    horizon: Seconds,
) -> Option<Simulation> {
    let (_, _, params) = outcome.nbs.as_ref()?;
    let protocol = suite.simulator(outcome.config.as_ref()?, params);
    let config = SimConfig {
        duration: horizon,
        sample_period: cell.scenario.traffic.sample_period(),
        warmup: Seconds::new(horizon.value() / 10.0),
        seed: cell.seed,
        scheduling: WakeMode::Coarse,
    };
    cell.scenario.simulation(protocol.as_ref(), config).ok()
}

/// `coexist-full`, traced: the coexistence study run once, then its
/// per-network bargains and every joint cell's build and run re-driven
/// from the plans it chose.
pub fn coexistence(seed: u64, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let cfg = coexistence_config(seed);
    let untraced_dir = work.join("untraced");
    let started = Instant::now();
    coexistence_run(&cfg, &untraced_dir)?;
    let untraced_wall = secs(started.elapsed());
    let reference = artifact_digests(&untraced_dir, &COEXISTENCE_ARTIFACTS)?;

    let mut tr = Tracer::new();
    let started = Instant::now();
    let dir = work.join("traced");
    let outcome = tr.span("study.run", 0, || coexistence_run(&cfg, &dir))?;
    let artifacts = artifact_digests(&dir, &COEXISTENCE_ARTIFACTS)?;
    let cells = outcome.cells.len() as u64;
    out.attempted = cells;
    if !diff_artifacts(&mut out, "traced vs untraced", &reference, &artifacts) {
        out.failed = cells;
    }
    let (tally, air_links) = redrive_coexistence(&mut tr, &mut out, &cfg, &outcome)?;
    let traced_wall = secs(started.elapsed());
    tr.write(&spans_path(Workload::CoexistFull))?;

    out.exact("phy.air_links", air_links as u64);
    record_layers(&mut out, &tr);
    tally.record(&mut out, tr.busy("sim.run_coexistence"));
    // The share of the one-thread study that its joint cells'
    // simulations explain.
    out.metrics.insert(
        "study.pool_efficiency",
        (tr.busy("sim.build") + tr.busy("sim.run_coexistence")) / untraced_wall,
    );
    out.metrics
        .insert("trace.overhead_s", traced_wall - untraced_wall);
    out.counters.extend(artifacts);
    Ok(out)
}

/// Re-drives the layers inside one coexistence study, with a span
/// around each call: the per-network topology realization, deployment
/// and bargain (item = network), then every joint cell's field
/// realization, simulation build and run (item = cell index) from the
/// plans `outcome` chose. The re-driven bargains must give the study's
/// plans and the re-driven cells its delivery ratios, bit for bit;
/// mismatches are recorded in `out`. Returns the cells' frame tallies
/// and the field's air-link count.
pub fn redrive_coexistence(
    tr: &mut Tracer,
    out: &mut Outcome,
    cfg: &CoexistenceConfig,
    outcome: &CoexistenceOutcome,
) -> io::Result<(SimTally, usize)> {
    let err = |e: String| io::Error::other(e);
    let k = cfg.networks;
    let mut scenario = CoexistenceScenario::preset(k, cfg.separation);
    scenario.sample_period = cfg.sample_period;
    let topologies = tr
        .span("net.realize", 0, || scenario.realize(cfg.seed))
        .map_err(|e| err(e.to_string()))?;
    let ring = Scenario::ring(2, 3, cfg.sample_period);
    let registry = ProtocolRegistry::builtin();
    let mut suites = Vec::with_capacity(k);
    let mut configs = Vec::with_capacity(k);
    for (net, name) in cfg.protocols.iter().enumerate() {
        let suite = registry.suite(name).map_err(|e| err(e.to_string()))?;
        let model = suite.model();
        let env = tr
            .span("core.deployment", net, || {
                ring.deployment_from(&topologies[net])
            })
            .map_err(|e| err(e.to_string()))?;
        configs.push(model.configure(&env));
        let report = tr
            .span("core.bargain", net, || {
                TradeoffAnalysis::new(model.as_ref(), &env, cfg.requirements).bargain()
            })
            .map_err(|e| err(e.to_string()))?;
        out.check(report.nbs.params == outcome.plans[net].nbs_params, || {
            format!("network {net}: the re-driven bargain differs from the study's plan")
        });
        suites.push(suite);
    }

    // Every joint cell as the study simulates it: the plans' parameters
    // scaled by the cell's profile, on the shadowing-free SINR channel
    // with dense wakes.
    let channel = SinrChannel {
        shadowing_sigma_db: 0.0,
        ..SinrChannel::default()
    };
    let sim_config = SimConfig {
        duration: cfg.sim_horizon,
        sample_period: cfg.sample_period,
        warmup: Seconds::new(cfg.sim_horizon.value() / 10.0),
        seed: cfg.seed,
        scheduling: WakeMode::Dense,
    };
    let positions: Vec<_> = topologies
        .iter()
        .flat_map(|t| t.positions().iter().copied())
        .collect();
    let mut tally = SimTally::default();
    let mut air_links = 0;
    for (idx, cell) in outcome.cells.iter().enumerate() {
        let cell_span = tr.enter("coexistence.cell", idx);
        let sims: Vec<Box<dyn SimProtocol>> = (0..k)
            .map(|net| {
                let scale = cfg.scales[cell.profile[net]];
                let params: Vec<f64> = outcome.plans[net]
                    .nbs_params
                    .iter()
                    .map(|p| p * scale)
                    .collect();
                suites[net].simulator(&configs[net], &params)
            })
            .collect();
        let refs: Vec<&dyn SimProtocol> = sims.iter().map(|b| b.as_ref()).collect();
        // The field `simulation` realizes over the union positions,
        // realized once more on its own to time the physical layer.
        let field = tr.span("phy.realize", idx, || {
            channel.realize(&positions, sim_config.seed)
        });
        air_links = field.air_link_count();
        let sim = tr
            .span("sim.build", idx, || {
                scenario.simulation(&refs, &channel, sim_config)
            })
            .map_err(|e| err(format!("profile {:?}: {e}", cell.profile)))?;
        let reports = tr.span("sim.run_coexistence", idx, || {
            sim.with_shards(cfg.shards).run_coexistence()
        });
        let same = reports.len() == cell.networks.len()
            && reports
                .iter()
                .zip(&cell.networks)
                .all(|(r, m)| r.delivery_ratio().to_bits() == m.delivery.to_bits());
        out.check(same, || {
            format!("cell {idx}: the re-driven simulation differs from the study's")
        });
        for r in &reports {
            tally.add(r);
        }
        tr.exit(cell_span);
    }
    Ok((tally, air_links))
}
