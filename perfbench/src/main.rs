//! Whole-workload benchmark of the edmac workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-full --seed 60844 --seconds 30 --trace 0
//! ```
//!
//! Four workloads drive the workspace through its public functions
//! only: `grid-full` and `smoke-shards2` (the `study` binary's run),
//! `coexist-full` (the coexistence study) and `serve-replay` (a closed
//! loop against an in-process planning server). Every run checks its
//! outputs. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the workload once on one thread, re-drives the layers it
//! contains item by item beside it, records a span around every layer
//! call, and prints the per-layer metrics. The last
//! stdout line is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `perfbench/METRICS.md` documents every
//! workload and metric.

mod batch;
mod serve;
mod trace;

use edmac_study::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer the workload
/// never enters reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("net.realize.calls", "count"),
    ("net.realize.busy_s", "s"),
    ("core.deployment.busy_s", "s"),
    ("core.bargain.calls", "count"),
    ("core.bargain.busy_s", "s"),
    ("study.solve_cell.calls", "count"),
    ("study.solve_cell.busy_s", "s"),
    ("study.panel.self_s", "s"),
    ("study.item_key.busy_s", "s"),
    ("study.manifest_write.calls", "count"),
    ("study.manifest_write.busy_s", "s"),
    ("study.pool_efficiency", "ratio"),
    ("sim.build.busy_s", "s"),
    ("sim.run.xmac_s", "s"),
    ("sim.run.dmac_s", "s"),
    ("sim.run.lmac_s", "s"),
    ("sim.frames_tx", "count"),
    ("sim.frames_rx", "count"),
    ("sim.delivered", "count"),
    ("sim.host_ns_per_frame", "ns"),
    ("sim.run_coexistence.busy_s", "s"),
    ("sim.collisions.destroyed", "count"),
    ("sim.collisions.captured", "count"),
    ("sim.collisions.below_noise", "count"),
    ("sim.shard.slowdown", "ratio"),
    ("phy.realize.busy_s", "s"),
    ("phy.air_links", "count"),
    ("serve.hot.hits", "count"),
    ("serve.disk.hits", "count"),
    ("serve.solve.hits", "count"),
    ("serve.coalesced", "count"),
    ("serve.hot.p50_us", "us"),
    ("serve.disk.p50_us", "us"),
    ("serve.disk.p95_us", "us"),
    ("serve.wire_wait_us", "us"),
    ("serve.p99_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `StudyConfig::full()`: 216 items, every 8th validated by a 600 s
    /// packet simulation, two study workers.
    GridFull,
    /// `CoexistenceConfig::full()`: 2 networks, 25 joint cells on the
    /// SINR channel, single-threaded.
    CoexistFull,
    /// `StudyConfig::smoke()` with two shards per validation run.
    SmokeShards2,
    /// A closed loop of two connections against an in-process server
    /// over a warmed cache.
    ServeReplay,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::GridFull,
        Workload::CoexistFull,
        Workload::SmokeShards2,
        Workload::ServeReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridFull => "grid-full",
            Workload::CoexistFull => "coexist-full",
            Workload::SmokeShards2 => "smoke-shards2",
            Workload::ServeReplay => "serve-replay",
        }
    }

    /// The seed the repository pins for this workload's inputs: the
    /// study grid's `seed_base` and the coexistence scenario seed.
    fn default_seed(self) -> u64 {
        match self {
            Workload::CoexistFull => 7,
            _ => 0xED_AC,
        }
    }
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work items (batch) or requests (serve) attempted.
    pub attempted: u64,
    /// Of those, the ones that failed or whose output check failed.
    pub failed: u64,
    /// Human-readable output-check failures.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact work counters: equal code and seed must reproduce them.
    pub counters: Vec<(String, String)>,
}

impl Outcome {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Records an exact work counter.
    pub fn count(&mut self, name: impl Into<String>, value: impl ToString) {
        self.counters.push((name.into(), value.to_string()));
    }

    /// Records an exact work count as both a metric and a counter.
    pub fn exact(&mut self, name: &'static str, value: u64) {
        self.metrics.insert(name, value as f64);
        self.count(name, value);
    }
}

/// Output digests and work counters at each workload's default seed.
const PINNED: &str = include_str!("../pinned.json");

/// Compares `out.counters` with the pins recorded for `workload` under
/// `section` (`untraced` or `traced`), when the run uses the pinned
/// seed. Other seeds are held out: the runs check them against each
/// other instead.
fn check_pins(out: &mut Outcome, workload: Workload, seed: u64, section: &str) {
    let pins = Json::parse(PINNED).expect("pinned.json is valid JSON");
    let Ok(entry) = pins.get(workload.name()) else {
        out.problems
            .push(format!("pinned.json has no {}", workload.name()));
        return;
    };
    if entry.u64_("seed") != Ok(seed) {
        return;
    }
    let Ok(Json::Obj(pinned)) = entry.get(section) else {
        out.problems
            .push(format!("pinned.json has no {}.{section}", workload.name()));
        return;
    };
    let mut mismatches = Vec::new();
    for (name, value) in &out.counters {
        match pinned.iter().find(|(k, _)| k == name) {
            Some((_, Json::Str(p))) if p == value => {}
            Some((_, p)) => mismatches.push(format!("{name}: pinned {p:?}, got {value}")),
            None => mismatches.push(format!("{name}: not pinned, got {value}")),
        }
    }
    for (name, _) in pinned {
        if !out.counters.iter().any(|(k, _)| k == name) {
            mismatches.push(format!("{name}: pinned but not measured"));
        }
    }
    if !mismatches.is_empty() {
        out.problems.push(format!(
            "{} {section} at the pinned seed: {}",
            workload.name(),
            mismatches.join("; ")
        ));
    }
}

/// 64-bit FNV-1a digest plus length, as `hhhhhhhhhhhhhhhh:len`.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}:{}", fnv1a(bytes), bytes.len())
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64 step: the benchmark's input generator.
pub fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident memory of this process, in MB, since the last
/// [`reset_peak_rss`].
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak to the current resident size, so the next reading
/// covers one repetition rather than the whole process lifetime. Where
/// the kernel does not support it, the peak stays the lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Minimum repetitions of a workload's measured unit per run, so each
/// reported time is a median of several.
pub const MIN_REPS: usize = 3;

/// What [`repeat`] measured.
#[derive(Debug)]
pub struct Reps<T> {
    /// Each repetition's measured duration and result.
    pub runs: Vec<(Duration, T)>,
    /// Median over repetitions of the process's peak resident memory
    /// during the repetition, in MB.
    pub peak_rss_mb: f64,
}

impl<T> Reps<T> {
    /// The median measured duration, in seconds.
    pub fn median_s(&self) -> f64 {
        let walls: Vec<f64> = self.runs.iter().map(|(d, _)| secs(*d)).collect();
        quantile(&walls, 0.5)
    }
}

/// Runs `rep(i)` for i = 0, 1, … until the measured durations it
/// returns add up to `seconds` and at least `min_reps` ran.
pub fn repeat<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> io::Result<(Duration, T)>,
) -> io::Result<Reps<T>> {
    let mut runs: Vec<(Duration, T)> = Vec::new();
    let mut peaks = Vec::new();
    let mut total = Duration::ZERO;
    while runs.len() < min_reps || secs(total) < seconds {
        reset_peak_rss();
        let (took, value) = rep(runs.len())?;
        peaks.push(peak_rss_mb());
        total += took;
        runs.push((took, value));
    }
    Ok(Reps {
        runs,
        peak_rss_mb: quantile(&peaks, 0.5),
    })
}

/// A set-up faster than this is timed over a batch of calls, so timer
/// resolution and call overhead do not dominate the sample.
const MIN_SETUP_SAMPLE: Duration = Duration::from_millis(1);

/// Appends `samples` samples of seconds per `setup()` call to `times`;
/// a sample repeats the call until it has taken [`MIN_SETUP_SAMPLE`].
pub fn time_setup(
    times: &mut Vec<f64>,
    samples: usize,
    mut setup: impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    for _ in 0..samples {
        let started = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || started.elapsed() < MIN_SETUP_SAMPLE {
            setup()?;
            calls += 1;
        }
        times.push(secs(started.elapsed()) / f64::from(calls));
    }
    Ok(())
}

/// Removes `dir` if present and creates it empty.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let name = value("--workload")?.ok_or("--workload NAME is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (one of {})", names.join(", "))
        })?;
    let seed = match value("--seed")? {
        None => workload.default_seed(),
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed needs an unsigned integer, got '{s}'"))?,
    };
    let seconds = match value("--seconds")? {
        None => 30.0,
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("--seconds needs a positive number, got '{s}'"))?,
    };
    let trace = match value("--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, work: &Path) -> io::Result<Outcome> {
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    let mut out = match (w, args.trace) {
        (Workload::GridFull | Workload::SmokeShards2, false) => {
            batch::study(w, seed, seconds, work)?
        }
        (Workload::CoexistFull, false) => batch::coexistence(seed, seconds, work)?,
        (Workload::ServeReplay, false) => serve::replay(seed, seconds, work)?,
        (Workload::GridFull | Workload::SmokeShards2, true) => trace::study(w, seed, work)?,
        (Workload::CoexistFull, true) => trace::coexistence(seed, work)?,
        (Workload::ServeReplay, true) => serve::traced(seed, work)?,
    };
    check_pins(
        &mut out,
        w,
        seed,
        if args.trace { "traced" } else { "untraced" },
    );
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let work = Path::new(".perfbench").join("work");
    let result = fresh_dir(&work).and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench: workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        out.check(value.is_finite(), || format!("metric {name} is not finite"));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} = {value} {unit}");
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::from_f64(value)),
                ("unit".into(), Json::from_str_(unit)),
            ]),
        ));
    }
    for (name, value) in &out.counters {
        println!("counter {name} = {value}");
    }
    for problem in &out.problems {
        println!("check failed: {problem}");
    }
    if !out.problems.is_empty() && out.failed == 0 {
        // A failed whole-run check (a digest, a counter) fails every
        // item the run attempted.
        out.failed = out.attempted;
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.problems.is_empty())),
        ("attempted".into(), Json::from_u64(out.attempted.max(1))),
        ("failed".into(), Json::from_u64(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
