//! The bargaining-vs-aggregate study over the scenario grid.
//!
//! Sweeps (topology preset × node count × hotspot intensity × burst
//! duty × ring depth) × the paper's three protocols, solves every
//! solution concept per cell, cross-validates a subset packet-by-
//! packet, and writes schema-versioned artifacts (see `edmac-study`).
//!
//! ```text
//! cargo run --release --bin study -- --smoke          # pinned CI grid
//! cargo run --release --bin study                     # full ≥200-cell sweep
//! cargo run --release --bin study -- cache-stats --smoke --cache-dir .study-cache
//! cargo run --release --bin study -- serve --addr 127.0.0.1:7878 --cache-dir .study-cache
//! cargo run --release --bin study -- query --addr 127.0.0.1:7878 --smoke --stats
//! ```
//!
//! Flags:
//!
//! * `--smoke` — the pinned 12-cell grid CI diffs against goldens;
//! * `--out DIR` — artifact directory (default `artifacts/`);
//! * `--jobs N` — worker threads (default: all cores);
//! * `--validate-every K` — packet-level validation stride (0 = off);
//! * `--preset NAME` — restrict the grid to one preset family
//!   (`ring`, `disk`, `hotspot`, `burst`);
//! * `--protocols a,b,c` — the protocol panel, resolved against the
//!   built-in `ProtocolRegistry` (default: the paper trio; any
//!   registered suite works, e.g. `--protocols xmac,csma`);
//! * `--cache-dir DIR` — content-addressed cell cache: items whose
//!   content key is already stored are served from disk bit-exactly,
//!   misses are solved and written back (warm reruns are
//!   byte-identical with zero solves);
//! * `--max-items N` — stop after N work items (in sweep order),
//!   leaving the rest pending in the manifest;
//! * `--resume MANIFEST` — reload a run's `manifest.json`, verify its
//!   content keys still match this build, and complete the pending
//!   items (done items come back as cache hits); only `--jobs`,
//!   `--out`, and `--max-items` may accompany it.
//!
//! Every subcommand accepts exactly the flags it documents: anything
//! else (a misspelt `--validate-evry 0`, a stray word) exits with
//! status 2 and names the flags that subcommand accepts, instead of
//! silently running the defaults.
//!
//! Subcommand `cache-stats` audits a cache directory against the
//! configured grid without solving anything: hit/miss counts for the
//! work list plus entries no current key addresses (stale survivors
//! of a schema or model bump). With `--json` it emits the same
//! `edmac-serve/stats/v1` document the serve `stats` verb answers, so
//! one schema covers live and offline cache observability.
//!
//! Subcommand `serve` fronts a cache directory as a deployment-
//! planning service (`edmac-serve`): hot tier → disk cache → cold
//! solve under single-flight dedup, draining cleanly on SIGTERM /
//! ctrl-c. Flags: `--addr HOST:PORT` (port 0 = ephemeral), `--cache-
//! dir DIR`, `--workers N`, `--hot-cap N`, `--queue-cap N`,
//! `--deadline-ms N`, `--addr-file PATH` (write the bound address for
//! scripts racing an ephemeral port), `--quiet` (suppress per-request
//! log lines).
//!
//! Subcommand `coexistence` runs the multi-network study: every
//! network bargains for itself in isolation, then all joint strategy
//! profiles are simulated on one shared SINR channel, iterated best
//! response finds an equilibrium, and the artifacts record its price
//! of anarchy against the joint planner. Flags: `--smoke` (3-scale
//! strategy space, 9 cells), `--separation X`, `--seed N`,
//! `--protocols a,b` (one per network), `--out DIR`.
//!
//! Subcommand `query` replays the configured grid against a running
//! server — the scripting/CI client. Grid flags (`--smoke`,
//! `--preset`, `--protocols`, `--validate-every`) select the same
//! work items the offline runner would solve; `--out DIR` writes each
//! response payload to `DIR/<digest>.entry` for byte-comparison
//! against a cache directory; `--stats` appends the server's stats
//! document after the replay.

use edmac_bench::{preset_filter, protocols_filter};
use edmac_proto::{ProtocolRegistry, PAPER_TRIO};
use edmac_serve::{
    install_drain_flag, Client, Request, Response, ServeConfig, Server, SolveRequest, StatsReport,
};
use edmac_study::{
    cache_stats, run_coexistence_study, run_study, validation_intent, write_artifacts,
    write_coexistence_artifacts, CoexistenceConfig, Manifest, RunOptions, StudyConfig,
    StudyRunReport,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A subcommand of the binary; [`Command::Study`] is the bare
/// invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Study,
    CacheStats,
    Coexistence,
    Serve,
    Query,
}

/// The flags that take no value; every other flag takes one.
const SWITCHES: [&str; 4] = ["--smoke", "--json", "--quiet", "--stats"];

/// The flags that select the grid's work items.
const GRID_FLAGS: [&str; 4] = ["--smoke", "--validate-every", "--preset", "--protocols"];

impl Command {
    /// Splits a command line (program name excluded) into its
    /// subcommand and that subcommand's arguments.
    fn parse(args: &[String]) -> (Command, &[String]) {
        let command = match args.first().map(String::as_str) {
            Some("cache-stats") => Command::CacheStats,
            Some("coexistence") => Command::Coexistence,
            Some("serve") => Command::Serve,
            Some("query") => Command::Query,
            _ => return (Command::Study, args),
        };
        (command, &args[1..])
    }

    fn name(self) -> &'static str {
        match self {
            Command::Study => "study",
            Command::CacheStats => "study cache-stats",
            Command::Coexistence => "study coexistence",
            Command::Serve => "study serve",
            Command::Query => "study query",
        }
    }

    /// Every flag this subcommand reads.
    fn flags(self) -> Vec<&'static str> {
        let (grid, own): (bool, &[&str]) = match self {
            Command::Study => (
                true,
                &["--cache-dir", "--out", "--jobs", "--max-items", "--resume"],
            ),
            Command::CacheStats => (true, &["--cache-dir", "--json"]),
            Command::Query => (true, &["--addr", "--addr-file", "--out", "--stats"]),
            Command::Coexistence => (
                false,
                &["--smoke", "--separation", "--seed", "--protocols", "--out"],
            ),
            Command::Serve => (
                false,
                &[
                    "--addr",
                    "--cache-dir",
                    "--workers",
                    "--hot-cap",
                    "--queue-cap",
                    "--deadline-ms",
                    "--addr-file",
                    "--quiet",
                ],
            ),
        };
        let grid: &[&str] = if grid { &GRID_FLAGS } else { &[] };
        grid.iter().chain(own).copied().collect()
    }

    /// Refuses any argument that is not one of this subcommand's flags
    /// (or the value of one).
    fn check(self, args: &[String]) -> Result<(), String> {
        let flags = self.flags();
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !flags.contains(&arg) {
                return Err(format!(
                    "{}: unknown argument '{arg}'; accepted flags: {}",
                    self.name(),
                    flags.join(", ")
                ));
            }
            if !SWITCHES.contains(&arg) {
                rest.next();
            }
        }
        Ok(())
    }
}

/// `Ok(None)` when the flag is absent; an error when it is present
/// without a value (a silently-dropped flag is worse than a refusal).
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse_usize(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("{flag} needs a non-negative integer, got '{v}'")),
    }
}

/// Builds a [`StudyConfig`] from the CLI flags (everything except
/// `--resume`, which snapshots its config from the manifest instead).
fn config_from_flags(args: &[String]) -> Result<StudyConfig, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut config = if smoke {
        StudyConfig::smoke()
    } else {
        StudyConfig::full()
    };
    if let Some(stride) = parse_usize(args, "--validate-every")? {
        config.validate_every = stride;
    }
    config.preset = preset_filter(args)?;
    let registry = ProtocolRegistry::builtin();
    config.protocols = protocols_filter(args, &registry, &PAPER_TRIO)?
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    config.cache_dir = flag_value(args, "--cache-dir")?.map(PathBuf::from);
    Ok(config)
}

fn run_cache_stats(args: &[String]) -> Result<(), String> {
    let config = config_from_flags(args)?;
    let dir = config
        .cache_dir
        .clone()
        .ok_or("cache-stats needs --cache-dir DIR")?;
    let report = cache_stats(&config, &dir).map_err(|e| format!("cache-stats: {e}"))?;
    if args.iter().any(|a| a == "--json") {
        // The serve `stats` verb's schema, sourced from the offline
        // audit: one document shape for dashboards and CI greps.
        println!("{}", StatsReport::from_audit(&report).to_json().render());
        return Ok(());
    }
    println!(
        "cache-stats: {} work items against {} — {} hits, {} misses; \
         {} invalidated of {} entries on disk",
        report.items,
        dir.display(),
        report.hits,
        report.misses,
        report.invalidated,
        report.entries,
    );
    Ok(())
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServeConfig {
        log: !args.iter().any(|a| a == "--quiet"),
        ..ServeConfig::default()
    };
    if let Some(addr) = flag_value(args, "--addr")? {
        config.addr = addr;
    }
    if let Some(dir) = flag_value(args, "--cache-dir")? {
        config.cache_dir = PathBuf::from(dir);
    }
    if let Some(workers) = parse_usize(args, "--workers")? {
        config.workers = workers;
    }
    if let Some(cap) = parse_usize(args, "--hot-cap")? {
        config.hot_cap = cap;
    }
    if let Some(cap) = parse_usize(args, "--queue-cap")? {
        config.queue_cap = cap;
    }
    if let Some(ms) = parse_usize(args, "--deadline-ms")? {
        config.default_deadline_ms = ms as u64;
    }
    let drain = install_drain_flag();
    let server = Server::start(&config, Arc::new(AtomicBool::new(false)))
        .map_err(|e| format!("serve: binding {}: {e}", config.addr))?;
    let addr = server.local_addr();
    println!(
        "serve: listening on {addr} (cache {})",
        config.cache_dir.display()
    );
    if let Some(path) = flag_value(args, "--addr-file")? {
        // Scripts race an ephemeral port; the file is the handshake.
        std::fs::write(&path, format!("{addr}\n"))
            .map_err(|e| format!("serve: writing {path}: {e}"))?;
    }
    while !drain.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.shutdown();
    println!("serve: drained cleanly");
    Ok(())
}

/// The configured grid as wire requests, in sweep order — exactly the
/// work items (and validation intents) the offline runner would solve,
/// so a replay against a cache the runner warmed hits every time.
fn grid_requests(config: &StudyConfig) -> Result<Vec<SolveRequest>, String> {
    let suites = ProtocolRegistry::builtin()
        .select(&config.protocols)
        .map_err(|e| e.to_string())?;
    let mut requests = Vec::new();
    for cell in config.grid.cells() {
        for (suite_idx, suite) in suites.iter().enumerate() {
            let grid_work = cell.index * suites.len() + suite_idx;
            requests.push(SolveRequest::for_cell(
                &cell,
                &config.grid,
                suite.name(),
                config.requirements,
                validation_intent(config, grid_work),
            ));
        }
    }
    Ok(requests)
}

fn run_query(args: &[String]) -> Result<(), String> {
    let addr = match flag_value(args, "--addr")? {
        Some(addr) => addr,
        None => {
            let path = flag_value(args, "--addr-file")?
                .ok_or("query needs --addr HOST:PORT (or --addr-file PATH)")?;
            std::fs::read_to_string(&path)
                .map_err(|e| format!("query: reading {path}: {e}"))?
                .trim()
                .to_string()
        }
    };
    let config = config_from_flags(args)?;
    let out_dir = flag_value(args, "--out")?.map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("query: mkdir {}: {e}", dir.display()))?;
    }
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("query: connecting {addr}: {e}"))?;
    let (mut hot, mut disk, mut solved) = (0usize, 0usize, 0usize);
    let requests = grid_requests(&config)?;
    let items = requests.len();
    for query in requests {
        let response = client
            .request(&Request::Solve(query))
            .map_err(|e| format!("query: transport: {e}"))?;
        match response {
            Response::Outcome {
                tier,
                digest,
                elapsed_us,
                outcome,
            } => {
                println!("query: {digest} {} {elapsed_us}us", tier.label());
                match tier {
                    edmac_serve::Tier::Hot => hot += 1,
                    edmac_serve::Tier::Disk => disk += 1,
                    edmac_serve::Tier::Solve => solved += 1,
                }
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{digest}.entry"));
                    std::fs::write(&path, outcome)
                        .map_err(|e| format!("query: writing {}: {e}", path.display()))?;
                }
            }
            Response::Timeout { digest, elapsed_us } => {
                return Err(format!("query: {digest} timed out after {elapsed_us}us"));
            }
            Response::Overloaded => return Err("query: server overloaded".into()),
            Response::Error { message } => return Err(format!("query: server error: {message}")),
            Response::Stats(_) => return Err("query: unexpected stats response".into()),
        }
    }
    // Grep-able by CI's serve-smoke gauntlet: a warm replay must
    // answer every item from cache (hot + disk = items, solved = 0).
    println!("query: {items} items — hot {hot}, disk {disk}, solved {solved}");
    if args.iter().any(|a| a == "--stats") {
        let Response::Stats(stats) = client
            .request(&Request::Stats)
            .map_err(|e| format!("query: stats: {e}"))?
        else {
            return Err("query: stats verb answered a non-stats response".into());
        };
        println!("{}", stats.render());
    }
    Ok(())
}

/// Colon-joined strategy profile for the console summary (matches the
/// artifact field format).
fn profile_label(profile: &[usize]) -> String {
    profile
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(":")
}

fn run_coexistence(args: &[String]) -> Result<(), String> {
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        CoexistenceConfig::smoke()
    } else {
        CoexistenceConfig::full()
    };
    if let Some(sep) = flag_value(args, "--separation")? {
        cfg.separation = sep
            .parse::<f64>()
            .map_err(|_| format!("--separation needs a number, got '{sep}'"))?;
    }
    if let Some(seed) = parse_usize(args, "--seed")? {
        cfg.seed = seed as u64;
    }
    let registry = ProtocolRegistry::builtin();
    let default_panel: Vec<String> = cfg.protocols.clone();
    let default_names: Vec<&str> = default_panel.iter().map(String::as_str).collect();
    cfg.protocols = protocols_filter(args, &registry, &default_names)?
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    cfg.networks = cfg.protocols.len();
    let out_dir = PathBuf::from(flag_value(args, "--out")?.unwrap_or_else(|| "artifacts".into()));

    let started = std::time::Instant::now();
    let outcome = run_coexistence_study(&cfg).map_err(|e| format!("coexistence: {e}"))?;
    write_coexistence_artifacts(&out_dir, &outcome)
        .map_err(|e| format!("writing artifacts under {}: {e}", out_dir.display()))?;
    println!(
        "coexistence: {} networks ({}) x {} strategies = {} joint cells on {}",
        cfg.networks,
        cfg.protocols.join(","),
        cfg.scales.len(),
        outcome.cells.len(),
        outcome.scenario,
    );
    println!(
        "equilibrium: profile {} welfare {:.6} after {} best-response rounds (converged: {})",
        profile_label(&outcome.equilibrium),
        outcome.welfare_equilibrium,
        outcome.br_rounds,
        outcome.converged,
    );
    println!(
        "joint planner: profile {} welfare {:.6}; price of anarchy {:.4}",
        profile_label(&outcome.joint_optimum),
        outcome.welfare_joint,
        outcome.price_of_anarchy,
    );
    println!(
        "artifacts: {}/coexistence_cells.csv, coexistence_summary.json",
        out_dir.display()
    );
    println!("elapsed: {:.2?}", started.elapsed());
    Ok(())
}

fn print_report(config: &StudyConfig, report: &StudyRunReport, out_dir: &std::path::Path) {
    let summary = &report.summary;
    println!(
        "study: {} scenarios x {} protocols = {} cells ({} solved, {} concepts each)",
        summary.scenarios,
        config.protocols.len(),
        summary.protocol_cells,
        summary.solved_cells,
        summary.concepts_per_cell,
    );
    if let Some(stats) = &report.cache {
        // Grep-able by CI's determinism gauntlet: a warm run must
        // report every item as a hit, a cold run as a miss.
        println!(
            "cache: {} hits, {} misses, {} written",
            stats.hits, stats.misses, stats.writes
        );
    }
    if report.completed_items < report.total_items {
        println!(
            "partial: completed {} of {} work items; resume with --resume {}",
            report.completed_items,
            report.total_items,
            out_dir.join("manifest.json").display(),
        );
    }
    println!("\npreset,cells,mean_irregularity,mean_drift,max_drift");
    for b in &summary.drift {
        println!(
            "{},{},{:.4},{:.4},{:.4}",
            b.preset, b.cells, b.mean_irregularity, b.mean_drift, b.max_drift
        );
    }
    let g = &summary.aggregate_gap;
    println!(
        "\nbargaining-vs-aggregate: {} cells, profile distance mean {:.4} max {:.4}, \
         NP efficiency {:.4}, fairness ratio {:.4}, aggregate outside gain region on {} cells",
        g.cells,
        g.mean_profile_distance,
        g.max_profile_distance,
        g.mean_np_efficiency,
        g.mean_fairness_ratio,
        g.outside_gain_region,
    );
    let w = &summary.weight_sweep;
    println!(
        "weight sweep: {} cells, best-distance mean {:.4} max {:.4}; some weight reproduces \
         Nash on {} cells, best static w = {:.2} reproduces {} — one weight fits all: {}",
        w.cells,
        w.mean_best_distance,
        w.max_best_distance,
        w.cells_matched_by_some_weight,
        w.best_static_w,
        w.cells_matched_by_best_static,
        w.any_static_weight_reproduces_all(),
    );
    let v = &summary.validation;
    if v.cells > 0 {
        println!(
            "model-vs-sim: {} cells validated, energy error mean {:.1}% max {:.1}%, \
             latency error mean {:.1}% max {:.1}%, min delivery {:.3}",
            v.cells,
            v.mean_err_e * 100.0,
            v.max_err_e * 100.0,
            v.mean_err_l * 100.0,
            v.max_err_l * 100.0,
            v.min_delivery,
        );
    }
    println!(
        "artifacts: {}/study_cells.csv, study_validation.csv, study_summary.json",
        out_dir.display()
    );
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = Command::parse(&args);
    command.check(args)?;
    match command {
        Command::Study => run_grid(args),
        Command::CacheStats => run_cache_stats(args),
        Command::Coexistence => run_coexistence(args),
        Command::Serve => run_serve(args),
        Command::Query => run_query(args),
    }
}

fn run_grid(args: &[String]) -> Result<(), String> {
    let (mut config, out_dir, manifest_path) = match flag_value(args, "--resume")? {
        Some(path) => {
            // The manifest *is* the config: grid, panel, stride, cache
            // directory, output directory. Config-shaping flags would
            // silently disagree with it, so they are refused outright.
            for flag in [
                "--smoke",
                "--preset",
                "--protocols",
                "--validate-every",
                "--cache-dir",
            ] {
                if args.iter().any(|a| a == flag) {
                    return Err(format!(
                        "{flag} conflicts with --resume: the manifest pins the run's config"
                    ));
                }
            }
            let path = PathBuf::from(path);
            let manifest = Manifest::load(&path).map_err(|e| format!("--resume: {e}"))?;
            let out_dir = match flag_value(args, "--out")? {
                Some(dir) => PathBuf::from(dir),
                None => manifest
                    .out_dir
                    .clone()
                    .ok_or("--resume: the manifest records no output directory; pass --out DIR")?,
            };
            (manifest.config, out_dir, path)
        }
        None => {
            let config = config_from_flags(args)?;
            let out_dir =
                PathBuf::from(flag_value(args, "--out")?.unwrap_or_else(|| "artifacts".into()));
            let manifest_path = out_dir.join("manifest.json");
            (config, out_dir, manifest_path)
        }
    };
    // Worker threads are proven byte-invariant, so `--jobs` never
    // conflicts with a manifest's pinned config.
    if let Some(jobs) = parse_usize(args, "--jobs")? {
        config.threads = jobs;
    }
    let options = RunOptions {
        manifest: Some(manifest_path),
        max_items: parse_usize(args, "--max-items")?,
        out_dir: Some(out_dir.clone()),
    };

    let started = std::time::Instant::now();
    let report = run_study(&config, &options).map_err(|e| format!("study run: {e}"))?;
    write_artifacts(&out_dir, &report.outcomes, &report.summary)
        .map_err(|e| format!("writing artifacts under {}: {e}", out_dir.display()))?;
    print_report(&config, &report, &out_dir);
    println!("elapsed: {:.2?}", started.elapsed());
    Ok(())
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::Command;

    fn check(line: &str) -> Result<(), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (command, args) = Command::parse(&args);
        command.check(args)
    }

    #[test]
    fn every_documented_invocation_is_accepted() {
        for line in [
            // CI's study-smoke, study-cache and serve-smoke jobs.
            "--smoke --out artifacts --cache-dir .study-cache",
            "coexistence --smoke --out artifacts",
            "--out artifacts-full",
            "--smoke --cache-dir study-cache --out out-cold",
            "cache-stats --smoke --cache-dir study-cache",
            "--smoke --cache-dir resume-cache --max-items 5 --out out-resumed",
            "--resume out-resumed/manifest.json",
            "--smoke --cache-dir serve-cache --out out-serve",
            "serve --addr 127.0.0.1:0 --cache-dir serve-cache --addr-file serve-addr.txt",
            "query --addr-file serve-addr.txt --smoke --out replayed --stats",
            // ci/regen_goldens.sh.
            "--smoke --out ci/golden",
            "--out ci/golden/full",
            "coexistence --smoke --out ci/golden",
            // The rest of the documented surface.
            "",
            "--preset hotspot --protocols xmac,csma --validate-every 0 --jobs 1",
            "--resume out/manifest.json --jobs 2 --out elsewhere --max-items 3",
            "cache-stats --smoke --cache-dir .study-cache --json",
            "serve --addr 127.0.0.1:7878 --cache-dir c --workers 2 --hot-cap 64 \
             --queue-cap 8 --deadline-ms 500 --quiet",
            "query --addr 127.0.0.1:7878 --preset ring --protocols xmac --validate-every 4",
            "coexistence --separation 2.5 --seed 7 --protocols xmac,lmac",
        ] {
            assert_eq!(check(line), Ok(()), "{line}");
        }
    }

    #[test]
    fn unknown_arguments_are_refused_with_the_accepted_flags() {
        for (line, command) in [
            ("--smoke --shards 2", "study"),
            ("--validate-evry 0", "study"),
            ("--smoke smoke", "study"),
            ("coexistence --smoke --shards 2", "study coexistence"),
            (
                "cache-stats --smoke --cache-dir c --out x",
                "study cache-stats",
            ),
            ("serve --smoke", "study serve"),
            ("query --addr a --cache-dir c", "study query"),
        ] {
            let err = check(line).expect_err(line);
            assert!(
                err.starts_with(&format!("{command}: unknown argument")),
                "{err}"
            );
        }
        let err = check("--validate-evry 0").unwrap_err();
        assert!(err.contains("'--validate-evry'"), "{err}");
        assert!(err.contains("--validate-every"), "{err}");
        // A flag's value is never mistaken for a flag.
        assert_eq!(check("--out --shards"), Ok(()));
    }
}
