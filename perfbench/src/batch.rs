//! The batch workloads. Each run calls the study's entry point once,
//! the way the `study` binary runs it, for the outputs it checks:
//! `grid-full` and `smoke-shards2` call `run_study` with a manifest in a
//! fresh output directory, then `write_artifacts`; `coexist-full` calls
//! `run_coexistence_study`, then `write_coexistence_artifacts`. The
//! measured phase then repeats passes of the public calls the study is
//! made of, and `wall_s` puts the study's wall together from each
//! part's slowest pass.

use crate::trace::{redrive_coexistence, SimTally, Tracer};
use crate::{digest, quantile, repeat, secs, time_setup, Outcome, Reps, Workload, MIN_REPS};
use edmac_core::CoexistenceScenario;
use edmac_proto::ProtocolRegistry;
use edmac_study::{
    item_key, run_coexistence_study, run_study, solve_cell, validate_cell, validation_intent,
    write_artifacts, write_coexistence_artifacts, CoexistenceConfig, CoexistenceOutcome, Manifest,
    RunOptions, SchemaVersions, StudyConfig, StudyRunReport,
};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Study worker threads (`grid-full`, `smoke-shards2`).
pub const STUDY_WORKERS: usize = 2;

/// Set-up samples taken after every repetition, so that they span the
/// run as the measured work does.
const SETUP_SAMPLES: usize = 7;

/// The quantile of the set-up samples reported as `setup_s`: the set-up
/// time at the host's loaded speed. Each vCPU of this host runs either
/// at a steady loaded speed or, for bursts of seconds, up to ~1.6×
/// faster; a median lands on whichever speed held for most of the run,
/// while nearly every run holds some loaded time.
const SETUP_QUANTILE: f64 = 0.9;

/// One re-driven pass of a study: the content keys' time, and each
/// item's time and whether it reproduced the study's outcome.
type StudyPass = (f64, Vec<(f64, bool)>);

/// One re-driven pass of a coexistence study: the plans' time, each
/// joint cell's time, the frame tallies and any mismatch found.
type CoexistencePass = (f64, Vec<f64>, SimTally, Vec<String>);

/// The three study artifacts, in the order they are checked.
pub const STUDY_ARTIFACTS: [&str; 3] = [
    "study_cells.csv",
    "study_validation.csv",
    "study_summary.json",
];

/// The two coexistence artifacts.
pub const COEXISTENCE_ARTIFACTS: [&str; 2] = ["coexistence_cells.csv", "coexistence_summary.json"];

/// Where the repository keeps the sequential smoke run's artifacts.
const GOLDEN_DIR: &str = "ci/golden";

/// The workload's study config at `seed` (the grid's `seed_base`).
pub fn study_config(workload: Workload, seed: u64) -> StudyConfig {
    let (mut config, shards) = match workload {
        Workload::GridFull => (StudyConfig::full(), 1),
        Workload::SmokeShards2 => (StudyConfig::smoke(), 2),
        other => unreachable!("{other:?} is not a study workload"),
    };
    config.grid.seed_base = seed;
    config.threads = STUDY_WORKERS;
    config.shards = shards;
    config
}

/// The coexistence config at `seed`.
pub fn coexistence_config(seed: u64) -> CoexistenceConfig {
    CoexistenceConfig {
        seed,
        ..CoexistenceConfig::full()
    }
}

/// One `study`-binary run into `dir`. The directory must not exist: a
/// run over an old `manifest.json` silently becomes a resume, or is
/// refused when the config differs.
pub fn study_run(config: &StudyConfig, dir: &Path) -> io::Result<StudyRunReport> {
    if dir.exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!(
                "{} exists; a run over its manifest would resume it",
                dir.display()
            ),
        ));
    }
    let options = RunOptions {
        manifest: Some(dir.join("manifest.json")),
        max_items: None,
        out_dir: Some(dir.to_path_buf()),
    };
    let report = run_study(config, &options)?;
    write_artifacts(dir, &report.outcomes, &report.summary)?;
    Ok(report)
}

/// One coexistence study into `dir`.
pub fn coexistence_run(config: &CoexistenceConfig, dir: &Path) -> io::Result<CoexistenceOutcome> {
    let outcome = run_coexistence_study(config).map_err(io::Error::other)?;
    write_coexistence_artifacts(dir, &outcome)?;
    Ok(outcome)
}

/// Digests of the named artifacts under `dir`, as counters
/// (`artifact.<name>`).
pub fn artifact_digests(dir: &Path, names: &[&str]) -> io::Result<Vec<(String, String)>> {
    names
        .iter()
        .map(|name| {
            Ok((
                format!("artifact.{name}"),
                digest(&std::fs::read(dir.join(name))?),
            ))
        })
        .collect()
}

/// Exact work counters of a study run.
pub fn study_counters(report: &StudyRunReport) -> Vec<(String, String)> {
    let outcomes = &report.outcomes;
    let solved = outcomes.iter().filter(|o| o.solved()).count();
    let validated = outcomes.iter().filter(|o| o.validation.is_some()).count();
    vec![
        ("study.items".into(), report.completed_items.to_string()),
        ("study.solved".into(), solved.to_string()),
        (
            "study.infeasible".into(),
            (outcomes.len() - solved).to_string(),
        ),
        ("study.validated".into(), validated.to_string()),
    ]
}

/// Exact work counters of a coexistence study.
pub fn coexistence_counters(outcome: &CoexistenceOutcome) -> Vec<(String, String)> {
    vec![
        ("coexistence.cells".into(), outcome.cells.len().to_string()),
        (
            "coexistence.br_rounds".into(),
            outcome.br_rounds.to_string(),
        ),
        (
            "coexistence.converged".into(),
            outcome.converged.to_string(),
        ),
    ]
}

/// Compares artifact digests file by file; one problem per differing
/// file.
pub fn diff_artifacts(
    out: &mut Outcome,
    what: &str,
    want: &[(String, String)],
    got: &[(String, String)],
) -> bool {
    let mut same = want.len() == got.len();
    for ((name, a), (_, b)) in want.iter().zip(got) {
        if a != b {
            same = false;
            out.problems.push(format!("{what}: {name} differs"));
        }
    }
    same
}

/// Metrics shared by the batch workloads. Their own latency is `wall_s`;
/// every workload must report every end-to-end metric, so
/// `throughput_rps`, `p50_ms` and `p90_ms` restate it (items ÷ wall, and
/// the wall in ms) rather than gate a tail of the few studies one run
/// makes.
fn batch_metrics<T>(out: &mut Outcome, wall: f64, reps: &Reps<T>, items: usize, setup: &[f64]) {
    out.metrics.insert("wall_s", wall);
    out.metrics.insert("throughput_rps", items as f64 / wall);
    out.metrics.insert("p50_ms", wall * 1e3);
    out.metrics.insert("p90_ms", wall * 1e3);
    out.metrics
        .insert("setup_s", quantile(setup, SETUP_QUANTILE));
    out.metrics.insert("peak_rss_mb", reps.peak_rss_mb);
}

/// `grid-full` / `smoke-shards2`, untraced.
///
/// The study runs once the way the `study` binary runs it, for its
/// artifacts and checks. The measured phase then re-drives the study's
/// work in passes, as `run_study` does it: the content keys of every
/// item, computed in turn before the pool starts, then a pool of
/// [`STUDY_WORKERS`] threads that take items in work order, each item a
/// `solve_cell` and, for the validated ones, a `validate_cell`. Every
/// re-driven item must equal the study's outcome. `wall_s` is the keys'
/// slowest pass plus the makespan of the pool over each item's slowest
/// pass, scheduled as the pool takes items (the next free worker takes
/// the next item): the study's wall at the host's loaded speed, as for
/// `coexist-full` (see [`coexistence`]). The manifest rewrites `run_study`
/// makes after each item are file I/O and are not re-driven.
pub fn study(workload: Workload, seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let config = study_config(workload, seed);
    let items = config.grid.scenario_count() * config.protocols.len();
    let dir = work.join("study");
    let started = Instant::now();
    let report = study_run(&config, &dir)?;
    println!("study: {:.3} s (not gated)", secs(started.elapsed()));
    let artifacts = artifact_digests(&dir, &STUDY_ARTIFACTS)?;
    let done = Manifest::load(&dir.join("manifest.json"))?.done();
    std::fs::remove_dir_all(&dir)?;
    out.attempted = items as u64;
    out.check(done == items && report.outcomes.len() == items, || {
        format!(
            "the study finished {} of {items} items, its manifest {done}",
            report.outcomes.len()
        )
    });
    // Reference bytes: the repository's golden files for the pinned
    // smoke grid; otherwise (held-out seeds) the same grid run with one
    // shard, which the sharded engine must reproduce bit for bit.
    if workload == Workload::SmokeShards2 {
        let (name, want) = if seed == workload.default_seed() {
            (
                "ci/golden",
                artifact_digests(Path::new(GOLDEN_DIR), &STUDY_ARTIFACTS)?,
            )
        } else {
            let mut sequential = config.clone();
            sequential.shards = 1;
            let dir = work.join("sequential");
            study_run(&sequential, &dir)?;
            let digests = artifact_digests(&dir, &STUDY_ARTIFACTS)?;
            std::fs::remove_dir_all(&dir)?;
            ("the sequential run", digests)
        };
        diff_artifacts(&mut out, &format!("the study vs {name}"), &want, &artifacts);
    }
    if !out.problems.is_empty() {
        out.failed = items as u64;
        return Ok(out);
    }
    out.counters = study_counters(&report);
    out.counters.extend(artifacts);

    let cells = config.grid.cells();
    let suites = ProtocolRegistry::builtin()
        .select(&config.protocols)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let panel = suites.len();
    let schema = SchemaVersions::current();
    let intent =
        |work: usize| validation_intent(&config, cells[work / panel].index * panel + work % panel);
    // One re-driven item on the calling thread: its time and whether it
    // reproduced the study's outcome.
    let item = |work: usize| -> (f64, bool) {
        let (cell, suite) = (&cells[work / panel], suites[work % panel].as_ref());
        let started = Instant::now();
        let model = suite.model();
        let mut outcome = solve_cell(cell, model.as_ref(), config.requirements);
        if intent(work).is_some() && outcome.solved() {
            outcome.validation =
                validate_cell(cell, &outcome, suite, config.sim_horizon, config.shards);
        }
        let took = secs(started.elapsed());
        // The study fills the cross-item drift after its pool drains.
        outcome.drift_nash = report.outcomes[work].drift_nash;
        (
            took,
            format!("{outcome:?}") == format!("{:?}", report.outcomes[work]),
        )
    };
    let pass = || -> StudyPass {
        let started = Instant::now();
        for work in 0..items {
            let (cell, suite) = (&cells[work / panel], suites[work % panel].as_ref());
            black_box(item_key(
                &schema,
                cell,
                suite,
                config.requirements,
                intent(work),
            ));
        }
        let keys_s = secs(started.elapsed());
        let next = AtomicUsize::new(0);
        let mut timed: Vec<(usize, (f64, bool))> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..STUDY_WORKERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut timed = Vec::new();
                        loop {
                            let work = next.fetch_add(1, Ordering::Relaxed);
                            if work >= items {
                                return timed;
                            }
                            timed.push((work, item(work)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("a re-driven study worker panicked"))
                .collect()
        });
        timed.sort_by_key(|(work, _)| *work);
        (keys_s, timed.into_iter().map(|(_, t)| t).collect())
    };

    let mut setup = Vec::new();
    let reps = repeat(seconds, MIN_REPS, |_| {
        let started = Instant::now();
        let pass = pass();
        let took = started.elapsed();
        // Set-up: the config and its work list (the grid's cells, which
        // probe each random topology until it connects).
        time_setup(&mut setup, SETUP_SAMPLES, || {
            let config = study_config(workload, seed);
            black_box(config.grid.cells());
            Ok(())
        })?;
        Ok((took, pass))
    })?;

    for (i, (_, (_, timed))) in reps.runs.iter().enumerate() {
        out.attempted += items as u64;
        let wrong = timed.iter().filter(|(_, ok)| !ok).count();
        out.check(wrong == 0, || {
            format!("pass {i}: {wrong} re-driven items differ from the study's outcomes")
        });
        out.failed += wrong as u64;
    }
    let slowest = |part: &dyn Fn(&StudyPass) -> f64| {
        reps.runs.iter().map(|(_, p)| part(p)).fold(0.0, f64::max)
    };
    let mut free = [0.0_f64; STUDY_WORKERS];
    for work in 0..items {
        let worker = (0..STUDY_WORKERS)
            .min_by(|&a, &b| free[a].total_cmp(&free[b]))
            .expect("the pool has workers");
        free[worker] += slowest(&|p| p.1[work].0);
    }
    let wall = slowest(&|p| p.0) + free.iter().copied().fold(0.0, f64::max);
    batch_metrics(&mut out, wall, &reps, items, &setup);
    Ok(out)
}

/// `coexist-full`, untraced.
///
/// The study runs once through `run_coexistence_study`, for its
/// artifacts and checks. The measured phase then re-drives the study's
/// work in passes of its own public calls (see
/// [`redrive_coexistence`]): each pass realizes the topologies, bargains
/// each network's plan, and builds and runs every joint cell, and must
/// reproduce the study's plans and delivery ratios bit for bit. `wall_s`
/// is the plans' slowest time over the passes plus, per joint cell, that
/// cell's slowest time: the study's wall at the host's loaded speed.
///
/// A whole study takes 6–8 s on one thread. On a shared 2-vCPU VM each
/// vCPU runs at a steady loaded speed, with bursts of seconds to tens of
/// seconds at up to ~1.6× that, so a whole study's wall (or any median
/// or minimum of them) follows the share of burst time its run happened
/// to span. Every run holds some loaded time, and a 0.2–0.3 s cell's
/// slowest pass finds it.
pub fn coexistence(seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let config = coexistence_config(seed);
    let dir = work.join("study");
    let started = Instant::now();
    let outcome = coexistence_run(&config, &dir)?;
    println!(
        "coexistence study: {:.3} s (not gated)",
        secs(started.elapsed())
    );
    out.counters = coexistence_counters(&outcome);
    out.counters
        .extend(artifact_digests(&dir, &COEXISTENCE_ARTIFACTS)?);
    std::fs::remove_dir_all(&dir)?;
    let cells = outcome.cells.len();
    out.attempted = cells as u64;

    let pass = || -> io::Result<CoexistencePass> {
        let mut tr = Tracer::new();
        let mut checks = Outcome::default();
        let (tally, _) = redrive_coexistence(&mut tr, &mut checks, &config, &outcome)?;
        let plans_s = tr.busy("net.realize") + tr.busy("core.deployment") + tr.busy("core.bargain");
        let cells_s = (0..cells)
            .map(|c| tr.item_busy("sim.build", c) + tr.item_busy("sim.run_coexistence", c))
            .collect();
        Ok((plans_s, cells_s, tally, checks.problems))
    };
    let mut setup = Vec::new();
    let reps = repeat(seconds, MIN_REPS, |_| {
        let started = Instant::now();
        let pass = pass()?;
        let took = started.elapsed();
        // Set-up: the config and its work list (the realized network
        // topologies).
        time_setup(&mut setup, SETUP_SAMPLES, || {
            let config = coexistence_config(seed);
            let scenario = CoexistenceScenario::preset(config.networks, config.separation);
            black_box(
                scenario
                    .realize(config.seed)
                    .map_err(|e| io::Error::other(e.to_string()))?,
            );
            Ok(())
        })?;
        Ok((took, pass))
    })?;

    let passes: Vec<_> = reps.runs.iter().map(|(_, pass)| pass).collect();
    let first_tally = passes[0].2;
    for (i, (_, _, tally, problems)) in passes.iter().enumerate() {
        out.attempted += cells as u64;
        let same = *tally == first_tally;
        out.check(same, || {
            format!("pass {i}: frame tallies {tally:?} differ from {first_tally:?}")
        });
        out.problems
            .extend(problems.iter().map(|p| format!("pass {i}: {p}")));
        if !same || !problems.is_empty() {
            out.failed += cells as u64;
        }
    }
    let slowest =
        |part: &dyn Fn(&CoexistencePass) -> f64| passes.iter().map(|p| part(p)).fold(0.0, f64::max);
    let wall = (0..cells).fold(slowest(&|p| p.0), |sum, c| sum + slowest(&|p| p.1[c]));
    batch_metrics(&mut out, wall, &reps, cells, &setup);
    Ok(out)
}
