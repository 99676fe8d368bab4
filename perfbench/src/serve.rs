//! `serve-replay`: an in-process planning server (`edmac_serve::Server`
//! on `127.0.0.1:0`, two workers, a 64-entry hot tier, a fresh cache
//! directory) driven by a closed loop of two `Client` connections.
//!
//! Set-up solves the 216 `grid-full` requests (no validation intent)
//! with the study's own `solve_cell` and writes each cache entry to disk
//! as the server's write-through would, then starts the server. The
//! measured phase is a series of rounds; in each round every connection
//! replays its own seed-generated stream of `ROUND_REQUESTS` requests,
//! uniform over the 216 keys. The loop is closed because planning
//! clients wait for each reply. The working set is 3.4× the hot tier
//! (and its key memo), so the traffic mixes memory hits with disk hits
//! whose content key is derived again.
//!
//! Cold solves are not in the measured phase: every one ends in the
//! server's fsync'd write-through, and on shared storage the fsync
//! latency moved round times by 2× between runs. For the same reason
//! set-up writes the entries without fsync.

use crate::trace::{record_layers, redrive_solve, spans_path, Tracer};
use crate::{fresh_dir, quantile, repeat, secs, splitmix64, Outcome, Workload, MIN_REPS};
use edmac_proto::ProtocolRegistry;
use edmac_serve::{Client, Request, Response, ServeConfig, Server, SolveRequest, Tier};
use edmac_study::{item_key, render_entry, solve_cell, SchemaVersions, StudyConfig};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads.
const WORKERS: usize = 2;
/// Client connections. A worker owns a connection until EOF, so more
/// connections than workers would leave some unserved.
const CONNECTIONS: usize = 2;
const _: () = assert!(
    CONNECTIONS <= WORKERS,
    "connections must not exceed workers"
);
/// Hot-tier capacity (entries); the key memo shares it.
const HOT_CAP: usize = 64;
/// Requests per connection per round.
const ROUND_REQUESTS: usize = 500;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;

/// The key universe: the `grid-full` work items as wire requests.
fn universe() -> Vec<SolveRequest> {
    let config = StudyConfig::full();
    let suites = ProtocolRegistry::builtin()
        .select(&config.protocols)
        .expect("the paper trio is registered");
    let mut requests = Vec::new();
    for cell in config.grid.cells() {
        for suite in &suites {
            requests.push(SolveRequest::for_cell(
                &cell,
                &config.grid,
                suite.name(),
                config.requirements,
                None,
            ));
        }
    }
    requests
}

/// Connection `conn`'s stream for round `round` as universe indices,
/// from `seed` alone.
fn plan(keys: usize, seed: u64, conn: usize, round: usize) -> Vec<usize> {
    let mut state = splitmix64(seed ^ splitmix64(((conn as u64) << 32) | round as u64));
    (0..ROUND_REQUESTS)
        .map(|_| {
            state = splitmix64(state);
            (state % keys as u64) as usize
        })
        .collect()
}

/// Solves every universe request on `WORKERS` threads and writes its
/// cache entry under `dir`, as the server's write-through lays it out.
/// Returns each entry's text, which every answer for that key must
/// equal byte for byte.
fn populate(dir: &Path, universe: &[SolveRequest]) -> io::Result<Vec<String>> {
    fresh_dir(dir)?;
    let schema = SchemaVersions::current();
    let registry = ProtocolRegistry::builtin();
    let solve = |request: &SolveRequest| -> io::Result<String> {
        let suite = registry
            .suite(&request.protocol)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let cell = request.to_cell();
        let reqs = request.requirements().map_err(io::Error::other)?;
        let key = item_key(&schema, &cell, suite.as_ref(), reqs, None);
        let text = render_entry(&key, &solve_cell(&cell, suite.model().as_ref(), reqs));
        std::fs::write(dir.join(format!("{}.entry", key.digest_hex())), &text)?;
        Ok(text)
    };
    let parts: Vec<io::Result<Vec<(usize, String)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    (w..universe.len())
                        .step_by(WORKERS)
                        .map(|i| Ok((i, solve(&universe[i])?)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up solver thread"))
            .collect()
    });
    let mut entries = vec![String::new(); universe.len()];
    for part in parts {
        for (i, text) in part? {
            entries[i] = text;
        }
    }
    Ok(entries)
}

fn start_server(dir: &Path) -> io::Result<Server> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir.to_path_buf(),
        workers: WORKERS,
        hot_cap: HOT_CAP,
        queue_cap: 64,
        default_deadline_ms: 30_000,
        log: false,
    };
    Server::start(&config, Arc::new(AtomicBool::new(false)))
}

/// What one connection saw.
#[derive(Debug, Default)]
struct Tally {
    rtt_ms: Vec<f64>,
    /// Server-side service time per tier (hot, disk), µs.
    elapsed_us: [Vec<u64>; 2],
    /// Round trip minus service time, µs.
    wire_us: Vec<f64>,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Sends the request for universe key `key` and checks its answer:
    /// a hot or disk hit whose payload equals the key's entry. Returns
    /// the tier that answered.
    fn send(
        &mut self,
        client: &mut Client,
        universe: &[SolveRequest],
        key: usize,
        entries: &[String],
    ) -> Option<Tier> {
        let started = Instant::now();
        let response = client.request(&Request::Solve(universe[key].clone()));
        let rtt = started.elapsed();
        match response {
            Ok(Response::Outcome {
                tier,
                digest,
                elapsed_us,
                outcome,
            }) => {
                self.rtt_ms.push(secs(rtt) * 1e3);
                self.wire_us.push(secs(rtt) * 1e6 - elapsed_us as f64);
                match tier {
                    Tier::Hot | Tier::Disk => {
                        self.elapsed_us[usize::from(tier == Tier::Disk)].push(elapsed_us);
                        if outcome != entries[key] {
                            self.fail(format!(
                                "{digest}: {} payload differs from its .entry",
                                tier.label()
                            ));
                        }
                    }
                    Tier::Solve => self.fail(format!("cached key {key} was solved again")),
                }
                Some(tier)
            }
            Ok(other) => {
                let mut text = format!("{other:?}");
                text.truncate(200);
                self.fail(format!("request for key {key} answered {text}"));
                None
            }
            Err(e) => {
                self.fail(format!("transport: {e}"));
                None
            }
        }
    }

    /// Counts a failed request; keeps the first few reasons.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.rtt_ms.extend(other.rtt_ms);
        for (a, b) in self.elapsed_us.iter_mut().zip(other.elapsed_us) {
            a.extend(b);
        }
        self.wire_us.extend(other.wire_us);
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// One closed-loop round: every connection replays its plan; returns
/// the round's wall time and what the connections saw.
fn round(
    clients: &mut [Client],
    plans: &[Vec<usize>],
    universe: &[SolveRequest],
    entries: &[String],
) -> (Duration, Tally) {
    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .map(|(client, plan)| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    for &key in plan {
                        tally.send(client, universe, key, entries);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    (wall, all)
}

fn connect_all(addr: SocketAddr) -> io::Result<Vec<Client>> {
    (0..CONNECTIONS).map(|_| Client::connect(addr)).collect()
}

/// The `q`-quantile of integer microsecond samples, spreading each
/// value uniformly over `[v, v + 1)` so the result is not stuck on
/// the integer grid.
fn grouped_quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = q * sorted.len() as f64;
    let idx = (rank.floor() as usize).min(sorted.len() - 1);
    let v = sorted[idx];
    let below = sorted.partition_point(|&x| x < v);
    let equal = sorted.partition_point(|&x| x <= v) - below;
    v as f64 + (rank - below as f64).clamp(0.0, equal as f64) / equal as f64
}

/// `serve-replay`, untraced.
pub fn replay(seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let universe = universe();
    // Set-up: the warm-up solves and entries plus server start, several
    // times; the last server stays up for the measured phase.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for i in 0..SETUP_REPS {
        let dir = work.join(format!("cache{i}"));
        let started = Instant::now();
        let entries = populate(&dir, &universe)?;
        let server = start_server(&dir)?;
        setup.push(secs(started.elapsed()));
        if i + 1 < SETUP_REPS {
            server.shutdown();
            std::fs::remove_dir_all(&dir)?;
        } else {
            ready = Some((server, entries));
        }
    }
    let (server, entries) = ready.expect("at least one set-up");
    out.count("serve.entries", entries.len());

    let mut clients = connect_all(server.local_addr())?;
    let rounds = repeat(seconds, MIN_REPS, |r| {
        let plans: Vec<Vec<usize>> = (0..CONNECTIONS)
            .map(|c| plan(universe.len(), seed, c, r))
            .collect();
        Ok(round(&mut clients, &plans, &universe, &entries))
    })?;
    drop(clients);
    server.shutdown();

    let wall = rounds.median_s();
    let count = rounds.runs.len();
    let mut all = Tally::default();
    for (_, tally) in rounds.runs {
        all.merge(tally);
    }
    out.attempted = (count * CONNECTIONS * ROUND_REQUESTS) as u64;
    out.failed = all.failed;
    out.problems.extend(all.problems.iter().cloned());
    println!(
        "serve-replay: {count} rounds, {} requests: hot {} disk {}",
        out.attempted,
        all.elapsed_us[0].len(),
        all.elapsed_us[1].len()
    );
    let m = &mut out.metrics;
    m.insert("wall_s", wall);
    m.insert(
        "throughput_rps",
        (CONNECTIONS * ROUND_REQUESTS) as f64 / wall,
    );
    m.insert("p50_ms", quantile(&all.rtt_ms, 0.5));
    m.insert("p90_ms", quantile(&all.rtt_ms, 0.9));
    m.insert("setup_s", quantile(&setup, 0.5));
    m.insert("peak_rss_mb", rounds.peak_rss_mb);
    Ok(out)
}

/// `serve-replay`, traced: round 0's two streams replayed in turn on one
/// connection against a second, identically prepared server, with the
/// key derivation of every disk hit re-driven in process.
pub fn traced(seed: u64, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let universe = universe();
    let plans: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| plan(universe.len(), seed, c, 0))
        .collect();

    // Untraced reference: the round as the end-to-end run plays it.
    let dir_a = work.join("untraced");
    let entries = populate(&dir_a, &universe)?;
    let server = start_server(&dir_a)?;
    let mut clients = connect_all(server.local_addr())?;
    let (untraced_wall, reference) = round(&mut clients, &plans, &universe, &entries);
    drop(clients);
    server.shutdown();

    // Traced: the same requests, one at a time.
    let dir_b = work.join("traced");
    let traced_entries = populate(&dir_b, &universe)?;
    out.check(traced_entries == entries, || {
        "set-up entries differ between two preparations".into()
    });
    let server = start_server(&dir_b)?;
    let mut client = Client::connect(server.local_addr())?;
    let merged: Vec<usize> = (0..ROUND_REQUESTS)
        .flat_map(|i| plans.iter().map(move |p| p[i]))
        .collect();
    let registry = ProtocolRegistry::builtin();
    let schema = SchemaVersions::current();
    let mut tally = Tally::default();
    let mut tr = Tracer::new();
    let started = Instant::now();
    for (i, &key) in merged.iter().enumerate() {
        let span = tr.enter("serve.request", i);
        let tier = tally.send(&mut client, &universe, key, &entries);
        tr.exit(span);
        // The server derives the content key for every request that
        // misses its fast path (key memo and hot tier both hit). A disk
        // hit always has; a hot answer reached after a lapsed memo entry
        // has too, but cannot be told apart here and is not re-driven.
        // On this one connection the memo and the hot tier have the same
        // capacity and every request touches both in the same order, so
        // they hold the same keys and no such hot answer occurs.
        if tier == Some(Tier::Disk) {
            let request = &universe[key];
            let suite = registry
                .suite(&request.protocol)
                .map_err(|e| io::Error::other(e.to_string()))?;
            let cell = request.to_cell();
            let reqs = request.requirements().map_err(io::Error::other)?;
            tr.span("study.item_key", i, || {
                item_key(&schema, &cell, suite.as_ref(), reqs, None)
            });
            redrive_solve(&mut tr, i, &cell, None, reqs);
        }
    }
    let traced_wall = secs(started.elapsed());
    let stats = match client.request(&Request::Stats)? {
        Response::Stats(json) => json,
        other => return Err(io::Error::other(format!("stats verb answered {other:?}"))),
    };
    drop(client);
    server.shutdown();
    tr.write(&spans_path(Workload::ServeReplay))?;

    out.attempted = merged.len() as u64;
    out.failed = tally.failed + reference.failed;
    out.problems.extend(tally.problems.iter().cloned());
    out.problems.extend(reference.problems.iter().cloned());

    // Tier counts from the server's own stats verb; they must match what
    // the client saw.
    let tier_hits = |name: &str| -> io::Result<u64> {
        stats
            .get("tiers")
            .and_then(|t| t.get(name))
            .and_then(|t| t.u64_("hits"))
            .map_err(io::Error::other)
    };
    let seen = [tally.elapsed_us[0].len(), tally.elapsed_us[1].len(), 0];
    for (t, name) in ["hot", "disk", "solve"].into_iter().enumerate() {
        let hits = tier_hits(name)?;
        out.check(hits == seen[t] as u64, || {
            format!(
                "stats report {hits} {name} hits, the client saw {}",
                seen[t]
            )
        });
        out.exact(
            ["serve.hot.hits", "serve.disk.hits", "serve.solve.hits"][t],
            hits,
        );
    }
    out.exact(
        "serve.coalesced",
        stats.u64_("coalesced").map_err(io::Error::other)?,
    );

    record_layers(&mut out, &tr);
    let m = &mut out.metrics;
    m.insert(
        "serve.hot.p50_us",
        grouped_quantile(&tally.elapsed_us[0], 0.5),
    );
    m.insert(
        "serve.disk.p50_us",
        grouped_quantile(&tally.elapsed_us[1], 0.5),
    );
    m.insert(
        "serve.disk.p95_us",
        grouped_quantile(&tally.elapsed_us[1], 0.95),
    );
    m.insert("serve.wire_wait_us", quantile(&tally.wire_us, 0.5));
    m.insert("serve.p99_ms", quantile(&reference.rtt_ms, 0.99));
    let served_us: u64 = reference.elapsed_us.iter().flatten().sum();
    m.insert(
        "study.pool_efficiency",
        served_us as f64 * 1e-6 / (WORKERS as f64 * secs(untraced_wall)),
    );
    m.insert("trace.overhead_s", traced_wall - secs(untraced_wall));
    Ok(out)
}
