//! Concurrency gauntlet: the single-flight acceptance check (≥100
//! concurrent identical cold queries → exactly one solve) and the
//! corruption contract (concurrent or torn entry writes degrade to a
//! miss, never a wrong answer).

use edmac_serve::{Client, Request, Response, ServeConfig, Server, SolveRequest, Tier};
use edmac_study::{item_key, render_entry, solve_cell, CellCache, SchemaVersions, StudyConfig};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edmac-serve-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One smoke work item as a request (the ring cell, protocol X-MAC).
fn one_query(config: &StudyConfig) -> SolveRequest {
    let cell = &config.grid.cells()[0];
    SolveRequest::for_cell(cell, &config.grid, "X-MAC", config.requirements, None)
}

#[test]
fn a_hundred_concurrent_identical_cold_queries_solve_exactly_once() {
    let root = temp_root("flight");
    let config = StudyConfig::smoke();
    let server = Server::start(
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: root.join("cache"),
            workers: 8,
            hot_cap: 64,
            queue_cap: 256,
            default_deadline_ms: 120_000,
            log: false,
        },
        Arc::new(AtomicBool::new(false)),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut query = one_query(&config);
    // Packet-level validation makes the one solve slow enough that the
    // herd genuinely overlaps it.
    query.validate_horizon = Some(config.sim_horizon);

    const HERD: usize = 100;
    let barrier = Arc::new(Barrier::new(HERD));
    let mut responders = Vec::new();
    for _ in 0..HERD {
        let barrier = Arc::clone(&barrier);
        let query = query.clone();
        responders.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            barrier.wait();
            client.request(&Request::Solve(query)).unwrap()
        }));
    }
    let mut payloads = Vec::new();
    for responder in responders {
        match responder.join().unwrap() {
            Response::Outcome { outcome, .. } => payloads.push(outcome),
            other => panic!("herd request failed: {other:?}"),
        }
    }
    assert_eq!(payloads.len(), HERD);
    assert!(
        payloads.iter().all(|p| p == &payloads[0]),
        "every response must carry identical bytes"
    );

    // The observable acceptance check: exactly one solve.
    let mut client = Client::connect(addr).unwrap();
    let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(stats.usize_("items").unwrap(), HERD);
    assert_eq!(
        stats.usize_("misses").unwrap(),
        1,
        "single-flight must dedup the herd to one solve"
    );
    assert_eq!(stats.usize_("hits").unwrap(), HERD - 1);
    // And exactly one entry was written through.
    let entries = std::fs::read_dir(root.join("cache"))
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".entry")
        })
        .count();
    assert_eq!(entries, 1);
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn concurrent_stores_never_yield_a_torn_read() {
    let root = temp_root("torn");
    let config = StudyConfig::smoke();
    let cell = &config.grid.cells()[0];
    let registry = edmac_proto::ProtocolRegistry::builtin();
    let suite = registry.suite("X-MAC").unwrap();
    let key = item_key(
        &SchemaVersions::current(),
        cell,
        suite.as_ref(),
        config.requirements,
        None,
    );
    let model = suite.model();
    let outcome = solve_cell(cell, model.as_ref(), config.requirements);
    let expected = render_entry(&key, &outcome);

    let cache = CellCache::open(&root.join("cache")).unwrap();
    std::thread::scope(|scope| {
        // Writers hammer the same key with identical (deterministic)
        // content; readers must only ever observe a miss or the full
        // exact bytes — a torn or truncated entry must parse-fail into
        // a miss, never surface as a wrong answer.
        for _ in 0..4 {
            let (cache, key, outcome) = (&cache, &key, &outcome);
            scope.spawn(move || {
                for _ in 0..50 {
                    // Racing renames on the same key may lose (NotFound
                    // on a tmp file another writer just published);
                    // the atomicity contract is about *readers*.
                    let _ = cache.store(key, outcome);
                }
            });
        }
        for _ in 0..4 {
            let (cache, key, expected) = (&cache, &key, &expected);
            let protocol = suite.name();
            scope.spawn(move || {
                let mut hits = 0;
                for _ in 0..200 {
                    if let Some(text) = cache.load_text(key, cell, protocol) {
                        assert_eq!(&text, expected, "a hit must be the exact bytes");
                        hits += 1;
                    }
                }
                hits
            });
        }
    });
    // After the dust settles the entry is whole.
    assert_eq!(
        cache.load_text(&key, cell, suite.name()).as_ref(),
        Some(&expected)
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn corrupt_entries_degrade_to_a_miss_and_are_healed_by_the_solve() {
    let root = temp_root("corrupt");
    let config = StudyConfig::smoke();
    let query = one_query(&config);
    let cell = query.to_cell();
    let registry = edmac_proto::ProtocolRegistry::builtin();
    let suite = registry.suite("X-MAC").unwrap();
    let key = item_key(
        &SchemaVersions::current(),
        &cell,
        suite.as_ref(),
        config.requirements,
        None,
    );
    let digest = key.digest_hex();
    let cache_dir = root.join("cache");
    std::fs::create_dir_all(&cache_dir).unwrap();
    // A truncated entry that passes the cheap 2-line probe but cannot
    // fully parse: the serve path must treat it as a miss.
    std::fs::write(
        cache_dir.join(format!("{digest}.entry")),
        format!(
            "edmac-study/cache-entry/v1\nkey {}\nprotocol X-MAC\n",
            key.canonical()
        ),
    )
    .unwrap();

    let server = Server::start(
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: cache_dir.clone(),
            workers: 2,
            hot_cap: 16,
            queue_cap: 16,
            default_deadline_ms: 60_000,
            log: false,
        },
        Arc::new(AtomicBool::new(false)),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let Response::Outcome {
        tier,
        outcome,
        digest: served_digest,
        ..
    } = client.request(&Request::Solve(query)).unwrap()
    else {
        panic!("expected an outcome");
    };
    assert_eq!(served_digest, digest);
    assert_eq!(
        tier,
        Tier::Solve,
        "a corrupt entry must miss, not serve garbage"
    );
    // The answer is the real solve, and the write-through healed the
    // entry on disk.
    let model = suite.model();
    let solved = solve_cell(&cell, model.as_ref(), config.requirements);
    let expected = render_entry(&key, &solved);
    assert_eq!(outcome, expected);
    assert_eq!(
        std::fs::read_to_string(cache_dir.join(format!("{digest}.entry"))).unwrap(),
        expected
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
