//! End-to-end service tests over real sockets: byte-identity of
//! served outcomes against the offline runner, tier progression
//! (solved → hot), deadlines, load-shedding, stats, and a clean drain.

use edmac_serve::{
    Client, Request, Response, ServeConfig, Server, SolveRequest, Tier, MAX_LINE_BYTES,
};
use edmac_study::{run_study, RunOptions, StudyConfig};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edmac-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(cache_dir: PathBuf, workers: usize, queue_cap: usize) -> Server {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir,
        workers,
        hot_cap: 64,
        queue_cap,
        default_deadline_ms: 30_000,
        log: false,
    };
    Server::start(&config, Arc::new(AtomicBool::new(false))).expect("bind")
}

/// Smoke config with no validation: fast, and identical to what the
/// offline runner caches for the same keys.
fn smoke_config(cache_dir: &std::path::Path) -> StudyConfig {
    let mut config = StudyConfig::smoke();
    config.validate_every = 0;
    config.cache_dir = Some(cache_dir.to_path_buf());
    config
}

/// Every smoke work item as a wire request (mirrors `study query
/// --smoke`).
fn smoke_requests(config: &StudyConfig) -> Vec<SolveRequest> {
    let suites = edmac_proto::ProtocolRegistry::builtin()
        .select(&config.protocols)
        .unwrap();
    let mut requests = Vec::new();
    for cell in config.grid.cells() {
        for (suite_idx, suite) in suites.iter().enumerate() {
            let grid_work = cell.index * suites.len() + suite_idx;
            requests.push(SolveRequest::for_cell(
                &cell,
                &config.grid,
                suite.name(),
                config.requirements,
                edmac_study::validation_intent(config, grid_work),
            ));
        }
    }
    requests
}

#[test]
fn warm_cache_responses_are_byte_identical_to_the_offline_entries() {
    let root = temp_root("bytes");
    let cache_dir = root.join("cache");
    let config = smoke_config(&cache_dir);
    // Offline cold run populates the cache the server will front.
    run_study(&config, &RunOptions::default()).unwrap();

    let server = start(cache_dir.clone(), 2, 16);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut seen = 0;
    for query in smoke_requests(&config) {
        let response = client.request(&Request::Solve(query)).unwrap();
        let Response::Outcome {
            tier,
            digest,
            outcome,
            ..
        } = response
        else {
            panic!("expected an outcome, got {response:?}");
        };
        assert_eq!(tier, Tier::Disk, "warm cache must answer from disk");
        let on_disk = std::fs::read_to_string(cache_dir.join(format!("{digest}.entry"))).unwrap();
        assert_eq!(
            outcome, on_disk,
            "served payload must be byte-identical to the offline entry"
        );
        seen += 1;
    }
    assert_eq!(seen, 12);
    // Replay: every repeat is a hot-tier hit with the same bytes.
    for query in smoke_requests(&config) {
        let response = client.request(&Request::Solve(query)).unwrap();
        let Response::Outcome {
            tier,
            outcome,
            digest,
            ..
        } = response
        else {
            panic!("expected an outcome");
        };
        assert_eq!(tier, Tier::Hot);
        let on_disk = std::fs::read_to_string(cache_dir.join(format!("{digest}.entry"))).unwrap();
        assert_eq!(outcome, on_disk);
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn cold_solves_write_through_and_match_the_offline_runner() {
    let root = temp_root("cold");
    let served_dir = root.join("served-cache");
    let offline_dir = root.join("offline-cache");
    let config = smoke_config(&offline_dir);

    // Serve everything cold against an empty cache...
    let server = start(served_dir.clone(), 2, 16);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut served: Vec<(String, String)> = Vec::new();
    for query in smoke_requests(&config) {
        let Response::Outcome {
            tier,
            digest,
            outcome,
            ..
        } = client.request(&Request::Solve(query)).unwrap()
        else {
            panic!("expected an outcome");
        };
        assert_eq!(tier, Tier::Solve, "empty cache must solve cold");
        served.push((digest, outcome));
    }
    server.shutdown();

    // ...then let the offline runner solve the same grid, and compare
    // entry for entry: the wire and the batch path agree to the byte.
    run_study(&config, &RunOptions::default()).unwrap();
    for (digest, outcome) in &served {
        let offline = std::fs::read_to_string(offline_dir.join(format!("{digest}.entry"))).unwrap();
        assert_eq!(outcome, &offline, "digest {digest}");
        let written = std::fs::read_to_string(served_dir.join(format!("{digest}.entry"))).unwrap();
        assert_eq!(outcome, &written, "write-through must persist the payload");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn expired_deadline_reports_timeout_then_the_warm_retry_hits() {
    let root = temp_root("deadline");
    let config = smoke_config(&root.join("cache"));
    let server = start(root.join("cache"), 2, 16);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut query = smoke_requests(&config).remove(0);
    query.deadline_ms = Some(0); // expires before any solve can finish
    let response = client.request(&Request::Solve(query.clone())).unwrap();
    let Response::Timeout { digest, .. } = response else {
        panic!("a 0 ms deadline must report timeout, got {response:?}");
    };
    // The solve still completed server-side: the retry is warm.
    query.deadline_ms = None;
    let Response::Outcome {
        tier,
        digest: retry_digest,
        ..
    } = client.request(&Request::Solve(query)).unwrap()
    else {
        panic!("retry must succeed");
    };
    assert_eq!(retry_digest, digest);
    assert_eq!(tier, Tier::Hot, "timed-out work must still warm the tiers");
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn malformed_and_unknown_requests_answer_errors_not_hangs() {
    let root = temp_root("errors");
    let server = start(root.join("cache"), 1, 16);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let line = client.exchange_line("this is not json").unwrap();
    let Response::Error { .. } = Response::parse(&line).unwrap() else {
        panic!("malformed line must answer an error");
    };
    let config = smoke_config(&root.join("cache"));
    let mut query = smoke_requests(&config).remove(0);
    query.protocol = "no-such-mac".into();
    let Response::Error { message } = client.request(&Request::Solve(query)).unwrap() else {
        panic!("unknown protocol must answer an error");
    };
    assert!(message.contains("no-such-mac"), "{message}");
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn malformed_line_storm_answers_errors_and_the_connection_keeps_serving() {
    use std::io::{BufRead as _, BufReader, Write as _};

    let root = temp_root("storm");
    let server = start(root.join("cache"), 1, 16);
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let config = smoke_config(&root.join("cache"));
    let valid = Request::Solve(smoke_requests(&config).remove(0)).render();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    const STORM: u64 = 400;
    for i in 0..STORM {
        let len = 1 + (next() % 96) as usize;
        let mut line: Vec<u8> = match i % 5 {
            // Garbage bytes.
            0 => (0..len).map(|_| next() as u8).collect(),
            // Truncated JSON.
            1 => valid.as_bytes()[..1 + (next() as usize) % (valid.len() - 1)].to_vec(),
            // An unknown verb.
            2 => Request::Stats
                .render()
                .replace("stats", &format!("verb{i}"))
                .into_bytes(),
            // A known verb with its fields missing.
            3 => valid[..valid.find(",\"preset\"").unwrap()]
                .bytes()
                .chain(*b"}")
                .collect(),
            // Not UTF-8.
            _ => (0..len).map(|_| 0x80 | next() as u8).collect(),
        };
        // One line each: no embedded terminators, never blank.
        line.retain(|b| !matches!(b, b'\n' | b'\r'));
        if line.is_empty() {
            line.push(b'x');
        }
        line.push(b'\n');
        writer.write_all(&line).unwrap();
        let mut response = String::new();
        assert!(
            reader.read_line(&mut response).unwrap() > 0,
            "closed at line {i}"
        );
        let Response::Error { .. } = Response::parse(response.trim_end()).unwrap() else {
            panic!("line {i} must answer an error, got {response}");
        };
    }
    writer
        .write_all(format!("{}\n", Request::Stats.render()).as_bytes())
        .unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let Response::Stats(stats) = Response::parse(response.trim_end()).unwrap() else {
        panic!("the same connection must still answer stats, got {response}");
    };
    assert_eq!(stats.u64_("errors").unwrap(), STORM);
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn deeply_nested_line_answers_an_error_and_the_connection_keeps_serving() {
    let root = temp_root("nesting");
    let server = start(root.join("cache"), 1, 16);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Deep enough to overflow a worker's default stack if the parser
    // recursed without a bound; that would abort the whole process.
    let line = client.exchange_line(&"[".repeat(100_000)).unwrap();
    let Response::Error { message } = Response::parse(&line).unwrap() else {
        panic!("a deeply nested line must answer an error");
    };
    assert!(message.contains("nesting"), "{message}");
    let Response::Stats(_) = client.request(&Request::Stats).unwrap() else {
        panic!("the same connection must still answer stats");
    };
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn over_long_line_answers_an_error_and_the_connection_keeps_serving() {
    let root = temp_root("long-line");
    let server = start(root.join("cache"), 1, 16);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // One byte past the cap: refused unread, the rest skipped.
    let line = client
        .exchange_line(&"x".repeat(MAX_LINE_BYTES + 1))
        .unwrap();
    let Response::Error { message } = Response::parse(&line).unwrap() else {
        panic!("an over-long line must answer an error");
    };
    assert!(message.contains("longer than"), "{message}");
    // Exactly at the cap: read whole and handed to the parser.
    let line = client.exchange_line(&"x".repeat(MAX_LINE_BYTES)).unwrap();
    let Response::Error { message } = Response::parse(&line).unwrap() else {
        panic!("garbage at the cap must answer a parse error");
    };
    assert!(!message.contains("longer than"), "{message}");
    let Response::Stats(_) = client.request(&Request::Stats).unwrap() else {
        panic!("the same connection must still answer stats");
    };
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn full_queue_sheds_with_an_explicit_overloaded_status() {
    let root = temp_root("shed");
    // One worker, queue bound 1: the worker parks on an idle open
    // connection, one more waits in the queue, and every connection
    // beyond that must be shed by the acceptor.
    let server = start(root.join("cache"), 1, 1);
    let addr = server.local_addr();
    let _held_by_worker = Client::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let _queued = Client::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));

    let mut shed = Client::connect(addr).unwrap();
    let line = shed.exchange_line(&Request::Stats.render()).unwrap();
    assert_eq!(
        Response::parse(&line).unwrap(),
        Response::Overloaded,
        "beyond-capacity connections must be answered, never hung"
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn stats_verb_reports_tier_hits_in_the_shared_schema() {
    let root = temp_root("stats");
    let config = smoke_config(&root.join("cache"));
    let server = start(root.join("cache"), 2, 16);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let query = smoke_requests(&config).remove(0);
    client.request(&Request::Solve(query.clone())).unwrap(); // cold solve
    client.request(&Request::Solve(query)).unwrap(); // hot hit

    let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(stats.str_("schema").unwrap(), edmac_serve::STATS_SCHEMA);
    assert_eq!(stats.str_("source").unwrap(), "serve");
    assert_eq!(stats.usize_("items").unwrap(), 2);
    assert_eq!(stats.usize_("misses").unwrap(), 1);
    assert_eq!(stats.usize_("entries").unwrap(), 1);
    let tiers = stats.get("tiers").unwrap();
    assert_eq!(tiers.get("hot").unwrap().u64_("hits").unwrap(), 1);
    assert_eq!(tiers.get("solve").unwrap().u64_("hits").unwrap(), 1);
    assert!(tiers.get("solve").unwrap().u64_("max_us").unwrap() > 0);
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn shutdown_drains_queued_connections_cleanly() {
    let root = temp_root("drain");
    let server = start(root.join("cache"), 2, 16);
    let addr = server.local_addr();
    // A client with an in-flight exchange across the shutdown: the
    // drain must still answer it.
    let mut client = Client::connect(addr).unwrap();
    let responder = std::thread::spawn(move || {
        let line = client.exchange_line(&Request::Stats.render()).unwrap();
        Response::parse(&line).unwrap()
    });
    let response = responder.join().unwrap();
    assert!(matches!(response, Response::Stats(_)));
    server.shutdown(); // joins every thread: deadlock here = test hang
                       // Post-drain, the port no longer accepts service.
    assert!(
        Client::connect(addr)
            .and_then(|mut c| c.exchange_line(&Request::Stats.render()))
            .is_err(),
        "a drained server must not keep serving"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
