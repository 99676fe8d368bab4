//! The service core: a nonblocking accept loop feeding a bounded
//! connection queue drained by a `std::thread` worker pool — no async
//! runtime, just `std::net` plus condvars. Every solve request
//! resolves hot tier → disk cache → cold solve under single-flight
//! dedup, with write-through on a miss, per-request deadlines, and
//! explicit load-shedding: a full queue answers `overloaded`
//! immediately rather than queueing unboundedly, and a stop flag (set
//! programmatically or by SIGTERM/ctrl-c) drains queued connections
//! before the pool exits.

use crate::flight::{FlightMap, Joined};
use crate::hot::HotTier;
use crate::metrics::Metrics;
use crate::request::{write_line, Request, Response, SolveRequest, Tier};
use edmac_proto::ProtocolRegistry;
use edmac_study::{item_key, render_entry, solve_cell, validate_cell, CellCache, SchemaVersions};
use std::collections::VecDeque;
use std::io::{self, BufRead as _, BufReader, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One server's knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 = ephemeral).
    pub addr: String,
    /// Content-addressed cache directory (the disk tier; also where
    /// cold solves are written through).
    pub cache_dir: PathBuf,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Hot-tier capacity in entries (0 disables the tier).
    pub hot_cap: usize,
    /// Connection-queue bound; a connection arriving beyond it is
    /// answered `overloaded` and closed by the acceptor.
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Emit one structured log line per request to stderr.
    pub log: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: PathBuf::from("study-cache"),
            workers: 0,
            hot_cap: 256,
            queue_cap: 64,
            default_deadline_ms: 30_000,
            log: false,
        }
    }
}

/// How often blocked loops re-check the stop flag. Short enough that a
/// drain completes promptly, long enough to stay off the profiler.
const POLL: Duration = Duration::from_millis(25);

/// The longest request line a worker reads, newline excluded (1 MiB).
/// Requests are a few hundred bytes; a longer line is answered with an
/// `error` and skipped, so no client can make a worker buffer without
/// bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

struct Shared {
    cache: CellCache,
    registry: ProtocolRegistry,
    hot: HotTier,
    /// Canonical-request-line → content digest memo: deriving the key
    /// realizes the cell's deployment (~100–250 µs on 40-node cells),
    /// which would dominate a hot hit; a repeat request skips straight
    /// to the hot tier. Value coincidence is harmless — same request
    /// text always means the same digest.
    keys: HotTier,
    flights: FlightMap,
    metrics: Metrics,
    stop: Arc<AtomicBool>,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    queue_cap: usize,
    default_deadline_ms: u64,
    log: bool,
}

/// A running server: acceptor thread + worker pool over one listener.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving. `stop` is the drain flag: flip it (or
    /// call [`Server::shutdown`], which flips it for you) and the
    /// acceptor stops admitting, the workers drain the queue, and
    /// every thread exits.
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-directory failures.
    pub fn start(config: &ServeConfig, stop: Arc<AtomicBool>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: CellCache::open(&config.cache_dir)?,
            registry: ProtocolRegistry::builtin(),
            hot: HotTier::new(config.hot_cap),
            keys: HotTier::new(config.hot_cap),
            flights: FlightMap::new(),
            metrics: Metrics::default(),
            stop: Arc::clone(&stop),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queue_cap: config.queue_cap.max(1),
            default_deadline_ms: config.default_deadline_ms,
            log: config.log,
        });
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Sets the drain flag and joins every thread: no new connections,
    /// queued ones served, then a clean exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Whether the drain flag is set (e.g. by a signal handler).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Without nodelay, Nagle + delayed ACK adds ~40 ms to
                // every one-line response — 400× the hot-hit budget.
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(POLL));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                let mut queue = shared.queue.lock().expect("queue lock");
                if queue.len() >= shared.queue_cap {
                    // Load-shedding: answer inline from the acceptor —
                    // an explicit status, never an unbounded queue or
                    // a hang.
                    drop(queue);
                    shared.metrics.record_overloaded();
                    let response = Response::Overloaded;
                    if shared.log {
                        eprintln!("{}", response.log_line("acceptor"));
                    }
                    let mut stream = stream;
                    let _ = write_line(&mut stream, &response.render());
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.available.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    // Wake every parked worker so the drain finishes promptly.
    shared.available.notify_all();
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                // Queue is empty: exit once draining, else park.
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .available
                    .wait_timeout(queue, POLL)
                    .expect("queue lock")
                    .0;
            }
        };
        match conn {
            Some(conn) => serve_connection(shared, conn),
            None => return,
        }
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // The line read so far; a read timeout keeps it, so a line split
    // across the poll interval arrives whole.
    let mut line: Vec<u8> = Vec::new();
    // Set while the rest of an over-long line is being skipped.
    let mut skipping = false;
    let mut answer = |response: Response| {
        if shared.log {
            eprintln!("{}", response.log_line(&peer));
        }
        write_line(&mut writer, &response.render()).is_ok()
    };
    loop {
        // One byte past the cap, so an over-long line shows as such.
        let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => {
                // EOF: answer an unterminated last line, then close.
                if !skipping {
                    if let Some(response) = handle_bytes(shared, &line) {
                        answer(response);
                    }
                }
                return;
            }
            Ok(_) => {
                let ended = line.last() == Some(&b'\n');
                let response = if skipping {
                    skipping = !ended;
                    None
                } else if ended {
                    handle_bytes(shared, &line)
                } else if line.len() > MAX_LINE_BYTES {
                    skipping = true;
                    shared.metrics.record_error();
                    Some(Response::Error {
                        message: format!("request line longer than {MAX_LINE_BYTES} bytes"),
                    })
                } else {
                    continue; // EOF follows: the next read says so
                };
                line.clear();
                if response.is_some_and(|response| !answer(response)) {
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle connection: the read timeout is the stop-flag
                // poll, so a drain never waits on a silent client.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
        if shared.stop.load(Ordering::SeqCst) {
            // Finish the in-flight request (done above), then close.
            return;
        }
    }
}

/// Answers one raw request line (`None` for a blank one).
fn handle_bytes(shared: &Shared, line: &[u8]) -> Option<Response> {
    let Ok(text) = std::str::from_utf8(line) else {
        shared.metrics.record_error();
        return Some(Response::Error {
            message: "request line is not UTF-8".to_string(),
        });
    };
    let trimmed = text.trim_end_matches(['\n', '\r']);
    (!trimmed.is_empty()).then(|| handle_line(shared, trimmed))
}

fn handle_line(shared: &Shared, line: &str) -> Response {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(message) => {
            shared.metrics.record_error();
            return Response::Error { message };
        }
    };
    match request {
        Request::Stats => {
            let entries = shared.cache.entry_digests().map(|d| d.len()).unwrap_or(0);
            Response::Stats(shared.metrics.report(entries).to_json())
        }
        Request::Solve(query) => handle_solve(shared, &query),
    }
}

fn handle_solve(shared: &Shared, query: &SolveRequest) -> Response {
    let t0 = Instant::now();
    let deadline_ms = query.deadline_ms.unwrap_or(shared.default_deadline_ms);
    let deadline = t0 + Duration::from_millis(deadline_ms);
    let error = |message: String| {
        shared.metrics.record_error();
        Response::Error { message }
    };
    let suite = match shared.registry.suite(&query.protocol) {
        Ok(suite) => suite,
        Err(e) => return error(e.to_string()),
    };
    let requirements = match query.requirements() {
        Ok(requirements) => requirements,
        Err(e) => return error(format!("requirements: {e}")),
    };
    let elapsed_us = |t0: Instant| u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    let hot_hit = |digest: String, text: Arc<str>| {
        let us = elapsed_us(t0);
        shared.metrics.record(Tier::Hot, us, false);
        Response::Outcome {
            tier: Tier::Hot,
            digest,
            elapsed_us: us,
            outcome: text.to_string(),
        }
    };

    // Fast path: a repeat of a memoized request identity goes straight
    // to the hot tier without re-deriving the content key.
    let canon = {
        let mut identity = query.clone();
        identity.deadline_ms = None; // the deadline is not key content
        Request::Solve(identity).render()
    };
    let memo_digest = shared.keys.get(&canon).map(|d| d.to_string());
    if let Some(digest) = &memo_digest {
        if let Some(text) = shared.hot.get(digest) {
            return hot_hit(digest.clone(), text);
        }
    }

    let cell = query.to_cell();
    let key = item_key(
        &SchemaVersions::current(),
        &cell,
        suite.as_ref(),
        requirements,
        query.validate_horizon,
    );
    let digest = key.digest_hex();
    if memo_digest.is_none() {
        shared.keys.insert(&canon, Arc::from(digest.as_str()));
    }

    // Tier 1: in-memory LRU (reachable here when the memo had lapsed
    // but the entry is still hot).
    if let Some(text) = shared.hot.get(&digest) {
        return hot_hit(digest, text);
    }

    let (result, coalesced) = match shared.flights.join(&digest) {
        Joined::Leader => {
            // Tier 2: validated disk entry; tier 3: cold solve with
            // write-through. The leader always completes and always
            // publishes — even past its own deadline — so followers
            // wake and the caches end up populated for the retry.
            let result = (|| {
                if let Some(text) = shared.cache.load_text(&key, &cell, suite.name()) {
                    return Ok((Arc::<str>::from(text), Tier::Disk));
                }
                let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let model = suite.model();
                    let mut outcome = solve_cell(&cell, model.as_ref(), requirements);
                    if let Some(horizon) = query.validate_horizon {
                        if outcome.solved() {
                            outcome.validation =
                                validate_cell(&cell, &outcome, suite.as_ref(), horizon, 1);
                        }
                    }
                    outcome
                }))
                .map_err(|_| format!("solve panicked for {}", cell.scenario.name))?;
                shared
                    .cache
                    .store(&key, &solved)
                    .map_err(|e| format!("cache write: {e}"))?;
                Ok((Arc::<str>::from(render_entry(&key, &solved)), Tier::Solve))
            })();
            if let Ok((text, _)) = &result {
                shared.hot.insert(&digest, Arc::clone(text));
            }
            shared.flights.publish(&digest, result.clone());
            (Some(result), false)
        }
        Joined::Follower(handle) => (handle.wait(Some(deadline)), true),
    };

    let us = elapsed_us(t0);
    match result {
        None => {
            shared.metrics.record_timeout();
            Response::Timeout {
                digest,
                elapsed_us: us,
            }
        }
        Some(Err(message)) => error(message),
        Some(Ok((text, tier))) => {
            if Instant::now() > deadline {
                // The work finished, the caches are warm, but the
                // caller's deadline passed: report honestly.
                shared.metrics.record_timeout();
                return Response::Timeout {
                    digest,
                    elapsed_us: us,
                };
            }
            shared.metrics.record(tier, us, coalesced);
            Response::Outcome {
                tier,
                digest,
                elapsed_us: us,
                outcome: text.to_string(),
            }
        }
    }
}
