//! The daemon proper: accept loop with a connection budget, per-connection
//! pipelining, pool-backed evaluation, graceful drain.
//!
//! One [`Daemon`] owns a non-blocking TCP listener and a shared
//! [`ServerState`] (the model backend, the two cache levels and the traffic
//! counters).  Each connection gets a thread, up to
//! [`ServeConfig::max_connections`]; connections past the budget receive
//! one `busy` line and are closed, so overload degrades into explicit
//! refusals instead of unbounded thread growth.  Within a connection,
//! queries are **pipelined**: the reader drains whatever lines are already
//! queued (up to [`ServeConfig::window`]) and evaluates the whole window's
//! cache misses as one ordered batch on the shared [`star_exec::ExecPool`]
//! — so a client that streams 100 queries gets every core, while a
//! one-query-at-a-time client still gets sub-millisecond turnarounds.
//! Responses always come back in request order.
//!
//! Each query line is a [`ShardedSolveCache::lookup`]: a hit answers
//! verbatim, and a miss is solved cold with the rest of its window and
//! [inserted](ShardedSolveCache::insert).  Duplicate misses — in one window
//! or racing in from other connections — each solve and store the same
//! bytes, so no connection ever waits on another's solve.
//!
//! Shutdown is cooperative and draining: a SIGINT (via
//! [`crate::signal::install`]) or a wire `shutdown` request trips one flag;
//! the accept loop stops accepting, every connection finishes the window it
//! is working on, flushes, closes, and [`Daemon::run`] joins them all
//! before returning.  Nothing in flight is dropped.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use serde_json::Value;
use star_exec::ExecPool;
use star_workloads::{encode_estimate, ModelBackend, OperatingPoint, PointEstimate, WireScenario};

use crate::cache::{ConfigCache, ConfigEntry, Lookup, ShardedSolveCache};
use crate::prewarm::{self, PrewarmReport};
use crate::protocol::{self, CacheOutcome, Request, RequestError};
use crate::signal;

/// Daemon tuning knobs, all defaulted for the smoke/bench setups.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back with
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Worker width for each evaluation batch (`0` = all pool workers).
    pub width: usize,
    /// Maximum pipelined requests evaluated as one batch per connection.
    pub window: usize,
    /// Total solve-cache byte budget, split evenly across the shards.
    pub cache_bytes: usize,
    /// Solve-cache shard count (each shard is independently locked).
    pub shards: usize,
    /// Connection budget: accepts past this many live connections get one
    /// `busy` line and a close.  `0` means unlimited.
    pub max_connections: usize,
    /// Configurations to solve across the whole rate grid before the
    /// listener opens, so their traffic hits the cache from the first
    /// query (empty = no prewarming).
    pub prewarm: Vec<WireScenario>,
    /// Rates per prewarmed configuration, spread over the same grid
    /// [`star_workloads::load_rate_grid`] gives the load generator.
    pub prewarm_rates: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            width: 0,
            window: 64,
            cache_bytes: 4 << 20,
            shards: 8,
            max_connections: 64,
            prewarm: Vec::new(),
            prewarm_rates: 24,
        }
    }
}

/// Everything the connection threads share.  The cache levels synchronise
/// internally ([`ConfigCache`] behind a read-mostly lock,
/// [`ShardedSolveCache`] behind per-shard locks), so there is no global
/// lock left to serialise on.
#[derive(Debug)]
pub struct ServerState {
    pub(crate) backend: ModelBackend,
    pub(crate) configs: ConfigCache,
    pub(crate) solves: ShardedSolveCache,
    queries: AtomicU64,
    errors: AtomicU64,
    shutdown: AtomicBool,
}

impl ServerState {
    fn new(cache_bytes: usize, shards: usize) -> Self {
        Self {
            backend: ModelBackend::new(),
            configs: ConfigCache::new(),
            solves: ShardedSolveCache::new(cache_bytes, shards),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Whether drain-and-exit has been requested, by wire or by signal.
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal::triggered()
    }

    /// The stats snapshot behind the wire `stats` op, also available to
    /// embedders running an in-process daemon.
    ///
    /// The snapshot is *consistent*: every solve shard is locked (in index
    /// order) while the traffic counters and config-cache stats are read,
    /// so the reply can never interleave mid-update counts from the two
    /// cache levels.
    #[must_use]
    pub fn stats(&self) -> Value {
        let (solves, (queries, errors, configs)) = self.solves.snapshot(|| {
            (
                self.queries.load(Ordering::Relaxed),
                self.errors.load(Ordering::Relaxed),
                self.configs.stats(),
            )
        });
        Value::Object(vec![
            ("queries".to_string(), Value::from(queries)),
            ("errors".to_string(), Value::from(errors)),
            ("configs".to_string(), configs),
            ("solves".to_string(), solves),
        ])
    }
}

/// One miss this window solves: the point and its configuration,
/// pre-resolved so the hot closure only computes.
struct SolveJob {
    point: OperatingPoint,
    entry: Arc<ConfigEntry>,
}

/// A cold solve of `point` on its configuration's prebuilt model: the bytes
/// `estimate_with(point, spectrum, &[])` encodes, without rebuilding the
/// model's step kernel.
pub(crate) fn solve_cold(
    state: &ServerState,
    point: &OperatingPoint,
    entry: &ConfigEntry,
) -> PointEstimate {
    let model = entry.model.as_ref().expect("only configurations with a model are solved");
    state.backend.estimate_on(point, model)
}

/// What each request line of a window turns into before responses are
/// written back in line order.
enum Planned {
    /// Response already known (errors, control ops, cache hits).
    Ready(String),
    /// Stats snapshot, taken after the window's solves land.
    Stats { id: u64 },
    /// Awaiting solve job `index`'s estimate.
    Pending { id: u64, index: usize },
}

/// The serving daemon.  [`Daemon::bind`] then [`Daemon::run`]; the run
/// blocks until shutdown and returns once every connection has drained.
///
/// ```
/// use std::io::{BufRead, BufReader, Write};
/// use std::net::TcpStream;
/// use star_serve::{Daemon, ServeConfig};
///
/// let daemon = Daemon::bind(ServeConfig::default()).unwrap();
/// let addr = daemon.local_addr();
/// let server = std::thread::spawn(move || daemon.run().unwrap());
///
/// let mut conn = TcpStream::connect(addr).unwrap();
/// writeln!(conn, r#"{{"id":1,"topology":"star","size":4,"m":16,"rate":0.004}}"#).unwrap();
/// writeln!(conn, r#"{{"id":2,"op":"shutdown"}}"#).unwrap();
/// let mut lines = BufReader::new(conn).lines();
/// let first = lines.next().unwrap().unwrap();
/// assert!(first.starts_with(r#"{"id":1,"status":"ok","cached":"cold""#));
/// server.join().unwrap(); // drained and exited
/// ```
#[derive(Debug)]
pub struct Daemon {
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServeConfig,
    prewarmed: Option<PrewarmReport>,
}

/// How long an idle connection waits for bytes before re-checking the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Longest request line a connection buffers, newline included.  A longer
/// line is answered with one error and discarded up to its newline, so a
/// client that never sends `\n` cannot grow the buffer without bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// One request line of a window: its text, or `None` for a line longer than
/// [`MAX_LINE_BYTES`].
type WindowLine = Option<String>;

/// A connection's request lines, read with at most [`MAX_LINE_BYTES`] of
/// one line buffered.
struct LineReader<R> {
    inner: R,
    /// The line read so far.
    pending: Vec<u8>,
    /// Whether the rest of an oversized line is being discarded.
    discarding: bool,
}

impl<R: BufRead> LineReader<R> {
    fn new(inner: R) -> Self {
        Self { inner, pending: Vec::new(), discarding: false }
    }

    /// Reads up to the next newline; `Ok(None)` at end of stream.  On an
    /// error (a timed-out or would-block read included) the partial line
    /// stays buffered for the next call.
    fn read_line(&mut self) -> io::Result<Option<WindowLine>> {
        loop {
            let available = self.inner.fill_buf()?;
            if available.is_empty() {
                return Ok(None);
            }
            let newline = available.iter().position(|&b| b == b'\n');
            let take = newline.map_or(available.len(), |i| i + 1);
            if self.discarding || self.pending.len() + take > MAX_LINE_BYTES {
                let oversized = !self.discarding;
                self.inner.consume(take);
                self.pending.clear();
                self.discarding = newline.is_none();
                if oversized {
                    return Ok(Some(None));
                }
                continue;
            }
            self.pending.extend_from_slice(&available[..take]);
            self.inner.consume(take);
            if newline.is_some() {
                return Ok(Some(Some(self.take_pending())));
            }
        }
    }

    /// The buffered partial line, emptied.
    fn take_pending(&mut self) -> String {
        let line = String::from_utf8_lossy(&self.pending).into_owned();
        self.pending.clear();
        line
    }
}

impl Daemon {
    /// Binds the listener (port 0 = ephemeral), builds the shared state,
    /// and — when [`ServeConfig::prewarm`] names configurations — solves
    /// their full rate grids into the cache *before* returning, so the
    /// first client never sees a cold cache for a prewarmed configuration.
    ///
    /// # Errors
    /// Any socket error from binding the address, or
    /// [`io::ErrorKind::InvalidInput`] for a prewarm configuration the
    /// analytical model cannot solve.
    pub fn bind(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(ServerState::new(config.cache_bytes, config.shards));
        let prewarmed = if config.prewarm.is_empty() {
            None
        } else {
            Some(prewarm::prewarm(&state, config.width, &config.prewarm, config.prewarm_rates)?)
        };
        Ok(Self { listener, state, config, prewarmed })
    }

    /// The bound address (the one thing a caller needs after port 0).
    ///
    /// # Panics
    /// Never after a successful [`Daemon::bind`].
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("a bound listener has an address")
    }

    /// What [`Daemon::bind`] prewarmed, when it was asked to.
    #[must_use]
    pub fn prewarmed(&self) -> Option<&PrewarmReport> {
        self.prewarmed.as_ref()
    }

    /// The shared state — exposed so an embedding test can read stats or
    /// request a drain without a connection.
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Asks a running daemon to drain and exit, as if SIGINT had arrived.
    pub fn request_shutdown(state: &ServerState) {
        state.shutdown.store(true, Ordering::Relaxed);
    }

    /// Serves until shutdown (SIGINT or a wire `shutdown` request), then
    /// drains: in-flight windows finish, responses flush, connections
    /// close, and every connection thread is joined before returning.
    ///
    /// # Errors
    /// Fatal listener errors only; per-connection I/O errors close that
    /// connection and are otherwise ignored.
    pub fn run(self) -> io::Result<()> {
        let limit = self.config.max_connections;
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        while !self.state.draining() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    workers.retain(|w| !w.is_finished());
                    if limit != 0 && workers.len() >= limit {
                        refuse_busy(&stream, limit);
                        continue;
                    }
                    let state = Arc::clone(&self.state);
                    let width = self.config.width;
                    let window = self.config.window.max(1);
                    workers.push(thread::spawn(move || {
                        // a broken connection is the client's problem
                        let _ = serve_connection(&stream, &state, width, window);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(IDLE_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            workers.retain(|w| !w.is_finished());
        }
        drop(self.listener);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Answers a connection past the budget with one `busy` line and closes
/// it.  Refusal errors are ignored — the client is gone either way.
fn refuse_busy(stream: &TcpStream, limit: usize) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(IDLE_POLL));
    let mut writer = BufWriter::new(stream);
    let _ = writer.write_all(protocol::busy_response(limit).as_bytes());
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
}

/// Reads request lines, pipelines them into windows and answers in order
/// until EOF or drain.
///
/// A window opens with one blocking read (bounded by [`IDLE_POLL`] so the
/// shutdown flag stays live on idle connections), then drains whatever
/// lines have *already arrived* with non-blocking reads — a pipelining
/// client's whole burst lands in one evaluation batch, while a
/// query-at-a-time client is answered immediately instead of waiting out a
/// batching timer.
fn serve_connection(
    stream: &TcpStream,
    state: &ServerState,
    width: usize,
    window_cap: usize,
) -> io::Result<()> {
    let mut reader = LineReader::new(BufReader::new(stream.try_clone()?));
    let mut writer = BufWriter::new(stream);
    let mut window: Vec<WindowLine> = Vec::new();
    loop {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(IDLE_POLL))?;
        let mut eof = match reader.read_line() {
            Ok(None) => true,
            Ok(Some(line)) => {
                window.push(line);
                false
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // idle (a timed-out read keeps any partial line buffered
                // for the next pass): drain out when asked to
                if state.draining() {
                    return writer.flush();
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if !eof {
            stream.set_nonblocking(true)?;
            while window.len() < window_cap {
                match reader.read_line() {
                    Ok(None) => {
                        eof = true;
                        break;
                    }
                    Ok(Some(line)) => window.push(line),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        if eof {
            // a trailing unterminated line still deserves an answer
            let rest = reader.take_pending();
            if !rest.trim().is_empty() {
                window.push(Some(rest));
            }
        }
        if !window.is_empty() {
            let draining = process_window(state, width, &std::mem::take(&mut window), &mut writer)?;
            writer.flush()?;
            if draining {
                return Ok(());
            }
        }
        if eof {
            return writer.flush();
        }
    }
}

/// Evaluates one window of request lines and writes one response line per
/// request, in order.  Returns whether a shutdown request was seen.
///
/// Each line is parsed, resolved and looked up (hits answer verbatim); the
/// window's misses are then solved as one ordered batch and inserted, and
/// the responses are written in request order.
fn process_window(
    state: &ServerState,
    width: usize,
    lines: &[WindowLine],
    writer: &mut impl Write,
) -> io::Result<bool> {
    let mut planned: Vec<Planned> = Vec::with_capacity(lines.len());
    let mut jobs: Vec<SolveJob> = Vec::new();
    let mut saw_shutdown = false;
    for line in lines {
        let request = match line {
            Some(line) => Request::parse(line),
            None => Err(RequestError {
                id: None,
                message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            }),
        };
        planned.push(match request {
            Err(e) => {
                state.errors.fetch_add(1, Ordering::Relaxed);
                Planned::Ready(protocol::error_response(e.id, &e.message))
            }
            Ok(Request::Stats { id }) => Planned::Stats { id },
            Ok(Request::Shutdown { id }) => {
                saw_shutdown = true;
                Daemon::request_shutdown(state);
                Planned::Ready(protocol::ok_shutdown(id))
            }
            Ok(Request::Query(query)) => {
                state.queries.fetch_add(1, Ordering::Relaxed);
                let entry = state.configs.resolve(&query.wire);
                // out-of-range knobs (V below the discipline's escape-level
                // minimum, …) and model-less pairings answer as errors, not
                // panics — the same validation the batch backend trusts
                match entry.scenario.model_params(query.rate) {
                    Err(e) => {
                        state.errors.fetch_add(1, Ordering::Relaxed);
                        Planned::Ready(protocol::error_response(Some(query.id), &e.to_string()))
                    }
                    Ok(None) => {
                        state.errors.fetch_add(1, Ordering::Relaxed);
                        Planned::Ready(protocol::error_response(
                            Some(query.id),
                            &format!(
                                "the analytical model does not cover {} (uniform traffic; \
                                 star networks have no deterministic variant)",
                                entry.scenario.label()
                            ),
                        ))
                    }
                    Ok(Some(_)) => match state.solves.lookup(&entry.fingerprint, query.rate) {
                        Lookup::Hit { payload, hits } => Planned::Ready(protocol::ok_query(
                            query.id,
                            CacheOutcome::Exact,
                            hits,
                            &payload,
                        )),
                        Lookup::Miss => {
                            jobs.push(SolveJob { point: entry.scenario.at(query.rate), entry });
                            Planned::Pending { id: query.id, index: jobs.len() - 1 }
                        }
                    },
                }
            }
        });
    }

    // the window's misses, solved as one deterministic ordered batch
    let estimates =
        ExecPool::global_ordered(width, &jobs, |_, job| solve_cold(state, &job.point, &job.entry));
    let payloads: Vec<String> = jobs
        .iter()
        .zip(&estimates)
        .map(|(job, estimate)| {
            let payload = encode_estimate(estimate);
            state.solves.insert(&job.entry.fingerprint, job.point.traffic_rate, payload.clone());
            payload
        })
        .collect();

    for plan in planned {
        let response = match plan {
            Planned::Ready(response) => response,
            Planned::Stats { id } => protocol::ok_stats(id, &state.stats()),
            Planned::Pending { id, index } => {
                protocol::ok_query(id, CacheOutcome::Cold, 0, &payloads[index])
            }
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    Ok(saw_shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(input: &[u8]) -> Vec<WindowLine> {
        let mut reader = LineReader::new(BufReader::with_capacity(1000, input));
        std::iter::from_fn(|| reader.read_line().expect("in-memory reads cannot fail")).collect()
    }

    #[test]
    fn line_reader_caps_each_line_and_resumes_after_the_oversized_one() {
        let mut input = b"first\n".to_vec();
        // exactly the cap (newline included) still fits…
        input.extend(vec![b'a'; MAX_LINE_BYTES - 1]);
        input.push(b'\n');
        // …one byte more does not, and is skipped up to its newline
        input.extend(vec![b'b'; MAX_LINE_BYTES]);
        input.extend(b"\nlast\n");
        let got = lines(&input);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].as_deref(), Some("first\n"));
        assert_eq!(got[1].as_ref().map(String::len), Some(MAX_LINE_BYTES));
        assert_eq!(got[2], None);
        assert_eq!(got[3].as_deref(), Some("last\n"));
    }

    #[test]
    fn an_unterminated_oversized_tail_reports_once() {
        let input = vec![b'c'; 3 * MAX_LINE_BYTES];
        let mut reader = LineReader::new(BufReader::new(&input[..]));
        assert_eq!(reader.read_line().unwrap(), Some(None));
        assert_eq!(reader.read_line().unwrap(), None);
        assert_eq!(reader.take_pending(), "");
    }
}
