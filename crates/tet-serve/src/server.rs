//! The campaign server: job store, worker pool, HTTP endpoint routing.
//!
//! Life of a request: `POST /v1/jobs` parses the body into a
//! [`CampaignSpec`], canonicalizes it into a content-addressed cache
//! key, and either answers from the cache (hit: the job is born `done`,
//! its report the stored bytes), joins an in-flight job computing the
//! same key (single-flight dedup — two clients asking for the same
//! campaign cost one simulation), or enqueues a new job for the worker
//! pool. Workers fan each campaign's trials out via `tet_par`
//! (byte-identical results at any thread count) and stream per-unit
//! progress through a shared [`FlightRecorder`], which the status and
//! events endpoints read.
//!
//! The serve fast path is two-tier: a sharded in-memory [`HotCache`] of
//! fully rendered responses (a hit is two `write_all`s of prebuilt
//! bytes) in front of the disk [`ResultCache`] (source of truth,
//! size-capped stamp-LRU, survives restarts). Connections are
//! persistent — HTTP/1.1 keep-alive with pipelining, an idle timeout,
//! and `Connection: close` honored per request, at most
//! `MAX_CONNECTIONS` at a time — and every request's
//! service time lands in a cold/cached latency histogram exported at
//! `/v1/metrics`.
//!
//! | Endpoint                  | Method | Purpose                          |
//! |---------------------------|--------|----------------------------------|
//! | `/v1/health`              | GET    | liveness + version               |
//! | `/v1/jobs`                | POST   | submit a campaign spec           |
//! | `/v1/reports`             | POST   | one-round-trip cached report     |
//! | `/v1/jobs/<id>`           | GET    | job status + progress            |
//! | `/v1/jobs/<id>/report`    | GET    | the RunReport (when done)        |
//! | `/v1/jobs/<id>/events`    | GET    | JSONL flight samples until done  |
//! | `/v1/cache/stats`         | GET    | cache + hot-cache counters       |
//! | `/v1/metrics`             | GET    | Prometheus text exposition       |
//! | `/v1/shutdown`            | POST   | graceful stop                    |

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tet_metrics::{FlightRecorder, MetricsHandle, Registry};
use tet_obs::json::Value;
use tet_obs::{Progress, RunReport};

use crate::cache::ResultCache;
use crate::hotcache::{HotCache, HotEntry};
use crate::http::{self, ReadOutcome, Request};
use crate::scheduler;
use crate::spec::{CampaignSpec, KEY_FORMAT};
use crate::sync;

/// Default in-memory hot-cache budget: 64 MiB of rendered responses.
const DEFAULT_HOT_BYTES: u64 = 1 << 26;

/// Default keep-alive idle timeout between requests.
const DEFAULT_IDLE_TIMEOUT_MS: u64 = 5_000;

/// Live connections (one thread each) the acceptor admits; the next one
/// is answered `503` with `Retry-After: 1` and closed, so a flood of
/// idle keep-alive connections cannot exhaust the host's threads.
const MAX_CONNECTIONS: usize = 512;

/// Finished jobs the store remembers. Past this the oldest finished job
/// is forgotten, and its status, report and events answer `404`; the
/// report itself stays in the result cache under its key.
const MAX_FINISHED_JOBS: usize = 1024;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (tests, CI).
    pub addr: String,
    /// Campaign worker threads: how many jobs run concurrently.
    pub workers: usize,
    /// Simulator threads per campaign (`tet_par` fan-out width).
    pub threads: usize,
    /// Result-cache directory.
    pub cache_dir: PathBuf,
    /// Disk-cache byte budget (0 = unlimited; default honors
    /// `TET_SERVE_CACHE_BYTES`, falling back to 0).
    pub cache_bytes: u64,
    /// In-memory hot-cache byte budget (0 = unlimited; default honors
    /// `TET_SERVE_HOT_BYTES`, falling back to 64 MiB).
    pub hot_bytes: u64,
    /// Keep-alive idle timeout: how long a connection may sit between
    /// requests before the server closes it.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            threads: tet_par::default_threads(),
            cache_dir: crate::cache::default_dir(),
            cache_bytes: budget_from_env("TET_SERVE_CACHE_BYTES", 0),
            hot_bytes: budget_from_env("TET_SERVE_HOT_BYTES", DEFAULT_HOT_BYTES),
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
        }
    }
}

/// Reads byte budget `name` from the environment; an unparsable value
/// warns and falls back to `default`.
fn budget_from_env(name: &str, default: u64) -> u64 {
    crate::cache::parse_budget(name, std::env::var(name).ok(), default).unwrap_or_else(|e| {
        eprintln!("warning: {e} (using the default, {default})");
        default
    })
}

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Progress shared between the running worker and the status/events
/// endpoints, without touching the job-store lock per trial.
struct JobProgress {
    done: AtomicUsize,
    flight: FlightRecorder,
}

/// What a queued or running job needs: its campaign and its progress.
struct JobRun {
    spec: CampaignSpec,
    progress: Arc<JobProgress>,
}

/// One job entry in the store.
struct JobEntry {
    id: u64,
    key: String,
    label: String,
    state: JobState,
    /// Whether the submit was answered from the cache.
    cached: bool,
    error: Option<String>,
    /// Work units done, as of the job's end (while it runs, `run`
    /// counts them).
    done: usize,
    total: usize,
    /// `Some` while the job is queued or running; a finished entry
    /// keeps only what its status, report and events read.
    run: Option<JobRun>,
}

impl JobEntry {
    /// Work units done so far.
    fn done(&self) -> usize {
        self.run
            .as_ref()
            .map_or(self.done, |run| run.progress.done.load(Ordering::Relaxed))
    }
}

struct Jobs {
    entries: HashMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    /// key → job id currently computing it (single-flight dedup).
    inflight: HashMap<String, u64>,
    next_id: u64,
    /// Finished job ids, oldest first.
    finished: VecDeque<u64>,
    /// How many finished jobs the store remembers.
    max_finished: usize,
}

impl Jobs {
    fn new(max_finished: usize) -> Self {
        Jobs {
            entries: HashMap::new(),
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            next_id: 0,
            finished: VecDeque::new(),
            max_finished,
        }
    }

    /// Records that job `id` finished, forgetting the oldest finished
    /// jobs past the cap.
    fn retire(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > self.max_finished {
            if let Some(old) = self.finished.pop_front() {
                self.entries.remove(&old);
            }
        }
    }
}

/// The campaign a worker runs for each job: [`scheduler::run_campaign`],
/// unless a unit test substitutes one that panics.
type CampaignFn = fn(&CampaignSpec, usize, &(dyn Fn(usize) + Sync)) -> Result<RunReport, String>;

/// Shared server state.
struct Inner {
    jobs: Mutex<Jobs>,
    campaign: CampaignFn,
    work_ready: Condvar,
    cache: ResultCache,
    hot: HotCache,
    threads: usize,
    idle_timeout: Duration,
    /// Connection cap: `MAX_CONNECTIONS`, unless a unit test sets a
    /// small one.
    max_connections: usize,
    /// Connections currently holding a handler thread.
    connections: AtomicUsize,
    shutdown: AtomicBool,
    progress: Progress,
    /// Host-metrics registry behind `/v1/metrics` …
    registry: Registry,
    /// … and the one shard all connection threads share (the shard has
    /// its own mutex; sharing it keeps the registry from growing a
    /// shard per connection in connection-per-request workloads).
    metrics: MetricsHandle,
}

/// How a served request counts toward the latency histograms.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ServeClass {
    /// Answered from the hot or disk cache (submit hit, report fetch).
    Cached,
    /// Needed the scheduler (submit miss or dedup-join).
    Cold,
    /// Control-plane traffic (health, status, stats) — not timed.
    Untimed,
}

/// A started server: its bound address plus the thread handles needed
/// to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port `0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins all threads.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
        // Poke the blocking accept loop awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Blocks until the server stops on its own (`POST /v1/shutdown`).
    pub fn wait(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds, spawns the worker pool and the accept loop, and returns.
pub fn start(cfg: ServerConfig) -> Result<ServerHandle, String> {
    start_with(
        cfg,
        |spec, threads, observe| scheduler::run_campaign(spec, threads, observe),
        MAX_CONNECTIONS,
        MAX_FINISHED_JOBS,
    )
}

fn start_with(
    cfg: ServerConfig,
    campaign: CampaignFn,
    max_connections: usize,
    max_finished: usize,
) -> Result<ServerHandle, String> {
    let cache = ResultCache::open_capped(&cfg.cache_dir, cfg.cache_bytes)?;
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let registry = Registry::new();
    let metrics = registry.handle();
    let inner = Arc::new(Inner {
        jobs: Mutex::new(Jobs::new(max_finished)),
        campaign,
        work_ready: Condvar::new(),
        cache,
        hot: HotCache::new(cfg.hot_bytes),
        threads: cfg.threads.max(1),
        idle_timeout: Duration::from_millis(cfg.idle_timeout_ms.max(1)),
        max_connections,
        connections: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        progress: Progress::new("whisper-serve"),
        registry,
        metrics,
    });
    inner.progress.note(&format!(
        "listening on {addr} ({} workers × {} sim threads, cache {}, budget {} B, hot {} B)",
        cfg.workers.max(1),
        inner.threads,
        cfg.cache_dir.display(),
        cfg.cache_bytes,
        cfg.hot_bytes,
    ));

    let workers = (0..cfg.workers.max(1))
        .map(|_| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&inner))
        })
        .collect();

    let acceptor = {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || accept_loop(&listener, &inner))
    };

    Ok(ServerHandle {
        addr,
        inner,
        acceptor: Some(acceptor),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let conn = listener.accept();
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok((stream, _)) => {
                if inner.connections.fetch_add(1, Ordering::SeqCst) >= inner.max_connections {
                    inner.connections.fetch_sub(1, Ordering::SeqCst);
                    inner.metrics.counter_add("serve.connections_refused", 1);
                    refuse_busy(stream);
                    continue;
                }
                let slot = ConnectionSlot(Arc::clone(inner));
                std::thread::spawn(move || handle_connection(stream, &slot.0));
            }
            Err(e) => {
                eprintln!("warning: accept: {e}");
            }
        }
    }
    // Unblock any workers still waiting for jobs.
    inner.work_ready.notify_all();
}

/// One admitted connection's claim on the cap, released when its
/// handler thread ends, panics included.
struct ConnectionSlot(Arc<Inner>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Turns away a connection over the cap without spawning a thread:
/// `503` with `Retry-After: 1`, then close. Non-blocking, so a client
/// that never reads cannot stall the acceptor; whatever request bytes
/// already arrived are drained so the close is a FIN, not a reset that
/// could discard the response.
fn refuse_busy(mut stream: TcpStream) {
    let body = error_body("too many connections");
    let _ = stream.set_nonblocking(true);
    let _ = write!(
        stream,
        "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nretry-after: 1\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = std::io::Read::read(&mut stream, &mut [0; 4096]);
}

/// The campaign worker: pop a queued job, run it, cache the report.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job_id = {
            let mut jobs = sync::lock(&inner.jobs);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = jobs.queue.pop_front() {
                    break id;
                }
                let (guard, _) = inner
                    .work_ready
                    .wait_timeout(jobs, Duration::from_millis(200))
                    .unwrap();
                jobs = guard;
            }
        };
        run_job(inner, job_id);
    }
}

fn run_job(inner: &Arc<Inner>, job_id: u64) {
    let (spec, progress, label) = {
        let mut jobs = sync::lock(&inner.jobs);
        let Some(entry) = jobs.entries.get_mut(&job_id) else {
            return;
        };
        entry.state = JobState::Running;
        let run = entry.run.as_ref().expect("a queued job keeps its campaign");
        (
            run.spec.clone(),
            Arc::clone(&run.progress),
            entry.label.clone(),
        )
    };
    inner
        .progress
        .note(&format!("job {job_id}: running {label}"));

    let observe = |done| {
        progress.done.store(done, Ordering::Relaxed);
        progress.flight.record_work(1, 0, 0);
        progress.flight.maybe_sample();
    };
    // A panicking campaign fails its job instead of killing this worker,
    // which would strand every later job in the queue and leave the
    // key in `inflight`, so duplicate submits would join a dead job.
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        (inner.campaign)(&spec, inner.threads, &observe)
    }))
    .unwrap_or_else(|payload| Err(format!("campaign panicked: {}", panic_message(&*payload))));

    let mut jobs = sync::lock(&inner.jobs);
    let jobs = &mut *jobs; // one deref, so field borrows can split
    let Some(entry) = jobs.entries.get_mut(&job_id) else {
        return;
    };
    match result {
        Ok(report) => {
            let body = report.to_json();
            if let Err(e) = inner.cache.put(&entry.key, &body) {
                // The result is still served from the job entry's key
                // lookup failing softly; losing the disk copy only
                // costs a future re-run.
                eprintln!("warning: job {job_id}: {e}");
            }
            // Render the response once, while the bytes are in hand:
            // the first report fetch is already a hot hit.
            inner.hot.insert(&entry.key, HotEntry::json(&body));
            entry.state = JobState::Done;
            inner
                .progress
                .note(&format!("job {job_id}: done ({label})"));
        }
        Err(e) => {
            entry.state = JobState::Failed;
            entry.error = Some(e.clone());
            inner.progress.note(&format!("job {job_id}: FAILED: {e}"));
        }
    }
    jobs.inflight.remove(&entry.key);
    entry.done = progress.done.load(Ordering::Relaxed);
    entry.run = None;
    jobs.retire(job_id);
    progress.flight.finish();
}

/// The message a panic was raised with (`panic!` payloads are `&str` or
/// `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One connection's lifetime: read requests off a shared buffer (so
/// pipelined requests parse back to back), answer each in order, and
/// close on `Connection: close`, idle timeout, clean EOF, protocol
/// error, or a streaming/shutdown response.
fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) {
    inner.metrics.counter_add("serve.connections", 1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.idle_timeout));
    let local = stream.local_addr().ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match Request::read_from(&mut reader) {
            Ok(ReadOutcome::Request(req)) => {
                inner.metrics.counter_add("serve.requests", 1);
                let close = req.wants_close() || inner.shutdown.load(Ordering::SeqCst);
                let keep = route(&mut writer, &req, inner, close, local);
                if close || !keep {
                    return;
                }
            }
            // A finished client or an idle keep-alive connection: just
            // close, nothing to answer.
            Ok(ReadOutcome::Closed) | Ok(ReadOutcome::IdleTimeout) => return,
            // Truncated or malformed request: answer 400 and close —
            // never try to serve a response for bytes we cannot trust.
            Err(e) => {
                inner.metrics.counter_add("serve.bad_requests", 1);
                http::respond_json(&mut writer, 400, &error_body(&e), true);
                return;
            }
        }
    }
}

fn error_body(msg: &str) -> String {
    let mut v = Value::obj();
    v.set("error", msg.into());
    v.to_json()
}

/// Routes one request. `close` is the Connection header every response
/// must carry; the return value says whether the connection can serve
/// another request (streaming and shutdown responses end it regardless).
fn route(
    w: &mut impl Write,
    req: &Request,
    inner: &Arc<Inner>,
    close: bool,
    local: Option<SocketAddr>,
) -> bool {
    let t0 = Instant::now();
    let path = req.path.as_str();
    let mut class = ServeClass::Untimed;
    let keep = match (req.method.as_str(), path) {
        ("GET", "/v1/health") => {
            let mut v = Value::obj();
            v.set("ok", true.into());
            v.set("version", KEY_FORMAT.into());
            http::respond_json(w, 200, &v.to_json(), close);
            true
        }
        ("POST", "/v1/jobs") => submit(w, req, inner, close, &mut class),
        ("POST", "/v1/reports") => cached_report(w, req, inner, close, &mut class),
        ("GET", "/v1/cache/stats") => {
            http::respond_json(w, 200, &cache_stats_body(inner), close);
            true
        }
        ("GET", "/v1/metrics") => {
            let text = tet_metrics::to_prometheus(&metrics_section(inner));
            http::respond(w, 200, "text/plain; version=0.0.4", &text, close);
            true
        }
        ("POST", "/v1/shutdown") => {
            http::respond_json(w, 200, "{\"ok\": true}", true);
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.work_ready.notify_all();
            // Poke the accept loop so it observes the flag.
            if let Some(addr) = local {
                let _ = TcpStream::connect(addr);
            }
            true
        }
        ("GET", _) if path.starts_with("/v1/jobs/") => {
            job_endpoints(w, path, inner, close, &mut class)
        }
        (_, "/v1/jobs")
        | (_, "/v1/reports")
        | (_, "/v1/health")
        | (_, "/v1/cache/stats")
        | (_, "/v1/metrics")
        | (_, "/v1/shutdown") => {
            http::respond_json(w, 405, &error_body("method not allowed"), close);
            true
        }
        _ => {
            http::respond_json(w, 404, &error_body("no such endpoint"), close);
            true
        }
    };
    let metric = match class {
        ServeClass::Cached => Some("serve.cached_request_us"),
        ServeClass::Cold => Some("serve.cold_request_us"),
        ServeClass::Untimed => None,
    };
    if let Some(metric) = metric {
        inner
            .metrics
            .observe(metric, t0.elapsed().as_micros() as u64);
    }
    // A shutdown response ends the connection (and the server).
    keep && !(req.method == "POST" && path == "/v1/shutdown")
}

/// `/v1/cache/stats`: disk-store counters plus the hot tier's, `hot_`
/// prefixed.
fn cache_stats_body(inner: &Arc<Inner>) -> String {
    let s = inner.cache.stats();
    let h = inner.hot.stats();
    let mut v = Value::obj();
    v.set("hits", s.hits.into());
    v.set("misses", s.misses.into());
    v.set("entries", s.entries.into());
    v.set("bytes", s.bytes.into());
    v.set("max_bytes", s.max_bytes.into());
    v.set("evictions", s.evictions.into());
    v.set("evicted_bytes", s.evicted_bytes.into());
    v.set("corrupt", s.corrupt.into());
    v.set("hot_hits", h.hits.into());
    v.set("hot_misses", h.misses.into());
    v.set("hot_entries", h.entries.into());
    v.set("hot_bytes", h.bytes.into());
    v.set("hot_insertions", h.insertions.into());
    v.set("hot_evictions", h.evictions.into());
    v.set("hot_evicted_bytes", h.evicted_bytes.into());
    v.to_json()
}

/// The `/v1/metrics` section: request counters + latency histograms
/// from the registry, cache counters folded in as gauges at scrape
/// time (they live in the cache structs, not the registry).
fn metrics_section(inner: &Arc<Inner>) -> tet_obs::MetricsSection {
    let mut section = inner.registry.snapshot();
    let s = inner.cache.stats();
    let h = inner.hot.stats();
    let mut set = |k: &str, v: u64| {
        section.gauges.insert(k.to_string(), v as f64);
    };
    set("serve.cache.hits", s.hits);
    set("serve.cache.misses", s.misses);
    set("serve.cache.entries", s.entries);
    set("serve.cache.bytes", s.bytes);
    set("serve.cache.max_bytes", s.max_bytes);
    set("serve.cache.evictions", s.evictions);
    set("serve.cache.evicted_bytes", s.evicted_bytes);
    set("serve.cache.corrupt", s.corrupt);
    set("serve.hot.hits", h.hits);
    set("serve.hot.misses", h.misses);
    set("serve.hot.entries", h.entries);
    set("serve.hot.bytes", h.bytes);
    set("serve.hot.insertions", h.insertions);
    set("serve.hot.evictions", h.evictions);
    set("serve.hot.evicted_bytes", h.evicted_bytes);
    section
}

/// Submit-time cache probe: the hot tier first (no disk, no parse),
/// then the disk store (whose hit is promoted so the report fetch that
/// follows is already hot).
fn probe_cached(inner: &Arc<Inner>, key: &str) -> bool {
    if inner.hot.get(key).is_some() {
        inner.cache.record_external_hit(key);
        return true;
    }
    match inner.cache.get(key) {
        Some(body) => {
            inner.hot.insert(key, HotEntry::json(&body));
            true
        }
        None => false,
    }
}

/// `POST /v1/jobs`: cache hit → born-done job; in-flight twin → join
/// it; otherwise enqueue.
fn submit(
    w: &mut impl Write,
    req: &Request,
    inner: &Arc<Inner>,
    close: bool,
    class: &mut ServeClass,
) -> bool {
    let spec = match CampaignSpec::from_json(&req.body) {
        Ok(spec) => spec,
        Err(e) => {
            http::respond_json(w, 400, &error_body(&e), close);
            return true;
        }
    };
    let key = spec.cache_key();
    let cached = probe_cached(inner, &key);
    *class = if cached {
        ServeClass::Cached
    } else {
        ServeClass::Cold
    };
    let total = spec.total_units();

    let mut jobs = sync::lock(&inner.jobs);
    if !cached {
        if let Some(&twin) = jobs.inflight.get(&key) {
            let entry = &jobs.entries[&twin];
            let body = submit_body(entry, true);
            drop(jobs);
            http::respond_json(w, 202, &body, close);
            return true;
        }
    }
    let id = jobs.next_id;
    jobs.next_id += 1;
    let entry = JobEntry {
        id,
        key: key.clone(),
        label: spec.label(),
        state: if cached {
            JobState::Done
        } else {
            JobState::Queued
        },
        cached,
        error: None,
        done: total,
        total,
        run: (!cached).then(|| JobRun {
            spec,
            progress: Arc::new(JobProgress {
                done: AtomicUsize::new(0),
                flight: FlightRecorder::new(total as u64),
            }),
        }),
    };
    let body = submit_body(&entry, false);
    jobs.entries.insert(id, entry);
    if cached {
        jobs.retire(id);
    } else {
        jobs.inflight.insert(key, id);
        jobs.queue.push_back(id);
        inner.work_ready.notify_one();
    }
    drop(jobs);
    http::respond_json(w, if cached { 200 } else { 202 }, &body, close);
    true
}

/// `POST /v1/reports`: the one-round-trip cached fast path. On a hit
/// the response *is* the report — the same precomputed hot-entry bytes
/// `GET /v1/jobs/<id>/report` serves, with no job created and no
/// second round trip. On a miss it answers 404 and the client falls
/// back to the submit flow; the probe counts nothing, so the submit
/// that follows still records exactly one logical miss.
fn cached_report(
    w: &mut impl Write,
    req: &Request,
    inner: &Arc<Inner>,
    close: bool,
    class: &mut ServeClass,
) -> bool {
    let spec = match CampaignSpec::from_json(&req.body) {
        Ok(spec) => spec,
        Err(e) => {
            http::respond_json(w, 400, &error_body(&e), close);
            return true;
        }
    };
    let key = spec.cache_key();
    if let Some(entry) = inner.hot.get(&key) {
        inner.cache.record_external_hit(&key);
        *class = ServeClass::Cached;
        entry.write_to(w, close);
        return true;
    }
    match inner.cache.peek(&key) {
        Some(body) => {
            inner.cache.record_external_hit(&key);
            *class = ServeClass::Cached;
            let entry = HotEntry::json(&body);
            entry.write_to(w, close);
            inner.hot.insert(&key, entry);
        }
        None => http::respond_json(w, 404, &error_body("not cached"), close),
    }
    true
}

fn submit_body(entry: &JobEntry, deduped: bool) -> String {
    let mut v = Value::obj();
    v.set("job", entry.id.into());
    v.set("key", entry.key.as_str().into());
    v.set("state", entry.state.name().into());
    v.set("cached", entry.cached.into());
    v.set("deduped", deduped.into());
    v.to_json()
}

fn status_body(entry: &JobEntry) -> String {
    let mut v = Value::obj();
    v.set("job", entry.id.into());
    v.set("key", entry.key.as_str().into());
    v.set("label", entry.label.as_str().into());
    v.set("state", entry.state.name().into());
    v.set("cached", entry.cached.into());
    v.set("done", entry.done().into());
    v.set("total", entry.total.into());
    if let (JobState::Running, Some(run)) = (entry.state, &entry.run) {
        let sample = run.progress.flight.sample_now();
        v.set("trials_per_sec", sample.trials_per_sec.into());
        v.set("eta_s", sample.eta_s.into());
    }
    if let Some(e) = &entry.error {
        v.set("error", e.as_str().into());
    }
    v.to_json()
}

/// `GET /v1/jobs/<id>[/report|/events]`.
fn job_endpoints(
    w: &mut impl Write,
    path: &str,
    inner: &Arc<Inner>,
    close: bool,
    class: &mut ServeClass,
) -> bool {
    let rest = &path["/v1/jobs/".len()..];
    let (id_str, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        http::respond_json(w, 400, &error_body("job id must be an integer"), close);
        return true;
    };
    match tail {
        None => {
            let jobs = sync::lock(&inner.jobs);
            match jobs.entries.get(&id) {
                Some(entry) => {
                    let body = status_body(entry);
                    drop(jobs);
                    http::respond_json(w, 200, &body, close);
                }
                None => http::respond_json(w, 404, &error_body("no such job"), close),
            }
            true
        }
        Some("report") => {
            let (state, key, error) = {
                let jobs = sync::lock(&inner.jobs);
                match jobs.entries.get(&id) {
                    Some(e) => (e.state, e.key.clone(), e.error.clone()),
                    None => {
                        http::respond_json(w, 404, &error_body("no such job"), close);
                        return true;
                    }
                }
            };
            match state {
                JobState::Done => {
                    // The zero-copy fast path: a hot entry is the final
                    // response bytes, written as-is.
                    if let Some(entry) = inner.hot.get(&key) {
                        *class = ServeClass::Cached;
                        entry.write_to(w, close);
                        return true;
                    }
                    match inner.cache.peek(&key) {
                        Some(body) => {
                            *class = ServeClass::Cached;
                            // Render once; subsequent fetches are hot.
                            let entry = HotEntry::json(&body);
                            entry.write_to(w, close);
                            inner.hot.insert(&key, entry);
                        }
                        None => http::respond_json(
                            w,
                            500,
                            &error_body("report missing from cache (evicted externally?)"),
                            close,
                        ),
                    }
                }
                JobState::Failed => http::respond_json(
                    w,
                    500,
                    &error_body(&error.unwrap_or_else(|| "job failed".to_string())),
                    close,
                ),
                _ => http::respond_json(w, 404, &error_body("job not finished"), close),
            }
            true
        }
        Some("events") => {
            stream_events(w, id, inner);
            // The stream is EOF-delimited: this connection is done.
            false
        }
        Some(_) => {
            http::respond_json(w, 404, &error_body("no such endpoint"), close);
            true
        }
    }
}

/// `GET /v1/jobs/<id>/events`: JSONL flight samples every poll tick
/// until the job leaves the running/queued states, then one final
/// status line. EOF-delimited (the connection closes at the end).
fn stream_events(w: &mut impl Write, id: u64, inner: &Arc<Inner>) {
    let exists = sync::lock(&inner.jobs).entries.contains_key(&id);
    if !exists {
        http::respond_json(w, 404, &error_body("no such job"), true);
        return;
    }
    if !http::start_stream(w, "application/jsonl") {
        return;
    }
    loop {
        let (running, line) = {
            let jobs = sync::lock(&inner.jobs);
            let Some(entry) = jobs.entries.get(&id) else {
                return;
            };
            match &entry.run {
                Some(run) => (true, run.progress.flight.sample_now().to_jsonl()),
                None => (false, status_body(entry)),
            }
        };
        if w.write_all(line.as_bytes()).is_err()
            || w.write_all(b"\n").is_err()
            || w.flush().is_err()
        {
            return; // client went away
        }
        if !running {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// `scheduler::run_campaign`, except that seed 666 panics.
    fn campaign_with_a_panicking_seed(
        spec: &CampaignSpec,
        threads: usize,
        observe: &(dyn Fn(usize) + Sync),
    ) -> Result<RunReport, String> {
        assert_ne!(spec.seed, 666, "injected campaign panic");
        scheduler::run_campaign(spec, threads, observe)
    }

    fn job_id(submitted: &Value) -> u64 {
        submitted
            .get("job")
            .and_then(Value::as_u64)
            .expect("submit returns a job id")
    }

    /// `job`'s final state and error, failing the test (rather than
    /// hanging it) if the job is still unfinished after 60 s.
    fn finish(client: &Client, job: u64) -> (String, Option<String>) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let st = client.status(job).unwrap();
            let state = st.get("state").and_then(Value::as_str).unwrap_or("");
            if state == "done" || state == "failed" {
                let error = st.get("error").and_then(Value::as_str).map(str::to_string);
                return (state.to_string(), error);
            }
            assert!(Instant::now() < deadline, "job {job} stuck in {state:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn a_panicking_job_fails_without_wedging_a_one_worker_server() {
        let cache_dir =
            std::env::temp_dir().join(format!("tet_serve_panic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let handle = start_with(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                threads: 1,
                cache_dir: cache_dir.clone(),
                cache_bytes: 0,
                hot_bytes: 1 << 20,
                idle_timeout_ms: 5_000,
            },
            campaign_with_a_panicking_seed,
            MAX_CONNECTIONS,
            MAX_FINISHED_JOBS,
        )
        .expect("server must start");
        let client = Client::new(&handle.addr().to_string());

        let bad =
            r#"{"kind":"table2_cell","preset":"intel-core-i7-7700","attack":"cc","seed":666}"#;
        let first = job_id(&client.submit(bad).unwrap());
        let (state, error) = finish(&client, first);
        assert_eq!(state, "failed");
        let error = error.expect("a failed job reports its error");
        assert!(error.contains("injected campaign panic"), "{error}");

        // The key left `inflight`: a resubmit starts a new job instead of
        // joining the failed one.
        let again = client.submit(bad).unwrap();
        assert_ne!(job_id(&again), first);
        assert_eq!(again.get("deduped").and_then(Value::as_bool), Some(false));
        assert_eq!(finish(&client, job_id(&again)).0, "failed");

        // The one worker survived both panics and serves the next job.
        let good = r#"{"kind":"table2_cell","preset":"intel-core-i7-7700","attack":"cc","seed":1}"#;
        assert_eq!(
            finish(&client, job_id(&client.submit(good).unwrap())).0,
            "done"
        );

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    /// Holds `cap` idle keep-alive connections: the next connection is
    /// refused with 503 and `Retry-After` without a handler thread, and
    /// closing one held connection frees its slot.
    #[test]
    fn connections_over_the_cap_get_503_until_one_closes() {
        const CAP: usize = 2;
        let cache_dir = std::env::temp_dir().join(format!("tet_serve_cap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let handle = start_with(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                threads: 1,
                cache_dir: cache_dir.clone(),
                cache_bytes: 0,
                hot_bytes: 1 << 20,
                idle_timeout_ms: 60_000,
            },
            campaign_with_a_panicking_seed,
            CAP,
            MAX_FINISHED_JOBS,
        )
        .expect("server must start");
        let addr = handle.addr().to_string();
        // A served request proves each held connection was admitted.
        let mut held: Vec<Client> = (0..CAP)
            .map(|_| {
                let client = Client::new(&addr);
                client.health().expect("under the cap");
                client
            })
            .collect();

        let mut extra = TcpStream::connect(handle.addr()).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut refused = String::new();
        std::io::Read::read_to_string(&mut extra, &mut refused).unwrap();
        assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");
        assert!(refused.contains("\r\nretry-after: 1\r\n"), "{refused}");
        assert!(refused.contains("\r\nconnection: close\r\n"), "{refused}");

        // The server sees the close asynchronously: retry until the
        // freed slot admits a new connection.
        drop(held.pop());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = Client::new(&addr)
                .with_keep_alive(false)
                .request("GET", "/v1/health", "")
                .map(|r| r.status);
            if status == Ok(200) {
                break;
            }
            assert!(Instant::now() < deadline, "a closed slot was never freed");
            std::thread::sleep(Duration::from_millis(10));
        }

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    /// A campaign that finishes at once with an empty report.
    fn instant_campaign(
        _: &CampaignSpec,
        _: usize,
        _: &(dyn Fn(usize) + Sync),
    ) -> Result<RunReport, String> {
        Ok(RunReport::new("instant"))
    }

    /// Past its cap the store forgets the oldest finished job — its
    /// status, report and events answer 404 — and keeps the newer ones.
    #[test]
    fn finished_jobs_past_the_cap_are_forgotten_oldest_first() {
        const CAP: usize = 2;
        let cache_dir =
            std::env::temp_dir().join(format!("tet_serve_forget_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let handle = start_with(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                threads: 1,
                cache_dir: cache_dir.clone(),
                cache_bytes: 0,
                hot_bytes: 1 << 20,
                idle_timeout_ms: 5_000,
            },
            instant_campaign,
            MAX_CONNECTIONS,
            CAP,
        )
        .expect("server must start");
        let client = Client::new(&handle.addr().to_string());
        let jobs: Vec<u64> = (1..=3)
            .map(|seed| {
                let spec = format!(
                    r#"{{"kind":"table2_cell","preset":"intel-core-i7-7700","attack":"cc","seed":{seed}}}"#
                );
                let job = job_id(&client.submit(&spec).unwrap());
                assert_eq!(finish(&client, job).0, "done");
                job
            })
            .collect();
        let status = |path: String| client.request("GET", &path, "").unwrap().status;
        for tail in ["", "/report", "/events"] {
            assert_eq!(status(format!("/v1/jobs/{}{tail}", jobs[0])), 404, "{tail}");
            for job in &jobs[1..] {
                assert_eq!(status(format!("/v1/jobs/{job}{tail}")), 200, "{tail}");
            }
        }

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}
