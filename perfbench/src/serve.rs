//! `serve-mixed`: an in-process `whisper-serve` (1 campaign worker,
//! 1 simulator thread, an isolated cache directory) under a closed loop
//! of two keep-alive `Client`s, each waiting for its reply before
//! sending the next request.
//!
//! The seeded schedule is ~90 % reads (`run_to_report` on a warm set of
//! distinct `table2_cell` specs, prefilled during set-up) and ~10 %
//! writes (unique-seed cold specs that run the scheduler and write the
//! disk cache). Reads load the HTTP layer, spec parsing and hashing,
//! the hot cache and the client round trip; writes load the scheduler,
//! the simulator, the disk store and the client's 20 ms status poll.
//! An operation — and the unit of work — is one request.

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tet_serve::http::{ReadOutcome, Request};
use tet_serve::{
    scheduler, start, CampaignSpec, Client, HotCache, HotEntry, ResultCache, ServerConfig,
    ServerHandle,
};
use tet_uarch::CpuConfig;
use whisper::eval::TABLE2_ATTACKS;

use crate::inputs::{fnv1a, mix, Digest, Rng};
use crate::metrics::{self, set_mean, Outcome, RunCfg};
use crate::stats::{median, ratio, tail};
use crate::trace::{self, Span, Tracer};

/// One operation in this many is a write.
pub const WRITE_ONE_IN: u64 = 10;

/// Closed-loop clients (fewer if the host has fewer threads).
pub const CLIENTS: usize = 2;

/// Requests the traced run re-walks (and the untraced run must cover).
pub const TRACE_OPS: u64 = 200;

/// Trials per cold (write) spec: 6–9 ms of simulation on a 2-vCPU host —
/// long enough that the first status request rarely finds the job
/// already done, short enough that two writes queued on the single
/// campaign worker still finish within one 20 ms poll. Fewer trials let
/// about half the writes finish before the first poll, which swung
/// requests/s by a third between runs; 40 or more split the writes
/// between two and three poll periods.
pub const COLD_TRIALS: u32 = 12;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: u64 = 5;

/// Hot-cache budget of the server and of the in-process mirror.
const HOT_BYTES: u64 = 64 << 20;

/// The client's status-poll period (`Client::wait`), mirrored by the
/// traced client pass.
const POLL: Duration = Duration::from_millis(20);

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read warm spec `j`.
    Read(usize),
    /// Write (compute) this cold spec.
    Write(String),
}

/// The seeded request schedule.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The warm set, as request bodies.
    pub warm: Vec<String>,
    seed: u64,
    cold_base: u64,
}

fn cell_spec(preset: &str, attack: &str, seed: u64, trials: u32) -> String {
    format!(
        "{{\"kind\": \"table2_cell\", \"preset\": \"{preset}\", \"attack\": \"{attack}\", \
         \"seed\": {seed}, \"trials\": {trials}}}"
    )
}

impl Plan {
    /// The schedule of workload seed `seed`.
    pub fn new(seed: u64) -> Plan {
        let presets: Vec<String> = CpuConfig::table2_presets()
            .iter()
            .map(|c| CpuConfig::slug_of(c.name))
            .collect();
        // Every (preset, attack) pair once, each on its own seeded seed,
        // so the warm set costs the same to prefill for every workload
        // seed.
        let mut rng = Rng::new(seed, "serve.warm");
        let warm = presets
            .iter()
            .flat_map(|p| TABLE2_ATTACKS.iter().map(move |a| (p, a)))
            .map(|(p, a)| cell_spec(p, a, rng.below(1 << 30), 1))
            .collect();
        Plan {
            warm,
            seed,
            // Warm seeds are below 2^30; cold seeds start at 2^32.
            cold_base: (1 << 32) + (mix(seed, "serve.cold", 0) % (1 << 24)) * (1 << 24),
        }
    }

    /// Request `i` of the schedule.
    pub fn op(&self, i: u64) -> Op {
        let r = mix(self.seed, "serve.op", i);
        if r.is_multiple_of(WRITE_ONE_IN) {
            Op::Write(cell_spec(
                "intel-core-i7-7700",
                "cc",
                self.cold_base + i,
                COLD_TRIALS,
            ))
        } else {
            Op::Read(((r / WRITE_ONE_IN) % self.warm.len() as u64) as usize)
        }
    }

    /// The request body of `op`.
    pub fn body<'a>(&'a self, op: &'a Op) -> &'a str {
        match op {
            Op::Read(j) => &self.warm[*j],
            Op::Write(spec) => spec,
        }
    }
}

/// A running in-process server with its own cache directory; stopping
/// (or dropping) it joins the server's threads and removes the
/// directory.
pub struct Service {
    handle: Option<ServerHandle>,
    dir: PathBuf,
    /// `host:port` of the listener.
    pub base: String,
}

impl Service {
    /// Starts a server on an ephemeral port caching under `dir` (which
    /// is emptied first).
    pub fn start(dir: PathBuf) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let handle = start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            threads: 1,
            cache_dir: dir.clone(),
            cache_bytes: 0,
            hot_bytes: HOT_BYTES,
            idle_timeout_ms: 5_000,
        })?;
        Ok(Service {
            base: handle.addr().to_string(),
            handle: Some(handle),
            dir,
        })
    }

    /// A keep-alive client of this server.
    pub fn client(&self) -> Client {
        Client::new(&self.base).with_keep_alive(true)
    }

    /// `(hits, misses)` from `/v1/cache/stats`.
    pub fn cache_counts(&self) -> Result<(u64, u64), String> {
        let v = self.client().cache_stats()?;
        let get = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or(format!("stats lack {k}"))
        };
        Ok((get("hits")?, get("misses")?))
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Computes the warm set through the server (cold), returning each
/// spec's report bytes: the reference every later read must match.
pub fn prefill(svc: &Service, plan: &Plan) -> Result<Vec<String>, String> {
    let client = svc.client();
    plan.warm
        .iter()
        .map(|spec| client.run_to_report(spec).map(|(body, _)| body))
        .collect()
}

/// Whether one request's outcome is correct: it must have succeeded
/// (a refused request or a transport error is a failure), and a read
/// must return exactly the reference bytes of its warm spec.
pub fn judge(op: &Op, res: &Result<(String, bool), String>, refs: &[String]) -> bool {
    match (op, res) {
        (_, Err(_)) => false,
        (Op::Read(j), Ok((body, _))) => refs.get(*j) == Some(body),
        (Op::Write(_), Ok((body, _))) => !body.is_empty(),
    }
}

/// One completed request of a closed-loop pass.
#[derive(Debug, Clone)]
pub struct Done {
    /// Schedule index.
    pub i: u64,
    /// Whether it was a write.
    pub write: bool,
    /// Latency, ms.
    pub ms: f64,
    /// Completion time since the pass started, s.
    pub end_s: f64,
    /// Output check passed.
    pub ok: bool,
    /// Report bytes (kept for writes, for the re-read check).
    pub body: Option<String>,
    /// Digest of the report bytes (`0` on error).
    pub digest: u64,
}

/// The closed loop: `clients` threads, each with its own keep-alive
/// client, claim schedule indices from a shared counter and wait for
/// each reply, until `seconds` have passed and `min_ops` are claimed.
/// Returns the requests in schedule order and the wall time.
pub fn closed_loop(
    svc: &Service,
    plan: &Plan,
    refs: &[String],
    clients: usize,
    seconds: f64,
    min_ops: u64,
) -> (Vec<Done>, f64) {
    let next = AtomicU64::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let client = svc.client();
                let mut mine = Vec::new();
                loop {
                    if start.elapsed().as_secs_f64() >= seconds
                        && next.load(Ordering::SeqCst) >= min_ops
                    {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let op = plan.op(i);
                    let t = Instant::now();
                    let res = client.run_to_report(plan.body(&op));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let ok = judge(&op, &res, refs);
                    let write = matches!(op, Op::Write(_));
                    let body = res.ok().map(|(b, _)| b);
                    mine.push(Done {
                        i,
                        write,
                        ms,
                        end_s: start.elapsed().as_secs_f64(),
                        ok,
                        digest: body.as_deref().map_or(0, |b| fnv1a(b.as_bytes())),
                        body: if write { body } else { None },
                    });
                }
                done.lock().expect("no client thread panicked").extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("no client thread panicked");
    done.sort_by_key(|d| d.i);
    (done, wall)
}

/// Re-reads every written spec: the served (now cached) report must be
/// byte-identical to the cold report the write returned.
pub fn verify_writes(svc: &Service, plan: &Plan, done: &mut [Done]) {
    let client = svc.client();
    for d in done.iter_mut().filter(|d| d.write && d.ok) {
        let op = plan.op(d.i);
        d.ok = match client.run_to_report(plan.body(&op)) {
            Ok((body, cached)) => cached && d.body.as_deref() == Some(body.as_str()),
            Err(_) => false,
        };
    }
}

/// One request as `Client::run_to_report` makes it, with a span per
/// round trip: the `/v1/reports` probe, then on a miss submit, the
/// status poll loop (every 20 ms until done) and the report fetch.
fn traced_request(tr: &mut Tracer, client: &Client, spec: &str) -> Result<String, String> {
    let probe = tr.time("serve.client.probe", || {
        client.request("POST", "/v1/reports", spec)
    })?;
    match probe.status {
        200 => return Ok(probe.body),
        404 => {}
        s => return Err(format!("POST /v1/reports ({s}): {}", probe.body)),
    }
    let sub = tr.time("serve.client.submit", || client.submit(spec))?;
    let job = sub
        .get("job")
        .and_then(|j| j.as_u64())
        .ok_or("submit response missing job id")?;
    if sub.get("state").and_then(|s| s.as_str()) != Some("done") {
        tr.begin("serve.client.wait");
        let waited = loop {
            let st = tr.time("serve.client.status", || client.status(job));
            match st.as_ref().map(|v| v.get("state").and_then(|s| s.as_str())) {
                Ok(Some("done")) => break Ok(()),
                Ok(Some("failed")) => break Err(format!("job {job} failed")),
                Ok(_) => std::thread::sleep(POLL),
                Err(e) => break Err(e.clone()),
            }
        };
        tr.end();
        waited?;
    }
    tr.time("serve.client.report", || client.report(job))
}

/// What the traced client pass produced.
struct TracedPass {
    /// `(schedule index, report bytes)`, schedule order.
    bodies: Vec<(u64, String)>,
    /// Spans per client thread.
    spans: Vec<Vec<Span>>,
    /// Per-thread wall time, summed.
    busy_s: f64,
    /// The pass's wall time.
    pass_s: f64,
}

/// The traced client pass over requests `0..ops`: the same closed loop,
/// one tracer per client thread.
fn traced_clients(
    svc: &Service,
    plan: &Plan,
    clients: usize,
    ops: u64,
) -> Result<TracedPass, String> {
    let next = AtomicU64::new(0);
    let origin = Instant::now();
    let results = Mutex::new(Vec::new());
    let threads = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let client = svc.client();
                    let mut tr = Tracer::new(origin);
                    let t0 = Instant::now();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= ops {
                            break;
                        }
                        let op = plan.op(i);
                        tr.set_op(i);
                        tr.begin("op.request");
                        let r = traced_request(&mut tr, &client, plan.body(&op));
                        tr.end();
                        mine.push((i, r));
                    }
                    let wall = t0.elapsed().as_secs_f64();
                    results
                        .lock()
                        .expect("no client thread panicked")
                        .extend(mine);
                    (tr.into_spans(), wall)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client thread panicked"))
            .collect::<Vec<_>>()
    });
    let pass_s = origin.elapsed().as_secs_f64();
    let mut results = results.into_inner().expect("no client thread panicked");
    results.sort_by_key(|(i, _)| *i);
    let bodies = results
        .into_iter()
        .map(|(i, r)| {
            r.map(|b| (i, b))
                .map_err(|e| format!("traced request {i}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let busy_s = threads.iter().map(|(_, w)| w).sum();
    let spans = threads.into_iter().map(|(s, _)| s).collect();
    Ok(TracedPass {
        bodies,
        spans,
        busy_s,
        pass_s,
    })
}

/// The server's path for one request, replayed in-process through the
/// public `tet-serve` functions with a span each: HTTP parse, spec parse,
/// cache key, hot lookup, and on a miss the disk lookup, the campaign,
/// report serialisation and the disk write.
fn mirror_request(
    tr: &mut Tracer,
    hot: &HotCache,
    disk: &ResultCache,
    spec: &str,
) -> Result<(String, bool), String> {
    let raw = format!(
        "POST /v1/reports HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{spec}",
        spec.len()
    );
    let req = tr.time("serve.http.parse", || {
        Request::read_from(&mut Cursor::new(raw.as_bytes()))
    })?;
    let ReadOutcome::Request(req) = req else {
        return Err("mirror request did not parse".to_string());
    };
    let parsed = tr.time("serve.spec.parse", || CampaignSpec::from_json(&req.body))?;
    let key = tr.time("serve.spec.key", || parsed.cache_key());
    if let Some(entry) = tr.time("serve.hot.get", || hot.get(&key)) {
        let body = String::from_utf8(entry.body().to_vec()).map_err(|e| e.to_string())?;
        return Ok((body, true));
    }
    let body = match tr.time("serve.disk.get", || disk.get(&key)) {
        Some(body) => body,
        None => {
            let rep = tr.time("serve.sched.campaign", || {
                scheduler::run_campaign(&parsed, 1, |_| {})
            })?;
            let body = tr.time("serve.report.json", || rep.to_json());
            tr.time("serve.disk.put", || disk.put(&key, &body))?;
            body
        }
    };
    hot.insert(&key, HotEntry::json(&body));
    Ok((body, false))
}

fn class_ms(done: &[Done], write: bool) -> Vec<f64> {
    done.iter()
        .filter(|d| d.write == write)
        .map(|d| d.ms)
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = Plan::new(cfg.seed);
    let clients = CLIENTS.min(cfg.threads);
    let dir = |tag: &str| {
        cfg.out_dir
            .join(format!("serve-cache-{}-{tag}", std::process::id()))
    };

    // Set-up: start a server and prefill the warm set, several times;
    // the last server is the one measured.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut measured = None;
    for r in 0..reps {
        let t = Instant::now();
        let svc = Service::start(dir(&format!("setup{r}")))?;
        let refs = prefill(&svc, &plan)?;
        setup.push(t.elapsed().as_secs_f64());
        if let Some((_, first)) = &measured {
            out.check(&refs == first, || {
                "serve: warm-set reports differ between servers".to_string()
            });
        }
        measured = Some((svc, refs));
    }
    let (svc, refs) = measured.expect("at least one set-up repetition");

    let min_ops = if cfg.trace { TRACE_OPS } else { 1 };
    let (mut done, wall_s) = closed_loop(&svc, &plan, &refs, clients, cfg.seconds, min_ops);
    verify_writes(&svc, &plan, &mut done);
    for d in &done {
        out.tally.record(d.ok);
    }
    let all_ms: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let cached_us: Vec<f64> = class_ms(&done, false).iter().map(|ms| ms * 1e3).collect();
    let cold_ms = class_ms(&done, true);
    let work = done.len() as f64 / wall_s;
    out.set("work_per_s", work);
    metrics::set_latency(&mut out, &all_ms);
    metrics::set_memory(&mut out);
    out.set("setup_s", median(&setup));
    out.set("failed_ratio", out.tally.failed_ratio());
    let cold_tail = tail(&cold_ms);
    out.set("serve.cached_p50_us", median(&cached_us));
    out.set("serve.cached_tail_us", tail(&cached_us).value);
    out.set("serve.cold_p50_ms", median(&cold_ms));
    out.set("serve.cold_tail_ms", cold_tail.value);
    out.note("serve.req_per_s", work);
    out.note("serve.cold_tail_pct", cold_tail.pct);
    out.note("serve.cold_samples", cold_ms.len() as f64);
    out.note("clients", clients as f64);
    drop(svc);
    if !cfg.trace {
        return Ok(out);
    }

    // Traced client pass on a fresh server, same schedule prefix.
    let k = TRACE_OPS as usize;
    let svc = Service::start(dir("traced"))?;
    let refs_b = prefill(&svc, &plan)?;
    out.check(refs_b == refs, || {
        "serve: warm-set reports differ between servers".to_string()
    });
    let (h0, m0) = svc.cache_counts()?;
    let TracedPass {
        bodies,
        spans: client_spans,
        busy_s,
        pass_s,
    } = traced_clients(&svc, &plan, clients, TRACE_OPS)?;
    let (h1, m1) = svc.cache_counts()?;
    drop(svc);
    out.set("serve.cache.hits", (h1 - h0) as f64);
    out.set("serve.cache.misses", (m1 - m0) as f64);
    for ((i, body), d) in bodies.iter().zip(&done) {
        out.check(d.i == *i && d.digest == fnv1a(body.as_bytes()), || {
            format!("serve request {i}: traced report differs from the untraced run")
        });
    }

    // In-process mirror of the server path on the same request stream,
    // against its own hot and disk caches prefilled with the warm set.
    let mirror_dir = dir("mirror");
    let _ = std::fs::remove_dir_all(&mirror_dir);
    let disk = ResultCache::open(&mirror_dir)?;
    let hot = HotCache::new(HOT_BYTES);
    let mut setup_tr = Tracer::new(Instant::now());
    for (j, spec) in plan.warm.iter().enumerate() {
        let (body, _) = mirror_request(&mut setup_tr, &hot, &disk, spec)?;
        out.check(body == refs[j], || {
            format!("serve warm spec {j}: in-process report differs from the served one")
        });
    }
    let mut tr = Tracer::new(Instant::now());
    let mut hot_hits = 0u64;
    let mut d = Digest::new();
    for (i, served) in bodies.iter().take(k) {
        tr.set_op(*i);
        tr.begin("op.mirror");
        let r = mirror_request(&mut tr, &hot, &disk, plan.body(&plan.op(*i)));
        tr.end();
        let (body, hit) = r?;
        hot_hits += hit as u64;
        out.check(&body == served, || {
            format!("serve request {i}: in-process report differs from the served one")
        });
        d.bytes(body.as_bytes());
    }
    let _ = std::fs::remove_dir_all(&mirror_dir);
    let mirror_spans = tr.into_spans();

    let client_layers = trace::layers(&client_spans);
    let mirror_layers = trace::layers(std::slice::from_ref(&mirror_spans));
    // Untraced time to finish the same first requests.
    let untraced_k_s = done.iter().take(k).map(|d| d.end_s).fold(0.0, f64::max);
    out.set("trace.overhead_ratio", pass_s / untraced_k_s - 1.0);
    out.set(
        "unattributed_ratio",
        trace::unattributed_ratio(&client_layers, (busy_s * 1e9) as u64),
    );
    out.set("output.digest32", (d.finish() & 0xffff_ffff) as f64);
    for (span, metric, ns_per_unit) in [
        ("serve.client.probe", "serve.client.probe_us", 1e3),
        ("serve.client.submit", "serve.client.submit_us", 1e3),
        ("serve.client.wait", "serve.client.wait_ms", 1e6),
        ("serve.client.report", "serve.client.report_us", 1e3),
    ] {
        set_mean(&mut out, &client_layers, span, metric, ns_per_unit);
    }
    let polls = client_layers
        .get("serve.client.status")
        .map_or(0, |l| l.calls);
    let colds = client_layers
        .get("serve.client.submit")
        .map_or(0, |l| l.calls);
    out.set("serve.client.polls", ratio(polls as f64, colds as f64));
    for (span, metric, ns_per_unit) in [
        ("serve.http.parse", "serve.http.parse_us", 1e3),
        ("serve.spec.parse", "serve.spec.parse_us", 1e3),
        ("serve.spec.key", "serve.spec.key_us", 1e3),
        ("serve.hot.get", "serve.hot.get_ns", 1.0),
        ("serve.disk.get", "serve.disk.get_us", 1e3),
        ("serve.disk.put", "serve.disk.put_us", 1e3),
        ("serve.sched.campaign", "serve.sched.campaign_ms", 1e6),
        ("serve.report.json", "serve.report.json_us", 1e3),
    ] {
        set_mean(&mut out, &mirror_layers, span, metric, ns_per_unit);
    }
    out.set("serve.hot.hit_ratio", ratio(hot_hits as f64, k as f64));
    let mut all_spans = client_spans;
    all_spans.push(mirror_spans);
    crate::write_trace(cfg, "serve-mixed", &all_spans);
    Ok(out)
}
