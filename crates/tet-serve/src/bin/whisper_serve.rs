//! `whisper-serve`: the long-running campaign server.
//!
//! ```text
//! whisper-serve [--addr HOST:PORT] [--workers N] [--threads N]
//!               [--cache DIR] [--cache-bytes N] [--idle-timeout-ms N]
//!               [--self-test]
//! ```
//!
//! * `--addr` — bind address (default `127.0.0.1:8044`; port `0` picks
//!   an ephemeral port and prints it).
//! * `--workers` — concurrent campaign jobs (default 2).
//! * `--threads` — simulator threads per campaign (default
//!   `TET_THREADS` or all cores).
//! * `--cache` — result-cache directory (default `TET_SERVE_CACHE` or
//!   `target/serve-cache`).
//! * `--cache-bytes` — disk-cache byte budget, 0 = unlimited (default
//!   `TET_SERVE_CACHE_BYTES` or 0).
//! * `--idle-timeout-ms` — keep-alive idle timeout (default 5000).
//! * `--self-test` — bind an ephemeral port, submit one small campaign
//!   through keep-alive and connection-per-request clients, assert the
//!   warm legs are cache hits with byte-identical reports, print
//!   `self-test ok`, exit 0. The CI serve-smoke job runs this before
//!   driving the server externally.
//!
//! Progress goes to stderr (`TET_QUIET=1` silences it); the bound
//! address line goes to stdout so scripts can scrape it.

use std::path::PathBuf;

use tet_serve::{Client, ServerConfig};

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 < args.len() {
            let v = args.remove(i + 1);
            args.remove(i);
            return Some(v);
        }
        args.remove(i);
    }
    None
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let self_test = args.iter().any(|a| a == "--self-test");
    args.retain(|a| a != "--self-test");
    let addr = take_flag_value(&mut args, "--addr");
    let workers = take_flag_value(&mut args, "--workers").and_then(|v| v.parse().ok());
    let threads = take_flag_value(&mut args, "--threads").and_then(|v| v.parse().ok());
    let cache = take_flag_value(&mut args, "--cache").map(PathBuf::from);
    let cache_bytes = take_flag_value(&mut args, "--cache-bytes").map(|v| {
        v.parse::<u64>().unwrap_or_else(|e| {
            eprintln!("whisper-serve: --cache-bytes {v:?}: {e}");
            std::process::exit(2);
        })
    });
    let idle_timeout_ms = take_flag_value(&mut args, "--idle-timeout-ms").map(|v| {
        v.parse::<u64>().unwrap_or_else(|e| {
            eprintln!("whisper-serve: --idle-timeout-ms {v:?}: {e}");
            std::process::exit(2);
        })
    });
    if let Some(stray) = args.first() {
        eprintln!("whisper-serve: unknown argument {stray:?}");
        eprintln!(
            "usage: whisper-serve [--addr HOST:PORT] [--workers N] [--threads N] \
             [--cache DIR] [--cache-bytes N] [--idle-timeout-ms N] [--self-test]"
        );
        std::process::exit(2);
    }

    let defaults = ServerConfig::default();
    let mut cfg = ServerConfig {
        addr: addr.unwrap_or_else(|| {
            if self_test {
                "127.0.0.1:0".to_string()
            } else {
                "127.0.0.1:8044".to_string()
            }
        }),
        workers: workers.unwrap_or(defaults.workers),
        threads: threads.unwrap_or(defaults.threads),
        cache_dir: cache.unwrap_or(defaults.cache_dir),
        cache_bytes: cache_bytes.unwrap_or(defaults.cache_bytes),
        hot_bytes: defaults.hot_bytes,
        idle_timeout_ms: idle_timeout_ms.unwrap_or(defaults.idle_timeout_ms),
    };
    if self_test {
        // An isolated cache, so a pre-populated entry cannot fake the
        // cold leg.
        cfg.cache_dir =
            std::env::temp_dir().join(format!("whisper-serve-selftest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.cache_dir);
    }

    let handle = match tet_serve::start(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("whisper-serve: {e}");
            std::process::exit(1);
        }
    };
    println!("whisper-serve listening on {}", handle.addr());

    if self_test {
        let ok = run_self_test(&handle.addr().to_string());
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&cfg.cache_dir);
        if ok {
            println!("self-test ok");
        } else {
            std::process::exit(1);
        }
        return;
    }

    // Serve until `POST /v1/shutdown`.
    handle.wait();
}

/// Cold submit, cached resubmits over keep-alive *and*
/// connection-per-request clients, byte-identity, counter and hot-tier
/// checks.
fn run_self_test(addr: &str) -> bool {
    let spec = "{\"kind\": \"table2_cell\", \"preset\": \"intel-core-i7-7700\", \
                \"attack\": \"cc\", \"seed\": 11, \"trials\": 2}";
    let keep_alive = Client::new(addr);
    let one_shot = Client::new(addr).with_keep_alive(false);
    let checks: Result<(), String> = (|| {
        let health = keep_alive.health()?;
        if health.get("ok").and_then(|v| v.as_bool()) != Some(true) {
            return Err("health check failed".to_string());
        }
        let (cold, was_cached) = keep_alive.run_to_report(spec)?;
        if was_cached {
            return Err("first submit must be a cold miss".to_string());
        }
        let (warm, was_cached) = keep_alive.run_to_report(spec)?;
        if !was_cached {
            return Err("second submit must be a cache hit".to_string());
        }
        if cold != warm {
            return Err("cached report must be byte-identical to the cold run".to_string());
        }
        // The same campaign through a Connection: close client: still a
        // hit, still the same bytes — the hot-cache fast path and the
        // plain path must be indistinguishable on the wire.
        let (one_shot_warm, was_cached) = one_shot.run_to_report(spec)?;
        if !was_cached {
            return Err("connection-per-request submit must be a cache hit".to_string());
        }
        if cold != one_shot_warm {
            return Err("keep-alive and per-request responses must be byte-identical".to_string());
        }
        let stats = keep_alive.cache_stats()?;
        let hits = stats.get("hits").and_then(|v| v.as_u64()).unwrap_or(0);
        let misses = stats.get("misses").and_then(|v| v.as_u64()).unwrap_or(0);
        if hits != 2 || misses != 1 {
            return Err(format!("expected 2 hits / 1 miss, got {hits}/{misses}"));
        }
        let hot_hits = stats.get("hot_hits").and_then(|v| v.as_u64()).unwrap_or(0);
        if hot_hits == 0 {
            return Err("warm submits must touch the hot cache".to_string());
        }
        // The metrics endpoint renders well-formed Prometheus text with
        // both latency paths populated.
        let prom = keep_alive.metrics()?;
        let samples =
            tet_metrics::parse_prometheus(&prom).map_err(|e| format!("/v1/metrics: {e}"))?;
        for name in ["serve_cached_request_us", "serve_cold_request_us"] {
            if !samples.iter().any(|s| s.name == format!("{name}_count")) {
                return Err(format!("/v1/metrics missing {name}"));
            }
        }
        Ok(())
    })();
    match checks {
        Ok(()) => true,
        Err(e) => {
            eprintln!("whisper-serve self-test FAILED: {e}");
            false
        }
    }
}
