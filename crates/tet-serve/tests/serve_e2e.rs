//! End-to-end: a real server on an ephemeral port, driven over real
//! sockets by the blocking client — cold run, cache hit byte-identity,
//! single-flight dedup, status/report/error surfaces, keep-alive
//! reuse/pipelining edge cases, disk-cache eviction and corruption.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use tet_obs::RunReport;
use tet_serve::{Client, ServerConfig};

/// Starts a server with an isolated cache dir; returns (handle, client,
/// cache dir for cleanup).
fn start_server(tag: &str) -> (tet_serve::ServerHandle, Client, PathBuf) {
    start_server_with(tag, |_| {})
}

/// Same, with a config hook (budget/idle-timeout overrides).
fn start_server_with(
    tag: &str,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (tet_serve::ServerHandle, Client, PathBuf) {
    let cache_dir =
        std::env::temp_dir().join(format!("tet_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        threads: 2,
        cache_dir: cache_dir.clone(),
        // Explicit, so ambient TET_SERVE_CACHE_BYTES cannot skew tests.
        cache_bytes: 0,
        hot_bytes: 1 << 20,
        idle_timeout_ms: 5_000,
    };
    tweak(&mut cfg);
    let handle = tet_serve::start(cfg).expect("server must start");
    let client = Client::new(&handle.addr().to_string());
    (handle, client, cache_dir)
}

const SPEC: &str = "{\"kind\": \"table2_cell\", \"preset\": \"intel-core-i7-7700\", \
                    \"attack\": \"cc\", \"seed\": 5, \"trials\": 2}";
const MATRIX_SPEC: &str = "{\"kind\":\"table2_matrix\",\"seed\":42}";

/// Reads one HTTP response off a raw socket reader. Returns
/// `None` on immediate EOF (connection closed), otherwise
/// `(status, body, connection_close)`.
fn read_raw_response(reader: &mut BufReader<TcpStream>) -> Option<(u16, String, bool)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).ok()? == 0 {
        return None;
    }
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut closes = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().ok()?;
        }
        if line.eq_ignore_ascii_case("connection: close") {
            closes = true;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, String::from_utf8(body).ok()?, closes))
}

#[test]
fn cold_then_cached_round_trip() {
    let (handle, client, dir) = start_server("round_trip");

    let health = client.health().unwrap();
    assert_eq!(health.get("ok").and_then(|v| v.as_bool()), Some(true));

    // Cold: miss, runs through the scheduler.
    let (cold, was_cached) = client.run_to_report(SPEC).unwrap();
    assert!(!was_cached, "first submit must miss");
    let report = RunReport::from_json(&cold).expect("report must parse");
    assert_eq!(report.counters["trials"], 2);
    assert!(
        report.wall_time_ms.is_none(),
        "served reports must carry no host timing"
    );

    // Warm: hit, byte-identical body (the hot-cache zero-copy path).
    let (warm, was_cached) = client.run_to_report(SPEC).unwrap();
    assert!(was_cached, "second submit must hit");
    assert_eq!(cold, warm, "cached report must be byte-identical");

    // Same campaign spelled differently (field order + spelled-out
    // defaults): still a hit.
    let reordered = "{\"trials\": 2, \"attack\": \"cc\", \"seed\": 5, \"kpti\": false, \
                     \"preset\": \"Intel Core i7-7700\", \"kind\": \"table2_cell\"}";
    let (again, was_cached) = client.run_to_report(reordered).unwrap();
    assert!(was_cached, "reordered spelling must hit the same key");
    assert_eq!(cold, again);

    // A connection-per-request client sees the same bytes as the
    // keep-alive client — the wire format does not depend on the path.
    let one_shot = Client::new(&handle.addr().to_string()).with_keep_alive(false);
    let (plain, was_cached) = one_shot.run_to_report(SPEC).unwrap();
    assert!(was_cached);
    assert_eq!(cold, plain, "keep-alive and close responses must match");

    let stats = client.cache_stats().unwrap();
    assert_eq!(stats.get("misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(stats.get("hits").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(stats.get("entries").and_then(|v| v.as_u64()), Some(1));
    assert!(
        stats.get("hot_hits").and_then(|v| v.as_u64()).unwrap_or(0) >= 2,
        "warm traffic must be served from the hot tier: {stats:?}"
    );

    // The same comparison for the full matrix, computed over keep-alive
    // and re-read connection-per-request (`table2_matrix --server`).
    let (matrix, was_cached) = client.run_to_report(MATRIX_SPEC).unwrap();
    assert!(!was_cached);
    let (plain, was_cached) = one_shot.run_to_report(MATRIX_SPEC).unwrap();
    assert!(was_cached);
    assert_eq!(
        matrix, plain,
        "keep-alive and close matrix reports must match"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_survives_server_restart() {
    let (handle, client, dir) = start_server("restart");
    let (cold, _) = client.run_to_report(SPEC).unwrap();
    handle.shutdown();

    // A new server over the same cache dir serves the old result —
    // through a cold hot-cache, so this also covers the disk→hot
    // promotion path.
    let handle = tet_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        threads: 1,
        cache_dir: dir.clone(),
        cache_bytes: 0,
        hot_bytes: 1 << 20,
        idle_timeout_ms: 5_000,
    })
    .unwrap();
    let client = Client::new(&handle.addr().to_string());
    let (warm, was_cached) = client.run_to_report(SPEC).unwrap();
    assert!(was_cached, "restarted server must hit the disk cache");
    assert_eq!(cold, warm);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_disk_entry_is_recomputed_not_served() {
    let (handle, client, dir) = start_server("corrupt");
    let (cold, _) = client.run_to_report(SPEC).unwrap();
    handle.shutdown();

    // Flip one byte of the one stored body while no server runs.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("the cold run stored its report");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).unwrap();

    let handle = tet_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        threads: 1,
        cache_dir: dir.clone(),
        cache_bytes: 0,
        hot_bytes: 1 << 20,
        idle_timeout_ms: 5_000,
    })
    .unwrap();
    let client = Client::new(&handle.addr().to_string());
    let (again, was_cached) = client.run_to_report(SPEC).unwrap();
    assert!(
        !was_cached,
        "a corrupt entry must be recomputed, not served"
    );
    assert_eq!(cold, again, "the recomputed report is byte-identical");
    let stats = client.cache_stats().unwrap();
    assert_eq!(stats.get("corrupt").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(stats.get("misses").and_then(|v| v.as_u64()), Some(1));
    let text = client.metrics().unwrap();
    let samples = tet_metrics::parse_prometheus(&text).expect("well-formed exposition");
    assert!(
        samples
            .iter()
            .any(|s| s.name == "serve_cache_corrupt" && s.value == 1.0),
        "{text}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_round_trip_report_endpoint() {
    let (handle, client, dir) = start_server("reports_fast_path");

    // A probe miss is a 404 that creates no job and counts no miss —
    // the submit that follows records the one logical miss.
    let probe = client.request("POST", "/v1/reports", SPEC).unwrap();
    assert_eq!(probe.status, 404, "{}", probe.body);
    let stats = client.cache_stats().unwrap();
    assert_eq!(stats.get("misses").and_then(|v| v.as_u64()), Some(0));
    let resp = client.request("GET", "/v1/jobs/1", "").unwrap();
    assert_eq!(resp.status, 404, "a probe must not create a job");

    // Invalid specs are rejected like submits, wrong methods refused.
    let resp = client
        .request("POST", "/v1/reports", "{\"sead\": 3}")
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let resp = client.request("GET", "/v1/reports", "").unwrap();
    assert_eq!(resp.status, 405, "{}", resp.body);

    // Compute through the submit flow; the fast path then serves the
    // identical bytes in a single round trip and counts the hit.
    let (cold, was_cached) = client.run_to_report(SPEC).unwrap();
    assert!(!was_cached);
    let fast = client.request("POST", "/v1/reports", SPEC).unwrap();
    assert_eq!(fast.status, 200);
    assert_eq!(fast.body, cold, "fast-path report must be byte-identical");
    let stats = client.cache_stats().unwrap();
    assert_eq!(stats.get("misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(stats.get("hits").and_then(|v| v.as_u64()), Some(1));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_get_400_not_a_wedged_job() {
    let (handle, client, dir) = start_server("bad_req");
    for bad in ["not json", "{\"attack\": \"rowhammer\"}", "{\"sead\": 3}"] {
        let resp = client.request("POST", "/v1/jobs", bad).unwrap();
        assert_eq!(resp.status, 400, "{bad}: {}", resp.body);
        assert!(resp.body.contains("error"), "{}", resp.body);
    }
    let resp = client.request("GET", "/v1/jobs/999", "").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.request("GET", "/v1/nope", "").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.request("PUT", "/v1/jobs", "").unwrap();
    assert_eq!(resp.status, 405);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_and_events_follow_a_job() {
    let (handle, client, dir) = start_server("status");
    let sub = client.submit(SPEC).unwrap();
    let job = sub.get("job").and_then(|v| v.as_u64()).unwrap();
    let st = client.wait(job).unwrap();
    assert_eq!(st.get("state").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(st.get("done").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(st.get("total").and_then(|v| v.as_u64()), Some(2));

    // The events stream of a finished job: one final status line.
    let resp = client
        .request("GET", &format!("/v1/jobs/{job}/events"), "")
        .unwrap();
    assert_eq!(resp.status, 200);
    let last = resp.body.lines().last().unwrap();
    assert!(last.contains("\"state\":\"done\""), "{last}");
    // The stream ended the connection; the next request transparently
    // reconnects.
    assert!(client.health().is_ok());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn matrix_campaign_runs_as_a_service() {
    let (handle, client, dir) = start_server("matrix");
    let (body, was_cached) = client.run_to_report(MATRIX_SPEC).unwrap();
    assert!(!was_cached);
    let report = RunReport::from_json(&body).unwrap();
    assert_eq!(report.counters["rows"], 5);
    assert_eq!(
        report.counters["all_match"], 1,
        "the served matrix must reproduce Table 2"
    );
    assert!(report.meta.contains_key("row.intel-core-i7-7700"));
    // Served again: identical bytes.
    let (again, was_cached) = client.run_to_report(MATRIX_SPEC).unwrap();
    assert!(was_cached);
    assert_eq!(body, again);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_are_answered_in_order_on_one_connection() {
    let (handle, _, dir) = start_server("pipeline");
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Three back-to-back requests in one write, no reads in between.
    conn.write_all(
        b"GET /v1/health HTTP/1.1\r\n\r\n\
          GET /v1/cache/stats HTTP/1.1\r\n\r\n\
          GET /v1/health HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let (s1, b1, c1) = read_raw_response(&mut reader).expect("first response");
    let (s2, b2, c2) = read_raw_response(&mut reader).expect("second response");
    let (s3, b3, _) = read_raw_response(&mut reader).expect("third response");
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert!(b1.contains("\"ok\""), "{b1}");
    assert!(b2.contains("\"hot_hits\""), "{b2}");
    assert!(b3.contains("\"ok\""), "{b3}");
    assert!(!c1 && !c2, "keep-alive responses must not claim close");
    // The connection is still usable afterwards.
    conn.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
    assert!(read_raw_response(&mut reader).is_some());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_close_mid_pipeline_stops_after_that_response() {
    let (handle, _, dir) = start_server("close_mid");
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The second request asks to close; a pipelined third must never be
    // answered (and must not corrupt anything).
    conn.write_all(
        b"GET /v1/health HTTP/1.1\r\n\r\n\
          GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n\
          GET /v1/cache/stats HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let (s1, _, c1) = read_raw_response(&mut reader).expect("first response");
    let (s2, _, c2) = read_raw_response(&mut reader).expect("second response");
    assert_eq!((s1, s2), (200, 200));
    assert!(!c1, "first response keeps the connection");
    assert!(
        c2,
        "the close request's response must say connection: close"
    );
    assert!(
        read_raw_response(&mut reader).is_none(),
        "no response after Connection: close — the server closed"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_timeout_closes_between_requests_not_mid_exchange() {
    let (handle, _, dir) = start_server_with("idle", |cfg| {
        cfg.idle_timeout_ms = 150;
    });
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let (s1, _, _) = read_raw_response(&mut reader).expect("prompt request is served");
    assert_eq!(s1, 200);
    // Sit idle past the timeout: the server closes cleanly (EOF), it
    // does not write a spurious response.
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        read_raw_response(&mut reader).is_none(),
        "idle connection must be closed by the server"
    );
    // The blocking client rides this out transparently: its first
    // request builds a connection, the wait exceeds the idle timeout,
    // and the retry path reconnects.
    let client = Client::new(&handle.addr().to_string());
    assert!(client.health().is_ok());
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        client.health().is_ok(),
        "client must survive an idle-timeout close via its retry"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_request_on_a_reused_connection_gets_400_then_close() {
    let (handle, _, dir) = start_server("truncated");
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A healthy exchange first, so the truncation happens on a *reused*
    // connection.
    conn.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    assert_eq!(read_raw_response(&mut reader).unwrap().0, 200);
    // A request promising 64 body bytes but delivering 9, then EOF on
    // the write half.
    conn.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"kind\": ")
        .unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let (status, body, closes) =
        read_raw_response(&mut reader).expect("a 400, not silence or garbage");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("error"), "{body}");
    assert!(closes, "a truncated request must end the connection");
    assert!(
        read_raw_response(&mut reader).is_none(),
        "nothing may follow the 400"
    );
    // The half request must not have become a job.
    let client = Client::new(&handle.addr().to_string());
    let stats = client.cache_stats().unwrap();
    assert_eq!(stats.get("misses").and_then(|v| v.as_u64()), Some(0));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_budget_evicts_and_stats_stay_consistent() {
    // Three distinct small campaigns against a budget sized for roughly
    // one report, so eviction must fire.
    let (handle, client, dir) = start_server_with("evict", |cfg| {
        cfg.cache_bytes = 2_000;
        // Hot tier off-pattern too, so re-submits truly consult disk.
        cfg.hot_bytes = 1;
    });
    let spec_n = |seed: u32| {
        format!(
            "{{\"kind\": \"table2_cell\", \"preset\": \"intel-core-i7-7700\", \
              \"attack\": \"cc\", \"seed\": {seed}, \"trials\": 2}}"
        )
    };
    for seed in [1, 2, 3] {
        let (_, was_cached) = client.run_to_report(&spec_n(seed)).unwrap();
        assert!(!was_cached, "distinct seeds must be distinct cache keys");
    }
    let stats = client.cache_stats().unwrap();
    let get = |k: &str| stats.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    assert!(
        get("evictions") > 0,
        "budget must force evictions: {stats:?}"
    );
    assert!(
        get("bytes") <= 2_000 || get("entries") == 1,
        "stored bytes must respect the budget (one oversized entry may stay): {stats:?}"
    );
    assert!(get("entries") >= 1);
    assert_eq!(get("max_bytes"), 2_000);
    assert!(get("evicted_bytes") > 0);
    // A displaced campaign is served again — from a re-run or the
    // still-warm hot tier — and stays byte-stable either way.
    let (rerun_a, _) = client.run_to_report(&spec_n(1)).unwrap();
    let (rerun_b, was_cached) = client.run_to_report(&spec_n(1)).unwrap();
    assert!(was_cached, "the re-run must be cached again");
    assert_eq!(rerun_a, rerun_b);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_endpoint_serves_valid_prometheus() {
    let (handle, client, dir) = start_server("prom");
    let (_, _) = client.run_to_report(SPEC).unwrap();
    let (_, was_cached) = client.run_to_report(SPEC).unwrap();
    assert!(was_cached);
    let text = client.metrics().unwrap();
    let samples = tet_metrics::parse_prometheus(&text).expect("well-formed exposition");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
            .value
    };
    assert!(find("serve_requests") >= 4.0);
    assert!(find("serve_cached_request_us_count") >= 1.0);
    assert!(find("serve_cold_request_us_count") >= 1.0);
    assert_eq!(find("serve_cache_misses"), 1.0);
    assert!(
        samples
            .iter()
            .any(|s| s.name == "serve_cached_request_us" && s.labels.contains("0.999")),
        "summaries must carry the p999 quantile:\n{text}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
