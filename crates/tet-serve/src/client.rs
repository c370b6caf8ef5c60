//! A small blocking client for the campaign server — what the load
//! generator and the `table2_matrix --server` thin-client mode use.
//!
//! By default the client keeps one connection alive and reuses it for
//! every request (HTTP/1.1 keep-alive), parsing responses by their
//! `Content-Length` instead of reading to EOF. A request on a reused
//! connection that fails before a full response arrives is retried once
//! on a fresh connection — safe here because every endpoint is
//! idempotent (submits are content-addressed and single-flight deduped
//! server-side). [`Client::with_keep_alive`]`(false)` opens one
//! connection per request instead, for A/B measurements. All methods
//! return one-line `String` errors naming the endpoint, so callers can
//! print them and move on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use tet_obs::json::{self, Value};

use crate::sync;

/// A server endpoint, e.g. `http://127.0.0.1:8044` or `127.0.0.1:8044`.
#[derive(Debug)]
pub struct Client {
    host_port: String,
    keep_alive: bool,
    /// The cached keep-alive connection (buffered on the read side),
    /// absent until the first request or after a close.
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

impl Clone for Client {
    /// A clone targets the same server but starts with its own (empty)
    /// connection slot — connections are never shared across clones.
    fn clone(&self) -> Client {
        Client {
            host_port: self.host_port.clone(),
            keep_alive: self.keep_alive,
            conn: Mutex::new(None),
        }
    }
}

/// One response: status code and body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (entire, for non-streaming endpoints).
    pub body: String,
}

impl Response {
    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Value, String> {
        json::parse(&self.body).map_err(|e| format!("parse response JSON: {e}"))
    }
}

/// Whether the connection can serve another request after a response.
struct Parsed {
    response: Response,
    reusable: bool,
}

impl Client {
    /// Builds a client for `base` (with or without an `http://` prefix,
    /// trailing slashes ignored). Keep-alive defaults on.
    pub fn new(base: &str) -> Client {
        let host_port = base
            .trim()
            .trim_start_matches("http://")
            .trim_end_matches('/')
            .to_string();
        Client {
            host_port,
            keep_alive: true,
            conn: Mutex::new(None),
        }
    }

    /// Overrides the keep-alive default (and drops any cached
    /// connection when turning it off).
    pub fn with_keep_alive(mut self, keep_alive: bool) -> Client {
        self.keep_alive = keep_alive;
        if !keep_alive {
            *sync::lock(&self.conn) = None;
        }
        self
    }

    /// Whether this client reuses its connection.
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, String> {
        let stream = TcpStream::connect(&self.host_port)
            .map_err(|e| format!("connect {}: {e}", self.host_port))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(600)))
            .map_err(|e| format!("set timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    fn send(
        conn: &mut BufReader<TcpStream>,
        method: &str,
        path: &str,
        body: &str,
        host: &str,
        close: bool,
    ) -> std::io::Result<()> {
        // One buffer, one write syscall, one packet: on a NODELAY
        // socket a separate head write would go out as its own segment
        // and cost the server an extra read wakeup per request.
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            body.len(),
            if close { "close" } else { "keep-alive" },
        );
        msg.push_str(body);
        let stream = conn.get_mut();
        stream.write_all(msg.as_bytes())?;
        stream.flush()
    }

    /// Reads one response off the connection: status line + headers,
    /// then a `Content-Length` body — or to EOF for streaming
    /// responses (which are never reusable).
    fn read_response(
        conn: &mut BufReader<TcpStream>,
        method: &str,
        path: &str,
    ) -> Result<Parsed, String> {
        let err = |what: &str| format!("{method} {path}: {what}");
        let mut status_line = String::new();
        conn.read_line(&mut status_line)
            .map_err(|e| err(&format!("read status: {e}")))?;
        if status_line.is_empty() {
            return Err(err("connection closed before a response"));
        }
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| err(&format!("bad status line {status_line:?}")))?;
        let mut content_length: Option<usize> = None;
        let mut server_closes = false;
        loop {
            let mut line = String::new();
            let n = conn
                .read_line(&mut line)
                .map_err(|e| err(&format!("read headers: {e}")))?;
            if n == 0 {
                return Err(err("connection closed mid-headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = Some(
                        value
                            .parse()
                            .map_err(|e| err(&format!("bad content-length: {e}")))?,
                    );
                } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                    server_closes = true;
                }
            }
        }
        let body = match content_length {
            Some(len) => {
                let mut buf = vec![0u8; len];
                conn.read_exact(&mut buf)
                    .map_err(|e| err(&format!("read body: {e}")))?;
                String::from_utf8(buf).map_err(|_| err("body is not UTF-8"))?
            }
            None => {
                // EOF-delimited (the events stream): drain it; the
                // server closes the connection afterwards.
                server_closes = true;
                let mut buf = String::new();
                conn.read_to_string(&mut buf)
                    .map_err(|e| err(&format!("read streaming body: {e}")))?;
                buf
            }
        };
        Ok(Parsed {
            response: Response { status, body },
            reusable: !server_closes,
        })
    }

    /// One round trip. `body` is sent with a `Content-Length`.
    ///
    /// With keep-alive the cached connection is reused; if a *reused*
    /// connection fails before a complete response (the server's idle
    /// timeout may have closed it between our requests), the request is
    /// retried once on a fresh connection. A failure on a fresh
    /// connection is reported, not retried.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        if !self.keep_alive {
            let mut conn = self.connect()?;
            Self::send(&mut conn, method, path, body, &self.host_port, true)
                .map_err(|e| format!("send {method} {path}: {e}"))?;
            return Self::read_response(&mut conn, method, path).map(|p| p.response);
        }

        let mut slot = sync::lock(&self.conn);
        let (conn, reused) = match slot.take() {
            Some(conn) => (conn, true),
            None => (self.connect()?, false),
        };
        let mut conn = conn;
        let attempt = Self::send(&mut conn, method, path, body, &self.host_port, false)
            .map_err(|e| format!("send {method} {path}: {e}"))
            .and_then(|()| Self::read_response(&mut conn, method, path));
        let parsed = match attempt {
            Ok(parsed) => parsed,
            Err(first) if reused => {
                // The reused connection went stale under us; one fresh
                // retry. Safe: every endpoint is idempotent.
                drop(conn);
                let mut conn = self.connect()?;
                Self::send(&mut conn, method, path, body, &self.host_port, false)
                    .map_err(|e| format!("send {method} {path} (retry after {first}): {e}"))?;
                let parsed = Self::read_response(&mut conn, method, path)?;
                if parsed.reusable {
                    *slot = Some(conn);
                }
                return Ok(parsed.response);
            }
            Err(e) => return Err(e),
        };
        if parsed.reusable {
            *slot = Some(conn);
        }
        Ok(parsed.response)
    }

    /// `GET /v1/health`.
    pub fn health(&self) -> Result<Value, String> {
        self.expect_json("GET", "/v1/health", "")
    }

    /// `POST /v1/jobs` with a raw spec body. Returns the submit
    /// response (`job`, `key`, `state`, `cached`, `deduped`).
    pub fn submit(&self, spec_json: &str) -> Result<Value, String> {
        let resp = self.request("POST", "/v1/jobs", spec_json)?;
        if resp.status != 200 && resp.status != 202 {
            return Err(format!("submit rejected ({}): {}", resp.status, resp.body));
        }
        resp.json()
    }

    /// `GET /v1/jobs/<id>` once.
    pub fn status(&self, job: u64) -> Result<Value, String> {
        self.expect_json("GET", &format!("/v1/jobs/{job}"), "")
    }

    /// Polls until the job is `done` (returning its final status) or
    /// `failed` (returning an error).
    pub fn wait(&self, job: u64) -> Result<Value, String> {
        loop {
            let st = self.status(job)?;
            match st.get("state").and_then(|s| s.as_str()) {
                Some("done") => return Ok(st),
                Some("failed") => {
                    let msg = st
                        .get("error")
                        .and_then(|e| e.as_str())
                        .unwrap_or("job failed")
                        .to_string();
                    return Err(msg);
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// `GET /v1/jobs/<id>/report` — the raw report bytes (so callers
    /// can compare byte-identity across hits).
    pub fn report(&self, job: u64) -> Result<String, String> {
        let resp = self.request("GET", &format!("/v1/jobs/{job}/report"), "")?;
        if resp.status != 200 {
            return Err(format!("report ({}): {}", resp.status, resp.body));
        }
        Ok(resp.body)
    }

    /// Submit + wait + fetch, returning `(report_bytes, was_cached)`.
    ///
    /// Tries the one-round-trip `POST /v1/reports` fast path first: on
    /// a cache hit the response is the report itself, so a warm fetch
    /// costs a single round trip instead of submit-then-fetch. A 404
    /// miss falls back to the submit flow.
    pub fn run_to_report(&self, spec_json: &str) -> Result<(String, bool), String> {
        let probe = self.request("POST", "/v1/reports", spec_json)?;
        match probe.status {
            200 => return Ok((probe.body, true)),
            404 => {}
            s => return Err(format!("POST /v1/reports ({s}): {}", probe.body)),
        }
        let sub = self.submit(spec_json)?;
        let job = sub
            .get("job")
            .and_then(|j| j.as_u64())
            .ok_or("submit response missing job id")?;
        let cached = sub.get("cached").and_then(|c| c.as_bool()).unwrap_or(false);
        if sub.get("state").and_then(|s| s.as_str()) != Some("done") {
            self.wait(job)?;
        }
        Ok((self.report(job)?, cached))
    }

    /// `GET /v1/cache/stats`.
    pub fn cache_stats(&self) -> Result<Value, String> {
        self.expect_json("GET", "/v1/cache/stats", "")
    }

    /// `GET /v1/metrics` — raw Prometheus text.
    pub fn metrics(&self) -> Result<String, String> {
        let resp = self.request("GET", "/v1/metrics", "")?;
        if resp.status != 200 {
            return Err(format!("GET /v1/metrics ({}): {}", resp.status, resp.body));
        }
        Ok(resp.body)
    }

    /// `POST /v1/shutdown`.
    pub fn shutdown(&self) -> Result<(), String> {
        self.request("POST", "/v1/shutdown", "").map(|_| ())
    }

    fn expect_json(&self, method: &str, path: &str, body: &str) -> Result<Value, String> {
        let resp = self.request(method, path, body)?;
        if resp.status != 200 {
            return Err(format!("{method} {path} ({}): {}", resp.status, resp.body));
        }
        resp.json()
    }
}
