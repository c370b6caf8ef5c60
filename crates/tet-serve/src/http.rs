//! A deliberately minimal HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The build environment is offline and the workspace vendors its
//! dependencies, so the server speaks just enough HTTP for its own
//! clients, `curl`, and CI: persistent connections with
//! `Connection: keep-alive` semantics (the HTTP/1.1 default),
//! `Content-Length` bodies on requests and responses, and streaming
//! responses that end when the connection closes (the job-events
//! endpoint). Because requests are parsed from a per-connection
//! [`BufRead`], request **pipelining** works for free: a client may
//! write several requests back to back and the server answers them in
//! order from the same buffer. No chunked encoding, no TLS — it serves
//! deterministic simulator campaigns on localhost, not the open
//! internet.

use std::io::{BufRead, Read, Write};

/// Upper bound on a request body, so a stray client cannot balloon the
/// server's memory.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on the request line plus headers, for the same reason:
/// a header line that never ends must not grow a `String` forever.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request target, e.g. `/v1/jobs/3`.
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the request line spoke HTTP/1.0 (default close) rather
    /// than HTTP/1.1 (default keep-alive).
    pub http10: bool,
}

/// What reading from a persistent connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// One complete request.
    Request(Request),
    /// Clean close: EOF arrived *between* requests — the client is done
    /// with the connection. Not an error.
    Closed,
    /// The read timed out while waiting for the *start* of the next
    /// request — the keep-alive connection went idle. Not an error.
    IdleTimeout,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// `read_line` that reads at most `*left` bytes (plus one, to detect
/// overflow) and charges what it read against `*left`.
fn read_head_line(
    reader: &mut impl BufRead,
    line: &mut String,
    left: &mut usize,
) -> std::io::Result<usize> {
    let n = reader.take(*left as u64 + 1).read_line(line)?;
    if n > *left {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit"),
        ));
    }
    *left -= n;
    Ok(n)
}

impl Request {
    /// A header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for this exchange to be the
    /// connection's last (`Connection: close`, or HTTP/1.0 without an
    /// explicit keep-alive).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.http10,
        }
    }

    /// Reads one request from a (possibly reused) connection.
    ///
    /// A clean EOF or a timeout *before the first request byte* is a
    /// normal end of a keep-alive connection ([`ReadOutcome::Closed`] /
    /// [`ReadOutcome::IdleTimeout`]); EOF or timeout *mid-request* is a
    /// truncated request and comes back as an error — the caller must
    /// close without serving a response body it cannot trust. Other
    /// errors are one-line protocol diagnostics (answered 400).
    pub fn read_from(reader: &mut impl BufRead) -> Result<ReadOutcome, String> {
        let mut left = MAX_HEAD_BYTES;
        let mut line = String::new();
        match read_head_line(reader, &mut line, &mut left) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(_) if !line.ends_with('\n') => {
                return Err("truncated request line (EOF mid-line)".to_string());
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) && line.is_empty() => return Ok(ReadOutcome::IdleTimeout),
            Err(e) => return Err(format!("read request line: {e}")),
        }
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or("empty request line")?.to_string();
        let path = parts
            .next()
            .ok_or("request line missing target")?
            .to_string();
        let version = parts.next().ok_or("request line missing version")?;
        if !version.starts_with("HTTP/1.") {
            return Err(format!("unsupported version {version:?}"));
        }
        let http10 = version == "HTTP/1.0";

        let mut headers = Vec::new();
        loop {
            let mut hline = String::new();
            match read_head_line(reader, &mut hline, &mut left) {
                Ok(0) => return Err("truncated headers (EOF before blank line)".to_string()),
                Ok(_) if !hline.ends_with('\n') => {
                    return Err("truncated header line (EOF mid-line)".to_string());
                }
                Ok(_) => {}
                Err(e) => return Err(format!("read header: {e}")),
            }
            let hline = hline.trim_end();
            if hline.is_empty() {
                break;
            }
            let (name, value) = hline
                .split_once(':')
                .ok_or_else(|| format!("malformed header {hline:?}"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let mut body = String::new();
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse::<usize>())
            .transpose()
            .map_err(|e| format!("bad content-length: {e}"))?
            .unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ));
        }
        if content_length > 0 {
            let mut buf = vec![0u8; content_length];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("read body: {e}"))?;
            body = String::from_utf8(buf).map_err(|_| "body is not UTF-8".to_string())?;
        }
        Ok(ReadOutcome::Request(Request {
            method,
            path,
            headers,
            body,
            http10,
        }))
    }
}

/// The reason phrase for the handful of statuses the server uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Builds a complete response head (through the blank line) for a
/// `Content-Length` body. Pure string assembly — the hot cache
/// precomputes these once per entry so a cache hit writes bytes it
/// never has to format again.
pub fn response_head(status: u16, content_type: &str, body_len: usize, close: bool) -> String {
    format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {body_len}\r\nconnection: {}\r\n\r\n",
        reason(status),
        if close { "close" } else { "keep-alive" },
    )
}

/// Writes a complete response with a `Content-Length` body. `close`
/// selects the `Connection:` header; the caller owns actually closing
/// (or keeping) the connection to match.
pub fn respond_bytes(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) {
    let head = response_head(status, content_type, body.len(), close);
    // The client may already be gone; that is its problem, not ours.
    let _ = w.write_all(head.as_bytes());
    let _ = w.write_all(body);
    let _ = w.flush();
}

/// Writes a complete response with a `Content-Length` body.
pub fn respond(w: &mut impl Write, status: u16, content_type: &str, body: &str, close: bool) {
    respond_bytes(w, status, content_type, body.as_bytes(), close);
}

/// Writes a JSON response.
pub fn respond_json(w: &mut impl Write, status: u16, body: &str, close: bool) {
    respond(w, status, "application/json", body, close);
}

/// Writes the head of an EOF-delimited streaming response (no
/// `Content-Length`; the body ends when the server closes the
/// connection — streaming therefore always ends the keep-alive
/// session). Returns whether the head was accepted.
pub fn start_stream(w: &mut impl Write, content_type: &str) -> bool {
    let head =
        format!("HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\nconnection: close\r\n\r\n");
    w.write_all(head.as_bytes()).is_ok() && w.flush().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips one raw request through a real socket pair.
    fn parse_raw(raw: &str) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(raw.as_bytes()).unwrap();
            c.flush().unwrap();
            // Half-close so the reader sees EOF after the payload — a
            // truncated request must end in EOF, not a hung read.
            c.shutdown(std::net::Shutdown::Write).unwrap();
            c
        });
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(server_side);
        let req = Request::read_from(&mut reader);
        drop(writer.join().unwrap());
        match req? {
            ReadOutcome::Request(r) => Ok(r),
            other => Err(format!("expected a request, got {other:?}")),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_raw("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, "{\"a\": 1}\n");
        assert!(!req.wants_close(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_raw("GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn connection_semantics_follow_the_version_and_header() {
        let req = parse_raw("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse_raw("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.wants_close(), "HTTP/1.0 defaults to close");
        let req = parse_raw("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.wants_close());
        let req = parse_raw("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(req.wants_close(), "header matching is case-insensitive");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_raw("NOT-HTTP\r\n\r\n").is_err());
        assert!(parse_raw("GET / SPDY/9\r\n\r\n").is_err());
        assert!(parse_raw("GET / HTTP/1.1\r\nContent-Length: nine\r\n\r\n").is_err());
        let oversized = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert!(parse_raw(&oversized).is_err());
    }

    #[test]
    fn truncation_is_an_error_not_a_request() {
        // EOF mid-request-line, mid-headers, and mid-body must all be
        // hard errors — a reused connection must never yield a request
        // assembled from a partial write.
        assert!(parse_raw("GET /v1/heal").is_err());
        assert!(parse_raw("GET / HTTP/1.1\r\nHost: x\r\n").is_err());
        assert!(parse_raw("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"a\"").is_err());
    }

    #[test]
    fn eof_between_requests_is_a_clean_close() {
        let mut empty: &[u8] = b"";
        match Request::read_from(&mut empty).unwrap() {
            ReadOutcome::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut two: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        let a = match Request::read_from(&mut two).unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(a.path, "/a");
        let b = match Request::read_from(&mut two).unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!((b.path.as_str(), b.body.as_str()), ("/b", "hi"));
        assert!(matches!(
            Request::read_from(&mut two).unwrap(),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn oversized_head_is_an_error() {
        let head = |pad: usize| format!("GET / HTTP/1.1\r\nx-pad: {}\n\r\n", "a".repeat(pad));
        assert!(Request::read_from(&mut head(128 << 10).as_bytes()).is_err());
        assert!(matches!(
            Request::read_from(&mut head(MAX_HEAD_BYTES - 64).as_bytes()),
            Ok(ReadOutcome::Request(_))
        ));
    }

    /// SplitMix64: the seeded generator of the split-invariance checks.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn text(&mut self, alphabet: &[u8], len: usize) -> String {
            (0..len)
                .map(|_| alphabet[self.below(alphabet.len())] as char)
                .collect()
        }
    }

    /// What the parser must return for one request.
    type Fields = (String, String, Vec<(String, String)>, String, bool);

    fn fields(r: &Request) -> Fields {
        (
            r.method.clone(),
            r.path.clone(),
            r.headers.clone(),
            r.body.clone(),
            r.http10,
        )
    }

    const TOKEN: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
    const TEXT: &[u8] = b"abc XYZ 019 :;{}\"/\\=-\r\n";

    /// One random request: its wire bytes and the fields it must parse
    /// to. Line endings mix `\r\n` and `\n`; header names mix case; the
    /// body may hold CR, LF and colons.
    fn gen_request(rng: &mut Rng) -> (Vec<u8>, Fields) {
        let method = ["GET", "POST", "PUT", "DELETE"][rng.below(4)].to_string();
        let len = rng.below(12);
        let path = format!("/v1/{}", rng.text(TOKEN, len));
        let http10 = rng.below(4) == 0;
        let len = rng.below(2) * rng.below(48);
        let body = rng.text(TEXT, len);
        let mut headers: Vec<(String, String)> = (0..rng.below(4))
            .map(|_| {
                let len = 1 + rng.below(8);
                let name = format!("X-{}", rng.text(TOKEN, len));
                let len = rng.below(16);
                (name, rng.text(b"abc XYZ 019 :;", len))
            })
            .collect();
        if !body.is_empty() || rng.below(2) == 0 {
            let name = ["Content-Length", "content-length", "CONTENT-LENGTH"][rng.below(3)];
            let at = rng.below(headers.len() + 1);
            headers.insert(at, (name.to_string(), body.len().to_string()));
        }
        let eol = |rng: &mut Rng| if rng.below(2) == 0 { "\r\n" } else { "\n" };
        let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut wire = format!("{method} {path} {version}{}", eol(rng));
        for (name, value) in &headers {
            wire += &format!("{name}: {value}{}", eol(rng));
        }
        wire += eol(rng);
        wire += &body;
        let headers = headers
            .into_iter()
            .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        (wire.into_bytes(), (method, path, headers, body, http10))
    }

    /// A reader that hands out `data` in random-sized chunks.
    struct Chunked<'a> {
        data: &'a [u8],
        rng: Rng,
        max_chunk: usize,
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (1 + self.rng.below(self.max_chunk))
                .min(buf.len())
                .min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Reads requests off `data`, split by `seed`, until something other
    /// than a request comes back. Returns the requests and that outcome.
    /// Every request consumes at least one byte, so the loop is bounded.
    fn read_all(data: &[u8], seed: u64) -> (Vec<Fields>, Result<ReadOutcome, String>) {
        let mut rng = Rng(seed);
        let capacity = 1 + rng.below(64);
        let max_chunk = 1 + rng.below(32);
        let mut reader = std::io::BufReader::with_capacity(
            capacity,
            Chunked {
                data,
                rng,
                max_chunk,
            },
        );
        let mut got = Vec::new();
        for _ in 0..=data.len() {
            match Request::read_from(&mut reader) {
                Ok(ReadOutcome::Request(r)) => got.push(fields(&r)),
                end => return (got, end),
            }
        }
        panic!("more requests than bytes in {data:?}");
    }

    #[test]
    fn any_split_of_a_pipelined_stream_yields_the_same_requests() {
        for case in 0..300 {
            let mut rng = Rng(case);
            let mut wire = Vec::new();
            let mut want = Vec::new();
            for _ in 0..1 + rng.below(5) {
                let (bytes, f) = gen_request(&mut rng);
                wire.extend_from_slice(&bytes);
                want.push(f);
            }
            for split in 0..8 {
                let (got, end) = read_all(&wire, rng.next() ^ split);
                let stream = String::from_utf8_lossy(&wire);
                assert_eq!(got, want, "case {case} split {split}: {stream:?}");
                assert!(
                    matches!(end, Ok(ReadOutcome::Closed)),
                    "case {case} split {split}: stream must end in a clean close, got {end:?}"
                );
            }
        }
    }

    #[test]
    fn garbage_is_an_error_or_a_close_never_a_panic() {
        for case in 0..300 {
            let mut rng = Rng(case);
            let len = match rng.below(8) {
                0 => MAX_HEAD_BYTES + rng.below(MAX_HEAD_BYTES),
                _ => rng.below(512),
            };
            let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let (got, end) = read_all(&garbage, rng.next());
            assert!(got.is_empty(), "case {case}: garbage parsed as {got:?}");
            assert!(
                matches!(end, Err(_) | Ok(ReadOutcome::Closed)),
                "case {case}: {end:?}"
            );
        }
    }

    #[test]
    fn response_head_spells_the_connection_state() {
        let keep = response_head(200, "application/json", 2, false);
        assert!(keep.contains("connection: keep-alive\r\n"), "{keep}");
        assert!(keep.contains("content-length: 2\r\n"));
        let close = response_head(404, "application/json", 0, true);
        assert!(close.contains("connection: close\r\n"), "{close}");
        assert!(close.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(close.ends_with("\r\n\r\n"));
    }
}
