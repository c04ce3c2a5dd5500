//! The crate's one HTTP/1.1 codec: message heads, rendering, and the
//! client connection.
//!
//! Every socket in this crate frames through here. The wire server
//! ([`crate::wire`]) parses request heads with [`parse_head`] and
//! renders answers with [`response`]; the loadgen ([`crate::client`])
//! and the replication shipper ([`crate::replica`]) render with
//! [`request`] and exchange over a [`Conn`]. The subset is deliberately
//! small: `Content-Length` framing only, and the only other header
//! anyone reads is `Authorization`.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The blank line that ends every message head.
const HEAD_END: &[u8] = b"\r\n\r\n";

/// A parsed message head, borrowed from the receive buffer.
#[derive(Debug, PartialEq)]
pub(crate) struct Head<'a> {
    /// The request line (`POST /protect HTTP/1.1`) or the status line
    /// (`HTTP/1.1 200 OK`).
    pub start: &'a str,
    /// The declared body length; 0 when absent, the last header wins.
    pub content_length: usize,
    /// The `Authorization` value, trimmed, when present.
    pub auth: Option<&'a str>,
    /// Offset of the first body byte, just past the blank line.
    pub body_at: usize,
}

/// Parse the head at the front of `buf`; `Ok(None)` until the blank line
/// has arrived.
///
/// # Errors
/// `InvalidData` for a non-UTF-8 head or an unparseable `Content-Length`.
pub(crate) fn parse_head(buf: &[u8]) -> io::Result<Option<Head<'_>>> {
    let Some(end) = buf.windows(HEAD_END.len()).position(|w| w == HEAD_END) else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&buf[..end]).map_err(|_| invalid("non-utf8 head"))?;
    let mut lines = text.split("\r\n");
    let mut head = Head {
        start: lines.next().unwrap_or_default(),
        content_length: 0,
        auth: None,
        body_at: end + HEAD_END.len(),
    };
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = value
                .trim()
                .parse()
                .map_err(|_| invalid("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("authorization") {
            head.auth = Some(value.trim());
        }
    }
    Ok(Some(head))
}

/// Render a request: `Host`, `Content-Type`, a bearer token when `auth`
/// is set, and a `Content-Length` body.
pub(crate) fn request(
    method: &str,
    path: &str,
    content_type: &str,
    auth: Option<&str>,
    body: &[u8],
) -> Vec<u8> {
    let auth = auth
        .map(|token| format!("Authorization: Bearer {token}\r\n"))
        .unwrap_or_default();
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: geoind\r\nContent-Type: {content_type}\r\n{auth}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Render a keep-alive JSON response.
pub(crate) fn response(status: u16, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
}

/// One complete response at the front of `buf` as `(status, body)`;
/// `Ok(None)` until the head and the declared body have both arrived.
fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, String)>> {
    let Some(head) = parse_head(buf)? else {
        return Ok(None);
    };
    let status = head
        .start
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let Some(body) = buf.get(head.body_at..head.body_at.saturating_add(head.content_length)) else {
        return Ok(None);
    };
    let body = std::str::from_utf8(body).map_err(|_| invalid("non-utf8 body"))?;
    Ok(Some((status, body.to_string())))
}

fn invalid(detail: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, detail)
}

/// A client connection with `TCP_NODELAY` and one timeout that bounds
/// the connect, every socket read and write, and each whole response.
/// [`Self::send`] stays usable alone so a caller can fault a write.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    timeout: Duration,
}

impl Conn {
    /// Connect to the first address `addr` resolves to.
    pub(crate) fn open(addr: impl ToSocketAddrs, timeout_ms: u64) -> io::Result<Self> {
        let timeout = Duration::from_millis(timeout_ms.max(1));
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "resolves to nothing"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { stream, timeout })
    }

    /// Write one rendered request.
    pub(crate) fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read exactly one response within the timeout.
    pub(crate) fn read_response(&mut self) -> io::Result<(u16, String)> {
        let deadline = Instant::now() + self.timeout;
        let mut pending = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(answer) = parse_response(&pending)? {
                return Ok(answer);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(ErrorKind::TimedOut, "response deadline"));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "torn response")),
                Ok(n) => pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// [`Self::send`], then [`Self::read_response`].
    pub(crate) fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, String)> {
        self.send(request)?;
        self.read_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_prefix_of_a_request_parses_once_the_head_is_whole() {
        let full = request("POST", "/protect", "application/json", Some("k"), b"{}");
        let head_len = full.len() - 2;
        for cut in 0..head_len {
            assert_eq!(parse_head(&full[..cut]).unwrap(), None, "cut={cut}");
        }
        for cut in head_len..=full.len() {
            let head = parse_head(&full[..cut]).unwrap().expect("whole head");
            assert_eq!(
                head,
                Head {
                    start: "POST /protect HTTP/1.1",
                    content_length: 2,
                    auth: Some("Bearer k"),
                    body_at: head_len,
                },
                "cut={cut}"
            );
        }
    }

    #[test]
    fn every_prefix_of_a_response_parses_once_the_body_is_whole() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nabcd";
        for cut in 0..full.len() {
            assert_eq!(parse_response(&full[..cut]).unwrap(), None, "cut={cut}");
        }
        let answer = parse_response(full).unwrap();
        assert_eq!(answer, Some((200, "abcd".to_string())));
    }

    #[test]
    fn a_bad_content_length_is_refused() {
        for value in ["-1", "4x", "", "99999999999999999999999"] {
            let frame = format!("POST /protect HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            let err = parse_head(frame.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{value:?}");
        }
    }

    #[test]
    fn renderings_match_the_pinned_bytes() {
        let body = r#"{"user":1,"id":2,"x":0.5,"y":-1}"#;
        assert_eq!(
            request("POST", "/protect", "application/json", None, body.as_bytes()),
            b"POST /protect HTTP/1.1\r\nHost: geoind\r\nContent-Type: application/json\r\nContent-Length: 32\r\n\r\n{\"user\":1,\"id\":2,\"x\":0.5,\"y\":-1}"
        );
        assert_eq!(
            request("POST", "/protect", "application/json", Some("s3cret"), body.as_bytes()),
            b"POST /protect HTTP/1.1\r\nHost: geoind\r\nContent-Type: application/json\r\nAuthorization: Bearer s3cret\r\nContent-Length: 32\r\n\r\n{\"user\":1,\"id\":2,\"x\":0.5,\"y\":-1}"
        );
        assert_eq!(
            request("POST", "/replicate", "application/octet-stream", Some("t"), b"GI\x00\xff"),
            b"POST /replicate HTTP/1.1\r\nHost: geoind\r\nContent-Type: application/octet-stream\r\nAuthorization: Bearer t\r\nContent-Length: 4\r\n\r\nGI\x00\xff"
        );
        assert_eq!(
            request("POST", "/follow", "application/json", None, br#"{"addr":"127.0.0.1:9"}"#),
            b"POST /follow HTTP/1.1\r\nHost: geoind\r\nContent-Type: application/json\r\nContent-Length: 22\r\n\r\n{\"addr\":\"127.0.0.1:9\"}"
        );
        assert_eq!(
            response(413, r#"{"status":"too_large"}"#),
            "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\nContent-Length: 22\r\nConnection: keep-alive\r\n\r\n{\"status\":\"too_large\"}"
        );
    }
}
