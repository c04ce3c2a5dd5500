//! A minimal keep-alive HTTP/1.1 client for the `geoind` wire, and the
//! checks applied to every `/protect` answer.

use geoind::spatial::geom::{BBox, Point};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout: an exchange slower than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(5);

/// Render a request with a JSON body (`None` sends no body).
pub fn request(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let body = body.unwrap_or("");
    format!(
        "{method} {path} HTTP/1.1\r\nHost: geoind\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection, reopened after any transport error.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Send `req` and read one full response: `(status, body)`.
    pub fn send(&mut self, req: &[u8]) -> Result<(u16, String), String> {
        let result = self.try_send(req);
        if result.is_err() {
            self.stream = None;
            self.buf.clear();
        }
        result
    }

    fn try_send(&mut self, req: &[u8]) -> Result<(u16, String), String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, TIMEOUT)
                .map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(TIMEOUT))
                .map_err(|e| e.to_string())?;
            stream
                .set_write_timeout(Some(TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(req).map_err(|e| format!("write: {e}"))?;
        read_response(stream, &mut self.buf)
    }
}

fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(u16, String), String> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-utf8 head")?;
            let status: u16 = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or("bad status line")?;
            let length: usize = head
                .split("\r\n")
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .ok_or("no content-length")?;
            let total = head_end + 4 + length;
            if buf.len() >= total {
                let body = String::from_utf8(buf[head_end + 4..total].to_vec())
                    .map_err(|_| "non-utf8 body")?;
                buf.drain(..total);
                return Ok((status, body));
            }
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Count the `served` outcomes in a `/protect` answer, checking that each
/// served point is a finite location inside `domain`. Returns
/// `(served, first problem)`.
pub fn served_points(body: &str, domain: BBox) -> (u32, Option<String>) {
    let mut served = 0;
    let mut problem = None;
    let mut rest = body;
    while let Some(at) = rest.find("\"status\":\"") {
        rest = &rest[at + 10..];
        let status = &rest[..rest.find('"').unwrap_or(rest.len())];
        let object = &rest[..rest.find('}').unwrap_or(rest.len())];
        if status != "served" {
            problem.get_or_insert_with(|| format!("status {status}"));
            continue;
        }
        match (number(object, "\"x\":"), number(object, "\"y\":")) {
            (Some(x), Some(y)) if inside(Point::new(x, y), domain) => served += 1,
            _ => {
                problem.get_or_insert_with(|| format!("served point outside the domain: {object}"));
            }
        }
    }
    (served, problem)
}

/// Whether `p` lies in `domain` (edges included).
pub fn inside(p: Point, domain: BBox) -> bool {
    p.x >= domain.min.x && p.x <= domain.max.x && p.y >= domain.min.y && p.y <= domain.max.y
}

fn number(object: &str, key: &str) -> Option<f64> {
    let at = object.find(key)? + key.len();
    let tail = &object[at..];
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..end].parse::<f64>().ok().filter(|v| v.is_finite())
}

/// An unsigned counter from a flat JSON object such as `GET /report`.
pub fn counter(body: &str, key: &str) -> Option<u64> {
    number(body, &format!("\"{key}\":")).map(|v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(20.0, 20.0))
    }

    #[test]
    fn counts_served_objects_and_arrays() {
        let one = r#"{"status":"served","x":1.25,"y":19.5,"tier":0}"#;
        assert_eq!(served_points(one, dom()), (1, None));
        let arr = r#"[{"status":"served","x":1,"y":2,"tier":0},{"status":"overloaded"},{"status":"served","x":3,"y":4,"tier":0}]"#;
        let (n, problem) = served_points(arr, dom());
        assert_eq!(n, 2);
        assert_eq!(problem.as_deref(), Some("status overloaded"));
    }

    #[test]
    fn rejects_points_outside_the_domain() {
        let bad = r#"{"status":"served","x":25,"y":2,"tier":0}"#;
        let (n, problem) = served_points(bad, dom());
        assert_eq!(n, 0);
        assert!(problem.is_some());
    }

    #[test]
    fn reads_report_counters() {
        let r = r#"{"total":12,"served":11,"served_by_tier":[11,0,0],"retried":0}"#;
        assert_eq!(counter(r, "served"), Some(11));
        assert_eq!(counter(r, "retried"), Some(0));
        assert_eq!(counter(r, "missing"), None);
    }
}
