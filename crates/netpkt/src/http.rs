//! The *standard* HTTP/1.x parser: manually written, stateful, incremental.
//!
//! This plays the role of Bro's handwritten C++ HTTP analyzer in the
//! evaluation (§6.4): an independent, non-generated implementation that the
//! BinPAC++ parser is compared against for output agreement (Table 2) and
//! CPU cost (Figure 9). It is written in the conventional style such
//! parsers use — explicit per-connection state machines that manually track
//! where parsing stopped — precisely the structure HILTI's fibers make
//! unnecessary (§3.2 "Control Flow and Concurrency").
//!
//! Supported: request/status lines, headers, `Content-Length` bodies,
//! `chunked` transfer-coding (with trailers), `HEAD`/`204`/`304` empty-body
//! rules, pipelined requests, and a skip-to-recovery mode for non-HTTP
//! traffic on port 80.

use std::collections::VecDeque;
use std::sync::Arc;

use hilti_rt::time::Time;

use crate::events::{ConnId, Event};

/// Maximum line length we accept before declaring the stream non-HTTP.
const MAX_LINE: usize = 16 * 1024;

/// Body framing of the message currently being received.
#[derive(Clone, Debug, PartialEq)]
enum BodyKind {
    /// Exactly `n` more bytes.
    Length(u64),
    /// Chunked transfer-coding.
    Chunked,
    /// Until connection close (HTTP/1.0 responses without length).
    UntilClose,
    /// No body at all.
    None,
}

#[derive(Clone, Debug, PartialEq)]
enum DirState {
    /// Waiting for a request line (client) / status line (server).
    FirstLine,
    Headers,
    Body(BodyKind),
    /// Inside a chunked body: `n` bytes remain in the current chunk.
    ChunkData(u64),
    /// Expecting the CRLF after a chunk.
    ChunkEnd,
    /// Expecting a chunk-size line.
    ChunkSize,
    /// Trailer headers after the last chunk.
    Trailers,
    /// Unparseable traffic: consume and ignore everything.
    Skip,
}

struct Direction {
    state: DirState,
    buf: Vec<u8>,
    /// Bytes of body delivered for the in-flight message.
    body_len: u64,
    /// Headers seen for the in-flight message (for framing decisions).
    content_length: Option<u64>,
    chunked: bool,
    is_orig: bool,
}

impl Direction {
    fn new(is_orig: bool) -> Self {
        Direction {
            state: DirState::FirstLine,
            buf: Vec::new(),
            body_len: 0,
            content_length: None,
            chunked: false,
            is_orig,
        }
    }
}

/// Incremental HTTP parser for one connection (both directions).
pub struct HttpConnParser {
    uid: Arc<str>,
    id: ConnId,
    client: Direction,
    server: Direction,
    /// Methods of requests whose responses are still outstanding; HEAD
    /// responses carry no body even when Content-Length says otherwise.
    outstanding: VecDeque<String>,
    /// Status of the in-flight response (204/304 suppress the body).
    last_status: Option<u32>,
}

impl HttpConnParser {
    pub fn new(uid: String, id: ConnId) -> Self {
        HttpConnParser {
            uid: uid.into(),
            id,
            client: Direction::new(true),
            server: Direction::new(false),
            outstanding: VecDeque::new(),
            last_status: None,
        }
    }

    /// Feeds reassembled in-order payload for one direction; emits events
    /// into `sink`.
    pub fn feed(&mut self, is_orig: bool, data: &[u8], ts: Time, sink: &mut Vec<Event>) {
        // Split borrows: the direction being parsed plus connection fields.
        let dir = if is_orig {
            &mut self.client
        } else {
            &mut self.server
        };
        dir.buf.extend_from_slice(data);
        loop {
            match dir.state.clone() {
                DirState::Skip => {
                    dir.buf.clear();
                    return;
                }
                DirState::FirstLine => {
                    let Some(line) = take_line(&mut dir.buf) else {
                        if dir.buf.len() > MAX_LINE {
                            dir.state = DirState::Skip;
                        }
                        return;
                    };
                    if line.is_empty() {
                        continue; // tolerate stray CRLF between messages
                    }
                    let ok = if is_orig {
                        Self::parse_request_line(
                            &line,
                            ts,
                            &self.uid,
                            self.id,
                            &mut self.outstanding,
                            sink,
                        )
                    } else {
                        Self::parse_status_line(
                            &line,
                            ts,
                            &self.uid,
                            self.id,
                            &mut self.last_status,
                            sink,
                        )
                    };
                    if ok {
                        dir.content_length = None;
                        dir.chunked = false;
                        dir.body_len = 0;
                        dir.state = DirState::Headers;
                    } else {
                        dir.state = DirState::Skip;
                    }
                }
                DirState::Headers => {
                    let Some(line) = take_line(&mut dir.buf) else {
                        if dir.buf.len() > MAX_LINE {
                            dir.state = DirState::Skip;
                        }
                        return;
                    };
                    if line.is_empty() {
                        // Headers done; decide body framing.
                        let kind = Self::body_kind(dir, &mut self.outstanding, self.last_status);
                        match kind {
                            BodyKind::None => {
                                sink.push(Event::HttpMessageDone {
                                    ts,
                                    uid: self.uid.clone(),
                                    is_orig,
                                    body_len: 0,
                                });
                                dir.state = DirState::FirstLine;
                            }
                            BodyKind::Chunked => dir.state = DirState::ChunkSize,
                            other => dir.state = DirState::Body(other),
                        }
                        continue;
                    }
                    if let Some((name, value)) = split_header(&line) {
                        let lname = name.to_ascii_lowercase();
                        if lname == "content-length" {
                            dir.content_length = value.trim().parse().ok();
                        } else if lname == "transfer-encoding"
                            && value.trim().eq_ignore_ascii_case("chunked")
                        {
                            dir.chunked = true;
                        }
                        sink.push(Event::HttpHeader {
                            ts,
                            uid: self.uid.clone(),
                            is_orig,
                            name,
                            value,
                        });
                    }
                    // Malformed header lines are skipped silently, like
                    // Bro's parser tolerates real-world "crud".
                }
                DirState::Body(BodyKind::Length(remaining)) => {
                    if dir.buf.is_empty() {
                        return;
                    }
                    let take = (remaining.min(dir.buf.len() as u64)) as usize;
                    let chunk: Vec<u8> = dir.buf.drain(..take).collect();
                    dir.body_len += chunk.len() as u64;
                    sink.push(Event::HttpBodyData {
                        ts,
                        uid: self.uid.clone(),
                        is_orig,
                        data: chunk,
                    });
                    let left = remaining - take as u64;
                    if left == 0 {
                        sink.push(Event::HttpMessageDone {
                            ts,
                            uid: self.uid.clone(),
                            is_orig,
                            body_len: dir.body_len,
                        });
                        dir.state = DirState::FirstLine;
                    } else {
                        dir.state = DirState::Body(BodyKind::Length(left));
                        return;
                    }
                }
                DirState::Body(BodyKind::UntilClose) => {
                    if dir.buf.is_empty() {
                        return;
                    }
                    let chunk: Vec<u8> = dir.buf.drain(..).collect();
                    dir.body_len += chunk.len() as u64;
                    sink.push(Event::HttpBodyData {
                        ts,
                        uid: self.uid.clone(),
                        is_orig,
                        data: chunk,
                    });
                    return;
                }
                DirState::Body(_) => unreachable!("handled via dedicated states"),
                DirState::ChunkSize => {
                    let Some(line) = take_line(&mut dir.buf) else {
                        return;
                    };
                    // Chunk size may carry extensions after ';'.
                    let size_part = line.split(';').next().unwrap_or("").trim();
                    match u64::from_str_radix(size_part, 16) {
                        Ok(0) => dir.state = DirState::Trailers,
                        Ok(n) => dir.state = DirState::ChunkData(n),
                        Err(_) => dir.state = DirState::Skip,
                    }
                }
                DirState::ChunkData(remaining) => {
                    if dir.buf.is_empty() {
                        return;
                    }
                    let take = (remaining.min(dir.buf.len() as u64)) as usize;
                    let chunk: Vec<u8> = dir.buf.drain(..take).collect();
                    dir.body_len += chunk.len() as u64;
                    sink.push(Event::HttpBodyData {
                        ts,
                        uid: self.uid.clone(),
                        is_orig,
                        data: chunk,
                    });
                    let left = remaining - take as u64;
                    dir.state = if left == 0 {
                        DirState::ChunkEnd
                    } else {
                        DirState::ChunkData(left)
                    };
                }
                DirState::ChunkEnd => {
                    let Some(line) = take_line(&mut dir.buf) else {
                        return;
                    };
                    if !line.is_empty() {
                        dir.state = DirState::Skip;
                        continue;
                    }
                    dir.state = DirState::ChunkSize;
                }
                DirState::Trailers => {
                    let Some(line) = take_line(&mut dir.buf) else {
                        return;
                    };
                    if line.is_empty() {
                        sink.push(Event::HttpMessageDone {
                            ts,
                            uid: self.uid.clone(),
                            is_orig,
                            body_len: dir.body_len,
                        });
                        dir.state = DirState::FirstLine;
                    }
                    // Non-empty trailer lines are consumed silently.
                }
            }
        }
    }

    /// Signals connection close; finishes an UntilClose body.
    pub fn finish(&mut self, ts: Time, sink: &mut Vec<Event>) {
        for dir in [&mut self.server, &mut self.client] {
            if dir.state == DirState::Body(BodyKind::UntilClose) {
                sink.push(Event::HttpMessageDone {
                    ts,
                    uid: self.uid.clone(),
                    is_orig: dir.is_orig,
                    body_len: dir.body_len,
                });
                dir.state = DirState::FirstLine;
            }
        }
    }

    fn parse_request_line(
        line: &str,
        ts: Time,
        uid: &Arc<str>,
        id: ConnId,
        outstanding: &mut VecDeque<String>,
        sink: &mut Vec<Event>,
    ) -> bool {
        let mut parts = line.split_whitespace();
        let (Some(method), Some(uri), version) = (parts.next(), parts.next(), parts.next()) else {
            return false;
        };
        if !method.bytes().all(|b| b.is_ascii_uppercase()) || method.is_empty() {
            return false;
        }
        let version = match version {
            Some(v) => match v.strip_prefix("HTTP/") {
                Some(n) => n.to_owned(),
                None => return false,
            },
            None => "0.9".to_owned(),
        };
        outstanding.push_back(method.to_owned());
        sink.push(Event::HttpRequest {
            ts,
            uid: uid.clone(),
            id,
            method: method.to_owned(),
            uri: uri.to_owned(),
            version,
        });
        true
    }

    fn parse_status_line(
        line: &str,
        ts: Time,
        uid: &Arc<str>,
        id: ConnId,
        last_status: &mut Option<u32>,
        sink: &mut Vec<Event>,
    ) -> bool {
        let Some(rest) = line.strip_prefix("HTTP/") else {
            return false;
        };
        let mut parts = rest.splitn(3, ' ');
        let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
            return false;
        };
        let Ok(status) = code.parse::<u32>() else {
            return false;
        };
        let reason = parts.next().unwrap_or("").to_owned();
        *last_status = Some(status);
        sink.push(Event::HttpReply {
            ts,
            uid: uid.clone(),
            id,
            status,
            reason,
            version: version.to_owned(),
        });
        true
    }

    /// Decides the body framing after the header block, per RFC 7230 §3.3.
    fn body_kind(
        dir: &mut Direction,
        outstanding: &mut VecDeque<String>,
        status: Option<u32>,
    ) -> BodyKind {
        if dir.is_orig {
            // Requests have a body only with explicit framing.
            if dir.chunked {
                return BodyKind::Chunked;
            }
            return match dir.content_length {
                Some(0) | None => BodyKind::None,
                Some(n) => BodyKind::Length(n),
            };
        }
        // Responses: correlate with the request method; HEAD, 204 and 304
        // responses never carry a body regardless of framing headers.
        let for_head = outstanding.pop_front().as_deref() == Some("HEAD");
        if for_head || matches!(status, Some(204) | Some(304)) {
            return BodyKind::None;
        }
        if dir.chunked {
            return BodyKind::Chunked;
        }
        match dir.content_length {
            Some(0) => BodyKind::None,
            Some(n) => BodyKind::Length(n),
            None => BodyKind::UntilClose,
        }
    }
}

/// Removes one CRLF- (or bare-LF-) terminated line from the front of `buf`.
fn take_line(buf: &mut Vec<u8>) -> Option<String> {
    let pos = buf.iter().position(|&b| b == b'\n')?;
    let mut line: Vec<u8> = buf.drain(..=pos).collect();
    line.pop(); // '\n'
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Some(String::from_utf8_lossy(&line).into_owned())
}

fn split_header(line: &str) -> Option<(String, String)> {
    let (name, value) = line.split_once(':')?;
    if name.is_empty() || name.contains(' ') {
        return None;
    }
    Some((name.trim().to_owned(), value.trim().to_owned()))
}

/// Best-effort MIME sniffing of body content, in the spirit of Bro's file
/// analysis (the source of the Table 2 "different or no MIME types"
/// mismatches). Checks magic bytes first, then falls back to the declared
/// Content-Type.
pub fn sniff_mime<'a>(body_prefix: &[u8], declared: Option<&'a str>) -> Option<&'a str> {
    let magic: Option<&str> = if body_prefix.starts_with(b"GIF8") {
        Some("image/gif")
    } else if body_prefix.starts_with(&[0x89, b'P', b'N', b'G']) {
        Some("image/png")
    } else if body_prefix.starts_with(&[0xff, 0xd8, 0xff]) {
        Some("image/jpeg")
    } else if body_prefix.starts_with(b"%PDF") {
        Some("application/pdf")
    } else if body_prefix.starts_with(b"PK\x03\x04") {
        Some("application/zip")
    } else if body_prefix.starts_with(b"\x1f\x8b") {
        Some("application/gzip")
    } else {
        let head = &body_prefix[..body_prefix.len().min(256)];
        let mut lower = [0u8; 256];
        let lower = &mut lower[..head.len()];
        lower.copy_from_slice(head);
        lower.make_ascii_lowercase();
        if contains(lower, b"<html") || contains(lower, b"<!doctype html") {
            Some("text/html")
        } else if lower.starts_with(b"{") || lower.starts_with(b"[") {
            Some("application/json")
        } else {
            None
        }
    };
    magic.or_else(|| declared.map(|d| d.split(';').next().unwrap_or(d).trim()))
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilti_rt::addr::Port;

    fn conn() -> HttpConnParser {
        HttpConnParser::new(
            "C1".into(),
            ConnId {
                orig_h: "10.0.0.1".parse().unwrap(),
                orig_p: Port::tcp(40000),
                resp_h: "1.2.3.4".parse().unwrap(),
                resp_p: Port::tcp(80),
            },
        )
    }

    fn names(events: &[Event]) -> Vec<&'static str> {
        events.iter().map(|e| e.name()).collect()
    }

    #[test]
    fn simple_get_exchange() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(
            true,
            b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n",
            Time::from_secs(1),
            &mut ev,
        );
        p.feed(
            false,
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: text/html\r\n\r\nhello",
            Time::from_secs(1),
            &mut ev,
        );
        assert_eq!(
            names(&ev),
            vec![
                "http_request",
                "http_header",
                "http_message_done",
                "http_reply",
                "http_header",
                "http_header",
                "http_body_data",
                "http_message_done",
            ]
        );
        match &ev[0] {
            Event::HttpRequest {
                method,
                uri,
                version,
                ..
            } => {
                assert_eq!(method, "GET");
                assert_eq!(uri, "/index.html");
                assert_eq!(version, "1.1");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &ev[3] {
            Event::HttpReply { status, reason, .. } => {
                assert_eq!(*status, 200);
                assert_eq!(reason, "OK");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_incremental() {
        // The whole point of incremental parsing: drip-feed one byte at a
        // time and get identical events.
        let req = b"POST /submit HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let mut whole = Vec::new();
        let mut p1 = conn();
        p1.feed(true, req, Time::ZERO, &mut whole);

        let mut dripped = Vec::new();
        let mut p2 = conn();
        for b in req {
            p2.feed(true, &[*b], Time::ZERO, &mut dripped);
        }
        // Body chunking granularity differs; compare structure.
        let squash = |evs: &[Event]| -> (Vec<&'static str>, Vec<u8>) {
            let mut body = Vec::new();
            let mut kinds = Vec::new();
            for e in evs {
                if let Event::HttpBodyData { data, .. } = e {
                    body.extend_from_slice(data);
                } else {
                    kinds.push(e.name());
                }
            }
            (kinds, body)
        };
        assert_eq!(squash(&whole), squash(&dripped));
    }

    #[test]
    fn chunked_response() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(true, b"GET /x HTTP/1.1\r\n\r\n", Time::ZERO, &mut ev);
        p.feed(
            false,
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: v\r\n\r\n",
            Time::ZERO,
            &mut ev,
        );
        let body: Vec<u8> = ev
            .iter()
            .filter_map(|e| match e {
                Event::HttpBodyData { data, .. } => Some(data.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(body, b"hello world");
        let done = ev.iter().rev().find_map(|e| match e {
            Event::HttpMessageDone {
                body_len,
                is_orig: false,
                ..
            } => Some(*body_len),
            _ => None,
        });
        assert_eq!(done, Some(11));
    }

    #[test]
    fn head_response_has_no_body() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(true, b"HEAD /big HTTP/1.1\r\n\r\n", Time::ZERO, &mut ev);
        p.feed(
            false,
            b"HTTP/1.1 200 OK\r\nContent-Length: 10000\r\n\r\nGET /next HTTP",
            Time::ZERO,
            &mut ev,
        );
        // The body is absent; what follows is NOT eaten as body bytes.
        let done = ev.iter().find_map(|e| match e {
            Event::HttpMessageDone {
                body_len,
                is_orig: false,
                ..
            } => Some(*body_len),
            _ => None,
        });
        assert_eq!(done, Some(0));
    }

    #[test]
    fn pipelined_requests() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(
            true,
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
            Time::ZERO,
            &mut ev,
        );
        let uris: Vec<&String> = ev
            .iter()
            .filter_map(|e| match e {
                Event::HttpRequest { uri, .. } => Some(uri),
                _ => None,
            })
            .collect();
        assert_eq!(uris, ["/a", "/b"]);
    }

    #[test]
    fn until_close_body() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(true, b"GET / HTTP/1.0\r\n\r\n", Time::ZERO, &mut ev);
        p.feed(
            false,
            b"HTTP/1.0 200 OK\r\n\r\nunending body",
            Time::ZERO,
            &mut ev,
        );
        // Not done yet...
        assert!(
            !names(&ev).contains(&"http_message_done")
                || ev
                    .iter()
                    .all(|e| !matches!(e, Event::HttpMessageDone { is_orig: false, .. }))
        );
        p.finish(Time::from_secs(9), &mut ev);
        let done = ev.iter().find_map(|e| match e {
            Event::HttpMessageDone {
                body_len,
                is_orig: false,
                ..
            } => Some(*body_len),
            _ => None,
        });
        assert_eq!(done, Some(13));
    }

    #[test]
    fn garbage_enters_skip_mode() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(
            true,
            b"\x00\x01\x02 binary crud\r\nmore\r\n",
            Time::ZERO,
            &mut ev,
        );
        assert!(ev.is_empty());
        // Once skipping, later valid-looking data is ignored too (the
        // stream is already desynchronized).
        p.feed(true, b"GET / HTTP/1.1\r\n\r\n", Time::ZERO, &mut ev);
        assert!(ev.is_empty());
    }

    #[test]
    fn status_without_reason() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(false, b"HTTP/1.1 304\r\n\r\n", Time::ZERO, &mut ev);
        match &ev[0] {
            Event::HttpReply { status, reason, .. } => {
                assert_eq!(*status, 304);
                assert_eq!(reason, "");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lf_only_lines_tolerated() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(true, b"GET / HTTP/1.1\nHost: x\n\n", Time::ZERO, &mut ev);
        assert_eq!(
            names(&ev),
            vec!["http_request", "http_header", "http_message_done"]
        );
    }

    #[test]
    fn sniff_mime_magic_and_declared() {
        assert_eq!(sniff_mime(b"GIF89a...", None), Some("image/gif"));
        assert_eq!(
            sniff_mime(b"\x89PNG\r\n", Some("text/plain")),
            Some("image/png")
        );
        assert_eq!(sniff_mime(b"<HTML><body>", None), Some("text/html"));
        assert_eq!(
            sniff_mime(b"random bytes", Some("text/css; charset=utf-8")),
            Some("text/css")
        );
        assert_eq!(sniff_mime(b"random bytes", None), None);
        assert_eq!(sniff_mime(b"{\"k\":1}", None), Some("application/json"));
    }

    #[test]
    fn zero_length_body() {
        let mut p = conn();
        let mut ev = Vec::new();
        p.feed(
            false,
            b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
            Time::ZERO,
            &mut ev,
        );
        let done = ev.iter().find_map(|e| match e {
            Event::HttpMessageDone { body_len, .. } => Some(*body_len),
            _ => None,
        });
        assert_eq!(done, Some(0));
    }
}
