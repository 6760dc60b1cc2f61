//! The load generator: one thread driving at most two loopback connections
//! to the gateway (line protocol and/or HTTP/JSON). It waits on both with
//! one `epoll` set, reads whatever a ready connection holds, and timestamps
//! each complete reply as it is read.
//!
//! The loop is closed: each connection keeps `depth` jobs in flight
//! (pipelined when `depth > 1`; the gateway answers them in order), and the
//! next is sent as soon as a reply is read. Latency runs from send to the
//! full reply. A duplicate waits until every connection has room and goes
//! out on all of them, so its copies are in flight together.
//!
//! A `busy` shed (line) or HTTP 429 is re-sent on the same connection; a
//! job shed more than [`MAX_RETRIES`] times is failed.

use crate::workload::{Generator, Req};
use cqfd_gateway::{http, json};
use polling::{Event, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const MAX_RETRIES: u32 = 20;
/// How long a window may take to drain after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
const HTTP_LIMITS: http::Limits = http::Limits {
    max_head_bytes: 64 * 1024,
    max_body_bytes: 64 * 1024 * 1024,
};

/// A complete reply: the result line plus any payload lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub text: String,
}

impl Reply {
    pub fn first_line(&self) -> &str {
        self.text.lines().next().unwrap_or("")
    }

    /// The certificate payload, when the result line announces one.
    pub fn cert(&self) -> Option<String> {
        let first = self.first_line();
        let n = marker(first, "cert_lines=")?;
        Some(
            self.text
                .lines()
                .skip(1)
                .take(n)
                .fold(String::new(), |mut s, l| {
                    s.push_str(l);
                    s.push('\n');
                    s
                }),
        )
    }

    fn is_shed(&self) -> bool {
        self.text.starts_with("busy ") || self.text.starts_with("http 429")
    }
}

fn marker(first: &str, key: &str) -> Option<usize> {
    first
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}

/// How many payload lines follow a line-protocol result line.
fn payload_lines(first: &str) -> usize {
    [
        "cert_lines=",
        "trace_lines=",
        "lint_lines=",
        "metrics_lines=",
    ]
    .iter()
    .filter_map(|k| marker(first, k))
    .sum()
}

/// One side of the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Line,
    Http,
}

/// What one wait on the connections yields.
enum Msg {
    Reply {
        conn: usize,
        req: usize,
        at: Instant,
        reply: Reply,
    },
    /// The connection closed or failed; everything still queued on it is
    /// lost.
    Closed { conn: usize },
}

/// A connection, the bytes read from it but not yet parsed, and the
/// requests in flight on it, oldest first (the gateway answers a
/// connection's requests in order).
struct Conn {
    proto: Proto,
    stream: TcpStream,
    buf: Vec<u8>,
    inflight: VecDeque<usize>,
    open: bool,
}

impl Conn {
    /// Reads what a readable socket holds (one `read`, which does not
    /// block) and returns every complete reply with the request it
    /// answers. End of stream, an error, a malformed or an unsolicited
    /// reply closes the connection.
    fn pump(&mut self) -> Vec<(usize, Reply)> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => self.open = false,
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => self.open = false,
        }
        let mut out = Vec::new();
        while self.open {
            match next_reply(self.proto, &self.buf) {
                Ok(Some((reply, used))) => {
                    self.buf.drain(..used);
                    match self.inflight.pop_front() {
                        Some(req) => out.push((req, reply)),
                        None => self.open = false,
                    }
                }
                Ok(None) => break,
                Err(()) => self.open = false,
            }
        }
        out
    }
}

/// The first complete reply in `buf` and the bytes it takes, `None` while
/// it is incomplete, `Err` when the bytes cannot be a reply.
fn next_reply(proto: Proto, buf: &[u8]) -> Result<Option<(Reply, usize)>, ()> {
    match proto {
        Proto::Line => {
            let Some(first_end) = buf.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let first = String::from_utf8_lossy(&buf[..first_end]);
            // The result line, then the payload lines it announces.
            let mut end = first_end;
            for _ in 0..payload_lines(&first) {
                match buf[end + 1..].iter().position(|&b| b == b'\n') {
                    Some(k) => end += 1 + k,
                    None => return Ok(None),
                }
            }
            let text = String::from_utf8_lossy(&buf[..end]).into_owned();
            Ok(Some((Reply { text }, end + 1)))
        }
        Proto::Http => match http::parse_response(buf, &HTTP_LIMITS) {
            http::Parse::Complete { value, consumed } => Ok(Some((
                Reply {
                    text: http_reply_text(&value),
                },
                consumed,
            ))),
            http::Parse::Partial => Ok(None),
            http::Parse::Bad { .. } => Err(()),
        },
    }
}

/// Encodes one job line for the wire.
pub fn encode(proto: Proto, line: &str) -> Vec<u8> {
    match proto {
        Proto::Line => format!("{line}\n").into_bytes(),
        Proto::Http => {
            let body = format!("{{\"job\":\"{}\"}}", json::escape(line));
            format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        }
    }
}

/// The `result` field of a `POST /v1/jobs` answer (the same text the line
/// protocol sends), or a tagged status for anything else.
fn http_reply_text(resp: &http::Response) -> String {
    if resp.status == 200 {
        if let Ok(pairs) = json::parse_object(&resp.body) {
            if let Some(r) = json::get(&pairs, "result").and_then(|v| v.as_str()) {
                return r.to_string();
            }
        }
        return String::new();
    }
    format!(
        "http {} {}",
        resp.status,
        String::from_utf8_lossy(&resp.body)
    )
}

/// Opens a connection; a line connection's greeting is consumed first.
fn connect(addr: SocketAddr, proto: Proto) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    if proto == Proto::Line {
        // The greeting is one line; read it byte by byte so nothing past
        // it is consumed here.
        let mut byte = [0u8; 1];
        let mut s = &stream;
        loop {
            s.read_exact(&mut byte)?;
            if byte[0] == b'\n' {
                break;
            }
        }
    }
    Ok(stream)
}

/// One request's life.
#[derive(Debug, Clone)]
pub struct Record {
    pub req: Req,
    /// Send order within the window.
    pub seq: usize,
    /// When it was first sent.
    pub sent: Instant,
    pub done: Option<Instant>,
    pub reply: Option<Reply>,
    pub retries: u32,
    /// Generator turnaround: the gap between the previous reply on this
    /// connection and this send.
    pub late: Duration,
}

/// A set of connections to one gateway, ready to drive windows.
pub struct Client {
    conns: Vec<Conn>,
    poller: Poller,
}

impl Client {
    pub fn connect(
        line: SocketAddr,
        http: SocketAddr,
        protos: &[Proto],
    ) -> std::io::Result<Client> {
        let poller = Poller::new()?;
        let mut conns = Vec::new();
        for (i, &proto) in protos.iter().enumerate() {
            let addr = match proto {
                Proto::Line => line,
                Proto::Http => http,
            };
            let stream = connect(addr, proto)?;
            poller.add(&stream, Event::readable(i))?;
            conns.push(Conn {
                proto,
                stream,
                buf: Vec::new(),
                inflight: VecDeque::new(),
                open: true,
            });
        }
        Ok(Client { conns, poller })
    }

    fn send(&mut self, conn: usize, idx: usize, line: &str) -> bool {
        let c = &mut self.conns[conn];
        if !c.open {
            return false;
        }
        c.inflight.push_back(idx);
        if c.stream.write_all(&encode(c.proto, line)).is_err() {
            c.open = false;
            return false;
        }
        true
    }

    /// Waits up to `timeout` for readable connections and returns what
    /// they held.
    fn poll(&mut self, timeout: Duration) -> Vec<Msg> {
        let mut events = Vec::new();
        if self.poller.wait(&mut events, Some(timeout)).is_err() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for ev in events {
            let Some(c) = self.conns.get_mut(ev.key) else {
                continue;
            };
            if !c.open {
                continue;
            }
            let replies = c.pump();
            let at = Instant::now();
            out.extend(replies.into_iter().map(|(req, reply)| Msg::Reply {
                conn: ev.key,
                req,
                at,
                reply,
            }));
            if !c.open {
                let _ = self.poller.delete(&c.stream);
                out.push(Msg::Closed { conn: ev.key });
            }
        }
        out
    }

    /// Sends one line on connection `conn` and waits for its reply
    /// (set-up and identity checks; nothing else is in flight).
    pub fn roundtrip(&mut self, conn: usize, line: &str) -> Option<Reply> {
        if !self.send(conn, usize::MAX, line) {
            return None;
        }
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < give_up {
            for msg in self.poll(Duration::from_millis(50)) {
                match msg {
                    Msg::Reply { reply, .. } => return Some(reply),
                    Msg::Closed { conn: c } if c == conn => return None,
                    Msg::Closed { .. } => {}
                }
            }
        }
        None
    }

    /// Drives one window of `seconds` from `gen` with `depth` jobs in
    /// flight per connection, handing every request to `sink` once it is
    /// answered (or, at the end, lost). `seq` in the record is the send
    /// order.
    pub fn drive(
        &mut self,
        gen: &mut Generator,
        depth: usize,
        seconds: f64,
        sink: &mut dyn FnMut(Record),
    ) {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let n = self.conns.len();
        let mut inflight: HashMap<usize, Record> = HashMap::new();
        let mut seq = 0usize;
        let mut last_done: Vec<Instant> = vec![start; n];
        // Jobs in flight per connection.
        let mut busy: Vec<usize> = vec![0; n];
        let mut held: Option<Req> = None;
        loop {
            let now = Instant::now();
            // Fill every connection up to `depth` until none has room (or a
            // duplicate waits for all of them).
            if now < end {
                loop {
                    let free: Vec<usize> = (0..n)
                        .filter(|&c| busy[c] < depth && self.conns[c].open)
                        .collect();
                    if free.is_empty() {
                        break;
                    }
                    let req = held.take().unwrap_or_else(|| gen.next_req());
                    // A duplicate goes out on every connection at once, so the
                    // copies are in flight together.
                    let targets = if req.dup && n > 1 {
                        if free.len() < n {
                            held = Some(req);
                            break;
                        }
                        free
                    } else {
                        vec![free[0]]
                    };
                    for c in targets {
                        let sent = Instant::now();
                        let rec = Record {
                            req: req.clone(),
                            seq,
                            sent,
                            done: None,
                            reply: None,
                            retries: 0,
                            late: sent.saturating_duration_since(last_done[c]),
                        };
                        if self.send(c, seq, &req.line) {
                            inflight.insert(seq, rec);
                        } else {
                            sink(rec);
                        }
                        seq += 1;
                        busy[c] += 1;
                    }
                }
            }
            if (now >= end && inflight.is_empty()) || now >= end + DRAIN_TIMEOUT {
                break;
            }
            for msg in self.poll(Duration::from_millis(50)) {
                match msg {
                    Msg::Reply {
                        conn,
                        req,
                        at,
                        reply,
                    } => {
                        let Some(mut rec) = inflight.remove(&req) else {
                            continue;
                        };
                        if reply.is_shed() && rec.retries < MAX_RETRIES {
                            rec.retries += 1;
                            if self.send(conn, req, &rec.req.line) {
                                inflight.insert(req, rec);
                            } else {
                                sink(rec);
                                busy[conn] -= 1;
                            }
                            continue;
                        }
                        rec.done = Some(at);
                        rec.reply = Some(reply);
                        sink(rec);
                        last_done[conn] = at;
                        busy[conn] -= 1;
                    }
                    Msg::Closed { conn } => {
                        for k in std::mem::take(&mut self.conns[conn].inflight) {
                            if let Some(rec) = inflight.remove(&k) {
                                sink(rec);
                            }
                        }
                    }
                }
            }
        }
        let mut left: Vec<Record> = inflight.into_values().collect();
        left.sort_by_key(|r| r.seq);
        left.into_iter().for_each(sink);
    }

    /// Ends every connection cleanly: asks the gateway to close it and
    /// reads until it has.
    pub fn close(self) {
        for mut c in self.conns {
            if c.open {
                let bye: &[u8] = match c.proto {
                    Proto::Line => b"quit\n",
                    Proto::Http => {
                        b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
                    }
                };
                let _ = c.stream.write_all(bye);
                let _ = c.stream.shutdown(std::net::Shutdown::Write);
                let _ = c.stream.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = std::io::copy(&mut c.stream, &mut std::io::sink());
            }
        }
    }
}

/// Fetches `GET <path>` over a fresh HTTP connection (outside any window).
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)?;
    match http::parse_response(&buf, &HTTP_LIMITS) {
        http::Parse::Complete { value, .. } if value.status == 200 => {
            Ok(String::from_utf8_lossy(&value.body).into_owned())
        }
        _ => Err(std::io::Error::other(format!("bad answer to GET {path}"))),
    }
}
