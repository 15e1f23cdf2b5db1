//! A blocking protocol client for tests, benches, and examples.
//!
//! [`NetClient`] speaks the length-prefixed frame protocol over one
//! TCP connection: `hello` handshake, `submit` (header + grid payload),
//! then event streaming per job — `progress` frames for multi-round
//! jobs, a `done` header plus the result payload, or a typed
//! `rejected` / `error`. The client is deliberately synchronous: each
//! call reads until its answer arrives, which is exactly what a
//! closed-loop bench or an e2e test wants.
//!
//! Grid payloads take no per-frame buffer: a submit's values are
//! encoded from the caller's slice through one fixed stack chunk onto
//! the socket, and a result's bytes are decoded into its `Vec<f64>` as
//! they arrive, a stack chunk at a time (see [`super::wire`] for the one
//! encoder and decoder both use).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use stencil_obs::json::Value;

use super::wire::{
    self, ClientMsg, Frame, RejectReason, ServerMsg, SubmitHeader, WireError, DEFAULT_MAX_FRAME,
    KIND_PAYLOAD, LEN_PREFIX,
};

/// Bytes of the stack chunk a payload is streamed through each way.
const CHUNK: usize = 64 * 1024;

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame that failed to decode.
    Wire(WireError),
    /// The server answered out of protocol (unexpected message kind).
    Protocol(String),
    /// The server reported a job or connection error.
    Remote(String),
    /// The submission was refused by admission control.
    Rejected {
        /// Why: queue-full, quota-exceeded, shutting-down, or
        /// quarantined.
        reason: RejectReason,
        /// The server's suggested backoff.
        retry_after: Duration,
    },
    /// The job was shed server-side: its queue-wait deadline passed
    /// before a worker dequeued it.
    Deadline {
        /// The deadline the submission carried, milliseconds.
        deadline_ms: u64,
        /// How long the round actually waited, milliseconds.
        waited_ms: u64,
    },
    /// A receive exceeded the read timeout: the server accepted the
    /// connection but stalled without answering — typed, so callers
    /// back off instead of blocking forever on a wedged peer.
    Timeout {
        /// The configured receive bound (`None` would block forever,
        /// so this is always `Some` when the variant is produced).
        limit: Option<Duration>,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::Remote(m) => write!(f, "server error: {m}"),
            NetError::Rejected {
                reason,
                retry_after,
            } => write!(
                f,
                "submission rejected ({}), retry after {retry_after:?}",
                reason.as_str()
            ),
            NetError::Deadline {
                deadline_ms,
                waited_ms,
            } => write!(
                f,
                "job shed: waited {waited_ms} ms past a {deadline_ms} ms deadline"
            ),
            NetError::Timeout { limit } => {
                write!(f, "receive timed out (limit {limit:?}): server stalled")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// One streamed update for an in-flight job.
#[derive(Debug)]
pub enum JobEvent {
    /// `round` of `rounds` finished; more follow.
    Progress {
        /// Rounds completed so far.
        round: u64,
        /// Total rounds this job runs.
        rounds: u64,
    },
    /// The job finished; carries the result.
    Done(JobOutcome),
}

/// A finished job's result as received off the wire.
#[derive(Debug)]
pub struct JobOutcome {
    /// Result grid extents (row-major).
    pub extents: Vec<usize>,
    /// Result grid data, dense row-major.
    pub data: Vec<f64>,
    /// Shards the final round executed as.
    pub shards: u64,
    /// True when any round rode a multi-job batch.
    pub batched: bool,
    /// Queue+execution latency summed across rounds, microseconds.
    pub latency_us: u64,
}

/// A blocking connection to a [`super::NetServer`].
///
/// Multiple jobs can be in flight on one connection: the server
/// interleaves their `progress`/`done` frames, so every receive path
/// demultiplexes — stream messages for *other* jobs are buffered and
/// replayed by [`NetClient::next_event`], never dropped or mistaken
/// for the reply being waited on.
pub struct NetClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    max_frame: usize,
    next_id: u64,
    tenant: String,
    read_timeout: Option<Duration>,
    /// Buffered stream events per job id (`Err` = a terminal
    /// `job-error` or `deadline`).
    events: HashMap<u64, VecDeque<Result<JobEvent, JobFailure>>>,
}

/// A buffered terminal failure for one job, kept typed until the
/// caller's `next_event` turns it into the matching [`NetError`].
#[derive(Debug)]
enum JobFailure {
    Error(String),
    Deadline { deadline_ms: u64, waited_ms: u64 },
}

impl JobFailure {
    fn into_error(self) -> NetError {
        match self {
            JobFailure::Error(m) => NetError::Remote(m),
            JobFailure::Deadline {
                deadline_ms,
                waited_ms,
            } => NetError::Deadline {
                deadline_ms,
                waited_ms,
            },
        }
    }
}

/// Default receive timeout applied at [`NetClient::connect`]: a server
/// that accepts the connection and then never answers surfaces as a
/// typed [`NetError::Timeout`] instead of a forever-blocked client.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

impl NetClient {
    /// Connect and run the `hello` handshake for `tenant`. Returns the
    /// connected client; the server's per-tenant quota is available via
    /// the handshake but not retained. Receives are bounded by
    /// [`DEFAULT_READ_TIMEOUT`] (adjust with
    /// [`NetClient::set_read_timeout`]).
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Self, NetError> {
        Self::connect_with_timeout(addr, tenant, Some(DEFAULT_READ_TIMEOUT))
    }

    /// [`NetClient::connect`] with an explicit receive timeout
    /// (`None` = block forever, the pre-timeout behavior).
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        tenant: &str,
        timeout: Option<Duration>,
    ) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(timeout)?;
        let mut c = Self {
            stream,
            rbuf: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME,
            next_id: 1,
            tenant: tenant.to_string(),
            read_timeout: timeout,
            events: HashMap::new(),
        };
        c.send_msg(&ClientMsg::Hello {
            tenant: tenant.into(),
        })?;
        match c.recv_msg()? {
            ServerMsg::HelloOk { .. } => Ok(c),
            other => Err(NetError::Protocol(format!(
                "expected hello-ok, got {other:?}"
            ))),
        }
    }

    /// The tenant this connection identified as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Cap accepted inbound frames (mirrors the server-side limit).
    pub fn set_max_frame(&mut self, max: usize) {
        self.max_frame = max;
    }

    /// Bound how long a single receive may block (`None` = forever).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(t)?;
        self.read_timeout = t;
        Ok(())
    }

    /// Submit a job: `header` (its `id` is assigned here) plus the
    /// dense row-major grid `data`. Returns the job id once the server
    /// answers `accepted`; a refusal surfaces as
    /// [`NetError::Rejected`].
    pub fn submit(&mut self, mut header: SubmitHeader, data: &[f64]) -> Result<u64, NetError> {
        header.id = self.next_id;
        self.next_id += 1;
        let id = header.id;
        self.send_msg(&ClientMsg::Submit(header))?;
        let stream = &mut self.stream;
        wire::encode_payload(data.len(), [data], &mut [0; CHUNK], |bytes| {
            stream.write_all(bytes)
        })?;
        loop {
            // a failed submission answers job-error instead of accepted
            if let Some(ev) = self.take_event(id) {
                return match ev {
                    Err(fail) => Err(fail.into_error()),
                    Ok(ev) => Err(NetError::Protocol(format!(
                        "job {id} streamed {ev:?} before being accepted"
                    ))),
                };
            }
            match self.recv_control()? {
                Some(ServerMsg::Accepted { id: got }) if got == id => return Ok(id),
                Some(ServerMsg::Rejected {
                    id: got,
                    reason,
                    retry_after_ms,
                }) if got == id => {
                    return Err(NetError::Rejected {
                        reason,
                        retry_after: Duration::from_millis(retry_after_ms),
                    })
                }
                Some(ServerMsg::Error { message }) => return Err(NetError::Remote(message)),
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "expected accepted, got {other:?}"
                    )))
                }
                None => continue, // another job's stream message, buffered
            }
        }
    }

    /// Block for the next event on job `id`: a progress update or the
    /// final result (whose payload frame is read here too). Events for
    /// other in-flight jobs arriving in between are buffered for their
    /// own `next_event` calls.
    pub fn next_event(&mut self, id: u64) -> Result<JobEvent, NetError> {
        loop {
            if let Some(ev) = self.take_event(id) {
                return ev.map_err(JobFailure::into_error);
            }
            match self.recv_control()? {
                None => continue,
                Some(ServerMsg::Error { message }) => return Err(NetError::Remote(message)),
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "unexpected message while waiting on job {id}: {other:?}"
                    )))
                }
            }
        }
    }

    /// Submit and drive a job to completion, discarding progress
    /// events. The closed-loop convenience path.
    pub fn run(&mut self, header: SubmitHeader, data: &[f64]) -> Result<JobOutcome, NetError> {
        let id = self.submit(header, data)?;
        loop {
            match self.next_event(id)? {
                JobEvent::Progress { .. } => continue,
                JobEvent::Done(outcome) => return Ok(outcome),
            }
        }
    }

    /// Cancel job `id` (pending rounds are dropped; a round already
    /// executing still runs, into the void).
    pub fn cancel(&mut self, id: u64) -> Result<(), NetError> {
        self.send_msg(&ClientMsg::Cancel { id })?;
        loop {
            // "no such job" (or a racing completion) lands in the
            // job's stream buffer
            if let Some(ev) = self.take_event(id) {
                return match ev {
                    Err(fail) => Err(fail.into_error()),
                    Ok(ev) => Err(NetError::Protocol(format!(
                        "job {id} streamed {ev:?} while cancelling"
                    ))),
                };
            }
            match self.recv_control()? {
                Some(ServerMsg::Cancelled { id: got }) if got == id => return Ok(()),
                Some(ServerMsg::Error { message }) => return Err(NetError::Remote(message)),
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "expected cancelled, got {other:?}"
                    )))
                }
                None => continue,
            }
        }
    }

    /// Fetch the live [`crate::StatsSnapshot`] JSON document.
    pub fn stats(&mut self) -> Result<Value, NetError> {
        self.send_msg(&ClientMsg::Stats)?;
        loop {
            match self.recv_control()? {
                Some(ServerMsg::Stats(doc)) => return Ok(doc),
                Some(other) => {
                    return Err(NetError::Protocol(format!("expected stats, got {other:?}")))
                }
                None => continue,
            }
        }
    }

    /// In-band liveness probe. Returns `(status, open_connections)`.
    pub fn health(&mut self) -> Result<(String, u64), NetError> {
        self.send_msg(&ClientMsg::Health)?;
        loop {
            match self.recv_control()? {
                Some(ServerMsg::Health { status, conns }) => return Ok((status, conns)),
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "expected health, got {other:?}"
                    )))
                }
                None => continue,
            }
        }
    }

    /// Orderly goodbye: the server acknowledges and closes.
    pub fn bye(mut self) -> Result<(), NetError> {
        self.send_msg(&ClientMsg::Bye)?;
        loop {
            match self.recv_control()? {
                Some(ServerMsg::ByeOk) => return Ok(()),
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "expected bye-ok, got {other:?}"
                    )))
                }
                None => continue,
            }
        }
    }

    /// Pop a buffered stream event for job `id`.
    fn take_event(&mut self, id: u64) -> Option<Result<JobEvent, JobFailure>> {
        let q = self.events.get_mut(&id)?;
        let ev = q.pop_front();
        if q.is_empty() {
            self.events.remove(&id);
        }
        ev
    }

    /// Receive one message; per-job stream messages (`progress`,
    /// `done` + payload, `job-error`) are buffered and reported as
    /// `None`, anything else is returned for the caller to match.
    fn recv_control(&mut self) -> Result<Option<ServerMsg>, NetError> {
        match self.recv_msg()? {
            ServerMsg::Progress { id, round, rounds } => {
                self.events
                    .entry(id)
                    .or_default()
                    .push_back(Ok(JobEvent::Progress { round, rounds }));
                Ok(None)
            }
            ServerMsg::Done {
                id,
                shards,
                batched,
                latency_us,
                extents,
            } => {
                let data = self.recv_payload()?;
                self.events
                    .entry(id)
                    .or_default()
                    .push_back(Ok(JobEvent::Done(JobOutcome {
                        extents,
                        data,
                        shards,
                        batched,
                        latency_us,
                    })));
                Ok(None)
            }
            ServerMsg::JobError { id, message } => {
                self.events
                    .entry(id)
                    .or_default()
                    .push_back(Err(JobFailure::Error(message)));
                Ok(None)
            }
            ServerMsg::Deadline {
                id,
                deadline_ms,
                waited_ms,
            } => {
                self.events
                    .entry(id)
                    .or_default()
                    .push_back(Err(JobFailure::Deadline {
                        deadline_ms,
                        waited_ms,
                    }));
                Ok(None)
            }
            other => Ok(Some(other)),
        }
    }

    fn send_msg(&mut self, msg: &ClientMsg) -> Result<(), NetError> {
        let mut buf = Vec::new();
        wire::encode(&Frame::Header(msg.to_json()), &mut buf);
        self.stream.write_all(&buf)?;
        Ok(())
    }

    fn recv_msg(&mut self) -> Result<ServerMsg, NetError> {
        match self.recv_frame()? {
            Frame::Header(doc) => {
                ServerMsg::from_json(&doc).map_err(|e| NetError::Protocol(e.to_string()))
            }
            Frame::Payload(_) => Err(NetError::Protocol(
                "unexpected payload frame; expected a message header".into(),
            )),
        }
    }

    fn recv_frame(&mut self) -> Result<Frame, NetError> {
        loop {
            if let Some((frame, used)) = wire::decode(&self.rbuf, self.max_frame)? {
                self.rbuf.drain(..used);
                return Ok(frame);
            }
            self.fill_rbuf()?;
        }
    }

    /// Read once from the socket onto the end of the read buffer. The
    /// end of the stream is an error: the typed truncation when a
    /// partial frame is stranded, else a protocol error.
    fn fill_rbuf(&mut self) -> Result<(), NetError> {
        let mut chunk = [0u8; CHUNK];
        let n = self.read_some(&mut chunk)?;
        if n == 0 {
            // orderly remote close mid-read: surface the typed
            // truncation if a partial frame is stranded
            wire::decode_eof(&self.rbuf, self.max_frame)?;
            return Err(NetError::Protocol("connection closed by the server".into()));
        }
        self.rbuf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// One `read()` into `buf`, retried when interrupted; 0 at the end
    /// of the stream.
    fn read_some(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => return Ok(n),
                // the OS reports a read timeout as WouldBlock (unix)
                // or TimedOut (windows); both mean "the server went
                // quiet past the bound", which deserves its own type
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(NetError::Timeout {
                        limit: self.read_timeout,
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Receive the payload frame that follows a `done` header, decoding
    /// its values into the result as the bytes arrive: the bytes already
    /// buffered behind its head first, then straight off the socket
    /// through a stack chunk, never reading past the frame's end. Wire
    /// errors keep [`Self::recv_frame`]'s types; the stream ending
    /// mid-frame is the same [`WireError::Truncated`].
    fn recv_payload(&mut self) -> Result<Vec<f64>, NetError> {
        let (kind, len) = loop {
            if let Some(head) = wire::frame_head(&self.rbuf, self.max_frame)? {
                break head;
            }
            self.fill_rbuf()?;
        };
        if kind != KIND_PAYLOAD {
            // whatever it is decodes (or fails) as any frame would
            self.recv_frame()?;
            return Err(NetError::Protocol(
                "done header without its payload frame".into(),
            ));
        }
        let head = LEN_PREFIX + 1;
        let n = wire::payload_values(len - 1)?;
        let mut data = Vec::with_capacity(n);
        let buffered = (self.rbuf.len() - head).min(n * 8);
        data.extend(wire::f64s(&self.rbuf[head..head + buffered]));
        // a value split across reads waits at the chunk's front
        let mut chunk = [0u8; CHUNK];
        let mut carry = buffered % 8;
        chunk[..carry].copy_from_slice(&self.rbuf[head + buffered - carry..head + buffered]);
        self.rbuf.drain(..head + buffered);
        while data.len() < n {
            let rest = (n - data.len()) * 8 - carry;
            let end = carry + rest.min(CHUNK - carry);
            let got = self.read_some(&mut chunk[carry..end])?;
            if got == 0 {
                return Err(WireError::Truncated {
                    have: head + data.len() * 8 + carry,
                    need: LEN_PREFIX + len,
                }
                .into());
            }
            let avail = carry + got;
            data.extend(wire::f64s(&chunk[..avail]));
            carry = avail % 8;
            chunk.copy_within(avail - carry..avail, 0);
        }
        Ok(data)
    }
}

/// Plain HTTP `GET` against the same port (the scrape surface).
/// Returns `(status_code, body)`.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> Result<(u16, String), NetError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let mut parts = text.splitn(2, "\r\n\r\n");
    let head = parts.next().unwrap_or("");
    let body = parts.next().unwrap_or("").to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| NetError::Protocol(format!("malformed http response: {head:?}")))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
    use stencil_core::kernels;

    /// A one-connection server that answers the hello and one submit
    /// (header and payload) with `accepted` and a `done` header, then
    /// plays `result` — the bytes of the payload frame, or a prefix of
    /// them — on the socket.
    fn scripted_server(
        result: impl FnOnce(&mut TcpStream, Vec<u8>) + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            sock.set_nodelay(true).unwrap();
            let mut rbuf = Vec::new();
            let mut next = |sock: &mut TcpStream| loop {
                if let Some((frame, used)) = wire::decode(&rbuf, DEFAULT_MAX_FRAME).unwrap() {
                    rbuf.drain(..used);
                    return frame;
                }
                let mut chunk = [0u8; 4096];
                let n = sock.read(&mut chunk).unwrap();
                assert!(n > 0, "the client hung up early");
                rbuf.extend_from_slice(&chunk[..n]);
            };
            let msg = |m: ServerMsg| {
                let mut out = Vec::new();
                wire::encode(&Frame::Header(m.to_json()), &mut out);
                out
            };
            next(&mut sock); // hello
            sock.write_all(&msg(ServerMsg::HelloOk {
                tenant: "t".into(),
                quota: 1,
            }))
            .unwrap();
            next(&mut sock); // submit header
            let Frame::Payload(data) = next(&mut sock) else {
                panic!("a submit's payload frame")
            };
            let mut reply = msg(ServerMsg::Accepted { id: 1 });
            reply.extend(msg(ServerMsg::Done {
                id: 1,
                shards: 1,
                batched: false,
                latency_us: 1,
                extents: vec![data.len()],
            }));
            sock.write_all(&reply).unwrap();
            let mut payload = Vec::new();
            wire::encode(&Frame::Payload(data), &mut payload);
            result(&mut sock, payload);
        });
        (addr, server)
    }

    fn header(n: usize) -> SubmitHeader {
        SubmitHeader {
            id: 0,
            name: "heat1d".into(),
            pattern: kernels::heat1d(),
            extents: vec![n],
            steps: 1,
            rounds: 1,
            tuning: None,
            deadline_ms: None,
        }
    }

    /// Values whose bits only survive a bit-exact path.
    fn awkward(n: usize) -> Vec<f64> {
        let special = [
            0.0,
            -0.0,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload bits
            f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN, sign set
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1), // smallest subnormal
        ];
        (0..n)
            .map(|i| special.get(i % 11).copied().unwrap_or(i as f64 * -0.37))
            .collect()
    }

    #[test]
    fn a_result_payload_decodes_across_reads_that_split_its_values() {
        // the server echoes the submitted values as the result, in pieces
        // of 1, 2, 3, 5, 7, 11 and 13 bytes with a pause after each, so
        // the client's reads end inside values and its carry bridges
        // them; the first piece rides the read that brings the done header
        let data = awkward(160);
        let (addr, server) = scripted_server(|sock, payload| {
            let pieces = [1usize, 2, 3, 5, 7, 11, 13];
            let mut at = 0;
            for len in pieces.iter().cycle() {
                let end = (at + len).min(payload.len());
                sock.write_all(&payload[at..end]).unwrap();
                at = end;
                if at == payload.len() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        let mut client = NetClient::connect(addr, "t").unwrap();
        let out = client.run(header(data.len()), &data).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.data), bits(&data));
        server.join().unwrap();
    }

    #[test]
    fn a_stalled_result_payload_times_out_typed() {
        // half the payload, then silence with the socket held open: the
        // payload read is bounded like any receive
        let (addr, server) = scripted_server(|sock, payload| {
            sock.write_all(&payload[..payload.len() / 2]).unwrap();
            std::thread::sleep(Duration::from_millis(800));
        });
        let limit = Duration::from_millis(150);
        let mut client = NetClient::connect_with_timeout(addr, "t", Some(limit)).unwrap();
        let err = client
            .run(header(64), &awkward(64))
            .expect_err("a stalled payload must fail");
        assert!(
            matches!(err, NetError::Timeout { limit: Some(l) } if l == limit),
            "expected a typed timeout, got {err:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn a_cut_or_misframed_result_payload_is_a_typed_wire_error() {
        // the stream ends 3 bytes into the 4th value of 10: the typed
        // truncation with the frame's byte counts, as decode_eof reports
        let (addr, server) = scripted_server(|sock, payload| {
            sock.write_all(&payload[..LEN_PREFIX + 1 + 3 * 8 + 3])
                .unwrap();
        });
        let mut client = NetClient::connect(addr, "t").unwrap();
        let err = client.run(header(10), &awkward(10)).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Wire(WireError::Truncated { have: 32, need: 85 })
            ),
            "{err:?}"
        );
        server.join().unwrap();
        // a payload body that is not a whole number of values
        let (addr, server) = scripted_server(|sock, _| {
            sock.write_all(&[0, 0, 0, 4, KIND_PAYLOAD, 1, 2, 3])
                .unwrap();
        });
        let mut client = NetClient::connect(addr, "t").unwrap();
        let err = client.run(header(10), &awkward(10)).unwrap_err();
        assert!(
            matches!(err, NetError::Wire(WireError::BadPayloadLen(3))),
            "{err:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn a_server_that_accepts_but_never_replies_times_out_typed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // the "server" accepts and then goes silent, holding the socket
        // open so the client blocks in the hello handshake's receive —
        // the exact stall the default read timeout exists to bound
        let hold = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(800));
            drop(sock);
        });
        let limit = Duration::from_millis(150);
        let start = std::time::Instant::now();
        let err = NetClient::connect_with_timeout(addr, "tenant", Some(limit))
            .err()
            .expect("handshake against a mute server must fail");
        assert!(
            matches!(err, NetError::Timeout { limit: Some(l) } if l == limit),
            "expected a typed timeout carrying the limit, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_millis(700),
            "timeout must fire near the configured bound, not at socket death"
        );
        hold.join().unwrap();
    }
}
