//! Per-connection state for the poll loop: non-blocking read/write
//! buffering, frame extraction, protocol sniffing, and idle tracking.
//!
//! A [`Conn`] is one slot in the server's connection slab. All I/O is
//! non-blocking — the poll loop calls [`Conn::fill_read`] and
//! [`Conn::flush_write`] each tick, and a connection never pins a
//! thread while idle.
//!
//! Both buffers are cursors over memory the connection keeps. Reads
//! land straight in the read buffer's spare room and never run past the
//! frame in progress, so the buffer is compacted only while that frame
//! has barely started — a large payload is never moved once received —
//! and [`Conn::next_frame`] hands a complete frame's body to the caller
//! in place: the server decodes a submit's payload from there into the
//! job's grid. Outbound frames are encoded
//! onto the end of the write buffer ([`Conn::send_payload`] straight
//! from a grid's rows); a flush advances a cursor past what the socket
//! took, and the buffer compacts only once it has drained (or once the
//! sent prefix outgrows a frame limit, so a peer that never quite
//! catches up cannot grow it without bound) — never a move of the unsent
//! bytes after every partial write. The backlog cap counts *unsent*
//! bytes: a peer that stops reading while the server streams results is
//! dropped instead of ballooning memory.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use super::wire::{self, Body, Frame, WireError, LEN_PREFIX};

/// Most unsent bytes staged for a peer that is not reading them before
/// the connection is declared dead (twice the frame limit: one in-flight
/// result frame plus headroom).
const MAX_WRITE_BACKLOG_FACTOR: usize = 2;

/// The read window while no frame's length is known (and the least the
/// read buffer grows by).
const READ_CHUNK: usize = 64 * 1024;

/// What the first byte said this connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnMode {
    /// Nothing received yet.
    Sniffing,
    /// Length-prefixed frames (the job protocol).
    Frames,
    /// An HTTP scrape (`GET /healthz`, `GET /metrics`): one request,
    /// one response, close.
    Http,
}

/// One connection in the server's slab.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub peer: SocketAddr,
    pub mode: ConnMode,
    /// Tenant set by `hello` (frames mode only).
    pub tenant: Option<String>,
    /// Read buffer: `rbuf[rpos..rend]` arrived and is not yet consumed;
    /// the rest is spare room the next read lands in.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// Write buffer: `wbuf[wpos..]` is staged and not yet sent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Last moment bytes arrived from the peer.
    pub last_activity: Instant,
    /// Flush pending writes, then close (orderly goodbye / HTTP done /
    /// after a protocol error).
    pub closing: bool,
    /// The socket is gone (EOF or error); reap without flushing.
    pub dead: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, peer: SocketAddr, now: Instant) -> Self {
        Self {
            stream,
            peer,
            mode: ConnMode::Sniffing,
            tenant: None,
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            wbuf: Vec::new(),
            wpos: 0,
            last_activity: now,
            closing: false,
            dead: false,
        }
    }

    /// Received bytes not yet consumed.
    fn unread(&self) -> &[u8] {
        &self.rbuf[self.rpos..self.rend]
    }

    /// Make room for the next read and return where its window ends:
    /// at the end of the frame in progress — the first one not yet
    /// complete — once its length prefix is in, [`READ_CHUNK`] bytes on
    /// before that. A read never runs past that frame, so when the room
    /// for it is short the unread bytes move to the front while they are
    /// few — the frame's first chunk and any small frames before it — and
    /// no large frame is ever moved. Complete frames waiting at the front
    /// are not moved either: `None` says to stop reading until the
    /// protocol layer has taken them. The buffer grows only when the room
    /// is short even at the front, by at most what has arrived (a bare
    /// length prefix cannot reserve a frame limit's worth of memory).
    fn make_room(&mut self) -> Option<usize> {
        let mut at = self.rpos;
        let need = loop {
            match wire::frame_head(&self.rbuf[at..self.rend], wire::HARD_FRAME_CAP) {
                Ok(Some((_, len))) if LEN_PREFIX + len <= self.rend - at => at += LEN_PREFIX + len,
                Ok(Some((_, len))) => break LEN_PREFIX + len - (self.rend - at),
                _ => break READ_CHUNK,
            }
        };
        if self.rbuf.len() - self.rend < need {
            if at > self.rpos {
                return None;
            }
            let unread = self.rend - self.rpos;
            if self.rpos > 0 {
                self.rbuf.copy_within(self.rpos..self.rend, 0);
                (self.rpos, self.rend) = (0, unread);
            }
            let grow = need.min(unread.max(READ_CHUNK));
            if self.rbuf.len() - self.rend < grow {
                self.rbuf.resize(self.rend + grow, 0);
            }
        }
        Some(self.rbuf.len().min(self.rend + need))
    }

    /// Pull every available byte off the socket (non-blocking) into the
    /// read buffer. Returns how many arrived; EOF or a hard error marks
    /// the connection dead.
    pub fn fill_read(&mut self, now: Instant) -> usize {
        let mut total = 0;
        while let Some(window) = self.make_room() {
            // chaos: deliver one byte instead of a full chunk — frames
            // arrive maximally fragmented and the reassembly path (the
            // `Ok(None)`/partial-prefix handling in `next_frame`) is
            // exercised on every boundary; data is never corrupted
            let end = if stencil_faults::should_fire(stencil_faults::Failpoint::NetShortRead) {
                self.rend + 1
            } else {
                window
            };
            match self.stream.read(&mut self.rbuf[self.rend..end]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.rend += n;
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if total > 0 {
            self.last_activity = now;
            if self.mode == ConnMode::Sniffing {
                // Frame length prefixes are capped below 1 GiB, so a
                // first byte in the ASCII-letter range can only be an
                // HTTP request line (GET/HEAD/...).
                self.mode = if self.unread()[0].is_ascii_uppercase() {
                    ConnMode::Http
                } else {
                    ConnMode::Frames
                };
            }
        }
        total
    }

    /// Hand the next complete frame's body, in place in the read buffer,
    /// to `take`, and consume the frame. `Ok(None)` = need more bytes.
    /// The decode span covers `take`: it is where the frame's body is
    /// decoded.
    pub fn next_frame<T>(
        &mut self,
        max_frame: usize,
        take: impl FnOnce(Body<'_>) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        let span = stencil_obs::span(stencil_obs::SpanId::NetDecode);
        let unread = &self.rbuf[self.rpos..self.rend];
        match wire::split(unread, max_frame)? {
            None => {
                // no complete frame: nothing was decoded, no span
                span.cancel();
                if self.dead && !unread.is_empty() {
                    // stream ended mid-frame: surface it as the typed
                    // truncation error (once), then discard
                    let r = wire::decode_eof(unread, max_frame).map(|_| None);
                    self.rpos = self.rend;
                    return r;
                }
                Ok(None)
            }
            Some((body, used)) => {
                let taken = take(body);
                self.rpos += used;
                if self.rpos == self.rend {
                    (self.rpos, self.rend) = (0, 0);
                }
                taken.map(Some)
            }
        }
    }

    /// The buffered HTTP request, if it is complete (headers ended).
    /// Consumes the request bytes.
    pub fn take_http_request(&mut self) -> Option<Vec<u8>> {
        let end = self
            .unread()
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)?;
        let request = self.unread()[..end].to_vec();
        self.rpos += end;
        Some(request)
    }

    /// Bytes buffered but not yet consumed by the protocol layer.
    pub fn read_backlog(&self) -> usize {
        self.rend - self.rpos
    }

    /// Stage one frame for sending.
    pub fn send(&mut self, frame: &Frame) {
        let _span = stencil_obs::span(stencil_obs::SpanId::NetEncode);
        wire::encode(frame, &mut self.wbuf);
    }

    /// Stage a payload frame of the `n` values `rows` yields, encoded
    /// straight from them.
    pub fn send_payload<'a>(&mut self, n: usize, rows: impl IntoIterator<Item = &'a [f64]>) {
        let _span = stencil_obs::span(stencil_obs::SpanId::NetEncode);
        wire::append_payload(n, rows, &mut self.wbuf);
    }

    /// Stage raw bytes (HTTP responses).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Bytes staged and not yet sent.
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Push staged bytes to the socket (non-blocking). Returns how many
    /// were written — progress the poll loop counts as work. A peer that
    /// lets the unsent backlog grow past the cap is dropped.
    pub fn flush_write(&mut self, max_frame: usize) -> usize {
        let mut written = 0;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > max_frame {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        if self.unsent() > max_frame.saturating_mul(MAX_WRITE_BACKLOG_FACTOR) {
            self.dead = true;
        }
        written
    }

    /// True when every staged byte reached the socket.
    pub fn write_drained(&self) -> bool {
        self.unsent() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = l.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    /// Materialize a frame the way `wire::decode` does.
    fn frame(body: Body<'_>) -> Result<Frame, WireError> {
        Ok(match body {
            Body::Header(text) => Frame::Header(wire::parse_header(text)?),
            Body::Payload(bytes) => Frame::Payload(wire::f64s(bytes).collect()),
        })
    }

    #[test]
    fn sniffs_http_vs_frames() {
        let now = Instant::now();
        let (client, server) = pair();
        let peer = server.peer_addr().unwrap();
        let mut conn = Conn::new(server, peer, now);
        let mut c = client;
        std::io::Write::write_all(&mut c, b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        while conn.fill_read(Instant::now()) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(conn.mode, ConnMode::Http);
        assert!(conn.take_http_request().is_some());
        assert_eq!(conn.read_backlog(), 0);

        let (client2, server2) = pair();
        let peer2 = server2.peer_addr().unwrap();
        let mut conn2 = Conn::new(server2, peer2, now);
        let mut buf = Vec::new();
        wire::encode(
            &Frame::Header(super::super::wire::ClientMsg::Stats.to_json()),
            &mut buf,
        );
        let mut c2 = client2;
        std::io::Write::write_all(&mut c2, &buf).unwrap();
        while conn2.fill_read(Instant::now()) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(conn2.mode, ConnMode::Frames);
        let got = conn2.next_frame(wire::DEFAULT_MAX_FRAME, frame).unwrap();
        assert!(matches!(got, Some(Frame::Header(_))));
        // nothing further buffered
        assert!(conn2
            .next_frame(wire::DEFAULT_MAX_FRAME, frame)
            .unwrap()
            .is_none());
    }

    #[test]
    fn partial_flushes_advance_the_cursor_and_deliver_every_frame_intact() {
        // 4 MiB of payload behind a header and before another: far more
        // than a socket takes at once, so the flushes are partial and
        // interleave with the peer's reads; every byte arrives once, in
        // order, and each flush that moved bytes says so
        let (client, server) = pair();
        let peer = server.peer_addr().unwrap();
        let mut conn = Conn::new(server, peer, Instant::now());
        let data: Vec<f64> = (0..1 << 19)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => f64::from_bits(0x7ff8_0000_0000_0000 | i as u64), // NaN payloads
                _ => i as f64 * 0.25,
            })
            .collect();
        let hello = Frame::Header(super::super::wire::ClientMsg::Stats.to_json());
        conn.send(&hello);
        let rows: Vec<&[f64]> = data.chunks(1000).collect();
        conn.send_payload(data.len(), rows);
        conn.send(&hello);
        let staged = conn.unsent();
        let reader = std::thread::spawn(move || {
            client.set_nonblocking(false).unwrap();
            let mut c = client;
            let mut got = Vec::new();
            std::io::Read::read_to_end(&mut c, &mut got).unwrap();
            got
        });
        let mut written = 0;
        while !conn.write_drained() {
            let n = conn.flush_write(wire::DEFAULT_MAX_FRAME);
            assert!(!conn.dead);
            if n == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            written += n;
        }
        assert_eq!(written, staged);
        drop(conn); // EOF for the reader
        let got = reader.join().unwrap();
        let mut want = Vec::new();
        wire::encode(&hello, &mut want);
        wire::encode(&Frame::Payload(data), &mut want);
        wire::encode(&hello, &mut want);
        assert!(got == want, "the bytes on the wire differ from encode's");
    }

    #[test]
    fn a_peer_that_stops_reading_is_dropped_at_the_unsent_cap() {
        // 16 MiB staged for a peer that never reads: the socket takes a
        // few MiB at most, and the unsent rest is far past twice a 64 KiB
        // frame limit
        let (_client, server) = pair();
        let peer = server.peer_addr().unwrap();
        let mut conn = Conn::new(server, peer, Instant::now());
        let data = vec![1.5; 1 << 21];
        conn.send_payload(data.len(), [data.as_slice()]);
        let max_frame = 64 * 1024;
        for _ in 0..100 {
            conn.flush_write(max_frame);
            if conn.dead {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(conn.dead, "a backlog past the cap must drop the peer");
        assert!(conn.unsent() > max_frame * MAX_WRITE_BACKLOG_FACTOR);
    }

    #[test]
    fn the_write_buffer_compacts_once_drained_or_a_frame_limit_behind() {
        let (client, server) = pair();
        let peer = server.peer_addr().unwrap();
        let mut conn = Conn::new(server, peer, Instant::now());
        let data = vec![0.5; 1 << 21];
        conn.send_payload(data.len(), [data.as_slice()]);
        let staged = conn.wbuf.len();
        // the peer is not reading: the socket takes part of the 16 MiB,
        // and the sent prefix stays where it is
        let sent = conn.flush_write(wire::DEFAULT_MAX_FRAME);
        assert!(sent > 0 && sent < staged, "{sent} of {staged}");
        assert_eq!((conn.wpos, conn.wbuf.len()), (sent, staged));
        // a sent prefix past the frame limit is dropped, unsent bytes kept
        let more = conn.flush_write(sent - 1);
        assert_eq!((conn.wpos, conn.wbuf.len()), (0, staged - sent - more));
        // drained: empty, cursor at the start
        let reader = std::thread::spawn(move || {
            client.set_nonblocking(false).unwrap();
            let mut c = client;
            std::io::copy(&mut c, &mut std::io::sink()).unwrap()
        });
        let mut total = sent + more;
        while !conn.write_drained() {
            total += conn.flush_write(wire::DEFAULT_MAX_FRAME);
        }
        assert_eq!((total, conn.wpos, conn.wbuf.len()), (staged, 0, 0));
        drop(conn);
        assert_eq!(reader.join().unwrap(), staged as u64);
    }

    #[test]
    fn a_large_frame_is_never_moved_once_it_has_arrived() {
        // three rounds of a header and then 4 MiB of payload, in one
        // write: each payload starts behind its header in a buffer the
        // rounds before sized, so room is made for it at the front while
        // little of it is in — once a MiB has landed, its bytes stay
        // where they landed
        let (client, server) = pair();
        let peer = server.peer_addr().unwrap();
        let mut conn = Conn::new(server, peer, Instant::now());
        let header = Frame::Header(super::super::wire::ClientMsg::Stats.to_json());
        let mut round = Vec::new();
        wire::encode(&header, &mut round);
        let head_len = round.len();
        wire::encode(&Frame::Payload(vec![0.25; 1 << 19]), &mut round);
        let bytes = round.repeat(3);
        let writer = std::thread::spawn(move || {
            client.set_nonblocking(false).unwrap();
            let mut c = client;
            std::io::Write::write_all(&mut c, &bytes).unwrap();
            c
        });
        let (mut landed, mut frames) = (None, 0);
        while frames < 6 {
            conn.fill_read(Instant::now());
            // where the payload in progress sits, once a MiB of it is in
            let at = conn.rpos + if frames % 2 == 0 { head_len } else { 0 };
            if landed.is_none() && conn.rend > at + (1 << 20) {
                landed = Some(at);
            }
            let base = conn.rbuf.as_ptr() as usize;
            while let Some(offset) = conn
                .next_frame(wire::DEFAULT_MAX_FRAME, |body| {
                    let (Body::Header(b) | Body::Payload(b)) = body;
                    Ok(b.as_ptr() as usize - base - LEN_PREFIX - 1)
                })
                .unwrap()
            {
                frames += 1;
                if frames % 2 == 0 {
                    let landed = landed.take();
                    assert_eq!(Some(offset), landed, "payload {} moved", frames / 2);
                }
            }
        }
        drop(writer.join().unwrap());
    }

    #[test]
    fn eof_mid_frame_is_truncated_once() {
        let now = Instant::now();
        let (client, server) = pair();
        let peer = server.peer_addr().unwrap();
        let mut conn = Conn::new(server, peer, now);
        let mut buf = Vec::new();
        wire::encode(&Frame::Payload(vec![1.0, 2.0, 3.0]), &mut buf);
        let mut c = client;
        std::io::Write::write_all(&mut c, &buf[..buf.len() - 5]).unwrap();
        drop(c); // FIN mid-frame
        loop {
            conn.fill_read(Instant::now());
            if conn.dead {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(matches!(
            conn.next_frame(wire::DEFAULT_MAX_FRAME, frame),
            Err(WireError::Truncated { .. })
        ));
        // the half-frame was discarded with the error; no loop
        assert!(conn
            .next_frame(wire::DEFAULT_MAX_FRAME, frame)
            .unwrap()
            .is_none());
    }
}
