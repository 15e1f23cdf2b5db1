//! The protocol server: a poll-based readiness loop over non-blocking
//! sockets and a connection slab, fronting a [`StencilService`].
//!
//! One loop thread owns every connection: it accepts, reads frames,
//! runs admission control (per-tenant quota → bounded-queue
//! `try_submit`), drives multi-round jobs by polling their tickets
//! (never blocking), streams `progress` / `done` / `rejected` frames,
//! and answers `GET /healthz` + `GET /metrics` HTTP scrapes on the same
//! port (see [`super::wire`] for how the two protocols coexist).
//!
//! Job *execution* never happens on this thread — rounds are submitted
//! into the service's bounded queue and run on the existing pool
//! workers. Thousands of idle connections therefore cost buffer memory
//! and a read probe per tick, not threads.
//!
//! Grid bytes cross the loop once each way: a submit's payload is
//! decoded from the connection's read buffer straight into the rows of
//! the job's grid — allocated only once the frame's checks and the
//! payload-against-extents check have passed — and a result is encoded
//! from the output grid's rows straight onto the connection's write
//! buffer. A tick that moves bytes either way, or a job, counts as work,
//! so the loop sleeps its `tick` only when nothing moved — never after a
//! flush that made progress on a large frame. The write buffer's cursor
//! and its backlog cap (unsent bytes only) are described in `conn`.
//!
//! Disconnect semantics: a peer that vanishes mid-job has its jobs
//! abandoned at reap time — pending rounds are never submitted, the
//! in-flight round's ticket is dropped (its result is discarded when
//! the worker finishes; the queue slot frees normally), and the
//! tenant's quota slots are released immediately.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::StatsSnapshot;
use crate::service::{JobDomain, JobSpec, JobTicket, ServeError, StencilService};
use stencil_grid::{Grid1D, Grid2D, Grid3D};
use stencil_obs::json::Value;
use stencil_tune::host::HostFingerprint;

use super::conn::{Conn, ConnMode};
use super::round_steps;
use super::tenant::TenantGate;
use super::wire::{
    self, num, obj, Body, ClientMsg, Frame, RejectReason, ServerMsg, SubmitHeader,
    DEFAULT_MAX_FRAME,
};

/// An HTTP scrape request larger than this is dropped unanswered.
const MAX_HTTP_REQUEST: usize = 16 * 1024;

/// Protocol server configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Most simultaneous connections; extras wait in the OS backlog.
    pub max_conns: usize,
    /// Per-tenant in-flight job quota (admission control).
    pub tenant_quota: usize,
    /// Connections with no traffic and no active jobs for this long
    /// are reaped (half-open sweep).
    pub idle_timeout: Duration,
    /// Per-frame size limit for this listener.
    pub max_frame: usize,
    /// Poll-loop sleep when a tick moves no bytes and no jobs.
    pub tick: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_conns: 1024,
            tenant_quota: 4,
            idle_timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            tick: Duration::from_millis(1),
        }
    }
}

/// The network front end over a [`StencilService`]. Owns the service;
/// [`NetServer::shutdown`] tears both down and returns the final
/// stats.
pub struct NetServer {
    service: Option<Arc<StencilService>>,
    addr: SocketAddr,
    conns_gauge: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind `cfg.addr` and start the poll loop over `service`.
    pub fn start(service: StencilService, cfg: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(service);
        let conns_gauge = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (service, conns_gauge, stop) = (
                Arc::clone(&service),
                Arc::clone(&conns_gauge),
                Arc::clone(&stop),
            );
            std::thread::Builder::new()
                .name("stencil-serve-net".into())
                .spawn(move || serve_loop(&service, listener, &cfg, &stop, &conns_gauge))?
        };
        Ok(Self {
            service: Some(service),
            addr,
            conns_gauge,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fronted service (for stats, `plan_for` references in tests,
    /// warm-up).
    pub fn service(&self) -> &StencilService {
        self.service.as_ref().expect("present until shutdown")
    }

    /// Open protocol connections right now.
    pub fn connections(&self) -> usize {
        self.conns_gauge.load(Ordering::Relaxed)
    }

    fn stop_loop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Stop accepting, drop every connection, shut the service down
    /// (draining its queue, joining its workers, releasing the shared
    /// pool) and return the final statistics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop_loop();
        let service = self.service.take().expect("shutdown runs once");
        match Arc::try_unwrap(service) {
            Ok(svc) => svc.shutdown(),
            // unreachable in practice: the loop thread held the only
            // other clone and was just joined
            Err(svc) => svc.stats(),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_loop();
    }
}

/// One slab slot: the connection plus its active jobs.
struct Session {
    conn: Conn,
    /// A received submit header waiting for its grid payload frame.
    pending_submit: Option<SubmitHeader>,
    jobs: Vec<NetJob>,
}

/// A frame as the loop reads it: headers parsed, a payload decoded only
/// when a submit header is waiting for it.
enum Inbound {
    Header(Value),
    /// The pending submit's domain, or why its payload does not fit it.
    Submission(Result<JobDomain, String>),
    /// A payload frame no submit header announced.
    StrayPayload,
}

/// A job the loop is driving through its rounds.
struct NetJob {
    id: u64,
    tenant: String,
    header: SubmitHeader,
    /// Per-round step counts (see [`round_steps`]).
    chunks: Vec<usize>,
    /// Rounds completed.
    round: usize,
    /// Queue+execution latency summed across completed rounds.
    latency_us: u64,
    any_batched: bool,
    phase: Phase,
}

enum Phase {
    /// A round is queued or executing; poll the ticket.
    Running(JobTicket),
    /// The next round hit queue backpressure; retry next tick.
    Resubmit(JobDomain),
}

fn serve_loop(
    service: &Arc<StencilService>,
    listener: TcpListener,
    cfg: &NetConfig,
    stop: &AtomicBool,
    conns_gauge: &AtomicUsize,
) {
    let mut sessions: Vec<Session> = Vec::new();
    let mut gate = TenantGate::new(cfg.tenant_quota);
    while !stop.load(Ordering::Acquire) {
        let mut busy = false;
        // accept every waiting connection up to the slab cap
        while sessions.len() < cfg.max_conns {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    sessions.push(Session {
                        conn: Conn::new(stream, peer, Instant::now()),
                        pending_submit: None,
                        jobs: Vec::new(),
                    });
                    busy = true;
                }
                Err(_) => break, // WouldBlock or a transient accept error
            }
        }
        let now = Instant::now();
        let open = sessions.len() as u64;
        for sess in &mut sessions {
            // chaos: sever the connection as an unplugged cable would —
            // the peer sees EOF and must surface a typed error, and the
            // reap below releases the session's quota slots
            if stencil_faults::should_fire(stencil_faults::Failpoint::NetDrop) {
                sess.conn.dead = true;
                continue;
            }
            busy |= sess.conn.fill_read(now) > 0;
            match sess.conn.mode {
                ConnMode::Sniffing => {}
                ConnMode::Http => {
                    if let Some(req) = sess.conn.take_http_request() {
                        let resp = http_response_for(service, open, &req);
                        sess.conn.send_raw(&resp);
                        sess.conn.closing = true;
                        busy = true;
                    } else if sess.conn.read_backlog() > MAX_HTTP_REQUEST {
                        sess.conn.dead = true;
                    }
                }
                ConnMode::Frames => {
                    busy |= process_frames(service, &mut gate, cfg, open, sess);
                }
            }
            busy |= poll_jobs(service, &mut gate, sess);
            busy |= sess.conn.flush_write(cfg.max_frame) > 0;
        }
        // reap: dead sockets, drained goodbyes, and idle half-opens
        sessions.retain_mut(|sess| {
            let idle = sess.jobs.is_empty()
                && sess.conn.write_drained()
                && now.duration_since(sess.conn.last_activity) > cfg.idle_timeout;
            let drop_now =
                sess.conn.dead || (sess.conn.closing && sess.conn.write_drained()) || idle;
            if drop_now {
                abandon_jobs(&mut gate, sess);
            }
            !drop_now
        });
        conns_gauge.store(sessions.len(), Ordering::Relaxed);
        if !busy {
            std::thread::sleep(cfg.tick);
        }
    }
    conns_gauge.store(0, Ordering::Relaxed);
    for sess in &mut sessions {
        abandon_jobs(&mut gate, sess);
    }
}

/// Release every quota slot a dropped session still holds. In-flight
/// tickets are dropped with the jobs: the executor's round completes
/// into a discarded cell and its queue slot frees normally; rounds not
/// yet submitted never will be.
fn abandon_jobs(gate: &mut TenantGate, sess: &mut Session) {
    for job in sess.jobs.drain(..) {
        gate.release(&job.tenant);
    }
}

/// Drain and dispatch every complete frame on a session. Returns true
/// when anything was processed.
fn process_frames(
    service: &Arc<StencilService>,
    gate: &mut TenantGate,
    cfg: &NetConfig,
    open_conns: u64,
    sess: &mut Session,
) -> bool {
    let mut busy = false;
    loop {
        if sess.conn.closing || sess.conn.dead {
            return busy;
        }
        let extents = sess.pending_submit.as_ref().map(|h| h.extents.as_slice());
        let frame = match sess.conn.next_frame(cfg.max_frame, |body| {
            Ok(match (body, extents) {
                (Body::Header(text), _) => Inbound::Header(wire::parse_header(text)?),
                (Body::Payload(bytes), Some(extents)) => {
                    Inbound::Submission(domain_from(extents, bytes))
                }
                (Body::Payload(_), None) => Inbound::StrayPayload,
            })
        }) {
            Ok(Some(f)) => f,
            Ok(None) => return busy,
            Err(e) => {
                // typed protocol error to the peer, then close — a
                // malformed frame must never hang or kill the loop
                sess.conn.send(&header(ServerMsg::Error {
                    message: e.to_string(),
                }));
                sess.conn.closing = true;
                service
                    .stats_handle()
                    .warn(format!("net: protocol error from {}: {e}", sess.conn.peer));
                return true;
            }
        };
        busy = true;
        // a submit header must be followed by exactly one payload frame
        let msg = match frame {
            Inbound::Submission(domain) => {
                let pending = sess
                    .pending_submit
                    .take()
                    .expect("decoded for a pending submit");
                handle_submission(service, gate, sess, pending, domain);
                continue;
            }
            Inbound::Header(_) if sess.pending_submit.is_some() => {
                sess.conn.send(&header(ServerMsg::Error {
                    message: "submit header must be followed by its grid payload".into(),
                }));
                sess.conn.closing = true;
                return true;
            }
            Inbound::StrayPayload => {
                sess.conn.send(&header(ServerMsg::Error {
                    message: "unexpected payload frame without a submit header".into(),
                }));
                sess.conn.closing = true;
                return true;
            }
            Inbound::Header(doc) => match ClientMsg::from_json(&doc) {
                Ok(m) => m,
                Err(e) => {
                    sess.conn.send(&header(ServerMsg::Error {
                        message: e.to_string(),
                    }));
                    sess.conn.closing = true;
                    return true;
                }
            },
        };
        match msg {
            ClientMsg::Hello { tenant } => {
                sess.conn.tenant = Some(tenant.clone());
                sess.conn.send(&header(ServerMsg::HelloOk {
                    tenant,
                    quota: gate.quota() as u64,
                }));
            }
            ClientMsg::Submit(h) => {
                if sess.conn.tenant.is_none() {
                    sess.conn.send(&header(ServerMsg::Error {
                        message: "submit before hello: identify a tenant first".into(),
                    }));
                    sess.conn.closing = true;
                    return true;
                }
                sess.pending_submit = Some(h);
            }
            ClientMsg::Cancel { id } => {
                if let Some(pos) = sess.jobs.iter().position(|j| j.id == id) {
                    let job = sess.jobs.swap_remove(pos);
                    gate.release(&job.tenant);
                    sess.conn.send(&header(ServerMsg::Cancelled { id }));
                } else {
                    sess.conn.send(&header(ServerMsg::JobError {
                        id,
                        message: "no such job".into(),
                    }));
                }
            }
            ClientMsg::Stats => {
                let doc = service.stats().to_json();
                sess.conn.send(&header(ServerMsg::Stats(doc)));
            }
            ClientMsg::Health => {
                sess.conn.send(&header(ServerMsg::Health {
                    status: "ok".into(),
                    conns: open_conns,
                }));
            }
            ClientMsg::Bye => {
                sess.conn.send(&header(ServerMsg::ByeOk));
                sess.conn.closing = true;
                return true;
            }
        }
    }
}

/// Admission control for a complete submission: tenant quota first,
/// then the bounded queue's `try_submit` — both refusals are typed
/// `Rejected` frames with a backoff hint, never a blocked loop.
fn handle_submission(
    service: &Arc<StencilService>,
    gate: &mut TenantGate,
    sess: &mut Session,
    h: SubmitHeader,
    domain: Result<JobDomain, String>,
) {
    let stats = service.stats_handle();
    let tenant = sess.conn.tenant.clone().expect("checked at submit header");
    let id = h.id;
    let domain = match domain {
        Ok(d) => d,
        Err(message) => {
            sess.conn.send(&header(ServerMsg::JobError { id, message }));
            return;
        }
    };
    if !gate.admit(&tenant) {
        stats.tenant_update(&tenant, |t| t.rejected += 1);
        stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        sess.conn.send(&header(ServerMsg::Rejected {
            id,
            reason: RejectReason::QuotaExceeded,
            retry_after_ms: retry_after_ms(service),
        }));
        return;
    }
    let chunks = round_steps(h.steps, h.rounds);
    let spec = JobSpec {
        pattern: h.pattern.clone(),
        domain,
        steps: chunks[0],
        tuning: h.tuning,
        deadline: h.deadline_ms.map(Duration::from_millis),
    };
    match service.try_submit(spec) {
        Ok(ticket) => {
            stats.tenant_update(&tenant, |t| t.submitted += 1);
            sess.conn.send(&header(ServerMsg::Accepted { id }));
            sess.jobs.push(NetJob {
                id,
                tenant,
                header: h,
                chunks,
                round: 0,
                latency_us: 0,
                any_batched: false,
                phase: Phase::Running(ticket),
            });
        }
        Err(e) => {
            gate.release(&tenant);
            match e {
                ServeError::Backpressure { .. } => {
                    // the service already counted jobs_rejected
                    stats.tenant_update(&tenant, |t| t.rejected += 1);
                    sess.conn.send(&header(ServerMsg::Rejected {
                        id,
                        reason: RejectReason::QueueFull,
                        retry_after_ms: retry_after_ms(service),
                    }));
                }
                ServeError::ShuttingDown => {
                    stats.tenant_update(&tenant, |t| t.rejected += 1);
                    sess.conn.send(&header(ServerMsg::Rejected {
                        id,
                        reason: RejectReason::ShuttingDown,
                        retry_after_ms: retry_after_ms(service),
                    }));
                }
                ServeError::Quarantined { .. } => {
                    // typed and non-transient: retrying the same job
                    // keeps failing until the key is retuned, so the
                    // backoff hint is long
                    stats.tenant_update(&tenant, |t| t.rejected += 1);
                    sess.conn.send(&header(ServerMsg::Rejected {
                        id,
                        reason: RejectReason::Quarantined,
                        retry_after_ms: 5_000,
                    }));
                }
                other => {
                    sess.conn.send(&header(ServerMsg::JobError {
                        id,
                        message: other.to_string(),
                    }));
                }
            }
        }
    }
}

/// Advance every active job on a session: poll running tickets
/// (non-blocking), emit progress / done / error frames, and push the
/// next round into the queue. Returns true when any job moved.
fn poll_jobs(service: &Arc<StencilService>, gate: &mut TenantGate, sess: &mut Session) -> bool {
    let stats = service.stats_handle();
    let mut busy = false;
    let mut i = 0;
    while i < sess.jobs.len() {
        let job = &mut sess.jobs[i];
        let next_domain = match &mut job.phase {
            Phase::Running(ticket) => match ticket.try_take() {
                None => {
                    i += 1;
                    continue;
                }
                Some(Ok(result)) => {
                    busy = true;
                    job.round += 1;
                    job.latency_us += result.latency.as_micros().min(u64::MAX as u128) as u64;
                    job.any_batched |= result.batched;
                    if job.round == job.chunks.len() {
                        // final round: ship the result grid
                        sess.conn.send(&header(ServerMsg::Done {
                            id: job.id,
                            shards: result.shards as u64,
                            batched: job.any_batched,
                            latency_us: job.latency_us,
                            extents: result.output.extents(),
                        }));
                        send_grid(&mut sess.conn, &result.output);
                        stats.tenant_update(&job.tenant, |t| t.completed += 1);
                        gate.release(&job.tenant);
                        sess.jobs.swap_remove(i);
                        continue;
                    }
                    sess.conn.send(&header(ServerMsg::Progress {
                        id: job.id,
                        round: job.round as u64,
                        rounds: job.chunks.len() as u64,
                    }));
                    Some(result.output)
                }
                Some(Err(e)) => {
                    busy = true;
                    // shedding is terminal like an execution error, but
                    // typed: clients distinguish "too late" from "broke"
                    let msg = match e {
                        ServeError::DeadlineExceeded {
                            deadline_ms,
                            waited_ms,
                        } => ServerMsg::Deadline {
                            id: job.id,
                            deadline_ms,
                            waited_ms,
                        },
                        other => ServerMsg::JobError {
                            id: job.id,
                            message: other.to_string(),
                        },
                    };
                    sess.conn.send(&header(msg));
                    gate.release(&job.tenant);
                    sess.jobs.swap_remove(i);
                    continue;
                }
            },
            Phase::Resubmit(_) => None,
        };
        if let Some(domain) = next_domain {
            job.phase = Phase::Resubmit(domain);
        }
        // try (or retry) queueing the next round; backpressure mid-job
        // parks the job until a queue slot frees — the admitted job
        // keeps its quota slot and never blocks the loop
        if let Phase::Resubmit(domain) = &job.phase {
            let (depth, cap) = service.queue_backlog();
            if depth >= cap {
                // a visibly full queue: skip the attempt so parked
                // rounds don't inflate the rejected counter every tick
                i += 1;
                continue;
            }
            let spec = JobSpec {
                pattern: job.header.pattern.clone(),
                domain: domain.clone(),
                steps: job.chunks[job.round],
                tuning: job.header.tuning,
                deadline: job.header.deadline_ms.map(Duration::from_millis),
            };
            match service.try_submit(spec) {
                Ok(ticket) => {
                    busy = true;
                    job.phase = Phase::Running(ticket);
                }
                Err(ServeError::Backpressure { .. }) => {
                    // stay parked; retry on a later tick once a queue
                    // slot frees (the parked domain is still in phase)
                }
                Err(e) => {
                    busy = true;
                    sess.conn.send(&header(ServerMsg::JobError {
                        id: job.id,
                        message: e.to_string(),
                    }));
                    gate.release(&job.tenant);
                    sess.jobs.swap_remove(i);
                    continue;
                }
            }
        }
        i += 1;
    }
    busy
}

/// Encode a server message as a header frame.
fn header(msg: ServerMsg) -> Frame {
    Frame::Header(msg.to_json())
}

/// Backoff hint for a rejected submission: scale the median job
/// latency by the queue backlog, clamped to `[1ms, 5s]`. Deadline
/// shedding shrinks the effective backlog — shed jobs leave the queue
/// without running — so the hint is scaled by the fraction of dequeues
/// that actually execute.
fn retry_after_ms(service: &StencilService) -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let (depth, _cap) = service.queue_backlog();
    let stats = service.stats_handle();
    let p50_ms = stats.latency.quantile_us(0.5) / 1000;
    let raw = (depth as u64 + 1) * p50_ms.max(1);
    let done = stats.jobs_completed.load(Relaxed);
    let shed = stats.jobs_shed.load(Relaxed);
    let scaled = if shed > 0 {
        // done/(done+shed) of dequeued jobs cost a full execution; the
        // rest drain instantly
        (raw * done.max(1)) / (done + shed).max(1)
    } else {
        raw
    };
    scaled.clamp(1, 5_000)
}

/// Build the job domain from a submit's extents and its payload frame's
/// body, decoding the body straight into the grid's rows.
fn domain_from(extents: &[usize], payload: &[u8]) -> Result<JobDomain, String> {
    let points = extents
        .iter()
        .try_fold(1usize, |acc, &e| acc.checked_mul(e))
        .ok_or("extents overflow")?;
    let carried = payload.len() / 8;
    if points != carried {
        return Err(format!(
            "payload carries {carried} f64s for a {extents:?} domain ({points} points)"
        ));
    }
    // the payload is the grid's rows in order, each `nx` values long
    let mut rows = payload.chunks_exact(8 * extents.last().copied().unwrap_or(1));
    let mut fill = |row: &mut [f64]| {
        let src = rows.next().expect("one row each");
        row.iter_mut()
            .zip(wire::f64s(src))
            .for_each(|(d, v)| *d = v);
    };
    match *extents {
        [n] => {
            let mut g = Grid1D::zeros(n);
            fill(g.as_mut_slice());
            Ok(JobDomain::D1(g))
        }
        [ny, nx] => {
            let mut g = Grid2D::zeros(ny, nx);
            (0..ny).for_each(|y| fill(g.row_mut(y)));
            Ok(JobDomain::D2(g))
        }
        [nz, ny, nx] => {
            let mut g = Grid3D::zeros(nz, ny, nx);
            (0..nz).for_each(|z| (0..ny).for_each(|y| fill(g.row_mut(z, y))));
            Ok(JobDomain::D3(g))
        }
        _ => Err(format!("{}D domains are not supported", extents.len())),
    }
}

/// Stage a result grid's payload frame, encoded from its rows.
fn send_grid(conn: &mut Conn, domain: &JobDomain) {
    let n = domain.points();
    match domain {
        JobDomain::D1(g) => conn.send_payload(n, [g.as_slice()]),
        JobDomain::D2(g) => conn.send_payload(n, (0..g.ny()).map(|y| g.row(y))),
        JobDomain::D3(g) => conn.send_payload(
            n,
            (0..g.nz()).flat_map(|z| (0..g.ny()).map(move |y| g.row(z, y))),
        ),
    }
}

const JSON_CT: &str = "application/json";
const PROM_CT: &str = "text/plain; version=0.0.4";

/// Answer an HTTP scrape: `/healthz` liveness plus host identity,
/// `/metrics` the pinned [`StatsSnapshot`](crate::StatsSnapshot) JSON
/// (`?format=prometheus` selects the text exposition instead), and
/// `/trace` the span rings as Chrome trace-event JSON (`?ms=N` keeps
/// only the last `N` milliseconds). Anything else is 404.
fn http_response_for(service: &StencilService, open_conns: u64, req: &[u8]) -> Vec<u8> {
    let line = req.split(|&b| b == b'\r').next().unwrap_or(b"");
    let mut parts = line.split(|&b| b == b' ');
    let method = parts.next().unwrap_or(b"");
    let target = parts.next().unwrap_or(b"");
    if method != b"GET" && method != b"HEAD" {
        return http_response(
            405,
            "Method Not Allowed",
            JSON_CT,
            "{\"error\": \"GET only\"}\n",
        );
    }
    let mut it = target.splitn(2, |&b| b == b'?');
    let path = it.next().unwrap_or(b"");
    let query = it.next().unwrap_or(b"");
    match path {
        b"/healthz" => {
            let host = HostFingerprint::detect();
            let body = healthz_body(&host, open_conns, service.started_unix());
            http_response(200, "OK", JSON_CT, &body)
        }
        b"/metrics" if query_param(query, "format").as_deref() == Some("prometheus") => {
            // stats() refreshes the queue-depth gauge the exposition
            // reads; the snapshot itself is discarded
            let _ = service.stats();
            http_response(200, "OK", PROM_CT, &service.stats_handle().prometheus())
        }
        b"/metrics" => http_response(200, "OK", JSON_CT, &service.stats().to_json().pretty()),
        b"/trace" => {
            let window = query_param(query, "ms").and_then(|v| v.parse().ok());
            http_response(
                200,
                "OK",
                JSON_CT,
                &stencil_obs::TraceSink::chrome_json(window),
            )
        }
        _ => http_response(404, "Not Found", JSON_CT, "{\"error\": \"not found\"}\n"),
    }
}

/// The raw value of `name` in an `a=1&b=2` query string, if present.
fn query_param(query: &[u8], name: &str) -> Option<String> {
    query.split(|&b| b == b'&').find_map(|kv| {
        let mut it = kv.splitn(2, |&b| b == b'=');
        if it.next()? == name.as_bytes() {
            Some(String::from_utf8_lossy(it.next().unwrap_or(b"")).into_owned())
        } else {
            None
        }
    })
}

/// The `/healthz` document: liveness, open connections, host identity
/// and the uptime anchor. Hostname and ISA come from the environment,
/// so they go through the shared writer's escaping like any string.
fn healthz_body(host: &HostFingerprint, open_conns: u64, started_unix: u64) -> String {
    obj(vec![
        ("status", Value::Str("ok".into())),
        ("conns", num(open_conns)),
        ("hostname", Value::Str(host.hostname.clone())),
        ("isa", Value::Str(host.isa.clone())),
        ("threads", num(host.threads as u64)),
        ("started_unix", num(started_unix)),
    ])
    .pretty()
}

fn http_response(status: u16, reason: &str, ctype: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthz_body_escapes_host_strings() {
        // a hostname read from the environment can hold anything
        let host = HostFingerprint {
            hostname: "a\tb\n\"c".into(),
            isa: "avx2-w4\u{1}".into(),
            threads: 8,
        };
        let doc = stencil_obs::json::parse(&healthz_body(&host, 3, 1_700_000_000))
            .expect("/healthz must be valid JSON whatever the host strings hold");
        let text = |k| doc.get(k).and_then(Value::as_str);
        let n = |k| doc.get(k).and_then(Value::as_num);
        assert_eq!(
            (text("status"), text("hostname"), text("isa")),
            (Some("ok"), Some("a\tb\n\"c"), Some("avx2-w4\u{1}"))
        );
        assert_eq!(
            (n("conns"), n("threads"), n("started_unix")),
            (Some(3.0), Some(8.0), Some(1.7e9))
        );
    }
}
