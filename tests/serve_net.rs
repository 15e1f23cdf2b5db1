//! End-to-end protocol tests for the network serving front end
//! (`stencil_serve::net`): a real server on an ephemeral port, real
//! TCP clients, and bit-level assertions against in-process references.
//!
//! Three layers:
//! * **e2e correctness** — 2D/3D jobs over the wire return grids
//!   bit-identical (raw `f64` bits) to running the same plan in
//!   process; multi-round jobs stream progress and match an
//!   identically chunked reference.
//! * **wire properties** — framing round-trips arbitrary payload bits,
//!   and arbitrary byte garbage decodes to typed errors, never panics;
//!   over a live socket, payloads survive one-byte server reads and
//!   results many partial client reads bit for bit (NaN payloads and
//!   signed zeros included), and a payload that disagrees with its
//!   extents or its own frame length gets the typed error.
//! * **fault injection** — full queues and exhausted quotas answer
//!   typed `rejected` frames with a backoff hint, disconnects mid-job
//!   release the tenant's quota, half-open connections are reaped by
//!   the idle timeout, a peer that stops reading its results is dropped
//!   at the unsent-backlog cap, and shutdown leaks no pool threads.

#[macro_use]
#[path = "conformance/mod.rs"]
mod conformance;

use std::time::{Duration, Instant};

use conformance::{bits, Extent, Route, Steps};
use proptest::prelude::*;
use stencil_lab::core::{kernels, Pattern};
use stencil_lab::grid::{Grid2D, Grid3D};
use stencil_lab::obs::json;
use stencil_lab::runtime::PoolHandle;
use stencil_lab::serve::net::{
    http_get, wire, JobEvent, NetClient, NetConfig, NetError, NetServer, RejectReason, SubmitHeader,
};
use stencil_lab::serve::{
    JobDomain, JobSpec, OocThreshold, ServeConfig, StatsSnapshot, StencilService,
};
use stencil_lab::{Method, Tiling, Width};

fn start_server(cfg: ServeConfig, net: NetConfig) -> NetServer {
    NetServer::start(StencilService::start(cfg), net).expect("bind ephemeral port")
}

fn small_cfg() -> ServeConfig {
    ServeConfig {
        threads: 2,
        workers: 2,
        queue_capacity: 8,
        ..ServeConfig::default()
    }
}

fn submit_header(name: &str, pattern: Pattern, extents: &[usize], steps: usize) -> SubmitHeader {
    SubmitHeader {
        id: 0, // assigned by the client
        name: name.into(),
        pattern,
        extents: extents.to_vec(),
        steps,
        rounds: 1,
        tuning: None,
        deadline_ms: None,
    }
}

fn wait_until(timeout: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    ok()
}

// Jobs over a real socket return the bits the same plan gives in
// process, and the tenant's counters see every one; every wire check also
// runs the job in two or three rounds: progress frames in order, and the
// bits of an identically chunked reference (folded and tessellated plans
// are bit-stable per step partition).

#[test]
fn e2e_2d_job_is_bit_identical_to_in_process() {
    check!(kernels: ["heat2d"], methods: [Method::Auto],
        tilings: [Tiling::None, Tiling::Tessellate { time_block: 2 }], widths: [Width::W4],
        extents: [Extent::Aligned], steps: [Steps::Exact(10)], routes: [Route::Wire]);
}

#[test]
fn e2e_3d_job_is_bit_identical_to_in_process() {
    check!(kernels: ["heat3d"], methods: [Method::Auto],
        tilings: [Tiling::None, Tiling::Tessellate { time_block: 2 }], widths: [Width::W4],
        rings: [None], extents: [Extent::Aligned], steps: [Steps::Exact(6)],
        routes: [Route::Wire]);
}

#[test]
fn multi_round_jobs_stream_progress_and_match_chunked_reference() {
    check!(kernels: ["heat2d", "box2d9p"], methods: [Method::Folded { m: 2 }],
        tilings: [Tiling::Tessellate { time_block: 2 }], widths: [Width::W4],
        extents: [Extent::Aligned], steps: [Steps::Exact(8), Steps::Rounds],
        routes: [Route::Wire]);
}

#[test]
fn inline_patterns_serve_over_the_wire() {
    let server = start_server(small_cfg(), NetConfig::default());
    let pattern = Pattern::new_1d(&[0.25, 0.5, 0.25]);
    let data: Vec<f64> = (0..512).map(|i| ((i * 13) % 29) as f64).collect();

    let mut client = NetClient::connect(server.addr(), "t").unwrap();
    let out = client
        .run(submit_header("blur", pattern.clone(), &[512], 5), &data)
        .unwrap();

    let grid = stencil_lab::grid::Grid1D::from_fn(512, |i| data[i]);
    let spec = JobSpec::new(pattern, JobDomain::D1(grid.clone()), 5);
    let (plan, _) = server.service().plan_for(&spec).unwrap();
    let reference = plan.run_1d(&grid, 5).unwrap();
    assert_eq!(bits(&out.data), bits(reference.as_slice()));

    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn concurrent_jobs_multiplex_on_one_connection() {
    let server = start_server(small_cfg(), NetConfig::default());
    let mut client = NetClient::connect(server.addr(), "acme").unwrap();
    let grid = Grid2D::from_fn(32, 32, |y, x| (y * x % 7) as f64);
    let dense = grid.to_dense();
    // three jobs in flight at once; their done frames interleave and
    // the client must demultiplex by id
    let ids: Vec<u64> = (0..3)
        .map(|_| {
            client
                .submit(
                    submit_header("heat2d", kernels::heat2d(), &[32, 32], 4),
                    &dense,
                )
                .unwrap()
        })
        .collect();
    let spec = JobSpec::new(kernels::heat2d(), JobDomain::D2(grid.clone()), 4);
    let (plan, _) = server.service().plan_for(&spec).unwrap();
    let expected = bits(&plan.run_2d(&grid, 4).unwrap().to_dense());
    // collect in reverse submission order to force buffering
    for &id in ids.iter().rev() {
        let out = loop {
            match client.next_event(id).unwrap() {
                JobEvent::Progress { .. } => continue,
                JobEvent::Done(out) => break out,
            }
        };
        assert_eq!(bits(&out.data), expected);
    }
    client.bye().unwrap();
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_payload_frames_round_trip_arbitrary_bits(
        raw in prop::collection::vec(0u64..u64::MAX, 0..48),
    ) {
        // payloads are raw f64 bits: NaN payloads, signalling bits,
        // infinities and subnormals must all survive verbatim
        let data: Vec<f64> = raw.iter().map(|&b| f64::from_bits(b)).collect();
        let mut buf = Vec::new();
        wire::encode(&wire::Frame::Payload(data), &mut buf);
        let (frame, used) = wire::decode(&buf, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
        prop_assert_eq!(used, buf.len());
        let wire::Frame::Payload(back) = frame else {
            return Err("payload decoded as header".to_string());
        };
        prop_assert_eq!(bits(&back), raw);
    }

    #[test]
    fn wire_decode_of_arbitrary_garbage_never_panics(
        words in prop::collection::vec(0u32..=u32::MAX - 1, 0..16),
        max in 16usize..4096,
    ) {
        // typed error or incomplete — never a panic, never a hang
        let junk: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let _ = wire::decode(&junk, max);
        let _ = wire::decode_eof(&junk, max);
    }

    #[test]
    fn wire_truncations_of_valid_frames_are_typed(
        raw in prop::collection::vec(0u64..u64::MAX, 1..16),
        cut_seed in 0usize..10_000,
    ) {
        let data: Vec<f64> = raw.iter().map(|&b| f64::from_bits(b)).collect();
        let mut buf = Vec::new();
        wire::encode(&wire::Frame::Payload(data), &mut buf);
        let cut = 1 + cut_seed % (buf.len() - 1);
        // a prefix is "incomplete", and at stream end it is a typed
        // truncation error carrying the byte counts
        prop_assert!(wire::decode(&buf[..cut], wire::DEFAULT_MAX_FRAME).unwrap().is_none());
        match wire::decode_eof(&buf[..cut], wire::DEFAULT_MAX_FRAME) {
            Err(wire::WireError::Truncated { have, need }) => {
                prop_assert_eq!(have, cut);
                // inside the length prefix the decoder only knows it
                // needs the prefix; after it, the whole frame
                let expect = if cut < wire::LEN_PREFIX { wire::LEN_PREFIX } else { buf.len() };
                prop_assert_eq!(need, expect);
            }
            other => return Err(format!("expected truncated: {other:?}")),
        }
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_the_server_survives() {
    use std::io::{Read, Write};
    let server = start_server(small_cfg(), NetConfig::default());

    // an unknown frame kind: the server answers a typed error frame
    // and closes — it must not hang, panic, or take the loop down
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&[0, 0, 0, 1, b'X']).unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap(); // server closes after the error
    let (frame, _) = wire::decode(&buf, wire::DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("one complete error frame");
    let wire::Frame::Header(doc) = frame else {
        panic!("expected a header frame")
    };
    let msg = wire::ServerMsg::from_json(&doc).unwrap();
    let wire::ServerMsg::Error { message } = msg else {
        panic!("expected a protocol error, got {msg:?}")
    };
    assert!(
        message.contains("0x58"),
        "names the bad kind byte: {message}"
    );

    // an over-limit length prefix gets the same treatment
    let mut raw2 = std::net::TcpStream::connect(server.addr()).unwrap();
    raw2.write_all(&[0x7f, 0xff, 0xff, 0xff]).unwrap();
    let mut buf2 = Vec::new();
    raw2.read_to_end(&mut buf2).unwrap();
    assert!(!buf2.is_empty(), "typed error frame, not a silent drop");

    // the server is still fully functional
    let mut client = NetClient::connect(server.addr(), "t").unwrap();
    let (status, _) = client.health().unwrap();
    assert_eq!(status, "ok");
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_retry_hint_instead_of_blocking() {
    // one worker, one queue slot: a burst must shed load
    let server = start_server(
        ServeConfig {
            threads: 1,
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
        NetConfig {
            tenant_quota: 64,
            ..NetConfig::default()
        },
    );
    let grid = Grid2D::from_fn(96, 96, |y, x| ((y + x) % 9) as f64);
    let dense = grid.to_dense();
    let mut client = NetClient::connect(server.addr(), "burst").unwrap();
    let mut accepted = Vec::new();
    let mut queue_full = 0u32;
    for _ in 0..6 {
        match client.submit(
            submit_header("heat2d", kernels::heat2d(), &[96, 96], 40),
            &dense,
        ) {
            Ok(id) => accepted.push(id),
            Err(NetError::Rejected {
                reason: RejectReason::QueueFull,
                retry_after,
            }) => {
                assert!(retry_after >= Duration::from_millis(1));
                assert!(retry_after <= Duration::from_secs(5));
                queue_full += 1;
            }
            Err(e) => panic!("unexpected submit failure: {e}"),
        }
    }
    assert!(
        queue_full > 0,
        "a 6-job burst into a 1-slot queue must shed"
    );
    assert!(!accepted.is_empty(), "the queue still admits work");

    // rejection is load shedding, not an outage: while the backlog
    // drains, the accept loop answers new connections
    let mut probe = NetClient::connect(server.addr(), "probe").unwrap();
    assert_eq!(probe.health().unwrap().0, "ok");
    probe.bye().unwrap();

    // every accepted job completes with the correct answer
    let spec = JobSpec::new(kernels::heat2d(), JobDomain::D2(grid.clone()), 40);
    let (plan, _) = server.service().plan_for(&spec).unwrap();
    let expected = bits(&plan.run_2d(&grid, 40).unwrap().to_dense());
    for id in accepted {
        let out = loop {
            match client.next_event(id).unwrap() {
                JobEvent::Progress { .. } => continue,
                JobEvent::Done(out) => break out,
            }
        };
        assert_eq!(bits(&out.data), expected);
    }
    client.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.tenants["burst"].rejected, u64::from(queue_full));
}

#[test]
fn tenant_quota_rejects_a_burst_and_tracks_counters() {
    let server = start_server(
        ServeConfig {
            threads: 1,
            workers: 1,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        NetConfig {
            tenant_quota: 2,
            ..NetConfig::default()
        },
    );
    // hand-rolled burst: all four submissions land in one read batch,
    // so the gate sees them back-to-back before any job can complete
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut hello = Vec::new();
    wire::encode(
        &wire::Frame::Header(
            wire::ClientMsg::Hello {
                tenant: "noisy".into(),
            }
            .to_json(),
        ),
        &mut hello,
    );
    raw.write_all(&hello).unwrap();
    let read_msg = |stream: &mut std::net::TcpStream, buf: &mut Vec<u8>| loop {
        if let Some((frame, used)) = wire::decode(buf, wire::DEFAULT_MAX_FRAME).unwrap() {
            buf.drain(..used);
            let wire::Frame::Header(doc) = frame else {
                panic!("expected header frame")
            };
            return wire::ServerMsg::from_json(&doc).unwrap();
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed unexpectedly");
        buf.extend_from_slice(&chunk[..n]);
    };
    let mut rbuf = Vec::new();
    assert!(matches!(
        read_msg(&mut raw, &mut rbuf),
        wire::ServerMsg::HelloOk { quota: 2, .. }
    ));

    let grid = Grid2D::from_fn(96, 96, |y, x| ((2 * y + x) % 5) as f64);
    let mut burst = Vec::new();
    for id in 1..=4u64 {
        let mut h = submit_header("heat2d", kernels::heat2d(), &[96, 96], 60);
        h.id = id;
        wire::encode(
            &wire::Frame::Header(wire::ClientMsg::Submit(h).to_json()),
            &mut burst,
        );
        wire::encode(&wire::Frame::Payload(grid.to_dense()), &mut burst);
    }
    raw.write_all(&burst).unwrap();

    let mut accepted = 0;
    let mut quota_rejected = 0;
    for _ in 0..4 {
        match read_msg(&mut raw, &mut rbuf) {
            wire::ServerMsg::Accepted { .. } => accepted += 1,
            wire::ServerMsg::Rejected {
                reason: RejectReason::QuotaExceeded,
                retry_after_ms,
                ..
            } => {
                assert!(retry_after_ms >= 1);
                quota_rejected += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(accepted, 2, "exactly the quota is admitted");
    assert_eq!(quota_rejected, 2, "the rest are refused at the gate");
    drop(raw);

    // the per-tenant counters export the same story
    assert!(wait_until(Duration::from_secs(60), || {
        let s = server.service().stats();
        s.tenants.get("noisy").is_some_and(|t| t.rejected == 2)
    }));
    let stats = server.shutdown();
    assert_eq!(stats.tenants["noisy"].submitted, 2);
    assert_eq!(stats.tenants["noisy"].rejected, 2);
}

#[test]
fn disconnect_mid_job_releases_the_tenant_quota() {
    let server = start_server(
        ServeConfig {
            threads: 1,
            workers: 1,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
        NetConfig {
            tenant_quota: 1,
            ..NetConfig::default()
        },
    );
    let grid = Grid2D::from_fn(96, 96, |y, x| ((y ^ x) % 7) as f64);

    // client A occupies the tenant's whole quota, then vanishes
    // without reading its result
    let mut a = NetClient::connect(server.addr(), "flaky").unwrap();
    a.submit(
        submit_header("heat2d", kernels::heat2d(), &[96, 96], 80),
        &grid.to_dense(),
    )
    .unwrap();
    drop(a); // no bye: a mid-job disconnect

    // client B (same tenant) must eventually be admitted: the reap
    // released A's quota slot whether or not A's round had finished
    let mut b = NetClient::connect(server.addr(), "flaky").unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let id = loop {
        match b.submit(
            submit_header("heat2d", kernels::heat2d(), &[96, 96], 4),
            &grid.to_dense(),
        ) {
            Ok(id) => break id,
            Err(NetError::Rejected { retry_after, .. }) => {
                assert!(
                    Instant::now() < deadline,
                    "quota never released after disconnect"
                );
                std::thread::sleep(retry_after.min(Duration::from_millis(20)));
            }
            Err(e) => panic!("unexpected submit failure: {e}"),
        }
    };
    while let JobEvent::Progress { .. } = b.next_event(id).unwrap() {}
    b.bye().unwrap();
    server.shutdown();
}

#[test]
fn cancel_releases_the_quota_and_acknowledges() {
    let server = start_server(
        small_cfg(),
        NetConfig {
            tenant_quota: 1,
            ..NetConfig::default()
        },
    );
    let grid = Grid2D::from_fn(96, 96, |y, x| ((y + 3 * x) % 8) as f64);
    let mut client = NetClient::connect(server.addr(), "t").unwrap();
    // a long multi-round job: cancelling right after acceptance lands
    // while rounds are still pending
    let mut h = submit_header("heat2d", kernels::heat2d(), &[96, 96], 400);
    h.rounds = 8;
    let id = client.submit(h, &grid.to_dense()).unwrap();
    client.cancel(id).unwrap();
    // the quota slot is free again immediately
    let id2 = client
        .submit(
            submit_header("heat2d", kernels::heat2d(), &[96, 96], 2),
            &grid.to_dense(),
        )
        .unwrap();
    while let JobEvent::Progress { .. } = client.next_event(id2).unwrap() {}
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn half_open_connections_are_reaped_by_the_idle_timeout() {
    let server = start_server(
        small_cfg(),
        NetConfig {
            idle_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
    );
    // connect and say nothing — a half-open peer
    let zombie = std::net::TcpStream::connect(server.addr()).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || server.connections() == 1),
        "zombie accepted"
    );
    assert!(
        wait_until(Duration::from_secs(10), || server.connections() == 0),
        "zombie reaped by idle timeout"
    );
    drop(zombie);

    // active connections are not reaped while a job is in flight or
    // traffic flows: a client completing work within the window works
    let mut client = NetClient::connect(server.addr(), "t").unwrap();
    let grid = Grid2D::from_fn(32, 32, |y, x| (y + x) as f64);
    client
        .run(
            submit_header("heat2d", kernels::heat2d(), &[32, 32], 2),
            &grid.to_dense(),
        )
        .unwrap();
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn http_scrape_surface_serves_healthz_and_metrics() {
    // one executor worker (the traced part below orders spans by it)
    // and an out-of-core gate the traced 3D job is big enough to take
    let server = start_server(
        ServeConfig {
            workers: 1,
            ooc: Some(OocThreshold {
                max_resident_points: 8192,
                ..OocThreshold::default()
            }),
            ..small_cfg()
        },
        NetConfig::default(),
    );
    // run one job so the counters are non-trivial
    let mut client = NetClient::connect(server.addr(), "scrape").unwrap();
    let grid = Grid2D::from_fn(32, 32, |y, x| (y * x % 5) as f64);
    client
        .run(
            submit_header("heat2d", kernels::heat2d(), &[32, 32], 3),
            &grid.to_dense(),
        )
        .unwrap();

    let (code, body) = http_get(server.addr(), "/healthz").unwrap();
    assert_eq!(code, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("status").and_then(json::Value::as_str), Some("ok"));
    // host identity and uptime anchor ride the liveness document
    assert!(doc
        .get("hostname")
        .and_then(json::Value::as_str)
        .is_some_and(|h| !h.is_empty()));
    assert!(doc
        .get("isa")
        .and_then(json::Value::as_str)
        .is_some_and(|i| i.contains("-w")));
    assert!(doc.get("threads").and_then(json::Value::as_num).unwrap() >= 1.0);
    assert!(
        doc.get("started_unix")
            .and_then(json::Value::as_num)
            .unwrap()
            > 0.0
    );

    // /metrics is the full stats document, parseable by the pinned
    // schema, with the tenant counters inside
    let (code, body) = http_get(server.addr(), "/metrics").unwrap();
    assert_eq!(code, 200);
    let snap = StatsSnapshot::from_json(&json::parse(&body).unwrap())
        .expect("metrics document matches the StatsSnapshot schema");
    assert!(snap.jobs_completed >= 1);
    assert_eq!(snap.tenants["scrape"].completed, 1);

    // ?format=prometheus switches the same endpoint to the text
    // exposition, without disturbing the pinned JSON above
    let (code, text) = http_get(server.addr(), "/metrics?format=prometheus").unwrap();
    assert_eq!(code, 200);
    assert!(text.contains("# TYPE stencil_jobs_completed_total counter"));
    assert!(text.contains("stencil_job_latency_microseconds_bucket"));
    assert!(text.contains("tenant=\"scrape\""));

    // /trace serves a Chrome trace-event document (empty but
    // well-formed while tracing is disabled)
    let (code, trace) = http_get(server.addr(), "/trace?ms=60000").unwrap();
    assert_eq!(code, 200);
    let doc = json::parse(&trace).unwrap();
    assert!(doc.get("traceEvents").is_some());

    // ...and carries a traced job's spans: a 3D job above the gate, so
    // it streams. Job ids count this service's submissions from 1, so
    // the id is known up front. The worker closes a job's `batch_drain`
    // span only after completing it; the follow-up job runs on the same
    // single worker, so once *its* result is back, every span of the
    // traced job is in the rings.
    let traced_id = (snap.jobs_submitted + 1) as f64;
    let big = Grid3D::from_fn(48, 16, 16, |z, y, x| ((z * 5 + y * 3 + x) % 17) as f64);
    stencil_lab::obs::set_enabled(true);
    client
        .run(
            submit_header("heat3d", kernels::heat3d(), &[48, 16, 16], 4),
            &big.to_dense(),
        )
        .unwrap();
    client
        .run(
            submit_header("heat2d", kernels::heat2d(), &[32, 32], 3),
            &grid.to_dense(),
        )
        .unwrap();
    stencil_lab::obs::set_enabled(false);
    let (code, trace) = http_get(server.addr(), "/trace").unwrap();
    assert_eq!(code, 200);
    let doc = json::parse(&trace).expect("a non-empty trace document parses");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .unwrap();
    // an event with one of `names`, tagged with `job` when one is given
    let has = |names: &[&str], job: Option<f64>| {
        events.iter().any(|ev| {
            let name = ev.get("name").and_then(json::Value::as_str);
            let tag = ev
                .get("args")
                .and_then(|a| a.get("job"))
                .and_then(json::Value::as_num);
            name.is_some_and(|n| names.contains(&n)) && (job.is_none() || tag == job)
        })
    };
    for span in ["queue_wait", "ooc_compute"] {
        assert!(
            has(&[span], Some(traced_id)),
            "the traced job's {span} span must carry its id {traced_id}"
        );
    }
    assert!(
        has(&["batch_drain", "worker_job", "ring_sweep"], None),
        "a traced job must leave an execution-side span"
    );

    let (code, _) = http_get(server.addr(), "/nope").unwrap();
    assert_eq!(code, 404);

    // the in-band stats message returns the same document shape
    let doc = client.stats().unwrap();
    assert!(StatsSnapshot::from_json(&doc).is_some());
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_releases_pool_threads() {
    // hold a pool handle: after shutdown only this handle and the
    // shared registry's own clone may remain — anything more is a leak
    let pool = PoolHandle::shared(2);
    let server = start_server(small_cfg(), NetConfig::default());
    let mut client = NetClient::connect(server.addr(), "t").unwrap();
    let grid = Grid2D::from_fn(48, 48, |y, x| ((y + x) % 3) as f64);
    client
        .run(
            submit_header("heat2d", kernels::heat2d(), &[48, 48], 4),
            &grid.to_dense(),
        )
        .unwrap();
    client.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.jobs_completed, 1);
    assert!(
        wait_until(Duration::from_secs(10), || pool.strong_count() == 2),
        "server shutdown must release every plan's pool handle (count={})",
        pool.strong_count()
    );
}

/// Write one frame to a raw socket.
fn write_frame(stream: &mut std::net::TcpStream, frame: &wire::Frame) {
    let mut buf = Vec::new();
    wire::encode(frame, &mut buf);
    std::io::Write::write_all(stream, &buf).unwrap();
}

/// The next server message on a raw socket, or `None` once it closed.
fn next_msg(stream: &mut std::net::TcpStream, buf: &mut Vec<u8>) -> Option<wire::ServerMsg> {
    loop {
        if let Some((frame, used)) = wire::decode(buf, wire::DEFAULT_MAX_FRAME).unwrap() {
            buf.drain(..used);
            let wire::Frame::Header(doc) = frame else {
                panic!("expected a header frame")
            };
            return Some(wire::ServerMsg::from_json(&doc).unwrap());
        }
        let mut chunk = [0u8; 4096];
        let n = std::io::Read::read(stream, &mut chunk).unwrap();
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Bits only a bit-exact path keeps, at `i` of every 13 cells.
fn awkward(i: usize, v: f64) -> f64 {
    match i % 13 {
        0 => -0.0,
        1 => 0.0,
        2 => f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload bits
        3 => f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN, sign set
        4 => f64::from_bits(1),                     // smallest subnormal
        _ => v,
    }
}

#[test]
fn payloads_survive_one_byte_server_reads_and_many_partial_client_reads_bit_for_bit() {
    use stencil_lab::faults::{self, Failpoint};
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            faults::disarm(Failpoint::NetShortRead);
            faults::set_enabled(false);
        }
    }
    let server = start_server(small_cfg(), NetConfig::default());
    let mut client = NetClient::connect(server.addr(), "bits").unwrap();

    // the server reads one byte per syscall: the submit's payload is
    // reassembled in its read buffer and decoded from there into the
    // job's grid. Fragmenting reads never changes bytes, so other tests
    // of this binary sharing the armed failpoint only run slower
    let grid = Grid2D::from_fn(24, 40, |y, x| awkward(y * 40 + x, (y * x % 7) as f64));
    let disarm = Disarm;
    faults::arm_probability(Failpoint::NetShortRead, 1.0, 7);
    faults::set_enabled(true);
    let out = client
        .run(
            submit_header("heat2d", kernels::heat2d(), &[24, 40], 3),
            &grid.to_dense(),
        )
        .unwrap();
    assert!(faults::fired(Failpoint::NetShortRead) > 0);
    drop(disarm);
    let spec = JobSpec::new(kernels::heat2d(), JobDomain::D2(grid.clone()), 3);
    let (plan, _) = server.service().plan_for(&spec).unwrap();
    let want = plan.run_2d(&grid, 3).unwrap().to_dense();
    assert_eq!(bits(&out.data), bits(&want));
    // the Dirichlet band is copied through: the special bits come back
    assert_eq!(out.data[0].to_bits(), (-0.0f64).to_bits());
    assert_eq!(out.data[2].to_bits(), 0x7ff8_0000_dead_beef);

    // a 512 KiB result: the client decodes it across many partial reads
    let big = Grid3D::from_fn(40, 40, 40, |z, y, x| {
        awkward(
            (z * 40 + y) * 40 + x,
            ((z + 2 * y + 3 * x) % 11) as f64 * 0.5,
        )
    });
    let out = client
        .run(
            submit_header("heat3d", kernels::heat3d(), &[40, 40, 40], 2),
            &big.to_dense(),
        )
        .unwrap();
    let spec = JobSpec::new(kernels::heat3d(), JobDomain::D3(big.clone()), 2);
    let (plan, _) = server.service().plan_for(&spec).unwrap();
    assert_eq!(
        bits(&out.data),
        bits(&plan.run_3d(&big, 2).unwrap().to_dense())
    );
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn a_payload_that_disagrees_with_its_extents_or_a_misframed_one_gets_the_typed_error() {
    let server = start_server(small_cfg(), NetConfig::default());
    // too few values for the extents: a job error, checked before any
    // grid is allocated; the connection keeps serving
    let mut client = NetClient::connect(server.addr(), "t").unwrap();
    let err = client
        .submit(
            submit_header("heat2d", kernels::heat2d(), &[8, 8], 1),
            &[0.5; 63],
        )
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(m)
            if m == "payload carries 63 f64s for a [8, 8] domain (64 points)"),
        "{err:?}"
    );
    assert_eq!(client.health().unwrap().0, "ok");
    client.bye().unwrap();

    // a payload frame whose length is bad: a protocol error, then close
    for (frame, want) in [
        (
            &[0u8, 0, 0, 4, wire::KIND_PAYLOAD, 1, 2, 3][..],
            "payload frame body of 3 bytes is not a whole number of f64s",
        ),
        (&[0, 0, 0, 0][..], "zero-length frame"),
    ] {
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut buf = Vec::new();
        write_frame(
            &mut raw,
            &wire::Frame::Header(wire::ClientMsg::Hello { tenant: "t".into() }.to_json()),
        );
        assert!(matches!(
            next_msg(&mut raw, &mut buf),
            Some(wire::ServerMsg::HelloOk { .. })
        ));
        let mut h = submit_header("heat2d", kernels::heat2d(), &[8, 8], 1);
        h.id = 1;
        write_frame(
            &mut raw,
            &wire::Frame::Header(wire::ClientMsg::Submit(h).to_json()),
        );
        std::io::Write::write_all(&mut raw, frame).unwrap();
        match next_msg(&mut raw, &mut buf) {
            Some(wire::ServerMsg::Error { message }) => assert_eq!(message, want),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(next_msg(&mut raw, &mut buf).is_none(), "closed after it");
    }
    server.shutdown();
}

#[test]
fn a_peer_that_stops_reading_large_results_is_dropped_at_the_backlog_cap() {
    // 1 MiB frames, so 2 MiB of unsent results is the cap; 24 results of
    // 1 MiB for a peer that never reads overflow what the sockets hold
    // (a few MiB) by far. The peer keeps its socket open and the idle
    // timeout is out of reach, so only the cap can drop it
    let server = start_server(
        ServeConfig {
            queue_capacity: 32,
            ..small_cfg()
        },
        NetConfig {
            max_frame: 1 << 20,
            tenant_quota: 32,
            idle_timeout: Duration::from_secs(600),
            ..NetConfig::default()
        },
    );
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    assert!(wait_until(Duration::from_secs(10), || server.connections() == 1));
    let grid = Grid2D::from_fn(360, 360, |y, x| ((y + x) % 9) as f64);
    let mut burst = Vec::new();
    wire::encode(
        &wire::Frame::Header(
            wire::ClientMsg::Hello {
                tenant: "mute".into(),
            }
            .to_json(),
        ),
        &mut burst,
    );
    for id in 1..=24u64 {
        let mut h = submit_header("heat2d", kernels::heat2d(), &[360, 360], 1);
        h.id = id;
        wire::encode(
            &wire::Frame::Header(wire::ClientMsg::Submit(h).to_json()),
            &mut burst,
        );
        wire::encode(&wire::Frame::Payload(grid.to_dense()), &mut burst);
    }
    // the server may drop the peer before it has read every submit
    let _ = std::io::Write::write_all(&mut raw, &burst);
    assert!(
        wait_until(Duration::from_secs(60), || server.connections() == 0),
        "a peer past the unsent backlog cap must be dropped"
    );
    assert!(server.service().stats().jobs_submitted >= 2);
    drop(raw);
    server.shutdown();
}
