//! `stencil-bench trace`: exercise the observability subsystem end to
//! end — span rings, job timelines, the Chrome trace exporter and the
//! Prometheus exposition — against a live network server.
//!
//! The driver enables tracing, routes a mixed workload through a real
//! `NetServer` (including one 3D job big enough to stream through the
//! out-of-core executor), then: asserts the out-of-core job's timeline
//! decomposition accounts for its measured latency (±5%), scrapes
//! `/healthz`, `/metrics?format=prometheus` and `/trace` over HTTP,
//! re-parses the Chrome trace document with the project's own JSON
//! parser, writes it to `BENCH_trace.json` (Perfetto-loadable), and
//! prints a per-span-id event count table.
//!
//! `--smoke` shrinks the workload for CI; `--json` additionally dumps
//! the count tables as a host-stamped baseline.

use stencil_bench::{Args, Table};
use stencil_core::{kernels, Solver, Tiling};
use stencil_grid::{Grid2D, Grid3D};
use stencil_obs::SpanId;
use stencil_serve::net::{http_get, NetClient, NetConfig, NetServer, SubmitHeader};
use stencil_serve::service::OocThreshold;
use stencil_serve::{JobDomain, JobSpec, ServeConfig, StencilService};

fn main() {
    let args = Args::parse();
    let threads = args.threads();
    let (d3, wire_jobs, steps) = if args.quick {
        (48, 2, 4)
    } else if args.paper {
        (128, 8, 8)
    } else {
        (64, 4, 6)
    };

    stencil_obs::set_enabled(true);
    stencil_obs::clear();

    println!(
        "stencil-bench trace — tracing a live server, {threads} pool threads ({})",
        stencil_simd::backend_summary()
    );

    let big = Grid3D::from_fn(d3, 16, 16, |z, y, x| ((z * 5 + y * 3 + x) % 17) as f64);
    let service = StencilService::start(ServeConfig {
        threads,
        workers: 2,
        queue_capacity: 16,
        ooc: Some(OocThreshold {
            // half the big job's points: it must stream
            max_resident_points: d3 * 16 * 16 / 2,
            // ~32 window planes force several windows per pass
            budget_bytes: 32 * Grid3D::zeros(1, 16, 16).stride_z() * 8 * 5,
            ..OocThreshold::default()
        }),
        ..ServeConfig::default()
    });
    let server = NetServer::start(service, NetConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();

    // a 2D mix over the wire: exercises net encode/decode, queue wait,
    // batching and the worker spans
    let grid2d = Grid2D::from_fn(96, 96, |y, x| ((y * 13 + x * 7) % 29) as f64);
    let mut client = NetClient::connect(addr, "tracer").expect("connect");
    for i in 0..wire_jobs {
        let out = client
            .run(
                SubmitHeader {
                    id: 0,
                    name: format!("heat2d-{i}"),
                    pattern: kernels::heat2d(),
                    extents: vec![96, 96],
                    steps,
                    rounds: 1,
                    tuning: None,
                    deadline_ms: None,
                },
                &grid2d.to_dense(),
            )
            .expect("wire job");
        assert_eq!(out.data.len(), 96 * 96);
    }

    // a tessellate-tiled run drives the worker pool directly — the
    // untiled sweeps are single-thread, so this is what guarantees
    // worker-job spans land in the rings regardless of the host's
    // core count
    let tiled = Solver::new(kernels::heat2d())
        .tiling(Tiling::Tessellate { time_block: 2 })
        .threads(threads)
        .compile()
        .expect("tiled plan compiles");
    tiled.run_2d(&grid2d, 4).expect("tiled run");

    // the out-of-core job goes through the same service in process so
    // the JobResult timeline is observable directly
    let result = server
        .service()
        .submit(JobSpec::new(
            kernels::heat3d(),
            JobDomain::D3(big.clone()),
            4,
        ))
        .expect("submit ooc job")
        .wait()
        .expect("ooc job completes");
    let latency_us = result.latency.as_micros() as u64;
    let total_us = result.timeline.total_us();
    assert!(
        total_us.abs_diff(latency_us) <= latency_us / 20 + 1,
        "timeline {:?} must account for the measured latency {latency_us} µs (±5%)",
        result.timeline
    );
    assert!(
        result.timeline.io_us > 0,
        "a streamed job pays blocked IO: {:?}",
        result.timeline
    );
    println!(
        "ooc job: latency {latency_us} µs = queue {} + compute {} + io {} (overlap {})",
        result.timeline.queue_us,
        result.timeline.compute_us,
        result.timeline.io_us,
        result.timeline.overlap_us
    );

    // scrape the whole HTTP surface while the server is live
    let (code, health) = http_get(addr, "/healthz").expect("healthz");
    assert_eq!(code, 200);
    let doc = stencil_obs::json::parse(&health).expect("healthz json");
    assert!(doc.get("hostname").is_some() && doc.get("isa").is_some());

    let (code, prom) = http_get(addr, "/metrics?format=prometheus").expect("prometheus");
    assert_eq!(code, 200);
    for series in [
        "stencil_jobs_completed_total",
        "stencil_ooc_jobs_total",
        "stencil_job_latency_microseconds_bucket",
        "stencil_plan_samples_total",
    ] {
        assert!(prom.contains(series), "exposition must carry {series}");
    }

    let (code, trace) = http_get(addr, "/trace?ms=600000").expect("trace scrape");
    assert_eq!(code, 200);
    let doc = stencil_obs::json::parse(&trace).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(stencil_obs::json::Value::as_arr)
        .expect("traceEvents array")
        .len();
    assert!(events > 0, "a traced run must emit span events");
    std::fs::write("BENCH_trace.json", &trace).expect("write BENCH_trace.json");
    println!("wrote BENCH_trace.json ({events} events; load in Perfetto / chrome://tracing)");

    let stats = server.shutdown();
    assert_eq!(stats.jobs_failed, 0, "no job may fail");
    assert_eq!(stats.ooc_jobs, 1, "the big job streamed");
    assert!(stats.ooc_bytes_read > 0 && stats.ooc_bytes_written > 0);

    // per-span-id event counts out of the rings themselves
    let snapshot = stencil_obs::snapshot();
    let mut counts = Table::new("trace span counts", "events");
    for id in SpanId::ALL {
        let n = snapshot.iter().filter(|e| e.id == id).count();
        counts.put(id.name(), "events", Some(n as f64));
    }
    counts.print();
    for required in [SpanId::WorkerJob, SpanId::QueueWait, SpanId::OocCompute] {
        assert!(
            snapshot.iter().any(|e| e.id == required),
            "span {} must appear in a traced serve run",
            required.name()
        );
    }

    stencil_obs::set_enabled(false);
    if let Some(path) = &args.json {
        Table::dump_json(&[&counts], path).expect("write json");
        eprintln!("wrote {path}");
    }
    println!("trace surface OK");
}
