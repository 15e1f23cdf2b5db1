//! `stencil-bench serve_net`: drive the network serving front end with
//! closed-loop TCP clients — real sockets, real frames — and report
//! end-to-end throughput, the latency distribution, per-tenant
//! admission counters, and the scrape surface.
//!
//! Each client is its own tenant on its own connection, submitting a
//! heat2d / box2d9p / star3d mix through the wire protocol and blocking
//! on each result (closed loop). Backpressure rejections are honored by
//! waiting the server's `retry_after_ms` hint. After the run the bench
//! scrapes `/healthz` and `/metrics` over plain HTTP on the same port
//! and asserts a clean shutdown: no leaked pool threads.
//!
//! `--smoke` shrinks domains and job counts for CI; `--json` dumps the
//! host-stamped `BENCH_serve_net.json` baseline.

use std::sync::Mutex;
use std::time::{Duration, Instant};
use stencil_bench::{Args, Table};
use stencil_core::{kernels, Pattern, Tuning};
use stencil_runtime::PoolHandle;
use stencil_serve::net::{http_get, NetClient, NetConfig, NetError, NetServer, SubmitHeader};
use stencil_serve::{Manifest, ServeConfig, StatsSnapshot, StencilService};

struct Mix {
    name: &'static str,
    pattern: Pattern,
    extents: Vec<usize>,
    steps: usize,
    rounds: usize,
}

fn mixes(args: &Args) -> Vec<Mix> {
    let (d2, d3, s2, s3) = if args.quick {
        (192, 24, 8, 4)
    } else if args.paper {
        (1536, 96, 24, 8)
    } else {
        (640, 48, 16, 6)
    };
    vec![
        Mix {
            name: "heat2d",
            pattern: kernels::heat2d(),
            extents: vec![d2, d2],
            steps: s2,
            rounds: 1,
        },
        Mix {
            name: "box2d9p",
            pattern: kernels::box2d9p(),
            extents: vec![d2, d2],
            steps: s2 / 2,
            // multi-round: exercises the progress-streaming path
            rounds: 2,
        },
        Mix {
            name: "star3d",
            pattern: kernels::heat3d(),
            extents: vec![d3, d3, d3],
            steps: s3,
            rounds: 1,
        },
    ]
}

fn grid_data(extents: &[usize], seed: f64) -> Vec<f64> {
    let points: usize = extents.iter().product();
    (0..points)
        .map(|i| ((i * 13 % 4096) as f64 + seed) % 17.0)
        .collect()
}

fn main() {
    let args = Args::parse();
    let threads = args.threads();
    let clients = if args.quick { 2 } else { 4 };
    let jobs_per_client = if args.quick { 6 } else { 16 };
    let mixes: Vec<Mix> = mixes(&args)
        .into_iter()
        .filter(|m| args.wants(m.name))
        .collect();
    if mixes.is_empty() {
        eprintln!("--filter matched no workload");
        std::process::exit(2);
    }
    let tuning = if args.tuned {
        stencil_tune::install();
        Tuning::CacheOnly
    } else {
        Tuning::Static
    };

    println!(
        "stencil-bench serve_net — {clients} closed-loop TCP clients x {jobs_per_client} jobs, \
         {threads} pool threads ({})",
        stencil_simd::backend_summary()
    );

    // held across the run: the shutdown leak check below counts
    // against this handle
    let pool = PoolHandle::shared(threads);

    let service = StencilService::start(ServeConfig {
        threads,
        workers: 2,
        queue_capacity: 4 * clients,
        batch_max: 8,
        tuning,
        ..ServeConfig::default()
    });
    let mut manifest = Manifest::new(tuning);
    for m in &mixes {
        manifest.push_kernel(m.name, Some(&m.extents));
    }
    let warm = service.warm(&manifest);
    println!(
        "warm start: {} plan(s), {} cold fallback(s)",
        warm.loaded, warm.fallbacks
    );
    let server = NetServer::start(
        service,
        NetConfig {
            tenant_quota: 4,
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    println!("serving on {addr}");

    // (name, jobs, point-steps, latency µs) rows filled by the clients
    let per_kernel: Mutex<Vec<(String, u64, f64, f64)>> =
        Mutex::new(mixes.iter().map(|m| (m.name.into(), 0, 0.0, 0.0)).collect());
    let rejected = Mutex::new(0u64);
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (mixes, per_kernel, rejected) = (&mixes, &per_kernel, &rejected);
            scope.spawn(move || {
                let tenant = format!("client{client}");
                let mut conn = NetClient::connect(addr, &tenant).expect("connect");
                for round in 0..jobs_per_client {
                    let m = &mixes[(client + round) % mixes.len()];
                    let data = grid_data(&m.extents, (client * 31 + round * 7) as f64);
                    let header = SubmitHeader {
                        id: 0,
                        name: m.name.into(),
                        pattern: m.pattern.clone(),
                        extents: m.extents.clone(),
                        steps: m.steps,
                        rounds: m.rounds,
                        tuning: None,
                        deadline_ms: None,
                    };
                    // closed loop with honored backoff hints
                    let outcome = loop {
                        match conn.run(header.clone(), &data) {
                            Ok(out) => break out,
                            Err(NetError::Rejected { retry_after, .. }) => {
                                *rejected.lock().unwrap() += 1;
                                std::thread::sleep(retry_after.min(Duration::from_millis(50)));
                            }
                            Err(e) => panic!("job failed: {e}"),
                        }
                    };
                    let points: usize = m.extents.iter().product();
                    assert_eq!(outcome.data.len(), points, "result grid is whole");
                    let mut agg = per_kernel.lock().unwrap();
                    let row = agg
                        .iter_mut()
                        .find(|(n, ..)| n == m.name)
                        .expect("row pre-seeded");
                    row.1 += 1;
                    row.2 += (points * m.steps) as f64;
                    row.3 += outcome.latency_us as f64;
                }
                conn.bye().expect("orderly goodbye");
            });
        }
    });
    let wall_s = wall.elapsed().as_secs_f64();

    // scrape the HTTP surface while the server still runs
    let (code, health) = http_get(addr, "/healthz").expect("healthz scrape");
    assert_eq!(code, 200, "healthz must answer 200: {health}");
    let (code, metrics) = http_get(addr, "/metrics").expect("metrics scrape");
    assert_eq!(code, 200);
    let scraped = StatsSnapshot::from_json(&stencil_obs::json::parse(&metrics).expect("json"))
        .expect("metrics document matches the snapshot schema");

    let stats = server.shutdown();

    let mut through = Table::new("serve-net throughput", "per kernel");
    for (name, jobs, ptsteps, lat_us) in per_kernel.into_inner().unwrap() {
        through.put(&name, "jobs", Some(jobs as f64));
        through.put(&name, "Mpts-steps/s", Some(ptsteps / wall_s / 1e6));
        through.put(
            &name,
            "mean_latency_ms",
            (jobs > 0).then(|| lat_us / jobs as f64 / 1e3),
        );
    }
    let mut svc = Table::new("serve-net service counters", "mixed");
    svc.put(
        "service",
        "jobs_per_s",
        Some(stats.jobs_completed as f64 / wall_s),
    );
    svc.put("service", "p50_ms", Some(stats.p50_us as f64 / 1e3));
    svc.put("service", "p99_ms", Some(stats.p99_us as f64 / 1e3));
    svc.put("service", "plan_hit_ratio", Some(stats.hit_ratio()));
    svc.put(
        "service",
        "client_retries",
        Some(*rejected.lock().unwrap() as f64),
    );
    svc.put("service", "jobs_failed", Some(stats.jobs_failed as f64));
    for (tenant, t) in &stats.tenants {
        svc.put(tenant, "submitted", Some(t.submitted as f64));
        svc.put(tenant, "rejected", Some(t.rejected as f64));
        svc.put(tenant, "completed", Some(t.completed as f64));
    }
    through.print();
    svc.print();

    // every client's every job completed, counted per tenant
    let total_rounds: u64 = stats.tenants.values().map(|t| t.completed).sum();
    assert_eq!(
        total_rounds as usize,
        clients * jobs_per_client,
        "every job must complete (scrape saw {} completed)",
        scraped.jobs_completed
    );
    assert_eq!(stats.jobs_failed, 0, "no job may fail");
    // clean shutdown: only this bench's handle and the shared
    // registry's clone remain — no leaked worker threads
    assert_eq!(
        pool.strong_count(),
        2,
        "shutdown must release every plan's pool handle"
    );
    println!("clean shutdown: pool handles released");

    if let Some(path) = &args.json {
        Table::dump_json(&[&through, &svc], path).expect("write json");
        eprintln!("wrote {path}");
    }
}
