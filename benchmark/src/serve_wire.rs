//! `serve_wire`: what tenants see. An in-process `NetServer` on an
//! ephemeral loopback port over a `StencilService`; one client thread per
//! core, each its own connection and tenant, each keeping four jobs in
//! flight (the tenant quota) and blocking on replies — a **closed loop**.
//! The job mix is fixed per block of 20 (12 small, 6 medium, 2 large); the
//! seed orders the jobs inside a block and picks their inputs.

use crate::field::{self, BitHash};
use crate::metrics::Outcome;
use crate::rng::SplitMix64;
use crate::spans::{scoped, Tracer};
use crate::stats::{median, nearest_rank, percentile};
use crate::{micro, RunArgs, Scale};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use stencil_core::{Pattern, Tuning};
use stencil_runtime::PoolHandle;
use stencil_serve::manifest::kernel_by_name;
use stencil_serve::net::wire::{self, ClientMsg, Frame};
use stencil_serve::net::{round_steps, JobEvent};
use stencil_serve::{
    shard, JobDomain, JobSpec, JobTicket, Manifest, NetClient, NetConfig, NetError, NetServer,
    ServeConfig, StatsSnapshot, StencilService, SubmitHeader,
};

/// Jobs each client keeps in flight: the server's per-tenant quota.
const WINDOW: usize = 4;
/// Honoured `retry_after` waits before a refused job counts as failed.
const RETRIES: usize = 3;

/// One job class of the mix.
struct Class {
    name: &'static str,
    kernel: &'static str,
    extents: &'static [usize],
    steps: usize,
    /// Rounds the job is split into; more than one streams progress frames.
    rounds: usize,
    /// Jobs of this class per block of 20.
    per_block: usize,
}

fn classes(scale: Scale) -> [Class; 3] {
    let class = |name, kernel, extents, steps, rounds, per_block| Class {
        name,
        kernel,
        extents,
        steps,
        rounds,
        per_block,
    };
    match scale {
        Scale::Full => [
            // compute is a minority of the job: registry, queue, header
            // JSON and syscalls dominate
            class("small", "heat2d", &[192, 192], 8, 1, 12),
            class("medium", "box2d9p", &[512, 512], 8, 2, 6),
            // 16 MiB each way, above ShardPolicy::min_points: payload-bound
            class("large", "heat3d", &[128, 128, 128], 4, 1, 2),
        ],
        Scale::Tiny => [
            class("small", "heat2d", &[40, 40], 4, 1, 12),
            class("medium", "box2d9p", &[64, 64], 4, 2, 6),
            class("large", "heat3d", &[24, 24, 24], 2, 1, 2),
        ],
    }
}

impl Class {
    fn pattern(&self) -> Pattern {
        kernel_by_name(self.kernel).expect("a Table-1 kernel")
    }

    fn updates(&self) -> f64 {
        (self.extents.iter().product::<usize>() * self.steps) as f64
    }

    fn header(&self) -> SubmitHeader {
        SubmitHeader {
            id: 0,
            name: self.kernel.into(),
            pattern: self.pattern(),
            extents: self.extents.to_vec(),
            steps: self.steps,
            rounds: self.rounds,
            tuning: None,
            deadline_ms: None,
        }
    }
}

/// One pre-generated input with the hash its reply must have.
struct Input {
    grid: JobDomain,
    dense: Vec<f64>,
    want: BitHash,
}

/// The workload after set-up.
struct Served {
    server: NetServer,
    classes: [Class; 3],
    /// `inputs[class][i]`
    inputs: Vec<Vec<Input>>,
}

/// One finished job as its client saw it.
struct JobRecord {
    class: usize,
    /// Submit call to reply fully received, replies consumed in submission
    /// order (the blocking client's view).
    latency_s: f64,
    shards: u64,
}

/// One client's supply of jobs: whole blocks of 20 in seeded order, until
/// the time budget has passed at a block boundary — so that every client
/// runs the exact mix whatever the host's speed.
struct Feed<'a> {
    served: &'a Served,
    rng: SplitMix64,
    pending: VecDeque<(usize, usize)>,
    blocks: usize,
    start: Instant,
    budget_s: f64,
}

impl Feed<'_> {
    /// The next `(class, input)`, or `None` once the budget is spent.
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.pending.is_empty() {
            if self.blocks > 0 && self.start.elapsed().as_secs_f64() >= self.budget_s {
                return None;
            }
            self.pending = self.served.block(&mut self.rng);
            self.blocks += 1;
        }
        self.pending.pop_front()
    }
}

impl Served {
    /// Set-up: inputs generated, service started and warmed, server bound.
    fn set_up(args: &RunArgs) -> Self {
        let classes = classes(args.scale);
        let per_class = match args.scale {
            Scale::Full => 8,
            Scale::Tiny => 2,
        };
        let inputs = classes
            .iter()
            .enumerate()
            .map(|(c, class)| {
                let mut rng = SplitMix64::new(args.seed, 10 + c as u64);
                (0..per_class)
                    .map(|_| {
                        let grid = field::random(class.extents, &mut rng);
                        Input {
                            dense: field::to_dense(&grid),
                            grid,
                            want: BitHash::new(),
                        }
                    })
                    .collect()
            })
            .collect();
        let service = StencilService::start(ServeConfig {
            threads: args.threads,
            workers: 2,
            tuning: Tuning::Static,
            ..ServeConfig::default()
        });
        let mut manifest = Manifest::new(Tuning::Static);
        for class in &classes {
            manifest.push_kernel(class.kernel, Some(class.extents));
        }
        let warm = service.warm(&manifest);
        assert!(warm.failed.is_empty(), "warm start: {:?}", warm.failed);
        let server = NetServer::start(
            service,
            NetConfig {
                tenant_quota: WINDOW,
                ..NetConfig::default()
            },
        )
        .expect("bind an ephemeral loopback port");
        Served {
            server,
            classes,
            inputs,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Verify: the reply of every input is fixed as the bits the service's
    /// own plan computes in process, round by round (the wire, the queue
    /// and the sharder promise bit-identity with it); the first input of
    /// each class is also held against the scalar-plan reference; then one
    /// job per class goes over the wire as a warm-up.
    fn verify(&mut self, out: &mut Outcome) {
        for (class, inputs) in self.classes.iter().zip(&mut self.inputs) {
            let spec = JobSpec::new(class.pattern(), inputs[0].grid.clone(), class.steps);
            let plan = match self.server.service().plan_for(&spec) {
                Ok((plan, _)) => plan,
                Err(e) => {
                    out.op(Some(format!("{}: no plan: {e}", class.name)));
                    continue;
                }
            };
            let chunks = round_steps(class.steps, class.rounds);
            for (i, input) in inputs.iter_mut().enumerate() {
                let mut got = input.grid.clone();
                for &t in &chunks {
                    got = field::run(&plan, &got, t);
                }
                input.want = BitHash::of(&got);
                if i == 0 {
                    let mut want = input.grid.clone();
                    for &t in &chunks {
                        want = field::scalar_reference(&plan, &want, t);
                    }
                    let diff = field::rel_max_diff(&got, &want);
                    out.op((diff.is_nan() || diff > field::TOLERANCE).then(|| {
                        format!(
                            "{}: differs from the scalar reference by {diff:e} ({:?}, {:?})",
                            class.name,
                            plan.method(),
                            plan.tiling()
                        )
                    }));
                }
            }
        }
        let mut conn = NetClient::connect(self.addr(), "verify").expect("connect");
        for (c, class) in self.classes.iter().enumerate() {
            let input = &self.inputs[c][0];
            let problem = match conn.run(class.header(), &input.dense) {
                Ok(reply) => (BitHash::of_dense(&reply.extents, &reply.data) != input.want)
                    .then(|| format!("{}: reply bits differ from the in-process plan", class.name)),
                Err(e) => Some(format!("{}: {e}", class.name)),
            };
            out.op(problem);
        }
        conn.bye().expect("orderly goodbye");
    }

    fn feed(&self, rng: SplitMix64, start: Instant, budget_s: f64) -> Feed<'_> {
        Feed {
            served: self,
            rng,
            pending: VecDeque::new(),
            blocks: 0,
            start,
            budget_s,
        }
    }

    /// One block of 20 jobs `(class, input)` in seeded order.
    fn block(&self, rng: &mut SplitMix64) -> VecDeque<(usize, usize)> {
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        for (c, class) in self.classes.iter().enumerate() {
            for _ in 0..class.per_block {
                jobs.push((c, rng.below(self.inputs[c].len())));
            }
        }
        rng.shuffle(&mut jobs);
        jobs.into()
    }

    /// The closed loop over the wire: every client submits whole blocks
    /// until `budget_s` has passed, then drains. Returns the jobs and the
    /// wall time of the region.
    fn wire_phase(
        &self,
        args: &RunArgs,
        budget_s: f64,
        stream: u64,
        tracer: Option<&Tracer>,
        out: &mut Outcome,
    ) -> (Vec<JobRecord>, f64) {
        let start = Instant::now();
        let logs: Vec<(Vec<JobRecord>, Vec<Option<String>>)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..args.threads)
                .map(|client| {
                    scope.spawn(move || {
                        let rng = SplitMix64::new(args.seed, stream + client as u64);
                        self.wire_client(client, self.feed(rng, start, budget_s), tracer)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut jobs = Vec::new();
        for (done, ops) in logs {
            jobs.extend(done);
            ops.into_iter().for_each(|p| out.op(p));
        }
        (jobs, wall)
    }

    fn wire_client(
        &self,
        client: usize,
        mut feed: Feed<'_>,
        tracer: Option<&Tracer>,
    ) -> (Vec<JobRecord>, Vec<Option<String>>) {
        let mut conn =
            NetClient::connect(self.addr(), &format!("tenant{client}")).expect("connect");
        let (mut done, mut ops) = (Vec::new(), Vec::new());
        // (job id, class, input, submit instant, job span)
        let mut inflight: VecDeque<(u64, usize, usize, Instant, Option<usize>)> = VecDeque::new();
        loop {
            while inflight.len() < WINDOW {
                let Some((c, i)) = feed.next() else { break };
                let class = &self.classes[c];
                let t0 = Instant::now();
                let job = tracer.map(|tr| tr.begin(&format!("job.{}", class.name), None, 0));
                let submitted = scoped(tracer, "net.client.submit", job, 0, || {
                    let mut tries = 0;
                    loop {
                        match conn.submit(class.header(), &self.inputs[c][i].dense) {
                            Err(NetError::Rejected { retry_after, .. }) if tries < RETRIES => {
                                tries += 1;
                                std::thread::sleep(retry_after.min(Duration::from_millis(50)));
                            }
                            other => return other,
                        }
                    }
                });
                match submitted {
                    Ok(id) => inflight.push_back((id, c, i, t0, job)),
                    Err(e) => ops.push(Some(format!("{}: submit: {e}", class.name))),
                }
            }
            let Some((id, c, i, t0, job)) = inflight.pop_front() else {
                break;
            };
            let class = &self.classes[c];
            let reply = scoped(tracer, "net.client.next_event", job, id, || loop {
                match conn.next_event(id) {
                    Ok(JobEvent::Progress { .. }) => continue,
                    Ok(JobEvent::Done(reply)) => return Ok(reply),
                    Err(e) => return Err(e),
                }
            });
            let latency_s = t0.elapsed().as_secs_f64();
            ops.push(match reply {
                Ok(reply) => {
                    let got = scoped(tracer, "bench.check", job, id, || {
                        BitHash::of_dense(&reply.extents, &reply.data)
                    });
                    done.push(JobRecord {
                        class: c,
                        latency_s,
                        shards: reply.shards,
                    });
                    (got != self.inputs[c][i].want)
                        .then(|| format!("{}: reply bits differ from the reference", class.name))
                }
                Err(e) => Some(format!("{}: {e}", class.name)),
            });
            if let (Some(tr), Some(job)) = (tracer, job) {
                tr.end(job);
            }
        }
        if let Err(e) = conn.bye() {
            ops.push(Some(format!("tenant{client}: goodbye: {e}")));
        }
        (done, ops)
    }

    /// The same seeded mix through `StencilService::submit`, in process:
    /// the wire run minus the wire. Returns per job `(class, latency_s,
    /// queue_us, compute_us)`.
    fn replay_phase(
        &self,
        args: &RunArgs,
        budget_s: f64,
        out: &mut Outcome,
    ) -> Vec<(usize, f64, u64, u64)> {
        let start = Instant::now();
        let service = self.server.service();
        let logs: Vec<_> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..args.threads)
                .map(|client| {
                    scope.spawn(move || {
                        let rng = SplitMix64::new(args.seed, 300 + client as u64);
                        self.replay_client(service, self.feed(rng, start, budget_s))
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("replay thread"))
                .collect()
        });
        let mut jobs = Vec::new();
        for (done, ops) in logs {
            jobs.extend(done);
            ops.into_iter().for_each(|p| out.op(p));
        }
        jobs
    }

    #[allow(clippy::type_complexity)]
    fn replay_client(
        &self,
        service: &StencilService,
        mut feed: Feed<'_>,
    ) -> (Vec<(usize, f64, u64, u64)>, Vec<Option<String>>) {
        struct Flight {
            ticket: JobTicket,
            class: usize,
            input: usize,
            t0: Instant,
            /// Steps of the rounds still to submit.
            rest: VecDeque<usize>,
            queue_us: u64,
            compute_us: u64,
        }
        let (mut done, mut ops) = (Vec::new(), Vec::new());
        let mut inflight: VecDeque<Flight> = VecDeque::new();
        loop {
            while inflight.len() < WINDOW {
                let Some((c, i)) = feed.next() else { break };
                let class = &self.classes[c];
                let mut rest: VecDeque<usize> = round_steps(class.steps, class.rounds).into();
                let first = rest.pop_front().expect("at least one round");
                let t0 = Instant::now();
                let spec = JobSpec::new(class.pattern(), self.inputs[c][i].grid.clone(), first);
                match service.submit(spec) {
                    Ok(ticket) => inflight.push_back(Flight {
                        ticket,
                        class: c,
                        input: i,
                        t0,
                        rest,
                        queue_us: 0,
                        compute_us: 0,
                    }),
                    Err(e) => ops.push(Some(format!("{}: in-process submit: {e}", class.name))),
                }
            }
            let Some(mut f) = inflight.pop_front() else {
                break;
            };
            let class = &self.classes[f.class];
            let result = match f.ticket.wait() {
                Ok(r) => r,
                Err(e) => {
                    ops.push(Some(format!("{}: in-process: {e}", class.name)));
                    continue;
                }
            };
            f.queue_us += result.timeline.queue_us;
            f.compute_us += result.timeline.compute_us;
            if let Some(next) = f.rest.pop_front() {
                // the next round of a multi-round job stays the oldest
                match service.submit(JobSpec::new(class.pattern(), result.output, next)) {
                    Ok(ticket) => inflight.push_front(Flight { ticket, ..f }),
                    Err(e) => ops.push(Some(format!("{}: in-process submit: {e}", class.name))),
                }
                continue;
            }
            done.push((
                f.class,
                f.t0.elapsed().as_secs_f64(),
                f.queue_us,
                f.compute_us,
            ));
            ops.push(
                (BitHash::of(&result.output) != self.inputs[f.class][f.input].want)
                    .then(|| format!("{}: in-process bits differ from the reference", class.name)),
            );
        }
        (done, ops)
    }

    /// Shut down and check nothing leaked: every job of every tenant
    /// completed, no job failed, and the plans released the shared pool.
    fn shut_down(self, threads: usize, out: &mut Outcome) -> StatsSnapshot {
        let stats = self.server.shutdown();
        let pool = PoolHandle::shared(threads);
        out.op((pool.strong_count() != 2)
            .then(|| format!("{} pool handles outlive the service", pool.strong_count())));
        out.op((stats.jobs_failed != 0)
            .then(|| format!("{} jobs failed in the service", stats.jobs_failed)));
        stats
    }
}

fn class_ms(jobs: &[JobRecord], class: usize) -> Vec<f64> {
    jobs.iter()
        .filter(|j| j.class == class)
        .map(|j| j.latency_s * 1e3)
        .collect()
}

/// Run the workload as the driver asks.
pub fn run(args: &RunArgs, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut w = crate::repeat_set_up(&mut out, 9, || Served::set_up(args));
    let t0 = Instant::now();
    w.verify(&mut out);
    eprintln!("verify_s {:.3}", t0.elapsed().as_secs_f64());
    match tracer {
        None => {
            let (jobs, wall) = w.wire_phase(args, args.seconds, 200, None, &mut out);
            let updates: f64 = jobs.iter().map(|j| w.classes[j.class].updates()).sum();
            out.samples.insert("jobs".into(), jobs.len() as u64);
            for (c, class) in w.classes.iter().enumerate() {
                let ms = class_ms(&jobs, c);
                eprintln!(
                    "  {:<8} {:>6} jobs, p50 {:>9.3} ms",
                    class.name,
                    ms.len(),
                    median(&ms)
                );
            }
            // Work over the wall time of the region. With a fixed number
            // of jobs in flight this is also the tenants' mean latency
            // (Little's law): 8 jobs / (jobs per second).
            out.set("mupd_s", updates / wall / 1e6);
            // the 3D class as a tenant sees it: updates of one large job
            // over its median latency
            out.set(
                "mupd_s_3d",
                w.classes[2].updates() / (median(&class_ms(&jobs, 2)) / 1e3) / 1e6,
            );
            out.set("peak_rss_mib", crate::host::peak_rss_mib());
            w.shut_down(args.threads, &mut out);
        }
        Some(tr) => traced(args, w, tr, &mut out),
    }
    out
}

fn traced(args: &RunArgs, w: Served, tr: &Tracer, out: &mut Outcome) {
    let s = args.seconds;
    let (jobs, wall) = w.wire_phase(args, s * 0.4, 200, None, out);
    let untraced_job_s = wall / jobs.len() as f64;
    let all: Vec<f64> = jobs.iter().map(|j| j.latency_s * 1e3).collect();
    crate::job_latency(&all, out);
    // a thin tail (the traced run has too few jobs for ten beyond it):
    // a layer metric, not gated
    out.set("net.job_p99_ms", nearest_rank(&all, 99.0).0);
    out.set(
        "serve.shard.fanout_share",
        jobs.iter().filter(|j| j.shards > 1).count() as f64 / jobs.len() as f64,
    );
    // the 2D classes as a tenant sees them, like mupd_s_3d: the updates of
    // one job of each class over the sum of the classes' median latencies
    let updates_2d: f64 = w.classes[..2].iter().map(Class::updates).sum();
    let medians_2d: f64 = (0..2).map(|c| median(&class_ms(&jobs, c)) / 1e3).sum();
    out.set("mupd_s_2d", updates_2d / medians_2d / 1e6);

    stencil_obs::set_enabled(true);
    stencil_obs::clear();
    let (traced_jobs, traced_wall) = w.wire_phase(args, s * 0.15, 400, Some(tr), out);
    tr.fold_obs(&stencil_obs::snapshot(), 0);
    stencil_obs::set_enabled(false);
    stencil_obs::clear();
    out.set(
        "obs.traced_overhead_share.serve_wire",
        traced_wall / traced_jobs.len() as f64 / untraced_job_s - 1.0,
    );

    let replay = w.replay_phase(args, s * 0.25, out);
    let queue_us: Vec<f64> = replay.iter().map(|j| j.2 as f64).collect();
    let compute_us: Vec<f64> = replay.iter().map(|j| j.3 as f64).collect();
    out.set("serve.queue.wait_us_p50", median(&queue_us));
    out.set(
        "serve.queue.wait_us_p95",
        percentile(&queue_us, 95.0).unwrap_or(0.0),
    );
    out.set("serve.service.compute_us_p50", median(&compute_us));
    for (c, class) in w.classes.iter().enumerate() {
        let net = median(&class_ms(&jobs, c));
        let inproc: Vec<f64> = replay
            .iter()
            .filter(|j| j.0 == c)
            .map(|j| j.1 * 1e3)
            .collect();
        let inproc = median(&inproc);
        out.set(format!("net.job_p50_ms.{}", class.name), net);
        out.set(format!("serve.inproc.job_p50_ms.{}", class.name), inproc);
        out.set(format!("net.overhead_ms_p50.{}", class.name), net - inproc);
        if c == 0 {
            // how much of a small job a kernel gain can reach
            let compute: Vec<f64> = replay
                .iter()
                .filter(|j| j.0 == 0)
                .map(|j| j.3 as f64)
                .collect();
            out.set(
                "serve.service.compute_share.small",
                median(&compute) / (net * 1e3),
            );
        }
    }

    let loop_s = micro::loop_seconds(s);
    // sharded against plain execution of one large job, outside the service
    let large = &w.classes[2];
    let spec = JobSpec::new(large.pattern(), w.inputs[2][0].grid.clone(), large.steps);
    let (plan, _) = w.server.service().plan_for(&spec).expect("the large plan");
    let lanes = shard::lane_plans(&plan, args.threads).expect("lane plans");
    let JobDomain::D3(grid) = &w.inputs[2][0].grid else {
        unreachable!("the large class is 3D")
    };
    let plain = micro::per_call_s(loop_s, || plan.run_3d(grid, large.steps).expect("3D plan"));
    let sharded = micro::per_call_s(loop_s, || {
        shard::run_sharded_3d(&lanes, grid, large.steps, args.threads).expect("sharded run")
    });
    out.set("serve.shard.speedup", plain / sharded);
    drop((lanes, plan));
    net_micro(loop_s, large, &w.inputs[2][0].dense, out);

    let stats = w.shut_down(args.threads, out);
    out.set("serve.registry.hit_ratio", stats.hit_ratio());
    out.set(
        "serve.queue.batch_mean",
        stats.jobs_completed as f64 / stats.batches.max(1) as f64,
    );
    let (submitted, rejected) = stats
        .tenants
        .values()
        .fold((0, 0), |(s, r), t| (s + t.submitted, r + t.rejected));
    out.set(
        "serve.queue.rejected_share",
        rejected as f64 / submitted.max(1) as f64,
    );
}

/// `net.*` micro-timings: the payload frame of one large job through
/// `wire::encode` / `wire::decode`, and a submit header through JSON both
/// ways.
fn net_micro(loop_s: f64, large: &Class, payload: &[f64], out: &mut Outcome) {
    let bytes = (payload.len() * 8) as f64;
    let frame = Frame::Payload(payload.to_vec());
    let mut buf = Vec::new();
    let s = micro::per_call_s(loop_s, || {
        buf.clear();
        wire::encode(&frame, &mut buf);
    });
    out.set("net.encode_gbs", bytes / s / 1e9);
    let s = micro::per_call_s(loop_s, || {
        wire::decode(&buf, wire::DEFAULT_MAX_FRAME).expect("a frame just encoded")
    });
    out.set("net.decode_gbs", bytes / s / 1e9);
    let header = large.header();
    let s = micro::per_call_s(loop_s, || {
        buf.clear();
        wire::encode(
            &Frame::Header(ClientMsg::Submit(header.clone()).to_json()),
            &mut buf,
        );
        match wire::decode(&buf, wire::DEFAULT_MAX_FRAME) {
            Ok(Some((Frame::Header(doc), _))) => {
                ClientMsg::from_json(&doc).expect("a submit header")
            }
            other => panic!("a header frame just encoded decoded as {other:?}"),
        }
    });
    out.set("net.header_json_us", s * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_wire_dry_run_reports_its_metrics() {
        let _one_at_a_time = crate::dry_run_lock();
        let args = RunArgs::dry_run();
        let out = run(&args, None);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        // two clients, at least one block of 20 each, plus verify
        assert!(out.samples["jobs"] >= 40, "{:?}", out.samples);
        for (name, _) in crate::metrics::END_TO_END {
            assert!(out.values[name] > 0.0, "{name}");
        }
        let tracer = Tracer::new();
        let out = run(&args, Some(&tracer));
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        for name in [
            "mupd_s_2d",
            "job_p50_ms",
            "job_p95_ms",
            "net.job_p99_ms",
            "serve.registry.hit_ratio",
            "serve.service.compute_us_p50",
            "serve.service.compute_share.small",
            "serve.inproc.job_p50_ms.medium",
            "net.job_p50_ms.large",
            "serve.shard.speedup",
            "net.encode_gbs",
            "net.decode_gbs",
            "net.header_json_us",
        ] {
            assert!(out.values[name] > 0.0, "{name}");
        }
        let st = tracer.self_times();
        assert!(st.contains_key("job.small") && st.contains_key("net.client.submit"));
        assert!(
            st.keys().any(|k| k.starts_with("obs.")),
            "program spans folded in"
        );
    }

    #[test]
    fn a_block_has_the_fixed_mix_in_seeded_order() {
        let _one_at_a_time = crate::dry_run_lock();
        let args = RunArgs::dry_run();
        let w = Served::set_up(&args);
        let block = |seed| w.block(&mut SplitMix64::new(seed, 200));
        let b = block(1);
        for (c, n) in [(0, 12), (1, 6), (2, 2)] {
            assert_eq!(b.iter().filter(|(class, _)| *class == c).count(), n);
        }
        assert_eq!(b, block(1));
        assert_ne!(b, block(2));
        w.server.shutdown();
    }
}
