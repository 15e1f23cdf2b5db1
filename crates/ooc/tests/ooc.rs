//! Out-of-core parity suite: the streaming executor must reproduce the
//! resident `Plan::run_3d` **bit for bit** across kernels (star and
//! box), effective radii 1/2/4, fold factors m ∈ {1, 2, 3}, both
//! tilings, tail steps, window sizes down to the minimum, and with the
//! prefetch thread disabled — plus the store's crash/truncation
//! detection and the budget error path.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use stencil_core::{kernels, Method, Pattern, Plan, Solver, Tiling};
use stencil_grid::Grid3D;
use stencil_ooc::{
    run_streaming, run_streaming_grid, run_streaming_grid_resumable, OocConfig, OocError,
    SlabStore, StreamReport,
};

fn bits(g: &Grid3D) -> Vec<u64> {
    g.to_dense().iter().map(|v| v.to_bits()).collect()
}

fn workload(nz: usize, ny: usize, nx: usize) -> Grid3D {
    Grid3D::from_fn(nz, ny, nx, |z, y, x| {
        ((z * 37 + y * 11 + x * 5) % 23) as f64 * 0.25 - 2.0
    })
}

/// Budget that caps windows at roughly `planes` resident planes.
fn budget_for(ny: usize, nx: usize, planes: usize, prefetch: bool) -> usize {
    let plane = Grid3D::zeros(1, ny, nx).stride_z() * 8;
    let residency = if prefetch {
        stencil_ooc::RESIDENT_WINDOWS_PREFETCH
    } else {
        stencil_ooc::RESIDENT_WINDOWS_SYNC
    };
    planes * plane * residency
}

fn check(plan: &Plan, g: &Grid3D, t: usize, cfg: &OocConfig) {
    let want = plan.run_3d(g, t).unwrap();
    let (got, report) = run_streaming_grid(plan, g, t, cfg).unwrap();
    assert_eq!(bits(&want), bits(&got), "streamed run diverged");
    assert!(report.passes >= 1);
    assert!(
        report.resident_bytes <= cfg.budget_bytes,
        "accounted residency {} exceeds budget {}",
        report.resident_bytes,
        cfg.budget_bytes
    );
    assert!(report.stats.bytes_read > 0 && report.stats.bytes_written > 0);
}

#[test]
fn parity_across_kernels_radii_and_fold_factors() {
    // (kernel, method, tiling, t): effective radii 1 (heat3d m=1),
    // 2 (folded r1, plain r2), 3 (m=3) and 4 (folded r2) — stars and
    // boxes, block-free and tessellate, even and tail step counts
    let cases: Vec<(Pattern, Method, Tiling, usize)> = vec![
        (kernels::heat3d(), Method::MultipleLoads, Tiling::None, 5),
        (kernels::heat3d(), Method::Folded { m: 2 }, Tiling::None, 7),
        (kernels::heat3d(), Method::Folded { m: 3 }, Tiling::None, 8),
        (
            kernels::box3d27p(),
            Method::Folded { m: 2 },
            Tiling::Tessellate { time_block: 2 },
            5,
        ),
        (kernels::star3d_r2(), Method::Scalar, Tiling::None, 3),
        (
            kernels::star3d_r2(),
            Method::Folded { m: 2 },
            Tiling::None,
            6,
        ),
        (
            kernels::box3d125p(),
            Method::Folded { m: 2 },
            Tiling::Tessellate { time_block: 2 },
            4,
        ),
        (
            kernels::box3d125p(),
            Method::MultipleLoads,
            Tiling::Tessellate { time_block: 3 },
            5,
        ),
    ];
    let g = workload(72, 16, 16);
    for (pattern, method, tiling, t) in cases {
        let label = format!("{method:?}/{tiling:?} t={t}");
        let plan = Solver::new(pattern)
            .method(method)
            .tiling(tiling)
            .compile()
            .unwrap();
        assert!(stencil_ooc::streamable(&plan), "{label}");
        // a cap well below the domain forces several windows/passes
        // (48 planes also clears the deepest case here: the folded
        // 125-point stencil needs 41-plane windows at its shallowest
        // pass)
        let cfg = OocConfig {
            budget_bytes: budget_for(16, 16, 48, true),
            ..OocConfig::default()
        };
        check(&plan, &g, t, &cfg);
    }
}

#[test]
fn parity_with_prefetch_disabled_and_multi_pass_schedules() {
    let g = workload(64, 14, 18);
    let plan = Solver::new(kernels::heat3d())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap();
    let t = 9; // 4 macro-steps + 1 tail step
    let want = plan.run_3d(&g, t).unwrap();
    for prefetch in [true, false] {
        for steps_per_pass in [0, 2, 4] {
            let cfg = OocConfig {
                budget_bytes: budget_for(14, 18, 34, prefetch),
                steps_per_pass,
                prefetch,
            };
            let (got, report) = run_streaming_grid(&plan, &g, t, &cfg).unwrap();
            assert_eq!(
                bits(&want),
                bits(&got),
                "prefetch={prefetch} steps_per_pass={steps_per_pass}"
            );
            if steps_per_pass == 2 {
                assert!(report.passes >= 4, "shallow passes must be honored");
            }
            if !prefetch {
                // the synchronous path never touches the prefetch
                // counters — the fallback is a plain load/sweep/store
                assert_eq!(report.stats.prefetch_hit + report.stats.prefetch_miss, 0);
                assert_eq!(report.stats.stall_us, 0);
            } else {
                // one load per window per pass (the final, shallower
                // pass may lay out a different window count)
                assert!(
                    report.stats.prefetch_hit + report.stats.prefetch_miss >= report.passes as u64
                );
            }
        }
    }
}

#[test]
fn parity_at_the_minimum_window_and_budget_error_below_it() {
    let g = workload(48, 12, 12);
    let plan = Solver::new(kernels::heat3d())
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 2 })
        .compile()
        .unwrap();
    let t = 6;
    // a 1-byte budget cannot hold anything; the error names the
    // smallest budget that works
    let tiny = OocConfig {
        budget_bytes: 1,
        ..OocConfig::default()
    };
    let needed = match run_streaming_grid(&plan, &g, t, &tiny) {
        Err(OocError::BudgetTooSmall { budget: 1, needed }) => needed,
        other => panic!("expected BudgetTooSmall, got {other:?}"),
    };
    // the reported budget is sufficient (it includes worst-case
    // alignment slack): runs, and stays bit-exact
    let min_cfg = OocConfig {
        budget_bytes: needed,
        ..OocConfig::default()
    };
    check(&plan, &g, t, &min_cfg);
    // probe down one cap plane at a time to the true minimum window:
    // every budget that runs must stay bit-exact, and the walk must
    // terminate in BudgetTooSmall, not in divergence
    let step = Grid3D::zeros(1, 12, 12).stride_z() * 8 * stencil_ooc::RESIDENT_WINDOWS_PREFETCH;
    let mut budget = needed;
    let mut ran = 0;
    loop {
        budget -= step;
        let cfg = OocConfig {
            budget_bytes: budget,
            ..OocConfig::default()
        };
        match run_streaming_grid(&plan, &g, t, &cfg) {
            Ok((got, _)) => {
                ran += 1;
                assert_eq!(
                    bits(&plan.run_3d(&g, t).unwrap()),
                    bits(&got),
                    "budget={budget}"
                );
            }
            Err(OocError::BudgetTooSmall { .. }) => break,
            Err(other) => panic!("unexpected error at budget {budget}: {other:?}"),
        }
        assert!(ran < 64, "walk did not reach the minimum");
    }
}

#[test]
fn streaming_resumes_across_calls_on_one_store() {
    // two streaming calls on the same store compose like one resident
    // run of the summed steps (the pass schedule already aligns to the
    // plan's quantum)
    let mut path = std::env::temp_dir();
    path.push(format!("stencil-ooc-resume-{}.slab", std::process::id()));
    let g = workload(56, 16, 12);
    let plan = Solver::new(kernels::box3d27p())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap();
    let cfg = OocConfig {
        budget_bytes: budget_for(16, 12, 30, true),
        ..OocConfig::default()
    };
    let want = plan.run_3d(&g, 10).unwrap();
    let store = SlabStore::create(&path, &g, plan.pattern().radius()).unwrap();
    run_streaming(&plan, &store, 4, &cfg).unwrap();
    assert_eq!(store.round(), 4);
    run_streaming(&plan, &store, 6, &cfg).unwrap();
    assert_eq!(store.round(), 10);
    let got = store.to_grid().unwrap();
    drop(store);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(bits(&want), bits(&got));
}

/// A named store another handle still streams is not taken over: a
/// resumable run on its path neither truncates it nor rolls it back,
/// streams its job through an unnamed store instead, and leaves the file
/// to the live handle, which goes on to finish its own job.
#[test]
fn a_live_named_store_is_not_taken_over_by_a_resumable_run() {
    let path = std::env::temp_dir().join(format!("stencil-ooc-live-{}.slab", std::process::id()));
    let g = workload(48, 12, 14);
    let plan = Solver::new(kernels::heat3d())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap();
    let cfg = OocConfig {
        budget_bytes: budget_for(12, 14, 24, false),
        steps_per_pass: 2,
        prefetch: false,
    };
    let want = bits(&plan.run_3d(&g, 6).unwrap());
    let held = SlabStore::create(&path, &g, plan.pattern().radius()).unwrap();
    run_streaming(&plan, &held, 2, &cfg).unwrap();
    assert_eq!(held.round(), 2);

    let (got, report) = run_streaming_grid_resumable(&plan, &g, 6, &cfg, &path).unwrap();
    assert!(report.passes >= 2, "{report:?}");
    assert_eq!(bits(&got), want);
    assert!(path.exists(), "the live store keeps its file");
    assert!(matches!(SlabStore::open(&path), Err(OocError::Busy { .. })));

    run_streaming(&plan, &held, 4, &cfg).unwrap();
    assert_eq!(bits(&held.to_grid().unwrap()), want);
    drop(held);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_and_crashed_stores_are_detected() {
    let g = workload(10, 8, 8);
    let mut path = std::env::temp_dir();
    path.push(format!("stencil-ooc-crashdet-{}.slab", std::process::id()));

    // external truncation (an interrupted copy, a full disk)
    SlabStore::create(&path, &g, 1).unwrap();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(200).unwrap();
    drop(f);
    assert!(matches!(
        SlabStore::open(&path),
        Err(OocError::Truncated { found: 200, .. })
    ));

    // a run that died mid-pass leaves the dirty flag set
    let store = SlabStore::create(&path, &g, 1).unwrap();
    store.begin_pass().unwrap();
    drop(store);
    match SlabStore::open(&path) {
        Err(OocError::Crashed { round: 0 }) => {}
        other => panic!("expected Crashed, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn unsupported_plans_are_refused_not_wrong() {
    // a 2D plan has no z axis to stream along
    let plan = Solver::new(kernels::heat2d()).compile().unwrap();
    assert!(!stencil_ooc::streamable(&plan));
    let g = workload(24, 10, 10);
    assert!(matches!(
        run_streaming_grid(&plan, &g, 2, &OocConfig::default()),
        Err(OocError::UnsupportedPlan { .. })
    ));
}

#[test]
fn transient_stores_are_cleaned_up() {
    // run_streaming_grid must leave no .slab files behind, on success
    // and on failure
    let names = || -> BTreeSet<String> {
        let ours = format!("stencil-ooc-{}-", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&ours))
            .collect()
    };
    let before = names();
    let g = workload(48, 10, 10);
    let plan = Solver::new(kernels::heat3d())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap();
    let cfg = OocConfig {
        budget_bytes: budget_for(10, 10, 28, true),
        ..OocConfig::default()
    };
    run_streaming_grid(&plan, &g, 4, &cfg).unwrap();
    let tiny = OocConfig {
        budget_bytes: 1,
        ..OocConfig::default()
    };
    let _ = run_streaming_grid(&plan, &g, 4, &tiny);
    // Other tests of this binary spill transient stores under the same
    // prefix meanwhile and unlink them at once. A leak is a name that
    // stays: wait, boundedly, for every name new since `before` to go.
    let deadline = Instant::now() + Duration::from_secs(1);
    let leaked = loop {
        let new: Vec<String> = names().difference(&before).cloned().collect();
        if new.is_empty() || Instant::now() >= deadline {
            break new;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        leaked.is_empty(),
        "transient store files leaked: {leaked:?}"
    );
}

#[test]
fn jobs_that_can_never_run_are_refused_before_any_io() {
    let g = workload(24, 10, 10);
    let flat = Solver::new(kernels::heat2d()).compile().unwrap();
    let folded = Solver::new(kernels::heat3d())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap();
    let one_plane = OocConfig {
        budget_bytes: Grid3D::zeros(1, 10, 10).stride_z() * 8,
        ..OocConfig::default()
    };
    // the resumable route keeps a failed attempt's store for resubmission;
    // a resubmission of these could never succeed, so they leave none
    let mut path = std::env::temp_dir();
    path.push(format!("stencil-ooc-refused-{}.slab", std::process::id()));
    let left_a_store = || std::fs::remove_file(&path).is_ok();
    left_a_store();
    assert!(matches!(
        run_streaming_grid_resumable(&flat, &g, 2, &OocConfig::default(), &path),
        Err(OocError::UnsupportedPlan { .. })
    ));
    assert!(!left_a_store(), "a plan that cannot stream");
    match run_streaming_grid_resumable(&folded, &g, 4, &one_plane, &path) {
        Err(OocError::BudgetTooSmall { budget, needed }) => {
            assert!(budget == one_plane.budget_bytes && needed > budget)
        }
        other => panic!("expected BudgetTooSmall, got {other:?}"),
    }
    assert!(!left_a_store(), "a budget below the minimum window");

    // zero steps: the input, and no store to spill it into — but a plan
    // that cannot stream is still refused
    let (same, report) = run_streaming_grid(&folded, &g, 0, &one_plane).unwrap();
    assert_eq!(bits(&same), bits(&g));
    assert_eq!(report, StreamReport::default());
    assert!(matches!(
        run_streaming_grid(&flat, &g, 0, &OocConfig::default()),
        Err(OocError::UnsupportedPlan { .. })
    ));
}

/// Set in the re-executed test binary of `a_killed_job_leaks_nothing`.
const KILL_CHILD: &str = "STENCIL_OOC_KILL_CHILD";
/// The child gives up by itself after this long, and the parent fails.
const KILL_CHILD_CEILING: std::time::Duration = std::time::Duration::from_secs(30);

/// The child of `a_killed_job_leaks_nothing`: streamed runs of a 30 MiB
/// domain back to back, a line on stdout after each. A no-op as a test.
#[test]
fn killed_job_child() {
    if std::env::var_os(KILL_CHILD).is_none() {
        return;
    }
    use std::io::Write;
    let g = workload(960, 64, 64);
    let plan = Solver::new(kernels::heat3d())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap();
    let cfg = OocConfig {
        budget_bytes: g.stride_z() * 8 * g.nz() / 4,
        ..OocConfig::default()
    };
    let start = std::time::Instant::now();
    while start.elapsed() < KILL_CHILD_CEILING {
        run_streaming_grid(&plan, &g, 2, &cfg).unwrap();
        let mut out = std::io::stdout();
        writeln!(out, "spilled").and_then(|()| out.flush()).unwrap();
    }
}

#[test]
fn a_killed_job_leaks_nothing() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "killed_job_child", "--nocapture"])
        .env(KILL_CHILD, "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let pid = child.id();
    let stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stdout.lines().map_while(Result::ok) {
            if line.contains("spilled") && tx.send(()).is_err() {
                break;
            }
        }
    });
    // one run is through, the next is under way: its store is spilled or
    // being swept when the kill lands (nothing here depends on where)
    let ran = rx.recv_timeout(KILL_CHILD_CEILING);
    std::thread::sleep(std::time::Duration::from_millis(10));
    child.kill().unwrap();
    child.wait().unwrap();
    reader.join().unwrap(); // the pipe closed with the child
    ran.expect("the re-executed test binary never finished a streamed run");
    let prefix = format!("stencil-ooc-{pid}-");
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&prefix))
        .collect();
    for n in &left {
        let _ = std::fs::remove_file(std::env::temp_dir().join(n));
    }
    assert!(left.is_empty(), "the killed job left {left:?}");
}
