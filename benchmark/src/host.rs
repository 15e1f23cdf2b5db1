//! Facts about the host and the build, stamped into every result so that
//! runs on different hosts or instruction sets are never compared.

use crate::json::Value;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = read("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Size in bytes of the cache at `index` of cpu0 (`"512K"`, `"4096K"`,
/// `"260M"` in sysfs).
fn cache_bytes(index: usize) -> Option<(u64, f64)> {
    let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = read(&format!("{dir}/level"))?.trim().parse().ok()?;
    let size = read(&format!("{dir}/size"))?;
    let size = size.trim();
    let (digits, mult) = match size.chars().last()? {
        'K' => (&size[..size.len() - 1], 1024.0),
        'M' => (&size[..size.len() - 1], 1024.0 * 1024.0),
        _ => (size, 1.0),
    };
    Some((level, digits.parse::<f64>().ok()? * mult))
}

/// The instruction set the vector kernels were compiled for.
pub fn isa() -> &'static str {
    if stencil_simd::HAS_AVX512 {
        "avx512f"
    } else if stencil_simd::HAS_AVX2 {
        "avx2+fma"
    } else {
        "portable"
    }
}

/// The host stamp. `run.sh` passes what only it can know (the compiler
/// version and the commit) through the environment.
pub fn stamp() -> Value {
    let env = |k: &str| Value::str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let caches: Vec<(u64, f64)> = (0..8).filter_map(cache_bytes).collect();
    let level = |l: u64| {
        caches
            .iter()
            .filter(|(lv, _)| *lv == l)
            .map(|(_, b)| Value::Num(*b))
            .next_back()
            .unwrap_or(Value::Null)
    };
    let last = caches.iter().map(|(l, _)| *l).max().unwrap_or(0);
    Value::obj([
        (
            "hostname",
            Value::str(read("/proc/sys/kernel/hostname").unwrap_or_default().trim()),
        ),
        (
            "nproc",
            Value::Num(stencil_runtime::available_parallelism() as f64),
        ),
        ("isa", Value::str(isa())),
        ("backend", Value::str(stencil_simd::backend_summary())),
        ("l2_bytes", level(2)),
        ("llc_bytes", level(last)),
        ("rustc", env("BENCH_RUSTC")),
        ("git_commit", env("BENCH_GIT_COMMIT")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stamp_names_the_build_and_the_host() {
        let s = stamp();
        assert!(s.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(s.get("isa").unwrap().as_str(), Some(isa()));
        assert!(peak_rss_mib() > 0.0);
    }
}
