//! Host fingerprinting for the per-host plan cache and the benchmark
//! dumps: a tuned choice is only trustworthy on the machine (and the
//! SIMD backend) that measured it, so every cache key and every
//! committed baseline carries this fingerprint.

use stencil_core::Width;

/// The identity a tuning measurement is keyed by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Machine hostname (the best of `$HOSTNAME`,
    /// `/proc/sys/kernel/hostname`, `/etc/hostname`, or `"unknown-host"`).
    pub hostname: String,
    /// The vector ISA plans run on — run-time detection, so the key
    /// follows the CPU, not the build flags: every build on one machine
    /// runs the same backends and shares one plan space.
    pub isa: String,
    /// Hardware threads the runtime sees.
    pub threads: usize,
}

impl HostFingerprint {
    /// Fingerprint the current host and build.
    pub fn detect() -> Self {
        Self {
            hostname: detect_hostname(),
            isa: isa_string(),
            threads: stencil_runtime::available_parallelism(),
        }
    }

    /// The `hostname|isa` prefix every cache key starts with (thread
    /// count is part of the per-entry key instead, since one host can
    /// legitimately tune for several pool sizes).
    pub fn key_prefix(&self) -> String {
        format!("{}|{}", self.hostname, self.isa)
    }
}

/// The detected ISA label, including the widest native width so a
/// `Width::native_max()` change shows up in the fingerprint.
pub fn isa_string() -> String {
    let isa = stencil_simd::Isa::detected();
    format!("{}-w{}", isa.label(), Width::native_max().lanes())
}

fn detect_hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        let h = h.trim().to_string();
        if !h.is_empty() {
            return h;
        }
    }
    for path in ["/proc/sys/kernel/hostname", "/etc/hostname"] {
        if let Ok(h) = std::fs::read_to_string(path) {
            let h = h.trim().to_string();
            if !h.is_empty() {
                return h;
            }
        }
    }
    "unknown-host".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_nonempty_and_stable() {
        let a = HostFingerprint::detect();
        let b = HostFingerprint::detect();
        assert_eq!(a, b);
        assert!(!a.hostname.is_empty());
        assert!(a.isa.contains("-w"));
        assert!(a.threads >= 1);
        assert!(a.key_prefix().contains('|'));
    }

    #[test]
    fn isa_tracks_the_detected_backend() {
        let isa = isa_string();
        assert!(
            isa.starts_with(stencil_simd::Isa::detected().label()),
            "{isa}"
        );
    }
}
