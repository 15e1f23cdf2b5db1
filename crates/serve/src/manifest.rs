//! The warm-start manifest: the patterns a deployment expects to serve,
//! declared up front so the service can compile every plan at startup —
//! under `Tuning::CacheOnly` a fully warmed host reaches serving state
//! without a single probe run.
//!
//! The format is JSON through the project's shared hand-rolled
//! reader/writer ([`stencil_obs::json`]):
//!
//! ```json
//! {
//!   "version": 1.0,
//!   "default_tuning": "cache-only",
//!   "patterns": [
//!     { "kernel": "heat2d",   "domain": [4096.0, 4096.0] },
//!     { "kernel": "box2d9p",  "domain": [2048.0, 2048.0], "tuning": "static" },
//!     { "name": "custom-blur", "dims": 1.0, "radius": 1.0,
//!       "weights": [0.25, 0.5, 0.25] }
//!   ]
//! }
//! ```
//!
//! An entry is either a named Table-1 kernel (`"kernel"`) or an inline
//! pattern (`"dims"`/`"radius"`/`"weights"`); `"domain"` is the
//! expected extents (the registry's shape class and the tuner's
//! [`Solver::domain_hint`](stencil_core::Solver::domain_hint) both key
//! on it), and `"tuning"` overrides the manifest-wide default for one
//! entry.

use std::collections::BTreeMap;
use std::path::Path;
use stencil_core::{kernels, Pattern, Tuning};
use stencil_obs::json::{self, Value};

/// Current manifest schema version.
pub const MANIFEST_VERSION: f64 = 1.0;

/// One pattern the service should be ready to serve.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Display name (the kernel name, or the inline entry's `"name"`).
    pub name: String,
    /// The stencil pattern.
    pub pattern: Pattern,
    /// Expected domain extents (shape-class / tuner hint), if declared.
    pub domain_hint: Option<Vec<usize>>,
    /// Per-entry tuning override (`None` = use the manifest default).
    pub tuning: Option<Tuning>,
}

/// A parsed warm-start manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Tuning mode entries without an override warm up under.
    pub default_tuning: Tuning,
    /// The declared patterns, in file order.
    pub entries: Vec<ManifestEntry>,
}

impl Default for Manifest {
    fn default() -> Self {
        Self {
            default_tuning: Tuning::CacheOnly,
            entries: Vec::new(),
        }
    }
}

impl Manifest {
    /// Empty manifest with the given default tuning mode.
    pub fn new(default_tuning: Tuning) -> Self {
        Self {
            default_tuning,
            entries: Vec::new(),
        }
    }

    /// Append a named Table-1 kernel with an optional expected domain.
    ///
    /// # Panics
    ///
    /// If `kernel` is not one of the names [`kernel_by_name`] knows.
    pub fn push_kernel(&mut self, kernel: &str, domain: Option<&[usize]>) -> &mut Self {
        let pattern = kernel_by_name(kernel)
            .unwrap_or_else(|| panic!("unknown kernel name {kernel:?} (see kernel_by_name)"));
        self.entries.push(ManifestEntry {
            name: kernel.to_string(),
            pattern,
            domain_hint: domain.map(<[usize]>::to_vec),
            tuning: None,
        });
        self
    }

    /// Parse a manifest document.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
        let version = doc
            .get("version")
            .and_then(Value::as_num)
            .ok_or("manifest lacks a numeric \"version\"")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "manifest version {version} is not the supported {MANIFEST_VERSION}"
            ));
        }
        let default_tuning = match doc.get("default_tuning") {
            None => Tuning::CacheOnly,
            Some(v) => tuning_from_str(
                v.as_str()
                    .ok_or("manifest \"default_tuning\" must be a string")?,
            )?,
        };
        let mut entries = Vec::new();
        let patterns = doc
            .get("patterns")
            .and_then(Value::as_arr)
            .ok_or("manifest lacks a \"patterns\" array")?;
        for (i, e) in patterns.iter().enumerate() {
            entries.push(parse_entry(e).map_err(|why| format!("patterns[{i}]: {why}"))?);
        }
        Ok(Manifest {
            default_tuning,
            entries,
        })
    }

    /// Load and parse a manifest file.
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable manifest {path:?}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("manifest {path:?}: {e}"))
    }

    /// Serialize back to the manifest JSON schema (round-trips through
    /// [`Manifest::parse`]).
    pub fn to_json(&self) -> Value {
        let mut root = BTreeMap::new();
        root.insert("version".into(), Value::Num(MANIFEST_VERSION));
        root.insert(
            "default_tuning".into(),
            Value::Str(tuning_to_str(self.default_tuning).into()),
        );
        let patterns = self
            .entries
            .iter()
            .map(|e| {
                let mut m = BTreeMap::new();
                if kernel_by_name(&e.name).as_ref() == Some(&e.pattern) {
                    m.insert("kernel".into(), Value::Str(e.name.clone()));
                } else {
                    m.insert("name".into(), Value::Str(e.name.clone()));
                    m.insert("dims".into(), Value::Num(e.pattern.dims() as f64));
                    m.insert("radius".into(), Value::Num(e.pattern.radius() as f64));
                    m.insert(
                        "weights".into(),
                        Value::Arr(e.pattern.weights().iter().map(|&w| Value::Num(w)).collect()),
                    );
                }
                if let Some(d) = &e.domain_hint {
                    m.insert(
                        "domain".into(),
                        Value::Arr(d.iter().map(|&x| Value::Num(x as f64)).collect()),
                    );
                }
                if let Some(t) = e.tuning {
                    m.insert("tuning".into(), Value::Str(tuning_to_str(t).into()));
                }
                Value::Obj(m)
            })
            .collect();
        root.insert("patterns".into(), Value::Arr(patterns));
        Value::Obj(root)
    }

    /// Write the manifest to a file (pretty-printed).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json().pretty())
    }
}

fn parse_entry(e: &Value) -> Result<ManifestEntry, String> {
    let tuning = match e.get("tuning") {
        None => None,
        Some(v) => Some(tuning_from_str(
            v.as_str().ok_or("\"tuning\" must be a string")?,
        )?),
    };
    let domain_hint = match e.get("domain") {
        None => None,
        Some(v) => Some(
            v.as_arr()
                .ok_or("\"domain\" must be an array of extents")?
                .iter()
                .map(|x| {
                    x.as_num()
                        .filter(|&n| n >= 1.0 && n.fract() == 0.0)
                        .map(|n| n as usize)
                        .ok_or("\"domain\" extents must be positive integers")
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    let (name, pattern) = if let Some(k) = e.get("kernel") {
        let k = k.as_str().ok_or("\"kernel\" must be a string")?;
        let p = kernel_by_name(k).ok_or_else(|| format!("unknown kernel {k:?}"))?;
        (k.to_string(), p)
    } else {
        let dims = e
            .get("dims")
            .and_then(Value::as_num)
            .filter(|&d| (1.0..=3.0).contains(&d) && d.fract() == 0.0)
            .ok_or("inline pattern needs \"dims\" in 1..=3")? as usize;
        let radius =
            e.get("radius")
                .and_then(Value::as_num)
                .filter(|&r| r >= 1.0 && r.fract() == 0.0)
                .ok_or("inline pattern needs an integer \"radius\" >= 1")? as usize;
        let weights: Vec<f64> = e
            .get("weights")
            .and_then(Value::as_arr)
            .ok_or("inline pattern needs a \"weights\" array")?
            .iter()
            .map(|w| w.as_num().ok_or("\"weights\" must be numbers"))
            .collect::<Result<_, _>>()?;
        let side = 2 * radius + 1;
        if weights.len() != side.pow(dims as u32) {
            return Err(format!(
                "inline pattern has {} weights, needs (2*{radius}+1)^{dims} = {}",
                weights.len(),
                side.pow(dims as u32)
            ));
        }
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("inline")
            .to_string();
        (name, Pattern::new(dims, radius, weights))
    };
    if let Some(d) = &domain_hint {
        if d.len() != pattern.dims() {
            return Err(format!(
                "\"domain\" has {} extents for a {}D pattern",
                d.len(),
                pattern.dims()
            ));
        }
    }
    Ok(ManifestEntry {
        name,
        pattern,
        domain_hint,
        tuning,
    })
}

/// Resolve a kernel name: a short name of [`kernels::NAMED`] or its
/// `star3d` alias ([`kernels::by_name`]).
pub fn kernel_by_name(name: &str) -> Option<Pattern> {
    kernels::by_name(name)
}

/// Encode a tuning mode for manifests (`static`/`measured`/`cache-only`).
pub fn tuning_to_str(t: Tuning) -> &'static str {
    match t {
        Tuning::Static => "static",
        Tuning::Measured => "measured",
        Tuning::CacheOnly => "cache-only",
    }
}

/// Decode [`tuning_to_str`].
pub fn tuning_from_str(s: &str) -> Result<Tuning, String> {
    match s {
        "static" => Ok(Tuning::Static),
        "measured" => Ok(Tuning::Measured),
        "cache-only" => Ok(Tuning::CacheOnly),
        other => Err(format!(
            "unknown tuning mode {other:?} (expected static | measured | cache-only)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let text = r#"{
  "version": 1.0,
  "default_tuning": "cache-only",
  "patterns": [
    { "kernel": "heat2d",  "domain": [4096.0, 4096.0] },
    { "kernel": "box2d9p", "domain": [2048.0, 2048.0], "tuning": "static" },
    { "name": "custom-blur", "dims": 1.0, "radius": 1.0,
      "weights": [0.25, 0.5, 0.25] }
  ]
}"#;
        let m = Manifest::parse(text).unwrap();
        assert_eq!(m.default_tuning, Tuning::CacheOnly);
        assert_eq!(m.entries.len(), 3);
        assert_eq!(m.entries[0].pattern, kernels::heat2d());
        assert_eq!(m.entries[0].domain_hint.as_deref(), Some(&[4096, 4096][..]));
        assert_eq!(m.entries[1].tuning, Some(Tuning::Static));
        assert_eq!(m.entries[2].name, "custom-blur");
        assert_eq!(m.entries[2].pattern.dims(), 1);
    }

    #[test]
    fn round_trips_through_its_own_writer() {
        let mut m = Manifest::new(Tuning::Static);
        m.push_kernel("heat2d", Some(&[1024, 1024]))
            .push_kernel("star3d", None);
        m.entries.push(ManifestEntry {
            name: "custom".into(),
            pattern: Pattern::new_1d(&[0.2, 0.6, 0.2]),
            domain_hint: Some(vec![65536]),
            tuning: Some(Tuning::Measured),
        });
        let text = m.to_json().pretty();
        let back = Manifest::parse(&text).unwrap();
        // star3d resolves to the same pattern as heat3d; the name is
        // preserved because the alias is itself resolvable
        assert_eq!(back.default_tuning, m.default_tuning);
        assert_eq!(back.entries.len(), 3);
        assert_eq!(back.entries[2].pattern, m.entries[2].pattern);
        assert_eq!(back.entries[2].tuning, Some(Tuning::Measured));
    }

    #[test]
    fn save_load_on_disk() {
        let path = std::env::temp_dir().join(format!(
            "stencil-serve-manifest-{}.json",
            std::process::id()
        ));
        let mut m = Manifest::default();
        m.push_kernel("heat1d", Some(&[1 << 20]));
        m.save(&path).unwrap();
        let back = Manifest::load(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_manifests_are_described_errors() {
        for (text, needle) in [
            ("{", "not valid JSON"),
            (r#"{"version": 2.0, "patterns": []}"#, "version"),
            (r#"{"version": 1.0}"#, "patterns"),
            (
                r#"{"version": 1.0, "patterns": [{"kernel": "nope"}]}"#,
                "unknown kernel",
            ),
            (
                r#"{"version": 1.0, "patterns": [{"dims": 2.0, "radius": 1.0, "weights": [1.0]}]}"#,
                "weights",
            ),
            (
                r#"{"version": 1.0, "patterns": [{"kernel": "heat2d", "domain": [8.0]}]}"#,
                "extents",
            ),
            (
                r#"{"version": 1.0, "default_tuning": "warp", "patterns": []}"#,
                "unknown tuning mode",
            ),
        ] {
            let err = Manifest::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn every_table1_kernel_name_resolves() {
        for name in [
            "heat1d",
            "d1p5",
            "heat2d",
            "box2d9p",
            "gb",
            "heat3d",
            "box3d27p",
            "star3d",
            "box3d125p",
            "star3d_r2",
        ] {
            assert!(kernel_by_name(name).is_some(), "{name}");
        }
        assert!(kernel_by_name("life").is_none());
    }
}
