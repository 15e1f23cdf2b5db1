//! The persistent per-host plan cache.
//!
//! One JSON file (see [`stencil_obs::json`]) holding every decision the
//! probing tuner has measured on this machine. Entries are keyed by
//! `hostname | ISA build | thread count | vector width | pattern
//! signature | domain shape class | fixed-parameter constraints`, so a
//! measurement never leaks across machines, ISA builds, pool sizes or
//! problem classes — a key mismatch is simply a miss, which forces a
//! re-probe on the new host.
//!
//! A corrupt or unreadable file is treated as an empty cache (the tuner
//! degrades to fresh probing, and `Tuning::Static` stays available as
//! the no-probe fallback); it is overwritten wholesale on the next
//! save, never partially edited.

use crate::host::HostFingerprint;
use std::collections::BTreeMap;
use std::path::Path;
use stencil_core::tune::TuneRequest;
use stencil_core::{Method, Pattern, PlanConfig, Tiling, Width};
use stencil_obs::json::{self, Value};

/// Current cache file schema version; bump on incompatible change
/// (older files are discarded, not migrated — they are measurements,
/// not state). v2.0 keys carried a `|ri=` z-ring component and its
/// entries a `ring` field; v3.0 has neither, since the ring geometry is
/// derived from the plan, not tuned. An older image's entries could
/// never be hit again and would only be dead weight, so it is dropped
/// whole.
pub const CACHE_VERSION: f64 = 3.0;

/// One persisted tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Full cache key (see module docs for the components).
    pub key: String,
    /// The winning configuration.
    pub config: PlanConfig,
    /// Measured throughput of the winner, in grid-point updates/sec.
    pub rate: f64,
    /// What the §3.2 cost model would have chosen, for
    /// chosen-vs-model reporting (`stencil-bench tune`).
    pub model_method: Method,
    /// Candidates actually probed before the budget closed the search.
    pub probes: usize,
    /// Wall time the probe search spent, in milliseconds.
    pub spent_ms: f64,
    /// Best measured rate per probed *method* in this session — the
    /// probe history [`TuneCache::dominated_methods`] reads to shrink
    /// future candidate lists. Empty for pre-history cache files.
    pub method_rates: Vec<(Method, f64)>,
}

/// How a cache image relates to the current host fingerprint — the
/// breakdown [`TuneCache::health_for`] computes so long-running services
/// can report *why* a warm start went cold (foreign-ISA entries after a
/// rebuild, a cache file copied from another machine, ...).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheHealth {
    /// Entries in the image.
    pub total: usize,
    /// Entries this host/build can hit.
    pub local: usize,
    /// Entries from this machine but a different ISA build — invalidated
    /// by the fingerprint (the binary's vector ISA diverged from the
    /// stamp the measurement was taken under).
    pub foreign_isa: usize,
    /// Entries from other machines.
    pub foreign_host: usize,
}

/// In-memory image of the cache file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneCache {
    entries: BTreeMap<String, CacheEntry>,
    /// Entries of the document this image was decoded from that were
    /// dropped rather than loaded ([`TuneCache::from_json`]).
    skipped: usize,
}

impl TuneCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of persisted decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no decision is persisted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries [`TuneCache::from_json`] dropped from the document this
    /// image was decoded from: undecodable, or not a concrete decision.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Look up a decision.
    pub fn get(&self, key: &str) -> Option<&CacheEntry> {
        self.entries.get(key)
    }

    /// Iterate over every persisted decision (key order).
    pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.values()
    }

    /// Classify this image's entries against `host`: how many a compile
    /// on this host/build could actually hit, how many belong to the
    /// same machine but a different ISA build (stale after a
    /// rebuild with different target features — the invalidation the
    /// fingerprint exists for), and how many to other machines
    /// entirely. The serving layer turns a nonzero foreign count into a
    /// one-line operator warning instead of a silent cold start.
    pub fn health_for(&self, host: &HostFingerprint) -> CacheHealth {
        let local_prefix = format!("{}|", host.key_prefix());
        let host_prefix = format!("{}|", host.hostname);
        let mut h = CacheHealth::default();
        for e in self.entries.values() {
            h.total += 1;
            if e.key.starts_with(&local_prefix) {
                h.local += 1;
            } else if e.key.starts_with(&host_prefix) {
                h.foreign_isa += 1;
            } else {
                h.foreign_host += 1;
            }
        }
        h
    }

    /// Insert (or replace) a decision.
    pub fn put(&mut self, entry: CacheEntry) {
        self.entries.insert(entry.key.clone(), entry);
    }

    /// Methods the per-host probe history shows to be *dominated* for
    /// `pattern_sig` on `host` at `threads` workers and `width`: probed
    /// in at least `min_sessions` prior **unconstrained** sessions
    /// (entries under this host/build, thread count and requested width
    /// whose key carries the same pattern signature and no fixed
    /// method or tiling — a session probed under a pinned axis is not
    /// a fair method comparison) and, in **every** one of them,
    /// measured below `margin` × that session's best rate. The
    /// candidate generator drops these from future searches — the probe
    /// history shrinking the list over time (first step of the
    /// hill-climb roadmap item). Sessions at other thread counts or
    /// widths never transfer (the cost model itself ranks methods as a
    /// function of both), and a method that ever came within the margin
    /// (or won) is never reported.
    pub fn dominated_methods(
        &self,
        host: &HostFingerprint,
        threads: usize,
        width: Width,
        pattern_sig: &str,
        min_sessions: usize,
        margin: f64,
    ) -> Vec<Method> {
        let local_prefix = format!("{}|t{threads}|w{}|", host.key_prefix(), width.lanes());
        let sig_component = format!("|{pattern_sig}|");
        let mut dominated: Vec<(Method, usize)> = Vec::new();
        let mut cleared: Vec<Method> = Vec::new();
        for e in self.entries.values() {
            if !e.key.starts_with(&local_prefix)
                || !e.key.contains(&sig_component)
                || !e.key.ends_with("|m=*|ti=*")
            {
                continue;
            }
            // a session that measured a single method has no comparison
            // to offer
            if e.method_rates.len() < 2 {
                continue;
            }
            let best = e
                .method_rates
                .iter()
                .fold(0.0f64, |acc, &(_, r)| acc.max(r));
            for &(m, rate) in &e.method_rates {
                if rate >= margin * best {
                    if !cleared.contains(&m) {
                        cleared.push(m);
                    }
                } else if let Some(d) = dominated.iter_mut().find(|(dm, _)| *dm == m) {
                    d.1 += 1;
                } else {
                    dominated.push((m, 1));
                }
            }
        }
        dominated
            .into_iter()
            .filter(|&(m, n)| n >= min_sessions && !cleared.contains(&m))
            .map(|(m, _)| m)
            .collect()
    }

    /// Adopt every entry of `other` under a key this cache does not
    /// already hold (existing entries win). Used before a save to fold
    /// in decisions other processes persisted since this image was
    /// loaded, so a full-image write never erases them.
    pub fn merge_missing_from(&mut self, other: TuneCache) {
        for (k, e) in other.entries {
            self.entries.entry(k).or_insert(e);
        }
    }

    /// Load from `path`. `Ok(None)` when the file does not exist;
    /// `Err` when it exists but cannot be read or parsed (the caller
    /// decides whether to degrade to an empty cache).
    pub fn load(path: &Path) -> Result<Option<TuneCache>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable cache file {path:?}: {e}")),
        };
        let doc = json::parse(&text).map_err(|e| format!("corrupt cache file {path:?}: {e}"))?;
        Self::from_json(&doc)
            .map(Some)
            .ok_or_else(|| format!("corrupt cache file {path:?}: unexpected schema"))
    }

    /// Serialize to `path`, creating parent directories as needed. The
    /// write is atomic (temp file + rename) so a concurrent reader can
    /// never observe a truncated file and misclassify it as corrupt.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json().pretty())?;
        std::fs::rename(&tmp, path)
    }

    /// The cache as a JSON document.
    pub fn to_json(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .values()
            .map(|e| {
                let mut m = BTreeMap::new();
                m.insert("key".into(), Value::Str(e.key.clone()));
                m.insert("method".into(), Value::Str(method_str(e.config.method)));
                m.insert("tiling".into(), Value::Str(tiling_str(e.config.tiling)));
                m.insert("width".into(), Value::Num(e.config.width.lanes() as f64));
                m.insert("rate".into(), Value::Num(e.rate));
                m.insert(
                    "model_method".into(),
                    Value::Str(method_str(e.model_method)),
                );
                m.insert("probes".into(), Value::Num(e.probes as f64));
                m.insert("spent_ms".into(), Value::Num(e.spent_ms));
                if !e.method_rates.is_empty() {
                    m.insert(
                        "method_rates".into(),
                        Value::Arr(
                            e.method_rates
                                .iter()
                                .map(|&(mm, rate)| {
                                    let mut o = BTreeMap::new();
                                    o.insert("method".into(), Value::Str(method_str(mm)));
                                    o.insert("rate".into(), Value::Num(rate));
                                    Value::Obj(o)
                                })
                                .collect(),
                        ),
                    );
                }
                Value::Obj(m)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("version".into(), Value::Num(CACHE_VERSION));
        root.insert("entries".into(), Value::Arr(entries));
        Value::Obj(root)
    }

    /// Rebuild from a JSON document (`None` on schema mismatch).
    ///
    /// An entry is dropped on its own, and counted in
    /// [`TuneCache::skipped`], when it does not decode — a method or
    /// tiling token this build does not know, say, from a cache written
    /// by a build that had more of them — or when its decision is
    /// `Method::Auto`/`Tiling::Auto`: a decision must be concrete. Its
    /// key re-probes; every other entry still loads, and a save keeps
    /// them.
    pub fn from_json(doc: &Value) -> Option<TuneCache> {
        if doc.get("version")?.as_num()? != CACHE_VERSION {
            return None;
        }
        let mut cache = TuneCache::new();
        for e in doc.get("entries")?.as_arr()? {
            match decode_entry(e) {
                Some(entry) => cache.put(entry),
                None => cache.skipped += 1,
            }
        }
        Some(cache)
    }
}

/// One cache entry of a JSON document, if it decodes to a concrete
/// decision.
fn decode_entry(e: &Value) -> Option<CacheEntry> {
    let method = parse_method(e.get("method")?.as_str()?)?;
    let tiling = parse_tiling(e.get("tiling")?.as_str()?)?;
    if method == Method::Auto || tiling == Tiling::Auto {
        return None;
    }
    // optional (absent in pre-history entries)
    let method_rates: Vec<(Method, f64)> = e
        .get("method_rates")
        .and_then(Value::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|o| {
                    Some((
                        parse_method(o.get("method")?.as_str()?)?,
                        o.get("rate")?.as_num()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    Some(CacheEntry {
        key: e.get("key")?.as_str()?.to_string(),
        config: PlanConfig {
            method,
            tiling,
            width: parse_width(e.get("width")?.as_num()? as usize)?,
        },
        rate: e.get("rate")?.as_num()?,
        model_method: parse_method(e.get("model_method")?.as_str()?)?,
        probes: e.get("probes")?.as_num()? as usize,
        spent_ms: e.get("spent_ms")?.as_num()?,
        method_rates,
    })
}

// ---------------------------------------------------------------------
// Keys.
// ---------------------------------------------------------------------

/// Stable signature of a stencil pattern — delegates to
/// [`Pattern::signature`], which is the canonical implementation since
/// the serving plan registry keys by the same string (kept here as a
/// free function for cache-key call sites and backward compatibility).
pub fn pattern_signature(p: &Pattern) -> String {
    p.signature()
}

/// Coarse domain shape class — re-export of
/// [`stencil_core::tune::shape_class`], the canonical implementation
/// shared with the serving plan registry.
pub use stencil_core::tune::shape_class;

/// Build the full cache key for a tuning request on `host`; an open
/// axis of the requested configuration is keyed as `*`.
pub fn cache_key(host: &HostFingerprint, req: &TuneRequest<'_>) -> String {
    let PlanConfig {
        method,
        tiling,
        width,
    } = req.config;
    let open = || "*".to_string();
    format!(
        "{}|t{}|w{}|{}|{}|m={}|ti={}",
        host.key_prefix(),
        req.threads,
        width.lanes(),
        pattern_signature(req.pattern),
        shape_class(req.domain_hint),
        if method == Method::Auto {
            open()
        } else {
            method_str(method)
        },
        if tiling == Tiling::Auto {
            open()
        } else {
            tiling_str(tiling)
        },
    )
}

// ---------------------------------------------------------------------
// Compact string encodings for the enums (JSON-friendly, greppable).
// ---------------------------------------------------------------------

/// Encode a method as a short stable token (`folded:2`, `xlayout`, ...).
pub fn method_str(m: Method) -> String {
    match m {
        Method::Scalar => "scalar".into(),
        Method::MultipleLoads => "multiload".into(),
        Method::TransposeLayout => "xlayout".into(),
        Method::Folded { m } => format!("folded:{m}"),
        Method::Auto => "auto".into(),
    }
}

/// Decode [`method_str`].
pub fn parse_method(s: &str) -> Option<Method> {
    Some(match s {
        "scalar" => Method::Scalar,
        "multiload" => Method::MultipleLoads,
        "xlayout" => Method::TransposeLayout,
        "auto" => Method::Auto,
        _ => Method::Folded {
            m: s.strip_prefix("folded:")?.parse().ok()?,
        },
    })
}

/// Encode a tiling as a short stable token (`none`, `tess:8`, `auto`).
pub fn tiling_str(t: Tiling) -> String {
    match t {
        Tiling::None => "none".into(),
        Tiling::Auto => "auto".into(),
        Tiling::Tessellate { time_block } => format!("tess:{time_block}"),
    }
}

/// Decode [`tiling_str`].
pub fn parse_tiling(s: &str) -> Option<Tiling> {
    Some(match s {
        "none" => Tiling::None,
        "auto" => Tiling::Auto,
        _ => Tiling::Tessellate {
            time_block: s.strip_prefix("tess:")?.parse().ok()?,
        },
    })
}

/// Decode a lane count back into a [`Width`].
pub fn parse_width(lanes: usize) -> Option<Width> {
    Some(match lanes {
        1 => Width::W1,
        4 => Width::W4,
        8 => Width::W8,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernels;

    fn host(name: &str, isa: &str) -> HostFingerprint {
        HostFingerprint {
            hostname: name.into(),
            isa: isa.into(),
            threads: 8,
        }
    }

    fn sample_entry(key: &str) -> CacheEntry {
        CacheEntry {
            key: key.into(),
            config: PlanConfig {
                method: Method::Folded { m: 2 },
                tiling: Tiling::Tessellate { time_block: 16 },
                width: Width::W4,
            },
            rate: 1.25e9,
            model_method: Method::Folded { m: 2 },
            probes: 7,
            spent_ms: 41.5,
            method_rates: vec![],
        }
    }

    #[test]
    fn entry_round_trips_through_json_text() {
        let mut cache = TuneCache::new();
        cache.put(sample_entry("h|avx2-w4|t8|w4|d1r1p3-aa|medium|m=*|ti=*"));
        cache.put(CacheEntry {
            key: "other".into(),
            config: PlanConfig {
                method: Method::MultipleLoads,
                tiling: Tiling::None,
                width: Width::W8,
            },
            model_method: Method::TransposeLayout,
            ..sample_entry("other")
        });
        // the probe history round-trips too
        cache.put(CacheEntry {
            method_rates: vec![
                (Method::Folded { m: 2 }, 2.0e9),
                (Method::MultipleLoads, 0.9e9),
            ],
            ..sample_entry("history")
        });
        let text = cache.to_json().pretty();
        let back = TuneCache::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cache);
        assert_eq!(back.get("history").unwrap().method_rates.len(), 2);
    }

    #[test]
    fn save_load_round_trip_on_disk() {
        let path = std::env::temp_dir().join("stencil-tune-test/roundtrip/cache.json");
        let _ = std::fs::remove_file(&path);
        let mut cache = TuneCache::new();
        cache.put(sample_entry("k1"));
        cache.save(&path).unwrap();
        let back = TuneCache::load(&path).unwrap().unwrap();
        assert_eq!(back, cache);
        assert_eq!(back.get("k1").unwrap().probes, 7);
        let _ = std::fs::remove_file(&path);
        // a missing file is Ok(None), not an error
        assert_eq!(TuneCache::load(&path).unwrap(), None);
    }

    #[test]
    fn corrupt_file_is_a_described_error() {
        let path = std::env::temp_dir().join("stencil-tune-test-corrupt.json");
        std::fs::write(&path, "{ this is not json").unwrap();
        let err = TuneCache::load(&path).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        // valid JSON, wrong schema
        std::fs::write(&path, "[1, 2, 3]").unwrap();
        assert!(TuneCache::load(&path).unwrap_err().contains("schema"));
        // wrong version is also a schema mismatch (None from from_json)
        std::fs::write(&path, "{\"version\": 99.0, \"entries\": []}").unwrap();
        assert!(TuneCache::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_cache_files_are_discarded_not_half_loaded() {
        // an image of an older schema is dropped whole (schema mismatch
        // -> re-probe + rewrite), even where an entry's fields would
        // decode: v1.0 keys predate the ring; v2.0 keys end in a `|ri=`
        // component and its 3D entries carry a `ring`, so no v3.0
        // request could hit them
        let path = std::env::temp_dir().join("stencil-tune-test-v1.json");
        for doc in [
            r#"{ "version": 1.0, "entries": [
  { "key": "h|avx2-w4|t8|w4|d1r1p3-aa|medium|m=*|ti=*", "method": "scalar",
    "tiling": "none", "width": 4.0, "rate": 1.0, "model_method": "scalar",
    "probes": 1.0, "spent_ms": 1.0 } ] }"#,
            r#"{ "version": 2.0, "entries": [
  { "key": "h|avx2-w4|t4|w4|d3r1p7-ab|medium|m=*|ti=*|ri=*", "method": "folded:2",
    "tiling": "tess:4", "width": 4.0, "rate": 1.0, "model_method": "folded:2",
    "probes": 3.0, "spent_ms": 1.0, "ring": "16x8" },
  { "key": "h|avx2-w4|t4|w4|d1r1p3-aa|medium|m=*|ti=*|ri=*", "method": "scalar",
    "tiling": "none", "width": 4.0, "rate": 1.0, "model_method": "scalar",
    "probes": 1.0, "spent_ms": 1.0 } ] }"#,
        ] {
            assert_eq!(TuneCache::from_json(&json::parse(doc).unwrap()), None);
            std::fs::write(&path, doc).unwrap();
            assert!(TuneCache::load(&path).is_err());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn auto_entries_are_semantic_corruption_and_dropped() {
        // a decision must be concrete: hand-merged or future-schema
        // entries carrying "auto" must not round-trip into the cache
        let text = r#"{
  "version": 3.0,
  "entries": [
    { "key": "bad-method", "method": "auto", "tiling": "none", "width": 4.0,
      "rate": 1.0, "model_method": "scalar", "probes": 1.0, "spent_ms": 1.0 },
    { "key": "bad-tiling", "method": "scalar", "tiling": "auto", "width": 4.0,
      "rate": 1.0, "model_method": "scalar", "probes": 1.0, "spent_ms": 1.0 },
    { "key": "good", "method": "scalar", "tiling": "none", "width": 4.0,
      "rate": 1.0, "model_method": "scalar", "probes": 1.0, "spent_ms": 1.0 }
  ]
}"#;
        let cache = TuneCache::from_json(&json::parse(text).unwrap()).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.skipped(), 2);
        assert!(cache.get("good").is_some());
        assert!(cache.get("bad-method").is_none());
        assert!(cache.get("bad-tiling").is_none());
    }

    #[test]
    fn dominance_needs_two_sessions_and_consistency() {
        let h = host("a", "avx2-w4");
        let sig = "d3r1p7-ab";
        let entry = |key: &str, rates: Vec<(Method, f64)>| CacheEntry {
            key: format!("{}|t4|w4|{sig}|{key}|m=*|ti=*", h.key_prefix()),
            method_rates: rates,
            ..sample_entry("x")
        };
        let slow = Method::MultipleLoads;
        let fast = Method::Folded { m: 2 };
        let mut cache = TuneCache::new();
        // one session: not enough history
        cache.put(entry("tiny", vec![(fast, 10.0), (slow, 2.0)]));
        assert!(cache
            .dominated_methods(&h, 4, Width::W4, sig, 2, 0.7)
            .is_empty());
        // second session dominating the same method: reported
        cache.put(entry("small", vec![(fast, 8.0), (slow, 1.5)]));
        assert_eq!(
            cache.dominated_methods(&h, 4, Width::W4, sig, 2, 0.7),
            vec![slow]
        );
        // sessions never transfer across thread counts or widths
        assert!(cache
            .dominated_methods(&h, 8, Width::W4, sig, 2, 0.7)
            .is_empty());
        assert!(cache
            .dominated_methods(&h, 4, Width::W8, sig, 2, 0.7)
            .is_empty());
        // sessions probed under a pinned axis are not fair comparisons
        // and contribute no dominance evidence
        let mut pinned = TuneCache::new();
        for class in ["tiny", "small"] {
            pinned.put(CacheEntry {
                key: format!("{}|t4|w4|{sig}|{class}|m=*|ti=tess:4", h.key_prefix()),
                method_rates: vec![(fast, 10.0), (slow, 1.0)],
                ..sample_entry(class)
            });
        }
        assert!(pinned
            .dominated_methods(&h, 4, Width::W4, sig, 2, 0.7)
            .is_empty());
        // a session where the method came within the margin clears it
        cache.put(entry("medium", vec![(fast, 8.0), (slow, 7.9)]));
        assert!(cache
            .dominated_methods(&h, 4, Width::W4, sig, 2, 0.7)
            .is_empty());
        // foreign-host history never counts
        let mut foreign = TuneCache::new();
        foreign.put(CacheEntry {
            key: format!("elsewhere|avx2-w4|t4|w4|{sig}|tiny|m=*|ti=*"),
            method_rates: vec![(fast, 10.0), (slow, 1.0)],
            ..sample_entry("x")
        });
        foreign.put(CacheEntry {
            key: format!("elsewhere|avx2-w4|t8|w4|{sig}|small|m=*|ti=*"),
            method_rates: vec![(fast, 10.0), (slow, 1.0)],
            ..sample_entry("y")
        });
        assert!(foreign
            .dominated_methods(&h, 4, Width::W4, sig, 2, 0.7)
            .is_empty());
        // pre-history entries (empty method_rates) contribute nothing
        let mut old = TuneCache::new();
        old.put(entry("tiny", vec![]));
        old.put(entry("small", vec![]));
        assert!(old
            .dominated_methods(&h, 4, Width::W4, sig, 2, 0.7)
            .is_empty());
    }

    #[test]
    fn merge_keeps_own_entries_and_adopts_foreign_ones() {
        let mut ours = TuneCache::new();
        ours.put(CacheEntry {
            rate: 111.0,
            ..sample_entry("shared")
        });
        ours.put(sample_entry("only-ours"));
        let mut theirs = TuneCache::new();
        theirs.put(CacheEntry {
            rate: 999.0,
            ..sample_entry("shared")
        });
        theirs.put(sample_entry("only-theirs"));
        ours.merge_missing_from(theirs);
        assert_eq!(ours.len(), 3);
        // conflict: our decision wins
        assert_eq!(ours.get("shared").unwrap().rate, 111.0);
        assert!(ours.get("only-theirs").is_some());
    }

    #[test]
    fn keys_differ_across_host_isa_pattern_and_class() {
        let (p, other_p) = (kernels::heat1d(), kernels::d1p5());
        let req = |pattern, domain_hint| TuneRequest {
            pattern,
            config: crate::open_config(Width::W4),
            threads: 8,
            domain_hint,
            mode: stencil_core::Tuning::Measured,
        };
        let base = cache_key(&host("a", "avx2-w4"), &req(&p, None));
        assert!(base.ends_with("|m=*|ti=*"), "{base}");
        let other_host = cache_key(&host("b", "avx2-w4"), &req(&p, None));
        let other_isa = cache_key(&host("a", "avx512f-w8"), &req(&p, None));
        let other_pat = cache_key(&host("a", "avx2-w4"), &req(&other_p, None));
        let other_class = cache_key(&host("a", "avx2-w4"), &req(&p, Some(&[1024])));
        // a pinned axis is its own key
        let mut pinned = req(&p, None);
        pinned.config.tiling = Tiling::None;
        let other_pin = cache_key(&host("a", "avx2-w4"), &pinned);
        assert!(other_pin.ends_with("|m=*|ti=none"), "{other_pin}");
        for k in [
            &other_host,
            &other_isa,
            &other_pat,
            &other_class,
            &other_pin,
        ] {
            assert_ne!(&base, k);
        }
        // same request, same key (determinism)
        assert_eq!(base, cache_key(&host("a", "avx2-w4"), &req(&p, None)));
    }

    #[test]
    fn signature_tracks_weights_not_just_shape() {
        let a = pattern_signature(&Pattern::new_1d(&[0.25, 0.5, 0.25]));
        let b = pattern_signature(&Pattern::new_1d(&[0.2, 0.6, 0.2]));
        assert_ne!(a, b);
        assert!(a.starts_with("d1r1p3-"));
    }

    #[test]
    fn shape_classes_bucket_by_points() {
        assert_eq!(shape_class(None), "medium");
        assert_eq!(shape_class(Some(&[4096])), "tiny");
        assert_eq!(shape_class(Some(&[256, 256])), "small");
        assert_eq!(shape_class(Some(&[1024, 1024])), "medium");
        assert_eq!(shape_class(Some(&[400, 400, 400])), "large");
    }

    #[test]
    fn enum_encodings_round_trip() {
        for m in [
            Method::Scalar,
            Method::MultipleLoads,
            Method::TransposeLayout,
            Method::Folded { m: 3 },
            Method::Auto,
        ] {
            assert_eq!(parse_method(&method_str(m)), Some(m));
        }
        for t in [
            Tiling::None,
            Tiling::Auto,
            Tiling::Tessellate { time_block: 12 },
        ] {
            assert_eq!(parse_tiling(&tiling_str(t)), Some(t));
        }
        for w in [Width::W1, Width::W4, Width::W8] {
            assert_eq!(parse_width(w.lanes()), Some(w));
        }
        assert_eq!(parse_method("folded:x"), None);
        assert_eq!(parse_tiling("tess:x"), None);
        assert_eq!(parse_width(3), None);
    }
}
