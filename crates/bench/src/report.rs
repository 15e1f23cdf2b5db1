//! Result tables: fixed-width console rendering + JSON dump.
//!
//! JSON is emitted by a small hand-rolled writer instead of
//! `serde`/`serde_json` so the harness stays dependency-free (the build
//! environment is offline).

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row label (e.g. benchmark name).
    pub row: String,
    /// Column label (e.g. method name).
    pub col: String,
    /// Measured value (GFLOP/s, speedup, ...), `None` = unsupported.
    pub value: Option<f64>,
}

/// A named table of cells addressed by (row, col).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed as a header).
    pub title: String,
    /// Unit of the values (printed next to the title).
    pub unit: String,
    /// Cells in insertion order.
    pub cells: Vec<Cell>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, unit: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            unit: unit.into(),
            cells: Vec::new(),
        }
    }

    /// Record a measurement.
    pub fn put(&mut self, row: impl Into<String>, col: impl Into<String>, value: Option<f64>) {
        self.cells.push(Cell {
            row: row.into(),
            col: col.into(),
            value,
        });
    }

    /// Distinct row labels in insertion order.
    pub fn rows(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.row.as_str()) {
                out.push(&c.row);
            }
        }
        out
    }

    /// Distinct column labels in insertion order.
    pub fn cols(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.col.as_str()) {
                out.push(&c.col);
            }
        }
        out
    }

    /// Look up a value.
    pub fn get(&self, row: &str, col: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.row == row && c.col == col)
            .and_then(|c| c.value)
    }

    /// Render as a fixed-width console table.
    pub fn render(&self) -> String {
        let rows = self.rows();
        let cols = self.cols();
        let rw = rows
            .iter()
            .map(|r| r.len())
            .chain([4])
            .max()
            .unwrap()
            .max(self.title.len().min(24));
        let cw = cols.iter().map(|c| c.len().max(9)).collect::<Vec<_>>();
        let mut out = String::new();
        out.push_str(&format!("# {} [{}]\n", self.title, self.unit));
        out.push_str(&format!("{:<rw$}", ""));
        for (c, w) in cols.iter().zip(&cw) {
            out.push_str(&format!(" | {c:>w$}"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(rw + cw.iter().map(|w| w + 3).sum::<usize>()));
        out.push('\n');
        for r in &rows {
            out.push_str(&format!("{r:<rw$}"));
            for (c, w) in cols.iter().zip(&cw) {
                match self.get(r, c) {
                    Some(v) => out.push_str(&format!(" | {v:>w$.2}")),
                    None => out.push_str(&format!(" | {:>w$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Serialize (possibly several tables) to a pretty-printed JSON
    /// file, stamped with the measuring host's fingerprint (hostname,
    /// ISA build, hardware threads) so committed baselines stay
    /// attributable to the machine that produced them.
    ///
    /// Writer and reader are the same implementation
    /// (`stencil_obs::json`), so the dumps the tuner subsystem parses
    /// can never drift from what the harness emits.
    pub fn dump_json(tables: &[&Table], path: &str) -> std::io::Result<()> {
        use stencil_obs::json::Value;
        let host = stencil_tune::host::HostFingerprint::detect();
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let doc = obj(vec![
            (
                "host",
                obj(vec![
                    ("hostname", Value::Str(host.hostname)),
                    ("isa", Value::Str(host.isa)),
                    ("backend", Value::Str(stencil_simd::backend_summary())),
                    ("threads", Value::Num(host.threads as f64)),
                ]),
            ),
            (
                "tables",
                Value::Arr(
                    tables
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("title", Value::Str(t.title.clone())),
                                ("unit", Value::Str(t.unit.clone())),
                                (
                                    "cells",
                                    Value::Arr(
                                        t.cells
                                            .iter()
                                            .map(|c| {
                                                obj(vec![
                                                    ("row", Value::Str(c.row.clone())),
                                                    ("col", Value::Str(c.col.clone())),
                                                    (
                                                        "value",
                                                        match c.value {
                                                            Some(v) if v.is_finite() => {
                                                                Value::Num(v)
                                                            }
                                                            _ => Value::Null,
                                                        },
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_values_and_dashes() {
        let mut t = Table::new("demo", "GFLOP/s");
        t.put("1D-Heat", "Our", Some(12.345));
        t.put("1D-Heat", "SDSL", None);
        t.put("2D9P", "Our", Some(3.0));
        let s = t.render();
        assert!(s.contains("12.35"));
        assert!(s.contains('-'));
        assert!(s.contains("2D9P"));
        assert_eq!(t.rows(), vec!["1D-Heat", "2D9P"]);
        assert_eq!(t.cols(), vec!["Our", "SDSL"]);
        assert_eq!(t.get("2D9P", "Our"), Some(3.0));
        assert_eq!(t.get("2D9P", "SDSL"), None);
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Table::new("j", "x");
        t.put("a", "b", Some(1.0));
        let path = std::env::temp_dir().join("stencil_bench_test.json");
        Table::dump_json(&[&t], path.to_str().unwrap()).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"title\": \"j\""));
        let _ = std::fs::remove_file(path);
        // the dump is valid JSON and attributable: host metadata rides
        // along with every table dump (checked with the shared parser
        // so writer and reader stay in agreement)
        let doc = stencil_obs::json::parse(&s).unwrap();
        let host = doc.get("host").expect("host stanza");
        assert!(host.get("hostname").unwrap().as_str().is_some());
        assert!(host.get("isa").unwrap().as_str().is_some());
        assert!(host.get("threads").unwrap().as_num().unwrap() >= 1.0);
        let tables = doc.get("tables").unwrap().as_arr().unwrap();
        assert_eq!(tables[0].get("title").unwrap().as_str(), Some("j"));
    }
}
