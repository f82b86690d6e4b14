//! The committed goldens under `golden/`, and the cell-by-cell table
//! comparison.
//!
//! * `paper.txt` — the Fig. 5, 6, 7 and Fig. 7-summary blocks of the
//!   repository's `bench_results.txt`, verbatim.
//! * `recovery.txt` — the fig8 tables on the replicated backend, as
//!   `fig8::run_threaded` renders them (no committed table covers them).
//! * `ops.txt` — one line per operation, `<workload> <key> <digest>`: the
//!   exact virtual-time model output of every run, written by
//!   `--write-golden` only from a pass whose tables match the above.

use crate::workload::Workload;
use std::collections::HashMap;
use std::path::PathBuf;

/// Title the fig5 summary table is rendered under (Figure 6).
pub const FIG6_TITLE: &str =
    "Figure 6 — HPL Effective Checkpoint Delay per group size (avg with min/max)";
/// Title the fig7 summary table is rendered under.
pub const FIG7_SUMMARY_TITLE: &str =
    "Figure 7 summary — MotifMiner average effective delay per group size";

/// The directory holding the golden files.
pub fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Path of the per-operation golden.
pub fn ops_path() -> PathBuf {
    dir().join("ops.txt")
}

/// Path of a workload's golden tables.
pub fn tables_path(w: Workload) -> PathBuf {
    dir().join(format!("{}.txt", w.name()))
}

fn read(path: &PathBuf) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read golden {}: {e}", path.display()))
}

/// One workload's goldens.
pub struct Golden {
    /// Operation key → digest line.
    pub ops: HashMap<String, String>,
    /// The golden tables, verbatim.
    pub tables: String,
}

impl Golden {
    /// Load a workload's goldens. Missing files are an error, never an
    /// empty golden.
    pub fn load(w: Workload) -> Result<Golden, String> {
        let tables = read(&tables_path(w))?;
        let mut ops = HashMap::new();
        for line in read(&ops_path())?.lines() {
            let mut it = line.splitn(3, ' ');
            if let (Some(wl), Some(key), Some(digest)) = (it.next(), it.next(), it.next()) {
                if wl == w.name() {
                    ops.insert(key.to_owned(), digest.to_owned());
                }
            }
        }
        if ops.is_empty() {
            return Err(format!(
                "{} has no lines for workload {}",
                ops_path().display(),
                w.name()
            ));
        }
        Ok(Golden { ops, tables })
    }

    /// Only the golden tables, with no per-operation lines.
    pub fn tables_only(w: Workload) -> Result<Golden, String> {
        Ok(Golden {
            ops: HashMap::new(),
            tables: read(&tables_path(w))?,
        })
    }
}

/// A parsed rendered table: header cells and rows of cells.
struct Parsed {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Split a rendered table line into cells: columns are separated by at
/// least two spaces and no cell contains two spaces in a row.
fn cells(line: &str) -> Vec<String> {
    line.split("  ")
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Parse every `# title` block of rendered tables.
fn parse(text: &str) -> Vec<(String, Parsed)> {
    let mut out = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(title) = line.strip_prefix("# ") else {
            continue;
        };
        let header = lines.next().map(cells).unwrap_or_default();
        lines.next(); // the dashed rule
        let mut rows = Vec::new();
        while let Some(l) = lines.peek() {
            if l.trim().is_empty() || l.starts_with("# ") {
                break;
            }
            rows.push(cells(l));
            lines.next();
        }
        out.push((title.to_owned(), Parsed { header, rows }));
    }
    out
}

/// Compare every cell of the `rendered` tables with the golden cell of the
/// same table title, row label (first column) and column header. Returns
/// the number of cells compared and a description of each mismatch.
pub fn compare_cells(rendered: &str, golden: &str) -> (usize, Vec<String>) {
    let golden = parse(golden);
    let mut checked = 0;
    let mut errs = Vec::new();
    let got = parse(rendered);
    if got.is_empty() {
        errs.push("no table rendered".into());
    }
    for (title, t) in &got {
        let Some((_, g)) = golden.iter().find(|(gt, _)| gt == title) else {
            errs.push(format!("table `{title}` has no golden"));
            continue;
        };
        for row in &t.rows {
            let Some(grow) = g.rows.iter().find(|r| r.first() == row.first()) else {
                errs.push(format!("`{title}`: row `{}` has no golden", row[0]));
                continue;
            };
            for (c, cell) in row.iter().enumerate().skip(1) {
                let col = &t.header[c];
                let gc = g.header.iter().position(|h| h == col);
                match gc.and_then(|gc| grow.get(gc)) {
                    Some(gv) if gv == cell => checked += 1,
                    Some(gv) => errs.push(format!(
                        "`{title}` row `{}` column `{col}`: got `{cell}`, golden `{gv}`",
                        row[0]
                    )),
                    None => errs.push(format!("`{title}`: column `{col}` has no golden")),
                }
            }
        }
    }
    (checked, errs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: &str = "# T — a title\nissuance (s)  All(32)  Group(4)\n---\n  50  109.5  13.3\n 100  109.5  64.5\n";

    #[test]
    fn matching_subset_passes_and_counts_cells() {
        let sub = "# T — a title\nissuance (s)  Group(4)\n---\n 100  64.5\n";
        assert_eq!(compare_cells(sub, T), (1, vec![]));
    }

    #[test]
    fn a_changed_cell_is_reported() {
        let bad = T.replace("64.5", "64.6");
        let (n, errs) = compare_cells(&bad, T);
        assert_eq!(n, 3);
        assert_eq!(errs.len(), 1, "{errs:?}");
    }

    #[test]
    fn nothing_rendered_is_an_error_not_a_pass() {
        let (n, errs) = compare_cells("", T);
        assert_eq!(n, 0);
        assert!(!errs.is_empty());
    }
}
