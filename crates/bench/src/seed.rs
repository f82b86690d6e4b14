//! Seed the sweep cost registry from a previous run's `--json` record.
//!
//! `make_all --json` persists per-cell costs so the *next* run can
//! dispatch cells longest-expected-first (LPT) from its very first sweep.
//! Every committed `BENCH_harness.json` nevertheless carried
//! `lpt_seeded_cells: 0` — two independent defects, both fixed here:
//!
//! 1. **Path resolution.** The record path (default
//!    `BENCH_harness.json`) was resolved against the *current working
//!    directory only*, so any regeneration not launched exactly at the
//!    repo root silently read nothing and started cold. A relative path
//!    that does not exist in the cwd now falls back to the workspace
//!    root, and `make_all` reports a cold start on stderr instead of
//!    staying silent.
//! 2. **Parser fragility.** The original parser split the `"cells"`
//!    array on `'{'` and cut each fragment at the first `'}'` — which
//!    silently skipped every cell carrying a nested `"phases": [{...}]`
//!    array (written by `--trace` runs), because the cell's own closing
//!    brace is then not the first one after its opening brace. This
//!    parser is nesting-aware: it walks the array tracking brace depth
//!    and JSON string state, extracts each *balanced* top-level cell
//!    object, and reads `key`/`wall_ms`/`events` from it (those fields
//!    are written before `phases`, so first-occurrence lookup is exact).
//!    Malformed entries are still skipped — worst case that cell is
//!    scheduled as unknown, never an error.

/// Seed [`gbcr_metrics`]'s cost registry from the record at `path`,
/// falling back to `<workspace root>/<path>` for relative paths that do
/// not resolve from the current directory. Returns the number of cells
/// seeded; a missing or unparseable file seeds nothing.
pub fn seed_costs_from(path: &str) -> usize {
    let text = std::fs::read_to_string(path).or_else(|e| {
        if std::path::Path::new(path).is_relative() {
            // crates/bench/../.. == the workspace root.
            let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
            std::fs::read_to_string(root)
        } else {
            Err(e)
        }
    });
    let Ok(text) = text else { return 0 };
    seed_costs_from_str(&text)
}

/// Seed the cost registry from an in-memory `--json` record.
pub fn seed_costs_from_str(text: &str) -> usize {
    let Some(cells_at) = text.find("\"cells\"") else { return 0 };
    let mut seeded = 0;
    for obj in balanced_objects(&text[cells_at..]) {
        let key = field(obj, "key").map(|v| v.trim_matches('"').to_owned());
        let wall = field(obj, "wall_ms").and_then(|v| v.parse::<f64>().ok());
        let events = field(obj, "events").and_then(|v| v.parse::<u64>().ok());
        if let (Some(key), Some(wall), Some(events)) = (key, wall, events) {
            gbcr_metrics::seed_cell_cost(&key, wall, events);
            seeded += 1;
        }
    }
    seeded
}

/// Every balanced top-level `{...}` object in `text`, nested braces
/// included, string literals (with escapes) respected.
fn balanced_objects(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    let (mut in_str, mut escaped) = (false, false);
    for (i, c) in text.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(&text[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// First occurrence of `"name": value` in `obj`, value returned raw
/// (still quoted for strings). Cell-level fields precede any nested
/// `phases` array in the written record, so first occurrence is the
/// cell's own field.
fn field<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{name}\""))?;
    let rest = &obj[at..];
    let colon = rest.find(':')?;
    let val = rest[colon + 1..].trim_start();
    let end = val.find([',', '}']).unwrap_or(val.len());
    Some(val[..end].trim())
}

/// The rows of the `"history"` array in a previous `--json` record: one
/// JSON object per line, as `make_all` writes them, trailing commas
/// stripped. A record without the array (or no record) has no rows.
pub fn history_rows(text: &str) -> Vec<String> {
    text.lines()
        .skip_while(|l| l.trim() != "\"history\": [")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| l.trim().trim_end_matches(',').to_owned())
        .filter(|l| l.starts_with('{'))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dated history rows survive a regeneration: they are read back in
    /// order, one per line, and nothing else in the record is taken for a
    /// row.
    #[test]
    fn history_rows_are_read_back_in_order() {
        let text = "{\n  \"threads\": 1,\n  \"history\": [\n    {\"date\": \"a\"},\n    \
                    {\"date\": \"b\"}\n  ],\n  \"cells\": [\n    {\"key\": \"k\"}\n  ]\n}\n";
        assert_eq!(history_rows(text), vec!["{\"date\": \"a\"}", "{\"date\": \"b\"}"]);
        assert!(history_rows("{\n  \"cells\": []\n}\n").is_empty());
    }

    /// Regression for the `lpt_seeded_cells: 0` bug: a previous-run
    /// record whose cells carry nested `phases` arrays (a traced run)
    /// must still seed every cell.
    #[test]
    fn traced_record_with_nested_phases_seeds_all_cells() {
        let json = r#"{
  "threads": 1,
  "cells": [
    {"key": "t/seedmod/plain", "wall_ms": 81.7, "events": 16788},
    {"key": "t/seedmod/traced", "wall_ms": 256.5, "events": 40145, "phases": [{"name": "phase.checkpoint", "count": 2, "mean_ns": 50, "min_ns": 40, "max_ns": 60, "total_ns": 100}, {"name": "phase.drain", "count": 1, "mean_ns": 9, "min_ns": 9, "max_ns": 9, "total_ns": 9}]},
    {"key": "t/seedmod/traced2", "wall_ms": 12.0, "events": 777, "phases": [{"name": "phase.commit", "count": 3, "mean_ns": 4, "min_ns": 1, "max_ns": 7, "total_ns": 12}]}
  ]
}"#;
        let seeded = seed_costs_from_str(json);
        assert_eq!(seeded, 3, "phases-bearing cells must not be skipped");
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/traced"),
            Some(gbcr_metrics::CellCost { wall_ms: 256.5, events: 40145 })
        );
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/plain"),
            Some(gbcr_metrics::CellCost { wall_ms: 81.7, events: 16788 })
        );
    }

    #[test]
    fn plain_record_roundtrips_and_malformed_cells_are_skipped() {
        let json = r#""cells": [
    {"key": "t/seedmod/a", "wall_ms": 1.5, "events": 10},
    {"key": "t/seedmod/broken", "wall_ms": "oops"},
    {"wall_ms": 3.0, "events": 9},
    {"key": "t/seedmod/b", "wall_ms": 2.0, "events": 20}
  ]"#;
        assert_eq!(seed_costs_from_str(json), 2);
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/b"),
            Some(gbcr_metrics::CellCost { wall_ms: 2.0, events: 20 })
        );
        assert_eq!(gbcr_metrics::cell_cost("t/seedmod/broken"), None);
    }

    #[test]
    fn missing_file_or_no_cells_seeds_nothing() {
        assert_eq!(seed_costs_from("/nonexistent/gbcr-seed-test.json"), 0);
        assert_eq!(seed_costs_from_str("{\"threads\": 4}"), 0);
    }

    #[test]
    fn escaped_quotes_in_keys_do_not_derail_the_scan() {
        let json = r#""cells": [
    {"key": "t/seedmod/we\"ird{", "wall_ms": 4.0, "events": 40},
    {"key": "t/seedmod/after", "wall_ms": 5.0, "events": 50}
  ]"#;
        assert_eq!(seed_costs_from_str(json), 2);
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/after"),
            Some(gbcr_metrics::CellCost { wall_ms: 5.0, events: 50 })
        );
    }
}
