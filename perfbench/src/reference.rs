//! The benchmark's own reference outputs.
//!
//! A reference file (`reference/<workload>.ref`) is a list of entries,
//! each a `@@ <key>` line followed by the expected text. Lines before
//! the first entry starting with `#` are comments. The files were
//! generated with `--write-reference` at the commit that introduced the
//! benchmark and must only change when a commit means to change
//! simulated results.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Expected text per key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    entries: BTreeMap<String, String>,
}

/// Where the reference of `workload` lives.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.ref"))
}

/// `text` without trailing blank lines or line ends.
fn trimmed(text: &str) -> &str {
    text.trim_end_matches(['\n', ' '])
}

impl Reference {
    /// Parses the file format described in the module docs.
    pub fn parse(text: &str) -> Reference {
        let mut entries = BTreeMap::new();
        let mut current: Option<(String, String)> = None;
        for line in text.lines() {
            if let Some(key) = line.strip_prefix("@@ ") {
                if let Some((k, v)) = current.take() {
                    entries.insert(k, trimmed(&v).to_string());
                }
                current = Some((key.to_string(), String::new()));
            } else if let Some((_, v)) = current.as_mut() {
                v.push_str(line);
                v.push('\n');
            }
        }
        if let Some((k, v)) = current {
            entries.insert(k, trimmed(&v).to_string());
        }
        Reference { entries }
    }

    /// Loads the reference of `workload`.
    pub fn load(workload: &str) -> Result<Reference, String> {
        let p = path(workload);
        std::fs::read_to_string(&p)
            .map(|t| Reference::parse(&t))
            .map_err(|e| format!("cannot read reference {}: {e}", p.display()))
    }

    /// Records `actual` as the expectation for `key`.
    pub fn insert(&mut self, key: &str, actual: &str) {
        self.entries
            .insert(key.to_string(), trimmed(actual).to_string());
    }

    /// Compares `actual` with the expectation for `key`; the error names
    /// the first differing line.
    pub fn check(&self, key: &str, actual: &str) -> Result<(), String> {
        let Some(expected) = self.entries.get(key) else {
            return Err(format!("{key}: no reference entry"));
        };
        let actual = trimmed(actual);
        if expected == actual {
            return Ok(());
        }
        let mut exp = expected.lines();
        let mut act = actual.lines();
        for n in 1.. {
            match (exp.next(), act.next()) {
                (Some(e), Some(a)) if e == a => continue,
                (e, a) => {
                    return Err(format!(
                    "{key}: line {n} differs from the reference\n  expected: {}\n  actual:   {}",
                    e.unwrap_or("<end>"),
                    a.unwrap_or("<end>")
                ))
                }
            }
        }
        unreachable!("two different texts differ on some line")
    }

    /// Renders the file, with `header` as its leading comment.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        for (k, v) in &self.entries {
            out.push_str("@@ ");
            out.push_str(k);
            out.push('\n');
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_and_mismatch_line() {
        let mut r = Reference::default();
        r.insert("gcc", "committed=5 cycles=9\n");
        r.insert("fig1", "==== Figure 1 ====\n\nrow a\nrow b\n\n");
        let back = Reference::parse(&r.render("generated for a test"));
        assert_eq!(back, r);
        assert!(back.check("gcc", "committed=5 cycles=9").is_ok());
        let err = back
            .check("fig1", "==== Figure 1 ====\n\nrow a\nrow c")
            .unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        assert!(back.check("go", "x").is_err());
    }
}
