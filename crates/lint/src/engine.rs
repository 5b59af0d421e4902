//! The lint driver: a parallel two-phase pipeline.
//!
//! Phase one analyzes every `.rs` file independently — lexing, the
//! per-file rules, suppression parsing, and symbol-graph fact
//! extraction — on a scoped worker pool. Phase two is sequential: the per-file facts assemble into a workspace
//! [`Graph`], the cross-file rules run over it, and every finding
//! (per-file and cross-file alike) resolves against the same inline
//! suppressions so `unused-suppression` sees the whole picture.
//!
//! Phase one is embarrassingly parallel because [`FileAnalysis`] is a
//! pure function of `(path, bytes)`; phase two needs every file because
//! cross-file conclusions depend on the *set* of files, not any one of
//! them.

use crate::config::Config;
use crate::context::{FileCtx, Suppression};
use crate::diag::{Diagnostic, Level, Report};
use crate::graph::{FileFacts, Graph};
use crate::rules::{
    config_sync, dead_parameter, doc_coverage, nan_unsafe, no_panic, probe_drift, probe_naming,
    registry_sync, thread_discipline, unit_hygiene, unused_suppression, RawDiag,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Directory names the walker never descends into. `vendor/` holds
/// third-party stand-ins outside our conventions; `fixtures/` holds the
/// linter's own intentionally-bad test inputs.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", "node_modules"];

/// Everything phase one produces for one file: raw findings, parsed
/// suppressions, symbol-graph facts, and the source excerpts any later
/// diagnostic could need.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Path relative to the linted root, `/`-separated.
    pub rel: String,
    /// `false` when the file could not be read (its `raw` then carries
    /// a `parse-error` and nothing else).
    pub scanned: bool,
    /// Per-file rule findings, before suppression and severity.
    pub raw: Vec<RawDiag>,
    /// Parsed inline suppressions.
    pub suppressions: Vec<Suppression>,
    /// Use/def facts feeding the workspace [`Graph`].
    pub facts: FileFacts,
    /// Source text of every line a diagnostic might anchor to (raw
    /// findings, suppression comments, fact sites), so phase two can
    /// render excerpts without re-reading the source.
    pub excerpts: BTreeMap<u32, String>,
}

impl FileAnalysis {
    /// A scanned file's analysis with no excerpts yet.
    #[must_use]
    pub fn fresh(
        rel: String,
        raw: Vec<RawDiag>,
        suppressions: Vec<Suppression>,
        facts: FileFacts,
    ) -> Self {
        Self {
            rel,
            scanned: true,
            raw,
            suppressions,
            facts,
            excerpts: BTreeMap::new(),
        }
    }
}

/// Engine knobs beyond rule severities.
#[derive(Debug, Default)]
pub struct Options {
    /// Worker thread count (`None` = available parallelism).
    pub threads: Option<usize>,
}

/// Lints every `.rs` file under `root` with `config` and default
/// [`Options`].
///
/// # Errors
///
/// Returns an error when `root` cannot be read at all; unreadable
/// individual files become diagnostics instead.
pub fn run(root: &Path, config: &Config) -> io::Result<Report> {
    run_with(root, config, &Options::default())
}

/// Lints every `.rs` file under `root` with explicit engine options.
///
/// # Errors
///
/// Returns an error when `root` cannot be read at all; unreadable
/// individual files become diagnostics instead.
pub fn run_with(root: &Path, config: &Config, options: &Options) -> io::Result<Report> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    paths.sort();
    let files: Vec<(PathBuf, String)> = paths
        .into_iter()
        .map(|p| {
            let rel = relative(root, &p);
            (p, rel)
        })
        .collect();

    let analyses = analyze_all(&files, options.threads);

    let mut report = Report {
        files_scanned: analyses.iter().filter(|a| a.scanned).count(),
        ..Report::default()
    };

    // Phase two: assemble the graph and run the cross-file rules.
    let graph = Graph::build(&analyses);
    let mut cross = Vec::new();
    probe_naming::collisions(&graph.probes, &mut cross);
    registry_sync::finish(&graph, root, &mut cross);
    dead_parameter::check(&graph, &mut cross);
    config_sync::check(&graph, root, &mut cross);
    probe_drift::check(&graph, root, &mut cross);

    // Split cross-file findings between walked `.rs` files (which get
    // suppression resolution and excerpts) and doc/registry anchors.
    let walked: HashSet<&str> = analyses.iter().map(|a| a.rel.as_str()).collect();
    let mut cross_by_file: HashMap<&str, Vec<RawDiag>> = HashMap::new();
    let mut doc_anchored = Vec::new();
    for fd in cross {
        if let Some(rel) = walked.get(fd.file.as_str()) {
            cross_by_file.entry(rel).or_default().push(fd.diag);
        } else {
            doc_anchored.push(fd);
        }
    }

    for analysis in &analyses {
        let mut merged = analysis.raw.clone();
        if let Some(extra) = cross_by_file.remove(analysis.rel.as_str()) {
            merged.extend(extra);
        }
        // Resolve suppressions here (not in `push_diag`) so each one's
        // slot in `used` records whether it ever absorbed a finding —
        // per-file and cross-file alike; the stale ones feed
        // `unused-suppression` below. A suppression never silences the
        // report that the suppression itself is malformed.
        let mut used = vec![false; analysis.suppressions.len()];
        for diag in merged {
            if diag.rule != "suppression-syntax" {
                let matching = matching_suppressions(&analysis.suppressions, diag.rule, diag.line);
                if !matching.is_empty() {
                    for i in matching {
                        used[i] = true;
                    }
                    report.suppressed += 1;
                    continue;
                }
            }
            push_diag(&mut report, config, &analysis.rel, &analysis.excerpts, diag);
        }
        let mut stale = Vec::new();
        unused_suppression::check(&analysis.suppressions, &used, &mut stale);
        for diag in stale {
            // A stale-suppression finding can itself be allowed, but
            // that allowance is deliberately not tracked recursively.
            if !matching_suppressions(&analysis.suppressions, diag.rule, diag.line).is_empty() {
                report.suppressed += 1;
                continue;
            }
            push_diag(&mut report, config, &analysis.rel, &analysis.excerpts, diag);
        }
    }

    // Findings anchored in markdown files (EXPERIMENTS.md, PROBES.md,
    // README.md, DESIGN.md) have no inline suppressions or excerpts.
    static NO_EXCERPTS: BTreeMap<u32, String> = BTreeMap::new();
    for fd in doc_anchored {
        push_diag(&mut report, config, &fd.file, &NO_EXCERPTS, fd.diag);
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(report)
}

/// Phase one: analyzes every file on a scoped worker pool. Results come
/// back in input order regardless of completion order.
fn analyze_all(files: &[(PathBuf, String)], threads: Option<usize>) -> Vec<FileAnalysis> {
    let workers = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .clamp(1, files.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, FileAnalysis)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((path, rel)) = files.get(i) else {
                    break;
                };
                let _ = tx.send((i, analyze_file(path, rel)));
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<FileAnalysis>> = files.iter().map(|_| None).collect();
    for (i, analysis) in rx {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(analysis);
        }
    }
    slots.into_iter().flatten().collect()
}

/// Analyzes one file: read, then run the per-file rules and fact
/// extraction.
fn analyze_file(path: &Path, rel: &str) -> FileAnalysis {
    let Ok(src) = std::fs::read_to_string(path) else {
        return unreadable(rel);
    };
    let ctx = FileCtx::new(rel.to_owned(), &src);
    let mut raw = Vec::new();
    for err in &ctx.lex_errors {
        raw.push(RawDiag {
            rule: "parse-error",
            line: err.line,
            col: err.col,
            len: 1,
            message: err.message.clone(),
            help: None,
        });
    }
    for err in &ctx.suppression_errors {
        raw.push(RawDiag {
            rule: "suppression-syntax",
            line: err.line,
            col: err.col,
            len: 1,
            message: err.message.clone(),
            help: Some(
                "syntax: `// sram-lint: allow(rule-name) reason` (reason is mandatory)".to_owned(),
            ),
        });
    }
    unit_hygiene::check(&ctx, &mut raw);
    no_panic::check(&ctx, &mut raw);
    nan_unsafe::check(&ctx, &mut raw);
    thread_discipline::check(&ctx, &mut raw);
    doc_coverage::check(&ctx, &mut raw);
    let facts = crate::graph::extract(&ctx, &mut raw);
    let excerpts = collect_excerpts(&ctx, &raw, &facts);
    let mut analysis = FileAnalysis::fresh(ctx.rel, raw, ctx.suppressions, facts);
    analysis.excerpts = excerpts;
    analysis
}

/// The analysis recorded for a file that could not be read (or is not
/// UTF-8).
fn unreadable(rel: &str) -> FileAnalysis {
    let mut analysis = FileAnalysis::fresh(
        rel.to_owned(),
        vec![RawDiag {
            rule: "parse-error",
            line: 1,
            col: 1,
            len: 1,
            message: "file could not be read as UTF-8".to_owned(),
            help: None,
        }],
        Vec::new(),
        FileFacts::default(),
    );
    analysis.scanned = false;
    analysis
}

/// Captures the source text of every line a diagnostic could later
/// anchor to: raw findings, suppression comments (for the stale-
/// suppression report), and symbol-graph fact sites (for cross-file
/// findings).
fn collect_excerpts(ctx: &FileCtx, raw: &[RawDiag], facts: &FileFacts) -> BTreeMap<u32, String> {
    let mut lines: Vec<u32> = raw.iter().map(|d| d.line).collect();
    lines.extend(ctx.suppressions.iter().map(|s| s.from_line));
    lines.extend(facts.params.iter().map(|p| p.site.line));
    lines.extend(facts.env_reads.iter().map(|e| e.site.line));
    lines.extend(facts.probes.iter().map(|p| p.site.line));
    lines.extend(facts.experiments.iter().map(|e| e.site.line));
    let mut out = BTreeMap::new();
    for line in lines {
        let text = ctx.line_text(line);
        if !text.is_empty() {
            out.insert(line, text);
        }
    }
    out
}

/// Indices of every suppression covering `rule` at `line` (the
/// slice-based twin of `FileCtx::matching_suppressions`, usable in
/// phase two, where files no longer have a `FileCtx`).
fn matching_suppressions(suppressions: &[Suppression], rule: &str, line: u32) -> Vec<usize> {
    suppressions
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.rule == rule && (s.whole_file || (s.from_line <= line && line <= s.to_line))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Applies severity and records the diagnostic (suppressions were
/// already resolved by the caller, which tracks their usage).
fn push_diag(
    report: &mut Report,
    config: &Config,
    file: &str,
    excerpts: &BTreeMap<u32, String>,
    diag: RawDiag,
) {
    let level = config.level(diag.rule);
    if level == Level::Allow {
        return;
    }
    report.diagnostics.push(Diagnostic {
        rule: diag.rule,
        level,
        file: file.to_owned(),
        line: diag.line,
        col: diag.col,
        len: diag.len,
        message: diag.message,
        help: diag.help,
        excerpt: excerpts.get(&diag.line).cloned(),
    });
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`] and hidden
/// directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Root-relative `/`-separated path.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]` — the default lint root.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").exists());
    }

    #[test]
    fn relative_paths_are_slash_separated() {
        let root = Path::new("/a/b");
        assert_eq!(
            relative(root, Path::new("/a/b/crates/x/src/l.rs")),
            "crates/x/src/l.rs"
        );
    }

    #[test]
    fn single_and_multi_thread_runs_agree() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = here.join("fixtures/ws");
        let config = Config::new();
        let serial = run_with(&root, &config, &Options { threads: Some(1) }).expect("serial run");
        let parallel =
            run_with(&root, &config, &Options { threads: Some(8) }).expect("parallel run");
        assert_eq!(serial.render_text(), parallel.render_text());
    }
}
