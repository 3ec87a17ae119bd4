//! Fleet observability: scanning, aggregating and merging the per-process
//! run records of a sharded campaign.
//!
//! The reader side of [`crate::manifest`]: [`scan_fleet`] collects every
//! `run-<shard>.*` record from one or more obs directories,
//! [`render_snapshot`] turns the collection into the aggregated view
//! `mcsched-exp top` prints (per-shard progress bars, stalled/dead verdicts,
//! fleet-wide totals, the merged counter table), and [`merge_obs_dirs`]
//! unions the per-shard exports into one fleet journal + metrics snapshot
//! (`mcsched-exp obs-merge`).
//!
//! Determinism contract: everything derived from the records alone —
//! [`render_snapshot`] for a *finished* fleet (no `running` shard) and the
//! whole of [`merge_obs_dirs`] — is byte-identical regardless of directory
//! order, scan order or wall clock. Liveness verdicts (stalled/dead) apply
//! only to `running` shards and are the one part that reads the clock and
//! the process table.

use crate::manifest::{Heartbeat, RunManifest, RunPhase};
use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Everything on disk about one shard of the fleet.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// The obs directory the records live in.
    pub dir: PathBuf,
    /// File-name stem, e.g. `run-1of3`.
    pub stem: String,
    /// The parsed manifest.
    pub manifest: RunManifest,
    /// The parsed heartbeat, if one was written yet.
    pub heartbeat: Option<Heartbeat>,
    /// `run-<shard>.metrics.json`, if the shard exported one.
    pub metrics_path: Option<PathBuf>,
    /// `run-<shard>.journal.jsonl`, if the shard exported one.
    pub journal_path: Option<PathBuf>,
}

/// The scanned state of one or more obs directories.
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    /// Every shard found, sorted by `(directory, stem)`.
    pub shards: Vec<ShardStatus>,
    /// Stale `*.tmp` debris (a killed process mid-write), sorted. Never
    /// counted as live progress.
    pub debris: Vec<String>,
    /// Unreadable or malformed records, sorted.
    pub errors: Vec<String>,
}

/// The liveness verdict of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Manifest `running`, process alive, heartbeat fresh.
    Running,
    /// Manifest `running`, process alive, but no heartbeat within the
    /// staleness window.
    Stalled,
    /// Manifest `running` but the recorded pid no longer exists — the
    /// shard was killed without rewriting its manifest.
    Dead,
    /// Manifest `done`.
    Done,
    /// Manifest `failed`.
    Failed,
}

impl ShardState {
    /// The display name of the state.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Running => "running",
            ShardState::Stalled => "STALLED",
            ShardState::Dead => "DEAD",
            ShardState::Done => "done",
            ShardState::Failed => "FAILED",
        }
    }
}

/// Whether a pid exists, where the platform exposes a process table
/// (`/proc`); `None` when it cannot tell.
#[must_use]
fn pid_alive(pid: u32) -> Option<bool> {
    if Path::new("/proc").is_dir() {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    } else {
        None
    }
}

/// Classifies one shard. `now_ms`/`stale_after_ms` only matter for
/// `running` shards: a heartbeat older than the window (or absent longer
/// than it, measured from the start stamp) marks the shard stalled, and a
/// recorded pid that no longer exists marks it dead.
#[must_use]
pub fn shard_state(shard: &ShardStatus, now_ms: u64, stale_after_ms: u64) -> ShardState {
    match shard.manifest.phase {
        RunPhase::Done => ShardState::Done,
        RunPhase::Failed => ShardState::Failed,
        RunPhase::Running => {
            if pid_alive(shard.manifest.pid) == Some(false) {
                return ShardState::Dead;
            }
            let last = shard
                .heartbeat
                .as_ref()
                .map_or(shard.manifest.start_unix_ms, |h| h.updated_unix_ms);
            if now_ms.saturating_sub(last) > stale_after_ms {
                ShardState::Stalled
            } else {
                ShardState::Running
            }
        }
    }
}

fn read_record<T>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, String>,
    errors: &mut Vec<String>,
) -> Option<T> {
    match std::fs::read_to_string(path) {
        Ok(text) => match parse(&text) {
            Ok(record) => Some(record),
            Err(e) => {
                errors.push(format!("{}: {e}", path.display()));
                None
            }
        },
        Err(e) => {
            errors.push(format!("{}: {e}", path.display()));
            None
        }
    }
}

/// Scans one or more obs directories for run records. Malformed or
/// unreadable records land in [`Fleet::errors`], `*.tmp` files in
/// [`Fleet::debris`]; both are reported, never silently dropped. The
/// result is sorted, so the scan is independent of directory order and
/// file-system enumeration order.
#[must_use]
pub fn scan_fleet(dirs: &[PathBuf]) -> Fleet {
    let mut fleet = Fleet::default();
    let mut seen_dirs: Vec<&PathBuf> = dirs.iter().collect();
    seen_dirs.sort();
    seen_dirs.dedup();
    for dir in seen_dirs {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                fleet.errors.push(format!("{}: {e}", dir.display()));
                continue;
            }
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        for name in names {
            if name.ends_with(".tmp") {
                fleet.debris.push(dir.join(&name).display().to_string());
                continue;
            }
            let Some(stem) = name.strip_suffix(".manifest.json") else {
                continue;
            };
            if !stem.starts_with("run-") {
                continue;
            }
            let Some(manifest) =
                read_record(&dir.join(&name), RunManifest::parse_json, &mut fleet.errors)
            else {
                continue;
            };
            let heartbeat_path = dir.join(format!("{stem}.heartbeat.json"));
            let heartbeat = heartbeat_path
                .is_file()
                .then(|| read_record(&heartbeat_path, Heartbeat::parse_json, &mut fleet.errors))
                .flatten();
            let present = |suffix: &str| {
                let path = dir.join(format!("{stem}{suffix}"));
                path.is_file().then_some(path)
            };
            fleet.shards.push(ShardStatus {
                dir: dir.clone(),
                stem: stem.to_string(),
                manifest,
                heartbeat,
                metrics_path: present(".metrics.json"),
                journal_path: present(".journal.jsonl"),
            });
        }
    }
    fleet
        .shards
        .sort_by(|a, b| (&a.dir, &a.stem).cmp(&(&b.dir, &b.stem)));
    fleet.debris.sort();
    fleet.errors.sort();
    fleet
}

/// Options of [`render_snapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotOptions {
    /// The clock used for liveness verdicts on `running` shards. Finished
    /// fleets never read it, which is what makes `--snapshot` output
    /// byte-identical for them.
    pub now_ms: u64,
    /// Heartbeat age beyond which a `running` shard counts as stalled.
    pub stale_after_ms: u64,
}

impl Default for SnapshotOptions {
    fn default() -> Self {
        Self {
            now_ms: crate::manifest::unix_ms(),
            stale_after_ms: 30_000,
        }
    }
}

fn progress_bar(done: u64, total: u64) -> String {
    const WIDTH: u64 = 20;
    // In u128: a heartbeat read from disk may hold any u64.
    let filled = (u128::from(done.min(total)) * u128::from(WIDTH))
        .checked_div(u128::from(total))
        .unwrap_or(0);
    let mut bar = String::with_capacity(WIDTH as usize + 2);
    bar.push('[');
    for i in 0..WIDTH {
        bar.push(if u128::from(i) < filled { '#' } else { '-' });
    }
    bar.push(']');
    bar
}

/// Renders the aggregated fleet view: one progress line per shard, the
/// fleet totals (data points, cells, cache hits/misses and — from the
/// recorded stamps alone — the fleet-wide cells/s), the merged counter
/// table when per-shard metrics snapshots exist, and the debris/error
/// report. Byte-identical for a finished fleet (see module docs).
#[must_use]
pub fn render_snapshot(fleet: &Fleet, opts: &SnapshotOptions) -> String {
    let mut out = String::new();
    let mut by_state = std::collections::BTreeMap::<&str, usize>::new();
    let states: Vec<ShardState> = fleet
        .shards
        .iter()
        .map(|s| shard_state(s, opts.now_ms, opts.stale_after_ms))
        .collect();
    for state in &states {
        *by_state.entry(state.name()).or_insert(0) += 1;
    }
    let summary = by_state
        .iter()
        .map(|(name, n)| format!("{n} {name}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "fleet: {} shard(s){}{}",
        fleet.shards.len(),
        if summary.is_empty() { "" } else { " — " },
        summary
    );

    for (shard, state) in fleet.shards.iter().zip(&states) {
        let hb = shard.heartbeat.clone().unwrap_or_default();
        let _ = write!(
            out,
            "  {} {:>4}/{:<4} {:<7} {} [{}]",
            progress_bar(hb.points_done, hb.points_total),
            hb.points_done,
            hb.points_total,
            state.name(),
            shard.manifest.label,
            crate::manifest::shard_label(Some(shard.manifest.shard)),
        );
        if hb.cache_hits > 0 || hb.cache_misses > 0 {
            let _ = write!(out, " hits={} misses={}", hb.cache_hits, hb.cache_misses);
        }
        if !hb.detail.is_empty() {
            let _ = write!(out, " {}", hb.detail);
        }
        if *state == ShardState::Stalled {
            let last = shard
                .heartbeat
                .as_ref()
                .map_or(shard.manifest.start_unix_ms, |h| h.updated_unix_ms);
            let _ = write!(
                out,
                " (no heartbeat for {}s)",
                opts.now_ms.saturating_sub(last) / 1000
            );
        }
        if *state == ShardState::Dead {
            let _ = write!(out, " (pid {} gone)", shard.manifest.pid);
        }
        out.push('\n');
    }

    let heartbeats: Vec<&Heartbeat> = fleet
        .shards
        .iter()
        .filter_map(|s| s.heartbeat.as_ref())
        .collect();
    if !heartbeats.is_empty() {
        // Saturating: the counts come from disk and may be anything.
        let total = |count: fn(&Heartbeat) -> u64| {
            heartbeats
                .iter()
                .fold(0u64, |sum, h| sum.saturating_add(count(h)))
        };
        let cells = total(|h| h.cells_done);
        let hits = total(|h| h.cache_hits);
        let misses = total(|h| h.cache_misses);
        let _ = write!(
            out,
            "fleet cells: {cells} done, {hits} hit(s), {misses} miss(es)"
        );
        // Rate from the recorded stamps only (first manifest start to last
        // heartbeat), so a finished fleet renders the same rate forever.
        let start = fleet
            .shards
            .iter()
            .map(|s| s.manifest.start_unix_ms)
            .min()
            .unwrap_or(0);
        let last = heartbeats
            .iter()
            .map(|h| h.updated_unix_ms)
            .max()
            .unwrap_or(0);
        if last > start && cells > 0 {
            let rate = cells as f64 / ((last - start) as f64 / 1000.0);
            let _ = write!(out, ", {rate:.1} cells/s");
        }
        out.push('\n');
    }

    let mut merged = MetricsSnapshot::default();
    let mut metric_sources = 0usize;
    let mut metric_errors = Vec::new();
    for shard in &fleet.shards {
        if let Some(path) = &shard.metrics_path {
            if let Some(snapshot) =
                read_record(path, MetricsSnapshot::parse_json, &mut metric_errors)
            {
                merged.merge(&snapshot);
                metric_sources += 1;
            }
        }
    }
    if metric_sources > 0 {
        let _ = writeln!(out, "merged metrics ({metric_sources} snapshot(s)):");
        for line in merged.render_table().lines().skip(1) {
            let _ = writeln!(out, "  {line}");
        }
    }

    if !fleet.debris.is_empty() {
        let _ = writeln!(
            out,
            "debris: {} stale temp file(s) (killed shard mid-write?):",
            fleet.debris.len()
        );
        for path in &fleet.debris {
            let _ = writeln!(out, "  {path}");
        }
    }
    for error in fleet.errors.iter().chain(&metric_errors) {
        let _ = writeln!(out, "warning: {error}");
    }
    out
}

/// The result of merging the obs exports of one fleet.
#[derive(Debug, Clone)]
pub struct FleetMerge {
    /// Number of shards merged.
    pub shards: usize,
    /// The shared config digest.
    pub config_digest: String,
    /// The shared cache salt.
    pub salt: String,
    /// The fleet journal: every shard's journal lines, concatenated and
    /// re-sorted (the journal format's canonical order).
    pub journal: String,
    /// The fleet metrics snapshot (counters summed, gauges maxed,
    /// histograms bucket-wise added).
    pub metrics: MetricsSnapshot,
    /// Non-fatal oddities: shards not in phase `done`, missing exports.
    pub warnings: Vec<String>,
}

/// Unions the per-shard obs exports of `dirs` into one fleet journal and
/// metrics snapshot. Consistency-checked like the cell-cache merge: every
/// shard must carry the same config digest and cache salt, and the same
/// shard label must not appear twice — a foreign or duplicated shard is a
/// hard error naming both sides, and nothing is merged. Deterministic:
/// any directory order produces byte-identical journal and metrics.
///
/// # Errors
///
/// A human-readable description: no run records found, mismatched
/// salt/config digest, a duplicated shard label, or an unreadable export.
pub fn merge_obs_dirs(dirs: &[PathBuf]) -> Result<FleetMerge, String> {
    let fleet = scan_fleet(dirs);
    if let Some(error) = fleet.errors.first() {
        return Err(format!("unreadable run record: {error}"));
    }
    if fleet.shards.is_empty() {
        return Err(format!(
            "no run-*.manifest.json records found under {}",
            dirs.iter()
                .map(|d| d.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let first = &fleet.shards[0];
    let mut warnings = Vec::new();
    let mut seen = std::collections::BTreeMap::<(usize, usize), &ShardStatus>::new();
    for shard in &fleet.shards {
        for (what, a, b) in [
            ("cache salt", &first.manifest.salt, &shard.manifest.salt),
            (
                "config digest",
                &first.manifest.config_digest,
                &shard.manifest.config_digest,
            ),
        ] {
            if a != b {
                return Err(format!(
                    "{what} mismatch: {}/{} has `{b}`, {}/{} has `{a}` — these runs \
                     belong to different fleets",
                    shard.dir.display(),
                    shard.stem,
                    first.dir.display(),
                    first.stem,
                ));
            }
        }
        if let Some(previous) = seen.insert(shard.manifest.shard, shard) {
            return Err(format!(
                "shard {} appears twice: {}/{} and {}/{}",
                crate::manifest::shard_label(Some(shard.manifest.shard)),
                previous.dir.display(),
                previous.stem,
                shard.dir.display(),
                shard.stem,
            ));
        }
        if shard.manifest.phase != RunPhase::Done {
            warnings.push(format!(
                "{}/{} is `{}`, not `done` — its exports may be partial",
                shard.dir.display(),
                shard.stem,
                shard.manifest.phase.name()
            ));
        }
    }

    let mut journal_lines: Vec<String> = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for shard in &fleet.shards {
        match &shard.journal_path {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                journal_lines.extend(text.lines().map(str::to_string));
            }
            None => warnings.push(format!(
                "{}/{} exported no journal",
                shard.dir.display(),
                shard.stem
            )),
        }
        match &shard.metrics_path {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let snapshot = MetricsSnapshot::parse_json(&text)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                metrics.merge(&snapshot);
            }
            None => warnings.push(format!(
                "{}/{} exported no metrics snapshot",
                shard.dir.display(),
                shard.stem
            )),
        }
    }
    journal_lines.sort_unstable();
    let mut journal = journal_lines.join("\n");
    if !journal.is_empty() {
        journal.push('\n');
    }
    Ok(FleetMerge {
        shards: fleet.shards.len(),
        config_digest: first.manifest.config_digest.clone(),
        salt: first.manifest.salt.clone(),
        journal,
        metrics,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{write_atomic, RunRecorder};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "mcsched-obs-fleet-{tag}-{}-{}",
                std::process::id(),
                UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            Self(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn manifest(shard: (usize, usize), phase: RunPhase) -> RunManifest {
        RunManifest {
            label: "campaign:test".to_string(),
            shard,
            config_digest: "feed".to_string(),
            salt: "salt-v1".to_string(),
            pid: std::process::id(),
            start_unix_ms: 1_000,
            phase,
        }
    }

    fn finished_shard(dir: &Path, shard: (usize, usize), journal: &str) {
        let recorder = RunRecorder::new(dir, manifest(shard, RunPhase::Running));
        recorder.heartbeat(Heartbeat {
            points_done: 4,
            points_total: 4,
            cells_done: 10 + shard.0 as u64,
            cache_hits: 1,
            cache_misses: 9,
            detail: "ptgs=4 rep=2/2".to_string(),
            ..Heartbeat::default()
        });
        recorder.finish(RunPhase::Done);
        let stem = format!("run-{}of{}", shard.0, shard.1);
        write_atomic(&dir.join(format!("{stem}.journal.jsonl")), journal).unwrap();
        let snapshot = MetricsSnapshot {
            counters: vec![("cells".to_string(), 10 + shard.0 as u64)],
            ..MetricsSnapshot::default()
        };
        write_atomic(
            &dir.join(format!("{stem}.metrics.json")),
            &snapshot.render_json(),
        )
        .unwrap();
    }

    #[test]
    fn scan_collects_shards_debris_and_errors() {
        let dir = TempDir::new("scan");
        finished_shard(&dir.0, (0, 2), "{\"event\":\"span\"}\n");
        std::fs::write(dir.0.join("run-1of2.manifest.json.123.0.tmp"), "{tru").unwrap();
        std::fs::write(dir.0.join("run-1of2.manifest.json"), "not json").unwrap();
        std::fs::write(dir.0.join("unrelated.txt"), "ignored").unwrap();
        let fleet = scan_fleet(std::slice::from_ref(&dir.0));
        assert_eq!(fleet.shards.len(), 1);
        assert_eq!(fleet.shards[0].stem, "run-0of2");
        assert!(fleet.shards[0].heartbeat.is_some());
        assert!(fleet.shards[0].journal_path.is_some());
        assert!(fleet.shards[0].metrics_path.is_some());
        assert_eq!(fleet.debris.len(), 1, "tmp debris is reported");
        assert_eq!(fleet.errors.len(), 1, "malformed manifests are reported");
    }

    #[test]
    fn states_cover_done_running_stalled_and_dead() {
        let dir = TempDir::new("states");
        let make = |shard, phase, pid| {
            let mut m = manifest(shard, phase);
            m.pid = pid;
            m
        };
        let me = std::process::id();
        let fresh = ShardStatus {
            dir: dir.0.clone(),
            stem: "run-0of4".to_string(),
            manifest: make((0, 4), RunPhase::Running, me),
            heartbeat: Some(Heartbeat {
                updated_unix_ms: 100_000,
                ..Heartbeat::default()
            }),
            metrics_path: None,
            journal_path: None,
        };
        assert_eq!(shard_state(&fresh, 110_000, 30_000), ShardState::Running);
        assert_eq!(shard_state(&fresh, 200_000, 30_000), ShardState::Stalled);
        let mut done = fresh.clone();
        done.manifest.phase = RunPhase::Done;
        assert_eq!(shard_state(&done, 999_999, 1), ShardState::Done);
        let mut failed = fresh.clone();
        failed.manifest.phase = RunPhase::Failed;
        assert_eq!(shard_state(&failed, 0, 1), ShardState::Failed);
        if pid_alive(u32::MAX).is_some() {
            let mut dead = fresh;
            dead.manifest.pid = u32::MAX;
            assert_eq!(shard_state(&dead, 110_000, 30_000), ShardState::Dead);
        }
    }

    #[test]
    fn snapshot_of_a_finished_fleet_is_byte_identical() {
        let a = TempDir::new("snap-a");
        let b = TempDir::new("snap-b");
        finished_shard(&a.0, (0, 2), "{\"event\":\"span\",\"name\":\"x\"}\n");
        finished_shard(&b.0, (1, 2), "{\"event\":\"span\",\"name\":\"a\"}\n");
        std::fs::write(a.0.join("run-0of2.heartbeat.json.9.9.tmp"), "torn").unwrap();
        let render = |dirs: &[PathBuf], now| {
            render_snapshot(
                &scan_fleet(dirs),
                &SnapshotOptions {
                    now_ms: now,
                    stale_after_ms: 1,
                },
            )
        };
        let one = render(&[a.0.clone(), b.0.clone()], 5);
        let two = render(&[b.0.clone(), a.0.clone()], u64::MAX);
        assert_eq!(
            one, two,
            "finished fleets never read the clock or the dir order"
        );
        assert!(one.contains("fleet: 2 shard(s) — 2 done"));
        assert!(one.contains("[####################]"));
        assert!(one.contains("fleet cells: 21 done, 2 hit(s), 18 miss(es)"));
        assert!(one.contains("merged metrics (2 snapshot(s)):"));
        assert!(one.contains("cells"));
        assert!(one.contains("debris: 1 stale temp file(s)"));
    }

    #[test]
    fn snapshot_saturates_heartbeat_counts_read_from_disk() {
        let max = u64::MAX;
        let shard = |index| ShardStatus {
            dir: PathBuf::from("obs"),
            stem: format!("run-{index}of2"),
            manifest: manifest((index, 2), RunPhase::Done),
            heartbeat: Some(Heartbeat {
                points_done: max,
                points_total: max,
                cells_done: max,
                cache_hits: max,
                cache_misses: max,
                ..Heartbeat::default()
            }),
            metrics_path: None,
            journal_path: None,
        };
        let fleet = Fleet {
            shards: vec![shard(0), shard(1)],
            ..Fleet::default()
        };
        let out = render_snapshot(&fleet, &SnapshotOptions::default());
        assert!(out.contains(&format!("[####################] {max}/{max}")));
        assert!(out.contains(&format!("hits={max} misses={max}")));
        let totals = format!("fleet cells: {max} done, {max} hit(s), {max} miss(es)");
        assert!(out.contains(&totals), "{out}");
    }

    #[test]
    fn merge_is_order_independent_and_checked() {
        let a = TempDir::new("merge-a");
        let b = TempDir::new("merge-b");
        let c = TempDir::new("merge-c");
        finished_shard(&a.0, (0, 3), "{\"n\":\"z\"}\n{\"n\":\"b\"}\n");
        finished_shard(&b.0, (1, 3), "{\"n\":\"a\"}\n");
        finished_shard(&c.0, (2, 3), "");
        let forward = merge_obs_dirs(&[a.0.clone(), b.0.clone(), c.0.clone()]).unwrap();
        let reverse = merge_obs_dirs(&[c.0.clone(), b.0.clone(), a.0.clone()]).unwrap();
        assert_eq!(forward.journal, reverse.journal);
        assert_eq!(forward.metrics, reverse.metrics);
        assert_eq!(forward.shards, 3);
        assert_eq!(
            forward.journal,
            "{\"n\":\"a\"}\n{\"n\":\"b\"}\n{\"n\":\"z\"}\n"
        );
        assert_eq!(
            forward.metrics.counters,
            vec![("cells".to_string(), 10 + 11 + 12)]
        );
        assert!(forward.warnings.is_empty());

        // A shard of a different fleet (foreign digest) is a hard error.
        let foreign = TempDir::new("merge-foreign");
        let recorder = RunRecorder::new(&foreign.0, {
            let mut m = manifest((0, 1), RunPhase::Done);
            m.config_digest = "beef".to_string();
            m
        });
        recorder.finish(RunPhase::Done);
        let err = merge_obs_dirs(&[a.0.clone(), foreign.0.clone()]).unwrap_err();
        assert!(err.contains("config digest mismatch"), "{err}");

        // The same shard twice is a hard error naming both sides.
        let twin = TempDir::new("merge-twin");
        finished_shard(&twin.0, (0, 3), "");
        let err = merge_obs_dirs(&[a.0.clone(), twin.0.clone()]).unwrap_err();
        assert!(err.contains("appears twice"), "{err}");

        // An empty directory has nothing to merge.
        let empty = TempDir::new("merge-empty");
        assert!(merge_obs_dirs(std::slice::from_ref(&empty.0)).is_err());
    }

    #[test]
    fn merge_warns_on_non_done_shards_and_missing_exports() {
        let dir = TempDir::new("merge-warn");
        let _recorder = RunRecorder::new(&dir.0, manifest((0, 1), RunPhase::Running));
        let merge = merge_obs_dirs(std::slice::from_ref(&dir.0)).unwrap();
        assert_eq!(merge.shards, 1);
        assert!(merge.journal.is_empty());
        assert!(merge.warnings.iter().any(|w| w.contains("not `done`")));
        assert!(merge.warnings.iter().any(|w| w.contains("no journal")));
        assert!(merge
            .warnings
            .iter()
            .any(|w| w.contains("no metrics snapshot")));
    }
}
