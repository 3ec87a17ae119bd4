//! Run manifests and heartbeats: the per-process half of fleet
//! observability.
//!
//! A sharded campaign is N independent processes; until they exit, the
//! fleet is invisible. With an `--obs-dir` configured, every harness run
//! writes two small JSON records into the shared directory:
//!
//! * **`run-<shard>.manifest.json`** — written once at start (phase
//!   `running`) and rewritten at the end (phase `done`/`failed`): the run
//!   label, shard spec, config digest, cache salt, pid and start stamp.
//!   The digest and salt let the fleet tooling refuse to aggregate runs of
//!   different campaigns or scheduler versions, exactly like the cell-cache
//!   merge;
//! * **`run-<shard>.heartbeat.json`** — rewritten at the per-data-point
//!   flush grain (the cell cache's resume grain): data points done/total,
//!   cells evaluated, cache hits/misses, the current data-point detail and
//!   a last-update stamp. `mcsched-exp top` turns heartbeat age into
//!   stalled/dead verdicts for `running` shards.
//!
//! Both records are written **atomically** (unique temp file + rename), so
//! a reader never observes a torn record — at worst it sees the previous
//! one, plus `.tmp` debris from a kill mid-write, which the fleet scanner
//! reports instead of mistaking it for progress. Write failures degrade to
//! one stderr warning per record kind: observability must never fail a run.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema version of the manifest/heartbeat records.
pub const MANIFEST_SCHEMA: u32 = 1;

/// Lifecycle phase recorded in a [`RunManifest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// The process is (or was, if it died) evaluating its grid.
    Running,
    /// The grid completed; the shard's exports are final.
    Done,
    /// The run aborted with an error after writing its manifest.
    Failed,
}

impl RunPhase {
    /// The wire name of the phase.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RunPhase::Running => "running",
            RunPhase::Done => "done",
            RunPhase::Failed => "failed",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "running" => Some(RunPhase::Running),
            "done" => Some(RunPhase::Done),
            "failed" => Some(RunPhase::Failed),
            _ => None,
        }
    }
}

/// The identity record of one harness process (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Human-readable run label (e.g. `campaign:random`).
    pub label: String,
    /// `(index, of)` of a sharded run; `(0, 1)` when unsharded.
    pub shard: (usize, usize),
    /// Hex digest of the campaign configuration, **excluding** the shard
    /// spec — every shard of one fleet shares it, runs of different
    /// campaigns differ.
    pub config_digest: String,
    /// The cache salt the binary was compiled with
    /// (`mcsched_runtime::CACHE_SALT` for the harnesses).
    pub salt: String,
    /// Process id, for liveness checks on `running` shards.
    pub pid: u32,
    /// Start stamp, milliseconds since the Unix epoch.
    pub start_unix_ms: u64,
    /// Current lifecycle phase.
    pub phase: RunPhase,
}

/// The progress record of one harness process (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Heartbeat {
    /// Completed data points (the cache flush grain).
    pub points_done: u64,
    /// Total data points of the grid.
    pub points_total: u64,
    /// (scenario, policy) cells evaluated or served so far.
    pub cells_done: u64,
    /// Cell-cache hits so far (0 without a cache).
    pub cache_hits: u64,
    /// Cell-cache misses so far (0 without a cache).
    pub cache_misses: u64,
    /// The most recently completed data point (e.g. `ptgs=4 rep=1/2`).
    pub detail: String,
    /// Last-update stamp, milliseconds since the Unix epoch.
    pub updated_unix_ms: u64,
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
#[must_use]
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The canonical `<i>of<N>` shard label used in fleet file names
/// (`0of1` for an unsharded run).
#[must_use]
pub fn shard_label(shard: Option<(usize, usize)>) -> String {
    let (index, of) = shard.unwrap_or((0, 1));
    format!("{index}of{of}")
}

/// File-name stem of one run's artefacts: `run-<shard>`.
#[must_use]
pub fn run_stem(shard_label: &str) -> String {
    format!("run-{shard_label}")
}

impl RunManifest {
    /// Renders the manifest as key-stable JSON.
    #[must_use]
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"schema\": {},\n  \"label\": {},\n  \"shard_index\": {},\n  \
             \"shard_of\": {},\n  \"config_digest\": {},\n  \"salt\": {},\n  \
             \"pid\": {},\n  \"start_unix_ms\": {},\n  \"phase\": {}\n}}\n",
            MANIFEST_SCHEMA,
            Json::Str(self.label.clone()).render(),
            self.shard.0,
            self.shard.1,
            Json::Str(self.config_digest.clone()).render(),
            Json::Str(self.salt.clone()).render(),
            self.pid,
            self.start_unix_ms,
            Json::Str(self.phase.name().into()).render(),
        )
    }

    /// Parses a manifest written by [`RunManifest::render_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let string = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_str().map(str::to_string))
                .ok_or_else(|| format!("manifest misses string `{key}`"))
        };
        let uint = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("manifest misses u64 `{key}`"))
        };
        let phase = string("phase")?;
        Ok(RunManifest {
            label: string("label")?,
            shard: (uint("shard_index")? as usize, uint("shard_of")? as usize),
            config_digest: string("config_digest")?,
            salt: string("salt")?,
            pid: u32::try_from(uint("pid")?).map_err(|_| "pid out of range".to_string())?,
            start_unix_ms: uint("start_unix_ms")?,
            phase: RunPhase::parse(&phase).ok_or_else(|| format!("unknown phase `{phase}`"))?,
        })
    }
}

impl Heartbeat {
    /// Renders the heartbeat as key-stable JSON.
    #[must_use]
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"points_done\": {},\n  \"points_total\": {},\n  \"cells_done\": {},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"detail\": {},\n  \
             \"updated_unix_ms\": {}\n}}\n",
            self.points_done,
            self.points_total,
            self.cells_done,
            self.cache_hits,
            self.cache_misses,
            Json::Str(self.detail.clone()).render(),
            self.updated_unix_ms,
        )
    }

    /// Parses a heartbeat written by [`Heartbeat::render_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let uint = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("heartbeat misses u64 `{key}`"))
        };
        Ok(Heartbeat {
            points_done: uint("points_done")?,
            points_total: uint("points_total")?,
            cells_done: uint("cells_done")?,
            cache_hits: uint("cache_hits")?,
            cache_misses: uint("cache_misses")?,
            detail: doc
                .get("detail")
                .and_then(|v| v.as_str().map(str::to_string))
                .ok_or("heartbeat misses string `detail`")?,
            updated_unix_ms: uint("updated_unix_ms")?,
        })
    }
}

/// Writes `text` to `path` atomically: a uniquely named sibling temp file
/// (`<name>.<pid>.<seq>.tmp`) is written and renamed over the target, so
/// readers see either the old or the new record, never a torn one, and
/// concurrent writers of the *same* record cannot collide on a temp name.
///
/// # Errors
///
/// The underlying I/O error of the write or rename.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = path.with_file_name(format!(
        "{file_name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// The writer side of one run's manifest + heartbeat pair. Create it when
/// the grid starts (writes the `running` manifest), call
/// [`RunRecorder::heartbeat`] at every data-point flush (safe from any
/// worker thread), and [`RunRecorder::finish`] when the grid ends.
#[derive(Debug)]
pub struct RunRecorder {
    dir: PathBuf,
    manifest: Mutex<RunManifest>,
    /// The highest `points_done` written so far.
    points_done: Mutex<u64>,
    stem: String,
    warned: std::sync::atomic::AtomicBool,
}

impl RunRecorder {
    /// Creates the recorder and writes the initial `running` manifest
    /// (creating `dir` if needed). I/O failures degrade to a warning.
    #[must_use]
    pub fn new(dir: &Path, mut manifest: RunManifest) -> Self {
        manifest.phase = RunPhase::Running;
        let recorder = Self {
            dir: dir.to_path_buf(),
            stem: run_stem(&shard_label(Some(manifest.shard))),
            manifest: Mutex::new(manifest),
            points_done: Mutex::new(0),
            warned: std::sync::atomic::AtomicBool::new(false),
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            recorder.warn(&format!("cannot create {}: {e}", dir.display()));
            return recorder;
        }
        recorder.write_manifest();
        recorder
    }

    /// Path of the manifest record.
    #[must_use]
    fn manifest_path(&self) -> PathBuf {
        self.dir.join(format!("{}.manifest.json", self.stem))
    }

    /// Path of the heartbeat record.
    #[must_use]
    pub fn heartbeat_path(&self) -> PathBuf {
        self.dir.join(format!("{}.heartbeat.json", self.stem))
    }

    /// Atomically replaces the heartbeat record (stamping it now), unless
    /// a record with a higher `points_done` is already written: workers
    /// that finish out of order cannot move the record backwards.
    pub fn heartbeat(&self, mut heartbeat: Heartbeat) {
        let mut highest = self
            .points_done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if heartbeat.points_done < *highest {
            return;
        }
        *highest = heartbeat.points_done;
        heartbeat.updated_unix_ms = unix_ms();
        if let Err(e) = write_atomic(&self.heartbeat_path(), &heartbeat.render_json()) {
            self.warn(&format!("heartbeat write failed: {e}"));
        }
    }

    /// Rewrites the manifest with the final phase. Call once when the grid
    /// completes (`Done`) or aborts (`Failed`).
    pub fn finish(&self, phase: RunPhase) {
        self.manifest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .phase = phase;
        self.write_manifest();
    }

    fn write_manifest(&self) {
        let text = self
            .manifest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .render_json();
        if let Err(e) = write_atomic(&self.manifest_path(), &text) {
            self.warn(&format!("manifest write failed: {e}"));
        }
    }

    fn warn(&self, message: &str) {
        if !self.warned.swap(true, Ordering::Relaxed) {
            eprintln!("warning: obs: {message} (further run-record warnings suppressed)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mcsched-obs-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_manifest() -> RunManifest {
        RunManifest {
            label: "campaign:random".to_string(),
            shard: (1, 3),
            config_digest: "00ff".to_string(),
            salt: "salt-v1".to_string(),
            pid: 1234,
            start_unix_ms: 1_700_000_000_000,
            phase: RunPhase::Running,
        }
    }

    #[test]
    fn manifest_and_heartbeat_round_trip() {
        let m = sample_manifest();
        assert_eq!(RunManifest::parse_json(&m.render_json()).unwrap(), m);
        let h = Heartbeat {
            points_done: 3,
            points_total: 8,
            cells_done: 120,
            cache_hits: 40,
            cache_misses: 80,
            detail: "ptgs=4 rep=1/2".to_string(),
            updated_unix_ms: 17,
        };
        assert_eq!(Heartbeat::parse_json(&h.render_json()).unwrap(), h);
        assert!(RunManifest::parse_json("{}").is_err());
        assert!(Heartbeat::parse_json("{\"points_done\": 1}").is_err());
        let bad_phase = m.render_json().replace("running", "jogging");
        assert!(RunManifest::parse_json(&bad_phase).is_err());
    }

    #[test]
    fn shard_labels_and_stems() {
        assert_eq!(shard_label(None), "0of1");
        assert_eq!(shard_label(Some((2, 5))), "2of5");
        assert_eq!(run_stem("2of5"), "run-2of5");
    }

    #[test]
    fn recorder_writes_running_then_done_and_heartbeats() {
        let dir = temp_dir("recorder");
        let recorder = RunRecorder::new(&dir, sample_manifest());
        let on_disk =
            RunManifest::parse_json(&std::fs::read_to_string(recorder.manifest_path()).unwrap())
                .unwrap();
        assert_eq!(on_disk.phase, RunPhase::Running);
        assert_eq!(on_disk.shard, (1, 3));
        recorder.heartbeat(Heartbeat {
            points_done: 1,
            points_total: 2,
            detail: "ptgs=2 rep=1/1".to_string(),
            ..Heartbeat::default()
        });
        let hb =
            Heartbeat::parse_json(&std::fs::read_to_string(recorder.heartbeat_path()).unwrap())
                .unwrap();
        assert_eq!((hb.points_done, hb.points_total), (1, 2));
        assert!(hb.updated_unix_ms > 0, "heartbeats are stamped on write");
        recorder.finish(RunPhase::Done);
        let done =
            RunManifest::parse_json(&std::fs::read_to_string(recorder.manifest_path()).unwrap())
                .unwrap();
        assert_eq!(done.phase, RunPhase::Done);
        // Atomic writes leave no temp debris behind.
        let tmp = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .count();
        assert_eq!(tmp, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_keeps_the_highest_points_done() {
        let dir = temp_dir("heartbeat-order");
        let recorder = RunRecorder::new(&dir, sample_manifest());
        for points_done in [5, 3] {
            recorder.heartbeat(Heartbeat {
                points_done,
                points_total: 5,
                ..Heartbeat::default()
            });
        }
        let hb =
            Heartbeat::parse_json(&std::fs::read_to_string(recorder.heartbeat_path()).unwrap())
                .unwrap();
        assert_eq!(hb.points_done, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_without_tearing() {
        let dir = temp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.json");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
