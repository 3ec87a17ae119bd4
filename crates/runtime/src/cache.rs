//! The content-addressed cell cache: an in-memory map of evaluated cell
//! metrics, optionally backed by an on-disk JSON shard store.
//!
//! ## What a "cell" is
//!
//! One (scenario, policy) evaluation of a campaign or µ-sweep: the smallest
//! unit of work whose result is a pure function of its inputs. The key is a
//! [`CellDigest`] over those inputs (see [`crate::digest`]); the value is a
//! [`CellMetrics`] — the three floats campaigns aggregate. Cached floats
//! round-trip *bit-exactly* (numbers are serialized with Rust's
//! shortest-round-trip formatting and parsed from the raw token text by
//! `mcsched_obs::json`), so a warm-cache run prints byte-identical
//! tables and CSVs to the cold run that populated it.
//!
//! ## On-disk layout
//!
//! ```text
//! <cache_dir>/
//!   shard-00.json … shard-0f.json   # 16 shards, assigned by digest
//! ```
//!
//! Each shard is one JSON document `{"version":1,"salt":…,"cells":[…]}`.
//! Shards are flushed with a write-to-temporary + atomic-rename, so a kill
//! at any instant leaves every shard either at its previous complete state
//! or at the new complete state — never half-written. Stale `*.tmp` files
//! and unreadable/corrupt shards are skipped (with a warning) at load time:
//! a damaged cache degrades to recomputation, never to wrong results or a
//! crash. A *structurally* valid shard with individually malformed cell
//! records recovers **per cell**: the bad records are skipped and counted,
//! the good ones are served (an early version discarded the whole shard on
//! one bad record, silently recomputing everything). Entries whose embedded
//! salt differs from [`CACHE_SALT`] are ignored wholesale, which is how
//! bumping the salt invalidates old caches.
//!
//! ## Float fidelity, including non-finite values
//!
//! Finite metrics are stored as shortest-round-trip numeric tokens (parsed
//! from the raw token text, so they round-trip bit-exactly). Non-finite
//! metrics — NaN of any payload, ±∞ — have no JSON literal and are stored
//! as an explicit bit-pattern sentinel string (`"bits:<16 hex digits>"`),
//! which round-trips *losslessly* too. An early version emitted the raw
//! Rust formatting (`NaN`), producing an invalid token that poisoned its
//! entire shard on reload; and because `f64::NAN != f64::NAN`, the old
//! `PartialEq`-based dirtiness check rewrote any NaN-bearing shard on every
//! flush forever. Both identity checks (dirtiness, merge conflicts) now
//! compare **bit patterns** ([`CellMetrics::bits_eq`]).
//!
//! ## Merging cache directories
//!
//! [`merge_cache_dirs`] unions any number of cache directories into a
//! destination — the collection step of a sharded multi-process campaign
//! (`--shard i/N` + `mcsched-exp merge`). Sources are salt- and
//! version-checked (a stale source is a hard error, unlike resume, which
//! merely skips), duplicate cells must agree bit-for-bit, and a digest
//! mapped to *different* metrics by two sources aborts the merge naming
//! both files ([`MergeError::Conflict`]). The destination is written with
//! the same key-sorted deterministic rendering as a flush, so merging the
//! disjoint caches of a sharded campaign produces a directory byte-identical
//! to the one a single unsharded run would have written.

use crate::digest::{CellDigest, CACHE_SALT};
use mcsched_obs::json::Json;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of on-disk shards (and in-memory lock stripes).
pub const SHARD_COUNT: usize = 16;

/// On-disk format version.
const FORMAT_VERSION: u64 = 1;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Shard locks only guard map/flag manipulation; a poisoned lock cannot
    // leave the map in a torn state.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cached result of one (scenario, policy) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Unfairness of the produced schedule (paper Equation 5).
    pub unfairness: f64,
    /// Global makespan of the run (seconds).
    pub makespan: f64,
    /// Average slowdown across the applications.
    pub average_slowdown: f64,
}

impl CellMetrics {
    /// Whether every field is finite. Real evaluations never produce
    /// non-finite metrics, but the cache no longer depends on that: NaN/∞
    /// round-trip losslessly through the bit-pattern sentinel encoding.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.unfairness.is_finite()
            && self.makespan.is_finite()
            && self.average_slowdown.is_finite()
    }

    /// The three metrics as raw bit patterns — the identity the cache uses
    /// for dirtiness and merge-conflict checks, under which every NaN
    /// payload equals itself and `-0.0 != 0.0`.
    #[must_use]
    pub fn to_bits(&self) -> [u64; 3] {
        [
            self.unfairness.to_bits(),
            self.makespan.to_bits(),
            self.average_slowdown.to_bits(),
        ]
    }

    /// Bit-pattern equality (NaN-safe, unlike the derived `PartialEq`,
    /// whose float semantics made a re-inserted NaN cell compare unequal to
    /// itself and kept its shard perpetually dirty).
    #[must_use]
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

#[derive(Default)]
struct Shard {
    cells: HashMap<u128, CellMetrics>,
    /// Entries added since the last flush.
    dirty: bool,
}

/// In-memory cell store with an optional on-disk shard directory. All
/// methods take `&self` and are safe to call from any fan-out thread.
pub struct CellCache {
    shards: Vec<Mutex<Shard>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Cells loaded from disk at open time (pre-warm size).
    resumed: usize,
}

impl std::fmt::Debug for CellCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellCache")
            .field("dir", &self.dir)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl CellCache {
    /// A purely in-memory cache (no persistence): deduplicates cells within
    /// one process, e.g. a µ-sweep sharing cells with a campaign.
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resumed: 0,
        }
    }

    /// Opens (creating if needed) an on-disk cache at `dir`.
    ///
    /// With `resume = true`, previously flushed shards are loaded and their
    /// cells served as hits. With `resume = false` the directory's shard
    /// files are deleted first: the run starts cold and overwrites the
    /// store — the `--no-resume` escape hatch for a cache suspected stale.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/removal failures. Unreadable or
    /// corrupt shard *files* are not errors: they are skipped with a
    /// warning on stderr and recomputed.
    pub fn open(dir: impl Into<PathBuf>, resume: bool) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut cache = Self {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            dir: Some(dir.clone()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resumed: 0,
        };
        // Stale temporaries are debris from a kill mid-flush; the rename
        // never happened, so their contents are already recomputable.
        remove_stale_temporaries(&dir)?;
        if resume {
            let mut resumed = 0;
            for index in 0..SHARD_COUNT {
                resumed += cache.load_shard(&dir, index);
            }
            cache.resumed = resumed;
        } else {
            for index in 0..SHARD_COUNT {
                let path = shard_path(&dir, index);
                if path.exists() {
                    std::fs::remove_file(&path)?;
                }
            }
        }
        Ok(cache)
    }

    /// The backing directory, if the cache is persistent.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of cells currently held in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).cells.len()).sum()
    }

    /// Whether the cache holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cells loaded from disk when the cache was opened.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Number of successful lookups so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of failed lookups so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Looks up a cell, counting the hit or miss.
    #[must_use]
    pub fn lookup(&self, key: CellDigest) -> Option<CellMetrics> {
        let found = lock(&self.shards[key.shard(SHARD_COUNT)])
            .cells
            .get(&key.0)
            .copied();
        match found {
            Some(_) => {
                mcsched_obs::counter!("cache.hit").inc();
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => {
                mcsched_obs::counter!("cache.miss").inc();
                self.misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        found
    }

    /// Stores a cell. Non-finite metrics are stored too (they serialize
    /// through the lossless bit-pattern sentinel). The shard only becomes
    /// dirty when the stored *bit patterns* change: re-inserting an
    /// identical value — NaN included — never triggers a rewrite.
    pub fn insert(&self, key: CellDigest, metrics: CellMetrics) {
        let mut shard = lock(&self.shards[key.shard(SHARD_COUNT)]);
        let changed = match shard.cells.insert(key.0, metrics) {
            Some(previous) => !previous.bits_eq(&metrics),
            None => true,
        };
        if changed {
            shard.dirty = true;
        }
    }

    /// One-line human summary (`N cells, H hits, M misses[, dir]`), printed
    /// by campaigns on completion so cache effectiveness is observable.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} cells, {} hits, {} misses",
            self.len(),
            self.hits(),
            self.misses()
        );
        if let Some(dir) = &self.dir {
            line.push_str(&format!(" ({})", dir.display()));
        }
        line
    }

    /// Flushes every dirty shard to disk (no-op for in-memory caches and
    /// clean shards). Each shard is written to `shard-XX.json.tmp` and
    /// atomically renamed, so readers and killed writers never observe a
    /// torn file. Campaigns call this after every completed data point —
    /// that is the resume grain. A dirty shard is rewritten in full, so a
    /// campaign's total flush I/O is O(data points × store size); with the
    /// paper-scale store at a few hundred kilobytes and at most a few
    /// dozen data points per run, that is megabytes against tens of
    /// seconds of evaluation — switch to per-shard append logs only if a
    /// future workload grows the store by orders of magnitude.
    ///
    /// # Errors
    ///
    /// Aggregates I/O failures: **every** dirty shard is attempted even
    /// when an earlier one fails (an early version returned on the first
    /// error, abandoning all later shards unflushed and leaving the failed
    /// shard's temporary behind), failed temporaries are removed, and the
    /// returned error names every shard that could not be written. Shards
    /// that failed stay dirty, so a later flush retries them. Callers
    /// downgrade the error to a warning: a cache that cannot persist costs
    /// recomputation, not correctness.
    pub fn flush(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut failures: Vec<String> = Vec::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let mut shard = lock(shard);
            if !shard.dirty {
                continue;
            }
            let path = shard_path(dir, index);
            let tmp = path.with_extension("json.tmp");
            let written = std::fs::write(&tmp, render_shard(&shard.cells))
                .and_then(|()| std::fs::rename(&tmp, &path));
            match written {
                Ok(()) => {
                    shard.dirty = false;
                    mcsched_obs::counter!("cache.shard_write").inc();
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    failures.push(format!("{}: {e}", path.display()));
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "{} shard flush(es) failed: {}",
                failures.len(),
                failures.join("; ")
            )))
        }
    }

    /// Loads one shard file into memory, returning the number of cells
    /// recovered (0 for missing/corrupt files).
    fn load_shard(&mut self, dir: &Path, index: usize) -> usize {
        let path = shard_path(dir, index);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return 0,
            Err(e) => {
                mcsched_obs::counter!("cache.corrupt_shard").inc();
                eprintln!(
                    "warning: cell cache: cannot read {} ({e}); its cells will be recomputed",
                    path.display()
                );
                return 0;
            }
        };
        match parse_shard(&text) {
            Ok((cells, skipped)) => {
                if skipped > 0 {
                    mcsched_obs::counter!("cache.corrupt_cell").add(skipped as u64);
                    eprintln!(
                        "warning: cell cache: {} skipped {skipped} malformed cell record(s); \
                         they will be recomputed",
                        path.display()
                    );
                }
                let count = cells.len();
                let shard = self.shards[index]
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner);
                shard.cells = cells;
                count
            }
            Err(reason) => {
                mcsched_obs::counter!("cache.corrupt_shard").inc();
                eprintln!(
                    "warning: cell cache: ignoring {} ({reason}); its cells will be recomputed",
                    path.display()
                );
                0
            }
        }
    }
}

fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:02x}.json"))
}

/// Removes temporaries left by a flush killed before its atomic rename.
/// Only files matching the cache's own `shard-*.json.tmp` naming are
/// touched — `--cache-dir` may point at a directory holding unrelated
/// `*.tmp` files the cache must never delete.
fn remove_stale_temporaries(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let ours = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".json.tmp"));
        if ours {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Serializes one metric field. Finite values become shortest-round-trip
/// numeric tokens (bit-exact through the raw-token parser); non-finite
/// values have no JSON literal and become the lossless bit-pattern sentinel
/// `"bits:<16 hex digits>"` (an early version fed them to the numeric
/// formatter, producing an invalid `NaN` token that poisoned its shard).
fn render_f64_cell(value: f64) -> Json {
    if value.is_finite() {
        Json::num_f64(value)
    } else {
        Json::Str(format!("bits:{:016x}", value.to_bits()))
    }
}

/// Parses a metric field written by [`render_f64_cell`]: a numeric token
/// (any finite value, recovered from the raw token text) or the
/// `"bits:<16 hex digits>"` sentinel (recovered by exact bit pattern).
fn parse_f64_cell(value: &Json) -> Option<f64> {
    if let Some(v) = value.as_f64() {
        return Some(v);
    }
    let hex = value.as_str()?.strip_prefix("bits:")?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

/// Serializes a shard. Cells are emitted in key order so flushing the same
/// content always produces the same bytes (shard files diff cleanly).
fn render_shard(cells: &HashMap<u128, CellMetrics>) -> String {
    let mut keys: Vec<&u128> = cells.keys().collect();
    keys.sort_unstable();
    let entries: Vec<Json> = keys
        .into_iter()
        .map(|key| {
            let m = &cells[key];
            Json::Obj(vec![
                ("key".into(), Json::Str(CellDigest(*key).to_hex())),
                ("unfairness".into(), render_f64_cell(m.unfairness)),
                ("makespan".into(), render_f64_cell(m.makespan)),
                (
                    "average_slowdown".into(),
                    render_f64_cell(m.average_slowdown),
                ),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("version".into(), Json::num_u64(FORMAT_VERSION)),
        ("salt".into(), Json::Str(CACHE_SALT.to_string())),
        ("cells".into(), Json::Arr(entries)),
    ]);
    let mut text = doc.render();
    text.push('\n');
    text
}

/// Parses a shard document, returning the recovered cells and the number of
/// individually malformed entries that were skipped. Failures of the
/// *document* (unparseable JSON, wrong version, wrong salt, no `cells`
/// array) still reject the whole shard — those checks guard the contract,
/// not one record. But within a structurally valid document, recovery is
/// **per cell**: a malformed entry is skipped and counted while every good
/// entry is served (an early version discarded the whole shard on one bad
/// record, silently recomputing everything).
fn parse_shard(text: &str) -> Result<(HashMap<u128, CellMetrics>, usize), String> {
    let doc = Json::parse(text)?;
    let version = doc.get("version").and_then(Json::as_u64);
    if version != Some(FORMAT_VERSION) {
        return Err(format!(
            "unsupported cache format version {version:?} (expected {FORMAT_VERSION})"
        ));
    }
    let salt = doc.get("salt").and_then(Json::as_str);
    if salt != Some(CACHE_SALT) {
        return Err(format!(
            "cache salt {salt:?} does not match this build's `{CACHE_SALT}`"
        ));
    }
    let entries = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing `cells` array")?;
    let mut cells = HashMap::with_capacity(entries.len());
    let mut skipped = 0usize;
    for entry in entries {
        let parsed = entry
            .get("key")
            .and_then(Json::as_str)
            .and_then(CellDigest::from_hex)
            .and_then(|key| {
                let field = |name: &str| entry.get(name).and_then(parse_f64_cell);
                Some((
                    key,
                    CellMetrics {
                        unfairness: field("unfairness")?,
                        makespan: field("makespan")?,
                        average_slowdown: field("average_slowdown")?,
                    },
                ))
            });
        match parsed {
            Some((key, metrics)) => {
                cells.insert(key.0, metrics);
            }
            None => skipped += 1,
        }
    }
    Ok((cells, skipped))
}

/// What [`merge_cache_dirs`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeReport {
    /// Source directories read (the destination, when it already held
    /// cells, counts as one).
    pub sources: usize,
    /// Total distinct cells in the merged destination.
    pub cells: usize,
    /// Cells the merge added beyond what the destination already held.
    pub added: usize,
    /// Cells seen more than once across sources (bit-identical, or the
    /// merge would have aborted with [`MergeError::Conflict`]).
    pub duplicates: usize,
    /// Individually malformed cell records skipped across all sources.
    pub skipped: usize,
}

impl MergeReport {
    /// One-line human summary of the merge.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "merged {} source dir(s): {} cells ({} added, {} duplicate(s), {} skipped record(s))",
            self.sources, self.cells, self.added, self.duplicates, self.skipped
        )
    }
}

/// Why a merge refused to produce a destination.
#[derive(Debug)]
pub enum MergeError {
    /// Filesystem failure reading a source or writing the destination.
    Io(io::Error),
    /// A source shard file exists but is not a cache shard this build can
    /// trust: unparseable JSON, wrong format version, or — most commonly —
    /// a [`CACHE_SALT`] from different scheduling semantics. Unlike resume
    /// (which warns and recomputes), merge treats this as a hard error: a
    /// merge output must never silently omit a source the caller named.
    Incompatible {
        /// The offending shard file.
        path: PathBuf,
        /// The parser's rejection reason.
        reason: String,
    },
    /// Two sources map the same digest to *different* metrics. Content
    /// addressing makes this impossible for honest caches of the same code
    /// version, so it always indicates a real problem (mixed builds, a
    /// corrupted store, or hand-edited files) — the merge aborts naming
    /// both files rather than pick a winner.
    Conflict {
        /// The digest both sources claim.
        digest: CellDigest,
        /// The shard file whose value was seen first.
        first: PathBuf,
        /// The shard file that disagreed.
        second: PathBuf,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "merge I/O failure: {e}"),
            Self::Incompatible { path, reason } => {
                write!(f, "incompatible source shard {}: {reason}", path.display())
            }
            Self::Conflict {
                digest,
                first,
                second,
            } => write!(
                f,
                "merge conflict: digest {digest} has different metrics in {} and {}",
                first.display(),
                second.display()
            ),
        }
    }
}

impl std::error::Error for MergeError {}

impl From<io::Error> for MergeError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Unions any number of cache directories into `dest` — the collection step
/// of a sharded campaign (`--shard i/N` processes filling disjoint dirs,
/// then one `mcsched-exp merge`). If `dest` already holds cells it acts as an
/// implicit additional source (so merging *into* a partial cache — e.g. to
/// pre-populate a re-sharded run — works), and merging is idempotent: a
/// digest may appear in any number of sources as long as every occurrence
/// is bit-identical. The destination is rewritten with the same key-sorted
/// deterministic rendering as a flush, so merging the disjoint caches of a
/// sharded campaign yields a directory **byte-identical** to the one a
/// single unsharded run would have written.
///
/// Individually malformed cell records inside structurally valid source
/// shards are skipped and counted (same per-cell recovery as resume);
/// missing shard files are simply empty. Sources may be given in any order
/// without changing the result.
///
/// # Errors
///
/// [`MergeError::Io`] on filesystem failures, [`MergeError::Incompatible`]
/// when a shard file is unparseable or carries a foreign salt/version, and
/// [`MergeError::Conflict`] when two sources disagree on a digest's metrics
/// (both file paths are named; nothing is written).
pub fn merge_cache_dirs(sources: &[PathBuf], dest: &Path) -> Result<MergeReport, MergeError> {
    // Union in memory first: conflicts must abort before any byte of the
    // destination changes.
    let mut merged: HashMap<u128, (CellMetrics, PathBuf)> = HashMap::new();
    let mut duplicates = 0usize;
    let mut skipped = 0usize;
    let mut read_sources = 0usize;
    let mut dest_cells = 0usize;

    let mut absorb = |dir: &Path,
                      merged: &mut HashMap<u128, (CellMetrics, PathBuf)>|
     -> Result<(usize, usize), MergeError> {
        let mut absorbed = 0usize;
        let mut present = 0usize;
        for index in 0..SHARD_COUNT {
            let path = shard_path(dir, index);
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(MergeError::Io(e)),
            };
            present += 1;
            let (cells, bad) = parse_shard(&text).map_err(|reason| MergeError::Incompatible {
                path: path.clone(),
                reason,
            })?;
            skipped += bad;
            for (key, metrics) in cells {
                match merged.entry(key) {
                    std::collections::hash_map::Entry::Occupied(seen) => {
                        let (existing, first) = seen.get();
                        if !existing.bits_eq(&metrics) {
                            mcsched_obs::counter!("cache.merge.conflict").inc();
                            return Err(MergeError::Conflict {
                                digest: CellDigest(key),
                                first: first.clone(),
                                second: path.clone(),
                            });
                        }
                        duplicates += 1;
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert((metrics, path.clone()));
                        absorbed += 1;
                    }
                }
            }
        }
        Ok((absorbed, present))
    };

    if dest.is_dir() {
        let (absorbed, present) = absorb(dest, &mut merged)?;
        dest_cells = absorbed;
        if present > 0 {
            read_sources += 1;
        }
    }
    for source in sources {
        let (_, present) = absorb(source, &mut merged)?;
        if present > 0 {
            read_sources += 1;
        }
    }

    // Regroup by file shard and write with the flush rendering. Only
    // non-empty shards get a file — exactly what an unsharded run's
    // flush-on-dirty policy produces, preserving byte-identical dirs.
    std::fs::create_dir_all(dest).map_err(MergeError::Io)?;
    let mut by_shard: Vec<HashMap<u128, CellMetrics>> =
        (0..SHARD_COUNT).map(|_| HashMap::new()).collect();
    for (key, (metrics, _)) in &merged {
        by_shard[CellDigest(*key).shard(SHARD_COUNT)].insert(*key, *metrics);
    }
    for (index, cells) in by_shard.iter().enumerate() {
        if cells.is_empty() {
            continue;
        }
        let path = shard_path(dest, index);
        let tmp = path.with_extension("json.tmp");
        let written =
            std::fs::write(&tmp, render_shard(cells)).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(MergeError::Io(e));
        }
    }

    let report = MergeReport {
        sources: read_sources,
        cells: merged.len(),
        added: merged.len() - dest_cells,
        duplicates,
        skipped,
    };
    mcsched_obs::counter!("cache.merge.sources").add(report.sources as u64);
    mcsched_obs::counter!("cache.merge.cells").add(report.cells as u64);
    mcsched_obs::counter!("cache.merge.added").add(report.added as u64);
    mcsched_obs::counter!("cache.merge.duplicates").add(report.duplicates as u64);
    mcsched_obs::note!("cell cache: {}", report.summary());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestBuilder;

    /// A unique temporary directory, removed on drop.
    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            static UNIQUE: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "mcsched-cache-test-{tag}-{}-{}",
                std::process::id(),
                UNIQUE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            Self(path)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn key(tag: u64) -> CellDigest {
        DigestBuilder::new().u64(tag).finish()
    }

    fn metrics(base: f64) -> CellMetrics {
        CellMetrics {
            unfairness: base,
            makespan: base * 10.0,
            average_slowdown: base / 3.0,
        }
    }

    #[test]
    fn in_memory_round_trip_counts_hits_and_misses() {
        let cache = CellCache::in_memory();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(key(1)), None);
        cache.insert(key(1), metrics(0.25));
        assert_eq!(cache.lookup(key(1)), Some(metrics(0.25)));
        assert_eq!(cache.lookup(key(2)), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.flush().is_ok(), "in-memory flush is a no-op");
        assert!(cache.summary().contains("1 cells, 1 hits, 2 misses"));
    }

    #[test]
    fn disk_round_trip_is_bit_exact() {
        let dir = TempDir::new("roundtrip");
        // Values chosen to stress shortest-round-trip formatting.
        let awkward = CellMetrics {
            unfairness: 0.1 + 0.2,
            makespan: 1.0 / 3.0,
            average_slowdown: 1.2345678901234567e-300,
        };
        {
            let cache = CellCache::open(dir.path(), true).unwrap();
            cache.insert(key(7), awkward);
            cache.flush().unwrap();
        }
        let cache = CellCache::open(dir.path(), true).unwrap();
        assert_eq!(cache.resumed(), 1);
        let loaded = cache.lookup(key(7)).unwrap();
        assert_eq!(loaded.unfairness.to_bits(), awkward.unfairness.to_bits());
        assert_eq!(loaded.makespan.to_bits(), awkward.makespan.to_bits());
        assert_eq!(
            loaded.average_slowdown.to_bits(),
            awkward.average_slowdown.to_bits()
        );
    }

    #[test]
    fn no_resume_clears_the_store() {
        let dir = TempDir::new("noresume");
        {
            let cache = CellCache::open(dir.path(), true).unwrap();
            cache.insert(key(1), metrics(1.0));
            cache.flush().unwrap();
        }
        let cache = CellCache::open(dir.path(), false).unwrap();
        assert_eq!(cache.resumed(), 0);
        assert_eq!(cache.lookup(key(1)), None);
        // And the files really are gone, not just unloaded.
        let reopened = CellCache::open(dir.path(), true).unwrap();
        assert_eq!(reopened.resumed(), 0);
    }

    #[test]
    fn corrupt_and_truncated_shards_are_tolerated() {
        let dir = TempDir::new("corrupt");
        {
            let cache = CellCache::open(dir.path(), true).unwrap();
            cache.insert(key(1), metrics(1.0));
            cache.insert(key(2), metrics(2.0));
            cache.flush().unwrap();
        }
        // Truncate every shard that exists to simulate a torn write that
        // somehow bypassed the atomic rename, and drop in a stale temp.
        let mut damaged = 0;
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            damaged += 1;
        }
        assert!(damaged > 0);
        std::fs::write(dir.path().join("shard-00.json.tmp"), "garbage").unwrap();
        // A foreign temporary in the same directory is not the cache's to
        // delete.
        std::fs::write(dir.path().join("notes.tmp"), "user data").unwrap();
        let cache = CellCache::open(dir.path(), true).unwrap();
        assert_eq!(
            cache.resumed(),
            0,
            "damaged shards are skipped, not trusted"
        );
        assert!(
            !dir.path().join("shard-00.json.tmp").exists(),
            "stale temp removed"
        );
        assert!(
            dir.path().join("notes.tmp").exists(),
            "unrelated .tmp files are left alone"
        );
        // The cache still works for new inserts.
        cache.insert(key(3), metrics(3.0));
        cache.flush().unwrap();
        let reopened = CellCache::open(dir.path(), true).unwrap();
        assert_eq!(reopened.lookup(key(3)), Some(metrics(3.0)));
    }

    #[test]
    fn salt_mismatch_invalidates_wholesale() {
        let dir = TempDir::new("salt");
        {
            let cache = CellCache::open(dir.path(), true).unwrap();
            cache.insert(key(4), metrics(4.0));
            cache.flush().unwrap();
        }
        // Rewrite the salt in place: the shard must be ignored.
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replace(CACHE_SALT, "mcsched-cells-v0")).unwrap();
        }
        let cache = CellCache::open(dir.path(), true).unwrap();
        assert_eq!(cache.resumed(), 0);
        assert_eq!(cache.lookup(key(4)), None);
    }

    #[test]
    fn non_finite_metrics_round_trip_bit_exactly() {
        // NaN (a non-canonical payload, to prove losslessness), +∞, -0.0:
        // all must survive a flush/reload by exact bit pattern. An early
        // version emitted `NaN` as a raw token, which poisoned the whole
        // shard at parse time.
        let dir = TempDir::new("nonfinite");
        let weird = CellMetrics {
            unfairness: f64::from_bits(0x7ff8_0000_0000_beef),
            makespan: f64::INFINITY,
            average_slowdown: -0.0,
        };
        {
            let cache = CellCache::open(dir.path(), true).unwrap();
            cache.insert(key(9), weird);
            cache.insert(key(10), metrics(1.0));
            cache.flush().unwrap();
        }
        let cache = CellCache::open(dir.path(), true).unwrap();
        assert_eq!(cache.resumed(), 2, "NaN no longer poisons its shard");
        let loaded = cache.lookup(key(9)).unwrap();
        assert_eq!(loaded.to_bits(), weird.to_bits());
        assert_eq!(cache.lookup(key(10)), Some(metrics(1.0)));
    }

    #[test]
    fn reinserting_nan_does_not_keep_the_shard_dirty() {
        let dir = TempDir::new("nandirty");
        let nan = CellMetrics {
            unfairness: f64::NAN,
            makespan: 2.0,
            average_slowdown: 3.0,
        };
        let cache = CellCache::open(dir.path(), true).unwrap();
        cache.insert(key(1), nan);
        cache.flush().unwrap();
        let path = {
            let mut files: Vec<_> = std::fs::read_dir(dir.path())
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            assert_eq!(files.len(), 1);
            files.remove(0)
        };
        let before = std::fs::metadata(&path).unwrap().modified().unwrap();
        // Under the old float-`PartialEq` dirtiness check, NaN != NaN made
        // this re-insert mark the shard dirty and rewrite it every flush.
        cache.insert(key(1), nan);
        cache.flush().unwrap();
        let after = std::fs::metadata(&path).unwrap().modified().unwrap();
        assert_eq!(before, after, "identical re-insert must not rewrite");
    }

    #[test]
    fn malformed_records_are_skipped_per_cell() {
        let dir = TempDir::new("percell");
        let good_a = key(1);
        let good_b = key(2);
        std::fs::write(
            shard_path(dir.path(), good_a.shard(SHARD_COUNT)),
            format!(
                "{{\"version\":1,\"salt\":\"{CACHE_SALT}\",\"cells\":[\
                 {{\"key\":\"{}\",\"unfairness\":0.5,\"makespan\":10,\"average_slowdown\":2}},\
                 {{\"key\":\"not-hex\",\"unfairness\":1,\"makespan\":1,\"average_slowdown\":1}},\
                 {{\"key\":\"{}\",\"unfairness\":\"bits:zzzz\",\"makespan\":1,\"average_slowdown\":1}},\
                 {{\"key\":\"{}\",\"unfairness\":\"bits:+7ff800000000000\",\"makespan\":1,\"average_slowdown\":1}}\
                 ]}}",
                good_a.to_hex(),
                good_b.to_hex(),
                key(3).to_hex(),
            ),
        )
        .unwrap();
        let cache = CellCache::open(dir.path(), true).unwrap();
        // One good record served; the bad key and the bad sentinels skipped.
        // (good_b shares good_a's file shard only by luck of the digest; it
        // is in this shard file regardless because we wrote it there, and a
        // lookup only consults the file shard its digest maps to — so only
        // assert on resumed + good_a.)
        assert_eq!(cache.resumed(), 1, "good records survive bad neighbours");
        assert_eq!(
            cache.lookup(good_a),
            Some(CellMetrics {
                unfairness: 0.5,
                makespan: 10.0,
                average_slowdown: 2.0
            })
        );
    }

    #[test]
    fn merge_unions_disjoint_dirs_byte_identically() {
        let a = TempDir::new("merge-a");
        let b = TempDir::new("merge-b");
        let all = TempDir::new("merge-all");
        let dest = TempDir::new("merge-dest");
        // Split ten cells across two dirs; write the union to a third.
        {
            let ca = CellCache::open(a.path(), true).unwrap();
            let cb = CellCache::open(b.path(), true).unwrap();
            let call = CellCache::open(all.path(), true).unwrap();
            for tag in 0..10u64 {
                let m = metrics(tag as f64 + 0.5);
                call.insert(key(tag), m);
                if key(tag).partition(2) == 0 {
                    ca.insert(key(tag), m);
                } else {
                    cb.insert(key(tag), m);
                }
            }
            ca.flush().unwrap();
            cb.flush().unwrap();
            call.flush().unwrap();
        }
        let report = merge_cache_dirs(
            &[a.path().to_path_buf(), b.path().to_path_buf()],
            dest.path(),
        )
        .unwrap();
        assert_eq!(report.cells, 10);
        assert_eq!(report.added, 10);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.skipped, 0);
        // Byte-identical to the directory the unsharded cache wrote.
        let listing = |p: &Path| -> Vec<(String, String)> {
            let mut files: Vec<_> = std::fs::read_dir(p)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
                .into_iter()
                .map(|f| {
                    (
                        f.file_name().unwrap().to_string_lossy().into_owned(),
                        std::fs::read_to_string(&f).unwrap(),
                    )
                })
                .collect()
        };
        assert_eq!(listing(dest.path()), listing(all.path()));
        // Idempotent: merging the same sources again adds nothing and the
        // bytes do not change.
        let again = merge_cache_dirs(
            &[a.path().to_path_buf(), b.path().to_path_buf()],
            dest.path(),
        )
        .unwrap();
        assert_eq!(again.added, 0);
        assert_eq!(again.duplicates, 10);
        assert_eq!(listing(dest.path()), listing(all.path()));
    }

    #[test]
    fn merge_conflict_names_both_sources() {
        let a = TempDir::new("conflict-a");
        let b = TempDir::new("conflict-b");
        let dest = TempDir::new("conflict-dest");
        {
            let ca = CellCache::open(a.path(), true).unwrap();
            ca.insert(key(5), metrics(1.0));
            ca.flush().unwrap();
            let cb = CellCache::open(b.path(), true).unwrap();
            cb.insert(key(5), metrics(2.0));
            cb.flush().unwrap();
        }
        let err = merge_cache_dirs(
            &[a.path().to_path_buf(), b.path().to_path_buf()],
            dest.path(),
        )
        .unwrap_err();
        match err {
            MergeError::Conflict {
                digest,
                first,
                second,
            } => {
                assert_eq!(digest, key(5));
                assert!(first.starts_with(a.path()));
                assert!(second.starts_with(b.path()));
            }
            other => panic!("expected Conflict, got {other}"),
        }
        // Nothing was written: the destination stays empty.
        assert_eq!(std::fs::read_dir(dest.path()).unwrap().count(), 0);
    }

    #[test]
    fn merge_rejects_foreign_salt_sources() {
        let a = TempDir::new("salt-a");
        let dest = TempDir::new("salt-dest");
        {
            let ca = CellCache::open(a.path(), true).unwrap();
            ca.insert(key(3), metrics(3.0));
            ca.flush().unwrap();
        }
        for entry in std::fs::read_dir(a.path()).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replace(CACHE_SALT, "mcsched-cells-v0")).unwrap();
        }
        let err = merge_cache_dirs(&[a.path().to_path_buf()], dest.path()).unwrap_err();
        assert!(
            matches!(err, MergeError::Incompatible { .. }),
            "foreign salt must be a hard error for merge, got {err}"
        );
    }

    #[test]
    fn merge_treats_existing_destination_as_source() {
        let a = TempDir::new("into-a");
        let dest = TempDir::new("into-dest");
        {
            let cd = CellCache::open(dest.path(), true).unwrap();
            cd.insert(key(1), metrics(1.0));
            cd.flush().unwrap();
            let ca = CellCache::open(a.path(), true).unwrap();
            ca.insert(key(2), metrics(2.0));
            ca.flush().unwrap();
        }
        let report = merge_cache_dirs(&[a.path().to_path_buf()], dest.path()).unwrap();
        assert_eq!(report.cells, 2);
        assert_eq!(report.added, 1, "dest's own cell is not `added`");
        let merged = CellCache::open(dest.path(), true).unwrap();
        assert_eq!(merged.lookup(key(1)), Some(metrics(1.0)));
        assert_eq!(merged.lookup(key(2)), Some(metrics(2.0)));
    }

    #[test]
    fn flush_is_incremental_and_deterministic() {
        let dir = TempDir::new("incremental");
        let cache = CellCache::open(dir.path(), true).unwrap();
        cache.insert(key(1), metrics(1.0));
        cache.flush().unwrap();
        let snapshot = |p: &Path| -> Vec<(String, String)> {
            let mut files: Vec<_> = std::fs::read_dir(p)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
                .into_iter()
                .map(|f| {
                    (
                        f.file_name().unwrap().to_string_lossy().into_owned(),
                        std::fs::read_to_string(&f).unwrap(),
                    )
                })
                .collect()
        };
        let first = snapshot(dir.path());
        // A clean flush rewrites nothing; re-inserting the same value keeps
        // the shard clean too.
        cache.flush().unwrap();
        cache.insert(key(1), metrics(1.0));
        cache.flush().unwrap();
        assert_eq!(snapshot(dir.path()), first);
        // Same content written through a different insertion order produces
        // identical bytes (entries are key-sorted).
        let other = TempDir::new("incremental-b");
        let b = CellCache::open(other.path(), true).unwrap();
        b.insert(key(1), metrics(1.0));
        b.flush().unwrap();
        assert_eq!(snapshot(other.path()), first);
    }

    #[test]
    fn resumed_counts_only_entries_of_this_salt_and_version() {
        let dir = TempDir::new("version");
        std::fs::write(
            shard_path(dir.path(), 0),
            format!("{{\"version\":99,\"salt\":\"{CACHE_SALT}\",\"cells\":[]}}"),
        )
        .unwrap();
        let cache = CellCache::open(dir.path(), true).unwrap();
        assert_eq!(cache.resumed(), 0);
    }
}
