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
//! ## Loading on several threads
//!
//! [`CellCache::open_with_threads`] reads and parses the 16 shard files
//! through one [`run_indexed`] fan-out, one task per file. Each task only
//! returns what it found; the cells are installed and the counters and
//! warnings emitted afterwards, in shard order, so a cache opened at any
//! thread count holds the same cells and reports the same way.
//! [`CellCache::open`] loads on the calling thread alone, and so does a
//! campaign at `--threads 1`. [`merge_cache_dirs`] stays serial: writing
//! its files in parallel made it slower.
//!
//! ## Reading and writing a shard
//!
//! No `Json` tree is built for a shard. The writer lays the bytes out by
//! hand, as the Chrome trace and journal exporters do, quoting through the
//! codec's `write_str`. The reader walks the document through the codec's
//! one [`Tokenizer`] and decodes each entry straight into the map. It
//! accepts exactly what a lookup in the parsed tree would: the whole text
//! must be valid JSON, and the first of each repeated member counts. A
//! unit test keeps that tree lookup as the reference and compares the two
//! on non-canonical documents.
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
use crate::pool::run_indexed;
use mcsched_obs::json::{write_str, Token, Tokenizer};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
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
        Self::open_with_threads(dir, resume, 1)
    }

    /// [`CellCache::open`] that reads and parses the shard files on up to
    /// `threads` threads (`0` = one per core) through [`run_indexed`].
    /// Counters and warnings are emitted after the fan-out, in shard order,
    /// so they do not depend on the thread count; one thread spawns
    /// nothing.
    ///
    /// # Errors
    ///
    /// As [`CellCache::open`].
    pub fn open_with_threads(
        dir: impl Into<PathBuf>,
        resume: bool,
        threads: usize,
    ) -> io::Result<Self> {
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
            for (shard, load) in cache.shards.iter_mut().zip(load_shards(&dir, threads)) {
                if load.corrupt_shard {
                    mcsched_obs::counter!("cache.corrupt_shard").inc();
                }
                mcsched_obs::counter!("cache.corrupt_cell").add(load.corrupt_cells as u64);
                if let Some(warning) = &load.warning {
                    eprintln!("warning: cell cache: {warning}");
                }
                cache.resumed += load.cells.len();
                shard
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .cells = load.cells;
            }
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

    /// Every cell held in memory, in no particular order.
    #[must_use]
    pub fn cells(&self) -> Vec<(CellDigest, CellMetrics)> {
        let mut cells = Vec::new();
        for shard in &self.shards {
            cells.extend(lock(shard).cells.iter().map(|(k, m)| (CellDigest(*k), *m)));
        }
        cells
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
            let cells = shard.cells.iter().map(|(k, m)| (*k, *m)).collect();
            let written = std::fs::write(&tmp, render_shard(cells))
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
}

/// What loading one shard file found: the cells it recovered and what the
/// load reports about the file.
struct ShardLoad {
    cells: HashMap<u128, CellMetrics>,
    /// The file exists but could not be read or parsed.
    corrupt_shard: bool,
    /// Malformed cell records skipped in a readable file.
    corrupt_cells: usize,
    /// The warning the load prints, without its `cell cache:` prefix.
    warning: Option<String>,
}

/// Reads and parses the shard files of `dir` on up to `threads` threads,
/// one result per shard in shard order. A missing file loads as an empty
/// shard.
fn load_shards(dir: &Path, threads: usize) -> Vec<ShardLoad> {
    run_indexed(threads, SHARD_COUNT, |index| {
        let path = shard_path(dir, index);
        let mut load = ShardLoad {
            cells: HashMap::new(),
            corrupt_shard: false,
            corrupt_cells: 0,
            warning: None,
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return load,
            Err(e) => {
                load.corrupt_shard = true;
                load.warning = Some(format!(
                    "cannot read {} ({e}); its cells will be recomputed",
                    path.display()
                ));
                return load;
            }
        };
        match parse_shard(&text) {
            Ok((cells, skipped)) => {
                load.cells = cells;
                load.corrupt_cells = skipped;
                if skipped > 0 {
                    load.warning = Some(format!(
                        "{} skipped {skipped} malformed cell record(s); they will be recomputed",
                        path.display()
                    ));
                }
            }
            Err(reason) => {
                load.corrupt_shard = true;
                load.warning = Some(format!(
                    "ignoring {} ({reason}); its cells will be recomputed",
                    path.display()
                ));
            }
        }
        load
    })
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

/// Appends one metric field. Finite values become shortest-round-trip
/// numeric tokens (bit-exact through the raw-token parser); non-finite
/// values have no JSON literal and become the lossless bit-pattern sentinel
/// `"bits:<16 hex digits>"` (an early version fed them to the numeric
/// formatter, producing an invalid `NaN` token that poisoned its shard).
fn write_f64_cell(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        let _ = write!(out, "\"bits:{:016x}\"", value.to_bits());
    }
}

/// Decodes a metric field written by [`write_f64_cell`] from its token: a
/// number (any finite value, recovered from the raw token text) or the
/// `"bits:<16 hex digits>"` sentinel (recovered by exact bit pattern).
fn parse_f64_cell(token: &Token<'_>) -> Option<f64> {
    match token {
        Token::Num(raw) => raw.parse().ok(),
        Token::Str(text) => {
            let hex = text.strip_prefix("bits:")?;
            if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
        }
        _ => None,
    }
}

/// Serializes a shard. Cells are emitted in key order so flushing the same
/// content always produces the same bytes (shard files diff cleanly). The
/// layout is `{"version":1,"salt":…,"cells":[{"key":…,"unfairness":…,
/// "makespan":…,"average_slowdown":…},…]}` and a newline, compact.
fn render_shard(mut cells: Vec<(u128, CellMetrics)>) -> String {
    cells.sort_unstable_by_key(|&(key, _)| key);
    let mut out = String::with_capacity(64 + 160 * cells.len());
    let _ = write!(out, "{{\"version\":{FORMAT_VERSION},\"salt\":");
    write_str(&mut out, CACHE_SALT);
    out.push_str(",\"cells\":[");
    for (i, (key, m)) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"key\":\"{key:032x}\",\"unfairness\":");
        write_f64_cell(&mut out, m.unfairness);
        out.push_str(",\"makespan\":");
        write_f64_cell(&mut out, m.makespan);
        out.push_str(",\"average_slowdown\":");
        write_f64_cell(&mut out, m.average_slowdown);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Parses a shard document, returning the recovered cells and the number of
/// individually malformed entries that were skipped. Failures of the
/// *document* (invalid JSON anywhere, wrong version, wrong salt, no `cells`
/// array, checked in that order) still reject the whole shard — those
/// checks guard the contract, not one record. But within a structurally
/// valid document, recovery is **per cell**: a malformed entry is skipped
/// and counted while every good entry is served (an early version discarded
/// the whole shard on one bad record, silently recomputing everything).
///
/// The document is walked token by token and each entry decoded straight
/// into the map. As in an object lookup, the first `version`, `salt` and
/// `cells` member counts and so does each entry's first `key`,
/// `unfairness`, `makespan` and `average_slowdown`; every other member is
/// skipped, its syntax still checked.
fn parse_shard(text: &str) -> Result<(HashMap<u128, CellMetrics>, usize), String> {
    let mut tokens = Tokenizer::new(text);
    let mut version: Option<Option<u64>> = None;
    let mut salt: Option<Option<Cow<'_, str>>> = None;
    let mut cells: Option<Option<(HashMap<u128, CellMetrics>, usize)>> = None;
    let first = tokens.next_token()?;
    if first == Token::BeginObject {
        while let Token::Key(name) = tokens.next_token()? {
            let value = tokens.next_token()?;
            match &*name {
                "version" if version.is_none() => {
                    version = Some(match &value {
                        Token::Num(raw) => raw.parse().ok(),
                        _ => None,
                    });
                }
                "salt" if salt.is_none() => {
                    salt = Some(match &value {
                        Token::Str(text) => Some(text.clone()),
                        _ => None,
                    });
                }
                "cells" if cells.is_none() && value == Token::BeginArray => {
                    // A canonical entry takes more than 96 bytes.
                    cells = Some(Some(parse_entries(&mut tokens, text.len() / 96)?));
                    continue;
                }
                "cells" if cells.is_none() => cells = Some(None),
                _ => {}
            }
            tokens.skip_rest(&value)?;
        }
    } else {
        tokens.skip_rest(&first)?;
    }
    tokens.finish()?;
    let version = version.flatten();
    if version != Some(FORMAT_VERSION) {
        return Err(format!(
            "unsupported cache format version {version:?} (expected {FORMAT_VERSION})"
        ));
    }
    let salt = salt.flatten();
    if salt.as_deref() != Some(CACHE_SALT) {
        return Err(format!(
            "cache salt {:?} does not match this build's `{CACHE_SALT}`",
            salt.as_deref()
        ));
    }
    cells
        .flatten()
        .ok_or_else(|| "missing `cells` array".to_string())
}

/// Decodes the entries of a `cells` array whose `[` was just read, through
/// its `]`: the cells and the number of malformed entries skipped.
fn parse_entries(
    tokens: &mut Tokenizer<'_>,
    capacity: usize,
) -> Result<(HashMap<u128, CellMetrics>, usize), String> {
    const FIELDS: [&str; 3] = ["unfairness", "makespan", "average_slowdown"];
    let mut cells = HashMap::with_capacity(capacity);
    let mut skipped = 0usize;
    loop {
        match tokens.next_token()? {
            Token::EndArray => return Ok((cells, skipped)),
            Token::BeginObject => {
                let mut key: Option<Option<CellDigest>> = None;
                let mut fields: [Option<Option<f64>>; 3] = [None; 3];
                while let Token::Key(name) = tokens.next_token()? {
                    let value = tokens.next_token()?;
                    if &*name == "key" {
                        if key.is_none() {
                            key = Some(match &value {
                                Token::Str(hex) => CellDigest::from_hex(hex),
                                _ => None,
                            });
                        }
                    } else if let Some(i) = FIELDS.iter().position(|f| *f == name) {
                        if fields[i].is_none() {
                            fields[i] = Some(parse_f64_cell(&value));
                        }
                    }
                    tokens.skip_rest(&value)?;
                }
                let [unfairness, makespan, average_slowdown] = fields.map(Option::flatten);
                match (key.flatten(), unfairness, makespan, average_slowdown) {
                    (Some(key), Some(unfairness), Some(makespan), Some(average_slowdown)) => {
                        cells.insert(
                            key.0,
                            CellMetrics {
                                unfairness,
                                makespan,
                                average_slowdown,
                            },
                        );
                    }
                    _ => skipped += 1,
                }
            }
            other => {
                tokens.skip_rest(&other)?;
                skipped += 1;
            }
        }
    }
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
    // destination changes. Each cell remembers the index of the shard file
    // it came from in `files`, for a conflict report.
    let mut merged: HashMap<u128, (CellMetrics, usize)> = HashMap::new();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut duplicates = 0usize;
    let mut skipped = 0usize;
    let mut read_sources = 0usize;
    let mut dest_cells = 0usize;

    let mut absorb = |dir: &Path,
                      merged: &mut HashMap<u128, (CellMetrics, usize)>|
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
            let (cells, bad) = match parse_shard(&text) {
                Ok(parsed) => parsed,
                Err(reason) => return Err(MergeError::Incompatible { path, reason }),
            };
            skipped += bad;
            let file = files.len();
            files.push(path);
            for (key, metrics) in cells {
                match merged.entry(key) {
                    std::collections::hash_map::Entry::Occupied(seen) => {
                        let (existing, first) = *seen.get();
                        if !existing.bits_eq(&metrics) {
                            mcsched_obs::counter!("cache.merge.conflict").inc();
                            return Err(MergeError::Conflict {
                                digest: CellDigest(key),
                                first: files[first].clone(),
                                second: files[file].clone(),
                            });
                        }
                        duplicates += 1;
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert((metrics, file));
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
    let mut by_shard: Vec<Vec<(u128, CellMetrics)>> = vec![Vec::new(); SHARD_COUNT];
    for (key, (metrics, _)) in &merged {
        by_shard[CellDigest(*key).shard(SHARD_COUNT)].push((*key, *metrics));
    }
    for (index, cells) in by_shard.into_iter().enumerate() {
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
    fn parallel_load_reports_like_the_serial_one() {
        let dir = TempDir::new("parallel-load");
        let cache = CellCache::open(dir.path(), true).unwrap();
        for i in 0..256 {
            cache.insert(key(i), metrics(i as f64));
        }
        cache.flush().unwrap();
        // One shard is not JSON; another has one malformed cell record.
        std::fs::write(shard_path(dir.path(), 3), "{\"version\":1,").unwrap();
        let path = shard_path(dir.path(), 9);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"key\":\"", "\"key\":\"zz", 1)).unwrap();
        let report = |threads| {
            let loads = load_shards(dir.path(), threads);
            let shards = loads.iter().filter(|l| l.corrupt_shard).count();
            let cells: usize = loads.iter().map(|l| l.corrupt_cells).sum();
            let warnings: Vec<String> = loads.iter().filter_map(|l| l.warning.clone()).collect();
            (shards, cells, warnings)
        };
        let serial = report(1);
        let (shards, cells, warnings) = &serial;
        assert_eq!((*shards, *cells), (1, 1));
        assert_eq!(warnings.len(), 2);
        assert!(warnings[0].contains("shard-03.json"), "{warnings:?}");
        assert!(warnings[1].contains("shard-09.json"), "{warnings:?}");
        assert_eq!(report(2), serial, "counts and warnings in shard order");
        let sorted = |cache: &CellCache| {
            let mut cells: Vec<(u128, [u64; 3])> = cache
                .cells()
                .iter()
                .map(|(k, m)| (k.0, m.to_bits()))
                .collect();
            cells.sort_unstable();
            cells
        };
        let one = CellCache::open(dir.path(), true).unwrap();
        let two = CellCache::open_with_threads(dir.path(), true, 2).unwrap();
        assert_eq!(two.resumed(), one.resumed());
        assert_eq!(one.resumed(), one.len());
        assert!(one.resumed() < 255, "the corrupt shards lose their cells");
        assert_eq!(sorted(&two), sorted(&one));
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

    /// The shard reader before the token walk, kept as the reference: parse
    /// the tree, then look the members up in it.
    fn parse_shard_tree(text: &str) -> Result<(HashMap<u128, CellMetrics>, usize), String> {
        use mcsched_obs::json::Json;
        fn f64_cell(value: &Json) -> Option<f64> {
            if let Some(v) = value.as_f64() {
                return Some(v);
            }
            let hex = value.as_str()?.strip_prefix("bits:")?;
            if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
        }
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
        let mut cells = HashMap::new();
        let mut skipped = 0usize;
        for entry in entries {
            let parsed = entry
                .get("key")
                .and_then(Json::as_str)
                .and_then(CellDigest::from_hex)
                .and_then(|key| {
                    let field = |name: &str| entry.get(name).and_then(f64_cell);
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

    type Outcome = Result<(Vec<(u128, [u64; 3])>, usize), String>;

    /// A reader's result in a comparable form: cells by key, as bits.
    fn outcome(parsed: Result<(HashMap<u128, CellMetrics>, usize), String>) -> Outcome {
        parsed.map(|(cells, skipped)| {
            let mut cells: Vec<_> = cells.into_iter().map(|(k, m)| (k, m.to_bits())).collect();
            cells.sort_unstable();
            (cells, skipped)
        })
    }

    fn assert_readers_agree(text: &str) -> Outcome {
        let streamed = outcome(parse_shard(text));
        assert_eq!(streamed, outcome(parse_shard_tree(text)), "document {text}");
        streamed
    }

    /// `text` with its first `0` written as the escape `0`.
    fn escape_first_zero(text: &str) -> String {
        text.replacen('0', "\\u0030", 1)
    }

    #[test]
    fn shard_walk_matches_the_tree_reader_on_non_canonical_documents() {
        let hex = key(1).to_hex();
        let hex_b = key(2).to_hex();
        let entry =
            format!(r#"{{"key":"{hex}","unfairness":0.5,"makespan":10,"average_slowdown":2}}"#);
        let canonical = format!(r#"{{"version":1,"salt":"{CACHE_SALT}","cells":[{entry}]}}"#);
        let cases = [
            canonical.clone(),
            // Members reordered, and whitespace between every token.
            format!(
                " {{ \"cells\" :\n[ {entry} ,\t{entry} ] ,\r\n\"salt\" : \"{CACHE_SALT}\" , \"version\" : 1 }} \n"
            ),
            // Duplicated top-level members: the first of each counts.
            format!(r#"{{"version":1,"version":2,"salt":"{CACHE_SALT}","salt":"x","cells":[{entry}],"cells":[]}}"#),
            format!(r#"{{"version":2,"version":1,"salt":"{CACHE_SALT}","cells":[]}}"#),
            format!(r#"{{"version":1,"salt":"x","salt":"{CACHE_SALT}","cells":[]}}"#),
            format!(r#"{{"version":1,"salt":"{CACHE_SALT}","cells":{{}},"cells":[{entry}]}}"#),
            format!(r#"{{"version":1,"salt":"{CACHE_SALT}","cells":"[]"}}"#),
            format!(r#"{{"version":1,"salt":"{CACHE_SALT}"}}"#),
            // Escaped keys, member names and salt.
            format!(
                r#"{{"version":1,"salt":"{}","cells":[{{"key":"{}","unfairness":"bits:7ff8000000000000","makespan":1,"average_slowdown":2}}]}}"#,
                escape_first_zero(&CACHE_SALT.replace('m', "\\u006d")),
                escape_first_zero(&hex),
            ),
            // Extra, duplicated and nested fields in entries.
            format!(
                r#"{{"version":1,"salt":"{CACHE_SALT}","note":{{"a":[1,{{"b":null}}]}},"cells":[{{"x":[[]],"key":"{hex}","key":"{hex_b}","unfairness":1,"unfairness":"bits:zz","makespan":2,"average_slowdown":3,"makespan":"4"}}]}}"#
            ),
            // Non-object entries and wrongly typed fields.
            format!(
                r#"{{"version":1,"salt":"{CACHE_SALT}","cells":[[],1,"x",null,true,{{}},{entry},{{"key":7,"unfairness":1,"makespan":1,"average_slowdown":1}},{{"key":"{hex_b}","unfairness":[1],"makespan":1,"average_slowdown":1}},{{"key":"{hex_b}","unfairness":1,"makespan":{{"v":1}},"average_slowdown":false}},{{"key":"{}","unfairness":1,"makespan":1,"average_slowdown":1}}]}}"#,
                hex.to_uppercase()
            ),
            // The same key twice: the later entry wins.
            format!(
                r#"{{"version":1,"salt":"{CACHE_SALT}","cells":[{entry},{{"key":"{hex}","unfairness":1,"makespan":1,"average_slowdown":1}}]}}"#
            ),
            // A wrong version with a wrong salt: the version is reported.
            r#"{"version":3,"salt":"other","cells":[]}"#.to_string(),
            r#"{"version":"1","salt":"other"}"#.to_string(),
            format!(r#"{{"version":1.0,"salt":"{CACHE_SALT}","cells":[]}}"#),
            r#"{"version":1,"salt":7,"cells":[]}"#.to_string(),
            // Documents that are not objects, and ones that are not JSON.
            format!("[{canonical}]"),
            "1".to_string(),
            "\"shard\"".to_string(),
            canonical.replace(":0.5", ":.5"),
            format!("{canonical} x"),
            canonical[..canonical.len() / 2].to_string(),
            format!(r#"{{"version":1,"salt":"{CACHE_SALT}","cells":[],"deep":{}{}}}"#, "[".repeat(200), "]".repeat(200)),
        ];
        for case in &cases {
            let _ = assert_readers_agree(case);
        }
        assert_eq!(
            assert_readers_agree(&cases[2]).map(|(cells, _)| cells.len()),
            Ok(1)
        );
        assert_eq!(
            assert_readers_agree(&cases[12]),
            Err("unsupported cache format version Some(3) (expected 1)".to_string())
        );
        // Every prefix of a non-canonical document, to compare the errors.
        for end in 0..cases[1].len() {
            if cases[1].is_char_boundary(end) {
                let _ = assert_readers_agree(&cases[1][..end]);
            }
        }
    }

    /// SplitMix64, for the generated differential cases.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<'a>(state: &mut u64, options: &[&'a str]) -> &'a str {
        options[next(state) as usize % options.len()]
    }

    /// `items` in a random order.
    fn shuffle(state: &mut u64, items: &mut [String]) {
        for i in (1..items.len()).rev() {
            items.swap(i, next(state) as usize % (i + 1));
        }
    }

    /// A random shard-like document: each of `version`, `salt` and `cells`
    /// most likely present and valid, plus duplicated and foreign members,
    /// in random order, with random whitespace.
    fn gen_shard_doc(state: &mut u64) -> String {
        let ws = |state: &mut u64| pick(state, &["", "", " ", "\n\t "]).to_string();
        let salt = format!("\"{CACHE_SALT}\"");
        let escaped_salt = format!("\"{}\"", escape_first_zero(CACHE_SALT));
        let mut members = Vec::new();
        for slot in 0..3 + next(state) % 3 {
            if slot < 3 && next(state).is_multiple_of(8) {
                continue;
            }
            let (name, value) = match if slot < 3 { slot } else { next(state) % 4 } {
                0 => (
                    "version",
                    pick(state, &["1", "1", "1", "2", "\"1\"", "1e0"]).to_string(),
                ),
                1 => (
                    "salt",
                    pick(state, &[&salt, &salt, &escaped_salt, "\"x\"", "[]"]).to_string(),
                ),
                2 => {
                    let entries: Vec<String> =
                        (0..next(state) % 5).map(|_| gen_entry(state)).collect();
                    let value = format!("[{}]", entries.join(&format!("{},", ws(state))));
                    (
                        "cells",
                        if next(state).is_multiple_of(8) {
                            "{}".to_string()
                        } else {
                            value
                        },
                    )
                }
                _ => (
                    pick(state, &["note", "c\\u0065lls"]),
                    "{\"a\":[1,{}]}".to_string(),
                ),
            };
            members.push(format!(
                "{}\"{name}\"{}:{}{value}",
                ws(state),
                ws(state),
                ws(state)
            ));
        }
        shuffle(state, &mut members);
        format!("{{{}}}{}", members.join(","), ws(state))
    }

    /// A random entry: most likely an object with the four fields, mostly
    /// valid, plus duplicated and foreign ones, in random order.
    fn gen_entry(state: &mut u64) -> String {
        if next(state).is_multiple_of(8) {
            return pick(state, &["[]", "null", "3", "\"k\""]).to_string();
        }
        let hex = key(next(state) % 6).to_hex();
        let hexes = [
            hex.clone(),
            hex.clone(),
            escape_first_zero(&hex),
            hex.to_uppercase(),
        ];
        let names = ["key", "unfairness", "makespan", "average_slowdown"];
        let extra = ["key", "makespan", "x", "m\\u0061kespan"];
        let mut fields = Vec::new();
        for slot in 0..4 + next(state) % 3 {
            if slot < 4 && next(state).is_multiple_of(12) {
                continue;
            }
            let name = if slot < 4 {
                names[slot as usize]
            } else {
                pick(state, &extra)
            };
            let value = if name == "key" {
                match next(state) % 10 {
                    8 => "\"zz\"".to_string(),
                    9 => "1".to_string(),
                    i => format!("\"{}\"", hexes[i as usize % 4]),
                }
            } else if next(state).is_multiple_of(8) {
                pick(
                    state,
                    &["\"bits:zz\"", "\"bits:7ff8\"", "true", "[1]", "{\"a\":{}}"],
                )
                .to_string()
            } else {
                pick(
                    state,
                    &["0.25", "-1e-3", "7", "2.5E2", "\"bits:7ff0000000000000\""],
                )
                .to_string()
            };
            fields.push(format!("\"{name}\":{value}"));
        }
        shuffle(state, &mut fields);
        format!("{{{}}}", fields.join(","))
    }

    #[test]
    fn shard_walk_matches_the_tree_reader_on_generated_documents() {
        let mut state = 0x5EED_CE11;
        let (mut accepted, mut cells, mut skipped) = (0, 0, 0);
        for _ in 0..2000 {
            let doc = gen_shard_doc(&mut state);
            if let Ok((found, bad)) = assert_readers_agree(&doc) {
                accepted += 1;
                cells += found.len();
                skipped += bad;
            }
            let cut = next(&mut state) as usize % (doc.len() + 1);
            let _ = assert_readers_agree(&doc[..cut]);
        }
        // The generator reaches the accepting path, with cells and skipped
        // entries, often.
        assert!(
            accepted > 200 && cells > 150 && skipped > 50,
            "{accepted} accepted, {cells} cells, {skipped} skipped"
        );
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
