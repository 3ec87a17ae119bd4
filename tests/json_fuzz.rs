//! Seeded fuzzing of the one JSON codec (`mcsched_obs::json`) and of every
//! on-disk format read through it: cell-cache shards, workload traces, run
//! manifests, heartbeats, metrics snapshots and `BENCH_*.json` ledgers.
//!
//! Properties:
//!
//! * random [`Json`] trees render and parse back to an equal value;
//! * for documents written by each format's own writer, the reader returns
//!   the original value, every strict prefix that cuts into the document is
//!   rejected, and every single-bit flip of an ASCII byte (which keeps the
//!   text valid UTF-8) returns `Ok` or `Err` — never a panic. A shard is
//!   damaged on disk and read back through `CellCache::open`, the cache's
//!   own reader: a cut-short shard recovers no cell;
//! * the non-finite tokens `NaN`, `Infinity` and `-Infinity`, and nesting
//!   past the parser's depth bound, are errors for every reader, the shard
//!   reader (through `merge_cache_dirs`) included.
//!
//! The cases are driven by [`mcsched_stats::quickcheck::QuickCheck`]: a
//! failure message prints the reproducing `(seed, size)` pair for
//! `QuickCheck::replay`.

use mcsched::core::Workload;
use mcsched::obs::json::Json;
use mcsched::obs::metrics::HistogramSnapshot;
use mcsched::obs::{Heartbeat, Histogram, MetricsSnapshot, RunManifest, RunPhase};
use mcsched::prelude::*;
use mcsched::runtime::cache::SHARD_COUNT;
use mcsched::runtime::{
    merge_cache_dirs, CellCache, CellDigest, CellMetrics, MergeError, CACHE_SALT,
};
use mcsched::workload::{Trace, TraceEntry, WorkloadRequest};
use mcsched_bench::ledger::{Ledger, Row};
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Caps a draw dimension by the harness size bound.
fn cap(size: u32, max: usize) -> usize {
    (size as usize).max(1).min(max)
}

/// Characters that exercise every branch of the string writer and reader:
/// short escapes, `\u00XX` control escapes, `/`, and 2-, 3- and 4-byte
/// UTF-8 scalars.
const ALPHABET: &[char] = &[
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', 'µ', '€', '\u{2028}', '😀',
];

fn gen_string(rng: &mut ChaCha8Rng, size: u32) -> String {
    let len = rng.gen_range(0..=cap(size, 12));
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn gen_f64(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(-1e3..1e3),
        1 => f64::from_bits(rng.next_u64()),
        2 => rng.gen_range(0..1000u32) as f64,
        _ => -0.0,
    }
}

fn gen_json(rng: &mut ChaCha8Rng, size: u32, depth: usize) -> Json {
    let leaf_only = depth >= cap(size / 4, 6);
    match rng.gen_range(0..if leaf_only { 5u32 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => {
            let v = gen_f64(rng);
            Json::num_f64(if v.is_finite() { v } else { 0.5 })
        }
        3 => match rng.gen_range(0..2u32) {
            0 => Json::num_u64(rng.next_u64()),
            _ => Json::Num(format!("-{}", rng.gen_range(1..u64::MAX))),
        },
        4 => Json::Str(gen_string(rng, size)),
        5 => Json::Arr(
            (0..rng.gen_range(0..=cap(size, 5)))
                .map(|_| gen_json(rng, size, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..=cap(size, 5)))
                .map(|_| (gen_string(rng, size), gen_json(rng, size, depth + 1)))
                .collect(),
        ),
    }
}

#[test]
fn random_trees_render_and_parse_back_equal() {
    QuickCheck::new(0x150A).cases(64).run(|rng, size| {
        let doc = gen_json(rng, size, 0);
        let text = doc.render();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&doc), "document {text}");
        // Whitespace around the document is insignificant.
        assert_eq!(Json::parse(&format!(" \n{text}\t\r\n")), Ok(doc));
    });
}

/// Feeds `read` every damaged variant of the well-formed document `text`:
/// every prefix that stops before the document's last non-whitespace byte
/// must be rejected, and flipping one random bit of each ASCII byte (which
/// keeps the text valid UTF-8) must return rather than panic.
fn damage<T>(rng: &mut ChaCha8Rng, text: &str, read: impl Fn(&str) -> Result<T, String>) {
    let end = text.trim_end().len();
    for cut in (0..end).filter(|&cut| text.is_char_boundary(cut)) {
        assert!(
            read(&text[..cut]).is_err(),
            "truncation to {cut} bytes accepted: {:?}",
            &text[..cut]
        );
    }
    let mut bytes = text.as_bytes().to_vec();
    for i in 0..bytes.len() {
        let original = bytes[i];
        if !original.is_ascii() {
            continue;
        }
        bytes[i] = original ^ (1 << rng.gen_range(0..7u32));
        let flipped = std::str::from_utf8(&bytes).expect("ASCII flips keep UTF-8 valid");
        let _ = read(flipped);
        bytes[i] = original;
    }
}

fn gen_manifest(rng: &mut ChaCha8Rng, size: u32) -> RunManifest {
    let of = rng.gen_range(1..=cap(size, 16));
    RunManifest {
        label: gen_string(rng, size),
        shard: (rng.gen_range(0..of), of),
        config_digest: format!("{:032x}", rng.next_u64()),
        salt: gen_string(rng, size),
        pid: rng.next_u32(),
        start_unix_ms: rng.next_u64(),
        phase: [RunPhase::Running, RunPhase::Done, RunPhase::Failed][rng.gen_range(0..3usize)],
    }
}

fn gen_heartbeat(rng: &mut ChaCha8Rng, size: u32) -> Heartbeat {
    Heartbeat {
        points_done: rng.next_u64(),
        points_total: rng.next_u64(),
        cells_done: rng.next_u64(),
        cache_hits: rng.next_u64(),
        cache_misses: rng.next_u64(),
        detail: gen_string(rng, size),
        updated_unix_ms: rng.next_u64(),
    }
}

/// A snapshot with name-sorted, unique names in every section (the shape
/// `metrics::snapshot` produces).
fn gen_metrics(rng: &mut ChaCha8Rng, size: u32) -> MetricsSnapshot {
    let names = |rng: &mut ChaCha8Rng| {
        let mut names: Vec<String> = (0..rng.gen_range(0..=cap(size, 4)))
            .map(|i| format!("{}.{i}", gen_string(rng, size)))
            .collect();
        names.sort();
        names.dedup();
        names
    };
    let counters = names(rng)
        .into_iter()
        .map(|n| (n, rng.next_u64()))
        .collect();
    let gauges = names(rng)
        .into_iter()
        .map(|n| (n, rng.next_u64(), rng.next_u64()))
        .collect();
    let histograms = names(rng)
        .into_iter()
        .map(|n| {
            let h = Histogram::default();
            for _ in 0..rng.gen_range(0..=cap(size, 8)) {
                h.record(rng.next_u64() >> rng.gen_range(0..64u32));
            }
            (n, h.snapshot())
        })
        .collect::<Vec<(String, HistogramSnapshot)>>();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

fn gen_trace(rng: &mut ChaCha8Rng, size: u32) -> Trace {
    let mut trace = Trace::new(gen_string(rng, size), rng.next_u64());
    for e in 0..rng.gen_range(1..=cap(size, 2)) {
        let count = rng.gen_range(1..=cap(size, 2));
        let config = RandomPtgConfig {
            num_tasks: cap(size, 5).max(2),
            ..RandomPtgConfig::default_config()
        };
        let ptgs: Vec<Ptg> = (0..count)
            .map(|i| random_ptg(&config, rng, format!("app{i}")))
            .collect();
        let releases = (0..count).map(|_| rng.gen_range(0.0..100.0)).collect();
        let workload = Workload::released(ptgs, releases)
            .expect("generated releases are valid")
            .with_label(gen_string(rng, size));
        trace.entries.push(TraceEntry {
            request: WorkloadRequest::new(rng.next_u64(), count, format!("entry-{e}")),
            workload,
        });
    }
    trace
}

/// A ledger with random parameters, host fields and rows, each row's
/// `(family, case)` unique.
fn gen_ledger(rng: &mut ChaCha8Rng, size: u32) -> Ledger {
    let members = |rng: &mut ChaCha8Rng| {
        (0..rng.gen_range(0..=cap(size, 4)))
            .map(|_| (gen_string(rng, size), gen_json(rng, size, 2)))
            .collect::<Vec<_>>()
    };
    let finite = |rng: &mut ChaCha8Rng| Some(gen_f64(rng)).filter(|v| v.is_finite()).unwrap_or(0.5);
    let ms = |rng: &mut ChaCha8Rng| finite(rng).abs();
    let rows = (0..rng.gen_range(0..=cap(size, 6)))
        .map(|i| Row {
            family: gen_string(rng, size),
            case: format!("case-{i}"),
            mean_ms: ms(rng),
            min_ms: ms(rng),
            max_ms: ms(rng),
            samples: rng.gen_range(1..=cap(size, 100)),
            values: (0..rng.gen_range(0..=cap(size, 4)))
                .map(|_| (gen_string(rng, size), finite(rng)))
                .collect(),
        })
        .collect();
    Ledger {
        params: members(rng),
        host: members(rng),
        rows,
    }
}

#[test]
fn ledgers_survive_truncation_and_bit_flips() {
    QuickCheck::new(0x1ED6).cases(12).run(|rng, size| {
        let ledger = gen_ledger(rng, size);
        let text = ledger.render();
        assert_eq!(Ledger::parse(&text).expect("well-formed"), ledger);
        damage(rng, &text, Ledger::parse);
    });
}

#[test]
fn manifests_survive_truncation_and_bit_flips() {
    QuickCheck::new(0x3A41).cases(12).run(|rng, size| {
        let manifest = gen_manifest(rng, size);
        let text = manifest.render_json();
        assert_eq!(
            RunManifest::parse_json(&text).expect("well-formed"),
            manifest
        );
        damage(rng, &text, RunManifest::parse_json);
    });
}

#[test]
fn heartbeats_survive_truncation_and_bit_flips() {
    QuickCheck::new(0x4EA7).cases(12).run(|rng, size| {
        let heartbeat = gen_heartbeat(rng, size);
        let text = heartbeat.render_json();
        assert_eq!(
            Heartbeat::parse_json(&text).expect("well-formed"),
            heartbeat
        );
        damage(rng, &text, Heartbeat::parse_json);
    });
}

#[test]
fn metrics_snapshots_survive_truncation_and_bit_flips() {
    QuickCheck::new(0x3E7C).cases(12).run(|rng, size| {
        let snapshot = gen_metrics(rng, size);
        let text = snapshot.render_json();
        assert_eq!(
            MetricsSnapshot::parse_json(&text).expect("well-formed"),
            snapshot
        );
        damage(rng, &text, MetricsSnapshot::parse_json);
    });
}

#[test]
fn traces_survive_truncation_and_bit_flips() {
    QuickCheck::new(0x7ACE)
        .cases(6)
        .start_size(8)
        .run(|rng, size| {
            let trace = gen_trace(rng, size);
            let text = trace.to_json();
            assert_eq!(Trace::from_json(&text).expect("well-formed"), trace);
            damage(rng, &text, |t| {
                Trace::from_json(t).map_err(|e| e.to_string())
            });
        });
}

/// A unique temporary directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mcsched-json-fuzz-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
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

#[test]
fn cache_shards_survive_truncation_and_bit_flips() {
    QuickCheck::new(0xCE11).cases(6).run(|rng, size| {
        // One shard written by the cache itself: every key lands in the
        // shard of the first, and one metric is non-finite so the
        // `"bits:…"` sentinel is exercised.
        let dir = TempDir::new();
        let cache = CellCache::open(dir.path(), false).expect("fresh cache dir");
        let first = CellDigest(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()));
        let mut cells = Vec::new();
        while cells.len() < cap(size, 6) {
            let key = CellDigest(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()));
            if cells.is_empty() || key.shard(SHARD_COUNT) == first.shard(SHARD_COUNT) {
                let metrics = CellMetrics {
                    unfairness: gen_f64(rng),
                    makespan: [f64::NAN, f64::INFINITY, 1.5][rng.gen_range(0..3usize)],
                    average_slowdown: gen_f64(rng),
                };
                cache.insert(if cells.is_empty() { first } else { key }, metrics);
                cells.push(metrics);
            }
        }
        cache.flush().expect("flush");
        let path = dir
            .path()
            .join(format!("shard-{:02x}.json", first.shard(SHARD_COUNT)));
        let text = std::fs::read_to_string(&path).expect("flushed shard");
        let reopened = CellCache::open(dir.path(), true).expect("reopen");
        assert_eq!(reopened.resumed(), cells.len());
        assert!(reopened.lookup(first).is_some_and(|m| m.bits_eq(&cells[0])));
        // Damage the file and reopen through the cache's own shard reader:
        // a cut-short shard recovers no cell, a flipped one never panics.
        damage(rng, &text, |damaged| {
            std::fs::write(&path, damaged).expect("rewrite the shard");
            match CellCache::open(dir.path(), true).expect("reopen").resumed() {
                0 => Err("no cell recovered".to_string()),
                n => Ok(n),
            }
        });
    });
}

/// Whether `merge_cache_dirs` accepts `text` as the one shard of a source:
/// it reports a shard its reader rejects as `Incompatible`.
fn shard_reader_accepts(text: &str) -> bool {
    let source = TempDir::new();
    let dest = TempDir::new();
    std::fs::create_dir_all(source.path()).expect("source dir");
    std::fs::write(source.path().join("shard-00.json"), text).expect("write the shard");
    match merge_cache_dirs(&[source.path().to_path_buf()], dest.path()) {
        Ok(_) => true,
        Err(MergeError::Incompatible { .. }) => false,
        Err(e) => panic!("merge failed outside the shard reader: {e}"),
    }
}

/// Whether a reader accepts a document.
type Accepts = fn(&str) -> bool;

/// Every reader, for the hostile-input checks.
fn readers() -> [(&'static str, Accepts); 7] {
    [
        ("Json::parse", |t| Json::parse(t).is_ok()),
        ("cache shard reader", shard_reader_accepts),
        ("Trace::from_json", |t| Trace::from_json(t).is_ok()),
        ("RunManifest::parse_json", |t| {
            RunManifest::parse_json(t).is_ok()
        }),
        ("Heartbeat::parse_json", |t| {
            Heartbeat::parse_json(t).is_ok()
        }),
        ("MetricsSnapshot::parse_json", |t| {
            MetricsSnapshot::parse_json(t).is_ok()
        }),
        ("Ledger::parse", |t| Ledger::parse(t).is_ok()),
    ]
}

#[test]
fn non_finite_tokens_are_rejected() {
    let shard = |token: &str| {
        format!(
            "{{\"version\":1,\"salt\":\"{CACHE_SALT}\",\"cells\":[{{\"key\":\"{}\",\
             \"unfairness\":0.5,\"makespan\":{token},\"average_slowdown\":1}}]}}",
            "0".repeat(32)
        )
    };
    assert!(shard_reader_accepts(&shard("2.5")));
    for token in ["NaN", "Infinity", "-Infinity", "nan", "inf", "-inf"] {
        for doc in [
            token.to_string(),
            format!("[1,{token}]"),
            format!("{{\"a\":{token}}}"),
            format!("{{\"counters\":{{\"c\":{token}}},\"gauges\":{{}},\"histograms\":{{}}}}"),
            format!("{{\"version\":1,\"salt\":\"s\",\"cells\":[{{\"makespan\":{token}}}]}}"),
            shard(token),
        ] {
            for (name, read) in readers() {
                assert!(!read(&doc), "{name} accepted {doc}");
            }
        }
    }
}

#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    for doc in [
        "[".repeat(50_000),
        "{\"a\":".repeat(50_000),
        format!("{}{}", "[".repeat(50_000), "]".repeat(50_000)),
    ] {
        for (name, read) in readers() {
            assert!(!read(&doc), "{name} accepted a 50 000-deep document");
        }
    }
}

#[test]
fn surrogate_escapes_pair_into_one_char() {
    let parsed = |text: &str| Json::parse(&format!("\"{text}\""));
    let string = |s: &str| Ok(Json::Str(s.to_string()));
    // A high surrogate escape directly followed by a low one is one char.
    assert_eq!(parsed(r"\ud83d\ude00"), string("\u{1f600}"));
    assert_eq!(parsed(r"a\uD83D\uDE00b"), string("a\u{1f600}b"));
    assert_eq!(parsed(r"\udbff\udfff"), string("\u{10ffff}"));
    // Unpaired surrogates each become U+FFFD.
    assert_eq!(parsed(r"\ud83d"), string("\u{fffd}"));
    assert_eq!(parsed(r"\ude00"), string("\u{fffd}"));
    assert_eq!(parsed(r"\ud83dx"), string("\u{fffd}x"));
    assert_eq!(parsed(r"\ud83d\u0041"), string("\u{fffd}A"));
    assert_eq!(parsed(r"\ud83d\n"), string("\u{fffd}\n"));
    assert_eq!(parsed(r"\ude00\ud83d"), string("\u{fffd}\u{fffd}"));
    assert_eq!(parsed(r"\ud83d\ud83d\ude00"), string("\u{fffd}\u{1f600}"));
    // A malformed escape after a high surrogate is still an error.
    assert!(parsed(r"\ud83d\u+de0").is_err());
    assert!(parsed(r"\ud83d\ude0").is_err());
}
