//! Persistent snapshots of the content-addressed measurement cache.
//!
//! The [`MeasurementCache`] is keyed purely by *content* — stable
//! 64-bit fingerprints of (machine, spec, groups ⊕ configuration,
//! noise ⊕ seed) — so its
//! entries survive a process boundary by construction: nothing in a
//! cached cell refers to live objects. This module gives the cache a
//! durable form, which is what lets fleet batches, scenario matrices,
//! and CI runs warm-start instead of re-simulating from cold.
//!
//! ## Snapshot format (version 1)
//!
//! A snapshot is a 32-byte header followed by fixed-size 64-byte
//! records, **sorted by cell key** (snapshot bytes are a deterministic
//! function of cache content):
//!
//! ```text
//! header   magic               8 B   b"HMPTCELL"
//!          format_version      4 B   u32 LE — layout of this file
//!          semantics_version   4 B   u32 LE — cache-key semantics
//!          record_count        8 B   u64 LE — records written
//!          header_checksum     8 B   u64 LE — StableHasher over bytes 0..24
//! record   cell key           32 B   4 × u64 LE fingerprints
//!          tag                 8 B   u64 LE — payload discriminant
//!          payload            16 B   2 × u64 LE
//!          record_checksum     8 B   u64 LE — StableHasher over bytes 0..56
//! ```
//!
//! Two version numbers, two failure modes:
//!
//! * [`FORMAT_VERSION`] describes the *bytes*. A reader that does not
//!   know the layout cannot safely skip records, so a mismatch fails
//!   the whole load ([`StoreError::UnsupportedFormat`]).
//! * [`SEMANTICS_VERSION`] describes the *meaning of the keys*: the
//!   fingerprint function ([`hmpt_sim::fingerprint`]), the cell-seed
//!   derivation, and the key composition. If any of those change, every
//!   stored key silently stops matching live keys — worse than useless,
//!   because a stale snapshot would masquerade as an always-cold cache.
//!   Bump [`SEMANTICS_VERSION`] with such a change and old snapshots are
//!   rejected loudly ([`StoreError::SemanticsMismatch`]).
//!
//! ## Corruption tolerance
//!
//! Records are fixed-size and individually checksummed, so damage is
//! contained: a load walks the file in 64-byte steps, skips any record
//! whose checksum or payload fails to decode, and keeps everything
//! else. A truncated tail (partial record, or fewer records than the
//! header declared) is reported, not fatal. Only header-level damage —
//! wrong magic, corrupt header bytes, unknown format, foreign key
//! semantics — discards the snapshot, because past that point the
//! record stream cannot be trusted at all. Callers treat a discarded
//! snapshot as a cold start.
//!
//! ## Merging
//!
//! [`merge_into`] folds any number of snapshots into one cache with
//! last-write-wins on identical keys. That is *not* a resolution
//! policy, it is a no-op: equal content keys imply bit-identical
//! measurements (the key covers everything the simulation depends on),
//! so shards of one campaign can be merged in any order.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use hmpt_alloc::error::AllocError;
use hmpt_sim::fingerprint::{Fingerprint, StableHasher};
use hmpt_sim::pool::PoolKind;
use serde::Serialize;

use crate::cache::{CellKey, MeasurementCache};
use crate::error::TunerError;
use crate::measure::CellOutcome;

/// Identifies a file as a measurement-cache snapshot.
pub const MAGIC: [u8; 8] = *b"HMPTCELL";

/// Byte-layout version of the snapshot format.
pub const FORMAT_VERSION: u32 = 1;

/// Version of the cache-key *semantics*: fingerprint function, cell-seed
/// derivation, key composition. Bump it whenever a change makes old keys
/// incomparable with new ones (see the module docs); snapshots written
/// under a different semantics version are rejected on load.
///
/// v2: the N-pool generalization widened `Config` to a 64-bit word and
/// made machine fingerprints cover the pool vector, so keys written by
/// v1 binaries must not be compared against live keys.
///
/// v3: a key's third component became the allocation-groups
/// fingerprint combined with the configuration word, replacing the
/// fingerprint of the realized placement plan.
pub const SEMANTICS_VERSION: u32 = 3;

const HEADER_LEN: usize = 32;
const RECORD_LEN: usize = 64;
/// Bytes of a record covered by its trailing checksum.
const RECORD_BODY: usize = RECORD_LEN - 8;

/// Why a snapshot could not be used at all (record-level damage is
/// *not* an error — see [`LoadReport`]).
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    NotASnapshot,
    /// The header bytes fail their checksum (the version fields and
    /// record count cannot be trusted).
    CorruptHeader,
    /// The byte layout is newer (or older) than this reader.
    UnsupportedFormat {
        found: u32,
    },
    /// The snapshot's cache keys were computed under different
    /// fingerprint/seed semantics; none of them would match live keys.
    SemanticsMismatch {
        found: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O failure: {e}"),
            StoreError::NotASnapshot => write!(f, "not a measurement-cache snapshot (bad magic)"),
            StoreError::CorruptHeader => write!(f, "snapshot header fails its checksum"),
            StoreError::UnsupportedFormat { found } => {
                write!(f, "unsupported snapshot format version {found} (expected {FORMAT_VERSION})")
            }
            StoreError::SemanticsMismatch { found } => write!(
                f,
                "snapshot uses cache-key semantics version {found} (expected \
                 {SEMANTICS_VERSION}); its keys cannot match live keys — discard it"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What a load recovered (and what it had to give up).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LoadReport {
    /// Records decoded and inserted.
    pub loaded: u64,
    /// Complete records skipped for a bad checksum or undecodable
    /// payload.
    pub skipped: u64,
    /// The file ended early: a partial trailing record, or fewer records
    /// than the header declared.
    pub truncated: bool,
}

impl LoadReport {
    /// Fold another load (e.g. of the next shard snapshot) into this
    /// accounting.
    pub fn absorb(&mut self, other: LoadReport) {
        self.loaded += other.loaded;
        self.skipped += other.skipped;
        self.truncated |= other.truncated;
    }
}

/// What a save wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SaveReport {
    /// Records written.
    pub saved: u64,
    /// Entries with no stable encoding (errors carrying free-form
    /// context, like `TunerError::InvalidMachine`; cell measurement
    /// never produces them).
    pub skipped: u64,
}

/// Payload tags. The low byte discriminates; [`TAG_POOL_EXHAUSTED`]
/// carries the pool kind in its second byte.
const TAG_OK: u64 = 0;
const TAG_POOL_EXHAUSTED: u64 = 1;
const TAG_INVALID_FREE: u64 = 2;
const TAG_BAD_SPLIT: u64 = 3;
const TAG_EMPTY_WORKLOAD: u64 = 4;
const TAG_TOO_MANY_GROUPS: u64 = 5;

fn pool_code(pool: PoolKind) -> u64 {
    pool.index() as u64
}

fn pool_from_code(code: u64) -> Option<PoolKind> {
    if (code as usize) < hmpt_sim::pool::MAX_POOLS {
        Some(PoolKind::of_index(code as usize))
    } else {
        None
    }
}

/// Encode a cached outcome as (tag, payload a, payload b), or `None` if
/// the value has no stable fixed-size encoding. Cached *measurements*
/// always encode; of the error variants, only the ones cell measurement
/// can produce are covered — `TunerError::InvalidMachine` carries
/// free-form strings and is never the outcome of a cell, so it is
/// skipped (and counted) rather than lossily truncated.
fn encode_payload(value: &Result<CellOutcome, TunerError>) -> Option<(u64, u64, u64)> {
    match value {
        Ok(o) => Some((TAG_OK, o.time_s.to_bits(), o.hbm_fraction.to_bits())),
        Err(TunerError::Alloc(AllocError::PoolExhausted { pool, requested, available })) => {
            Some((TAG_POOL_EXHAUSTED | (pool_code(*pool) << 8), *requested, *available))
        }
        Err(TunerError::Alloc(AllocError::InvalidFree { addr })) => {
            Some((TAG_INVALID_FREE, *addr, 0))
        }
        Err(TunerError::Alloc(AllocError::BadSplit { hbm_fraction })) => {
            Some((TAG_BAD_SPLIT, hbm_fraction.to_bits(), 0))
        }
        Err(TunerError::EmptyWorkload) => Some((TAG_EMPTY_WORKLOAD, 0, 0)),
        Err(TunerError::TooManyGroups { groups, limit }) => {
            Some((TAG_TOO_MANY_GROUPS, *groups as u64, *limit as u64))
        }
        Err(TunerError::InvalidMachine { .. }) => None,
    }
}

/// Decode a record payload; `None` marks the record as corrupt.
fn decode_payload(tag: u64, a: u64, b: u64) -> Option<Result<CellOutcome, TunerError>> {
    match tag & 0xff {
        TAG_OK if tag == TAG_OK => {
            Some(Ok(CellOutcome { time_s: f64::from_bits(a), hbm_fraction: f64::from_bits(b) }))
        }
        TAG_POOL_EXHAUSTED => Some(Err(TunerError::Alloc(AllocError::PoolExhausted {
            pool: pool_from_code(tag >> 8)?,
            requested: a,
            available: b,
        }))),
        TAG_INVALID_FREE if tag == TAG_INVALID_FREE => {
            Some(Err(TunerError::Alloc(AllocError::InvalidFree { addr: a })))
        }
        TAG_BAD_SPLIT if tag == TAG_BAD_SPLIT => {
            Some(Err(TunerError::Alloc(AllocError::BadSplit { hbm_fraction: f64::from_bits(a) })))
        }
        TAG_EMPTY_WORKLOAD if tag == TAG_EMPTY_WORKLOAD => Some(Err(TunerError::EmptyWorkload)),
        TAG_TOO_MANY_GROUPS if tag == TAG_TOO_MANY_GROUPS => Some(Err(TunerError::TooManyGroups {
            groups: usize::try_from(a).ok()?,
            limit: usize::try_from(b).ok()?,
        })),
        _ => None,
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// Serialize the cache to snapshot bytes (sorted records — the bytes
/// are a deterministic function of cache content).
pub fn to_bytes(cache: &MeasurementCache) -> (Vec<u8>, SaveReport) {
    let mut entries = cache.entries();
    entries.sort_by_key(|(k, _)| *k);

    let mut records: Vec<u8> = Vec::with_capacity(entries.len() * RECORD_LEN);
    let mut report = SaveReport::default();
    for (key, value) in &entries {
        let Some((tag, a, b)) = encode_payload(value) else {
            report.skipped += 1;
            continue;
        };
        let start = records.len();
        put_u64(&mut records, key.0.raw());
        put_u64(&mut records, key.1.raw());
        put_u64(&mut records, key.2.raw());
        put_u64(&mut records, key.3.raw());
        put_u64(&mut records, tag);
        put_u64(&mut records, a);
        put_u64(&mut records, b);
        let sum = checksum(&records[start..start + RECORD_BODY]);
        put_u64(&mut records, sum);
        report.saved += 1;
    }

    let mut out: Vec<u8> = Vec::with_capacity(HEADER_LEN + records.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&SEMANTICS_VERSION.to_le_bytes());
    put_u64(&mut out, report.saved);
    let sum = checksum(&out[..HEADER_LEN - 8]);
    put_u64(&mut out, sum);
    out.extend_from_slice(&records);
    (out, report)
}

/// Decode snapshot bytes into `cache` (skipping damaged records;
/// failing only on header-level damage — see the module docs).
pub fn from_bytes(bytes: &[u8], cache: &MeasurementCache) -> Result<LoadReport, StoreError> {
    if bytes.len() < 8 || bytes[..8] != MAGIC {
        return Err(StoreError::NotASnapshot);
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::CorruptHeader);
    }
    if checksum(&bytes[..HEADER_LEN - 8]) != read_u64(bytes, HEADER_LEN - 8) {
        return Err(StoreError::CorruptHeader);
    }
    let format = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if format != FORMAT_VERSION {
        return Err(StoreError::UnsupportedFormat { found: format });
    }
    let semantics = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
    if semantics != SEMANTICS_VERSION {
        return Err(StoreError::SemanticsMismatch { found: semantics });
    }
    let declared = read_u64(bytes, 16);

    let mut report = LoadReport::default();
    let records = &bytes[HEADER_LEN..];
    for record in records.chunks(RECORD_LEN) {
        if record.len() < RECORD_LEN {
            report.truncated = true;
            break;
        }
        if checksum(&record[..RECORD_BODY]) != read_u64(record, RECORD_BODY) {
            report.skipped += 1;
            continue;
        }
        let key: CellKey = (
            Fingerprint::from_raw(read_u64(record, 0)),
            Fingerprint::from_raw(read_u64(record, 8)),
            Fingerprint::from_raw(read_u64(record, 16)),
            Fingerprint::from_raw(read_u64(record, 24)),
        );
        let Some(value) =
            decode_payload(read_u64(record, 32), read_u64(record, 40), read_u64(record, 48))
        else {
            report.skipped += 1;
            continue;
        };
        cache.insert(key, value);
        report.loaded += 1;
    }
    if report.loaded + report.skipped < declared {
        report.truncated = true;
    }
    Ok(report)
}

/// Write the cache to `path` atomically (temp file + rename, so a
/// concurrent reader never observes a half-written snapshot).
pub fn save(cache: &MeasurementCache, path: impl AsRef<Path>) -> Result<SaveReport, StoreError> {
    let path = path.as_ref();
    let _span = hmpt_obs::span("store.save");
    let (bytes, report) = to_bytes(cache);
    hmpt_obs::counter("store.bytes_written").add(bytes.len() as u64);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if let Err(e) = fs::write(&tmp, &bytes).and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(report)
}

/// Load a snapshot into an existing cache (preload / warm-start path;
/// counters are untouched, last write wins on identical keys).
pub fn load_into(
    cache: &MeasurementCache,
    path: impl AsRef<Path>,
) -> Result<LoadReport, StoreError> {
    let _span = hmpt_obs::span("store.load");
    let bytes = fs::read(path)?;
    hmpt_obs::counter("store.bytes_read").add(bytes.len() as u64);
    from_bytes(&bytes, cache)
}

/// Load a snapshot into a fresh cache.
pub fn load(path: impl AsRef<Path>) -> Result<(MeasurementCache, LoadReport), StoreError> {
    let cache = MeasurementCache::new();
    let report = load_into(&cache, path)?;
    Ok((cache, report))
}

/// Merge any number of snapshots into `cache`, last write wins — a
/// no-op resolution, since equal keys imply bit-identical measurements.
/// Fails on the first unusable snapshot (header-level damage).
pub fn merge_into<P: AsRef<Path>>(
    cache: &MeasurementCache,
    paths: &[P],
) -> Result<LoadReport, StoreError> {
    let _span = hmpt_obs::span("store.merge");
    let mut total = LoadReport::default();
    for path in paths {
        total.absorb(load_into(cache, path)?);
    }
    Ok(total)
}

/// What [`compact`] did to a snapshot.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CompactReport {
    /// Records read from the snapshot (damaged ones were already
    /// dropped by the load — compacting a partially corrupt snapshot
    /// also sheds its unreadable records).
    pub loaded: u64,
    /// Records skipped by the load (failed checksum / undecodable).
    pub unreadable: u64,
    /// Records the size bound evicted.
    pub evicted: u64,
    /// Records in the rewritten snapshot.
    pub kept: u64,
}

/// Bound a snapshot to at most `max_records` records, rewriting it in
/// place (atomic temp-file + rename; records are individually
/// checksummed, so the rewrite never degrades a readable record).
///
/// A snapshot file carries no usage history, so file-level compaction
/// keeps a deterministic subset: the load walks records in file order
/// (key-sorted), the newest load stamp wins, so the *highest* keys
/// survive. For genuinely least-recently-used eviction, bound the live
/// cache instead ([`MeasurementCache::compact`], or
/// `cache.max_records` in a campaign spec) and let save-on-finish
/// persist the swept cache — entries the run never touched age out.
pub fn compact(path: impl AsRef<Path>, max_records: usize) -> Result<CompactReport, StoreError> {
    let path = path.as_ref();
    let cache = MeasurementCache::new();
    let load = load_into(&cache, path)?;
    let evicted = cache.compact(max_records);
    let save = save(&cache, path)?;
    Ok(CompactReport { loaded: load.loaded, unreadable: load.skipped, evicted, kept: save.saved })
}

/// In-memory merge of snapshot byte buffers (the file-less counterpart
/// of [`merge_into`], for tests and embedding).
pub fn merge_bytes(
    cache: &MeasurementCache,
    snapshots: &[&[u8]],
) -> Result<LoadReport, StoreError> {
    let mut total = LoadReport::default();
    for bytes in snapshots {
        total.absorb(from_bytes(bytes, cache)?);
    }
    Ok(total)
}

/// Fold every entry of `src` into `dst` through the snapshot wire
/// format (serialize with [`to_bytes`], absorb with [`merge_bytes`]),
/// so the fold exercises the same checksummed record path as a file
/// round-trip and inherits its last-write-wins collision rule. This is
/// the coordinator's cross-job fold: a finished job's private cache is
/// folded into the shared persistent cache so the next job's boundary
/// cells hit instead of re-simulating.
pub fn fold(dst: &MeasurementCache, src: &MeasurementCache) -> LoadReport {
    let (bytes, _) = to_bytes(src);
    merge_bytes(dst, &[&bytes]).expect("snapshot bytes from to_bytes always parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u64, b: u64, c: u64, d: u64) -> CellKey {
        (
            Fingerprint::from_raw(a),
            Fingerprint::from_raw(b),
            Fingerprint::from_raw(c),
            Fingerprint::from_raw(d),
        )
    }

    fn sample_cache() -> MeasurementCache {
        let cache = MeasurementCache::new();
        cache.insert(key(1, 2, 3, 4), Ok(CellOutcome { time_s: 1.25, hbm_fraction: 0.5 }));
        cache.insert(key(5, 6, 7, 8), Ok(CellOutcome { time_s: 0.75, hbm_fraction: 1.0 }));
        cache.insert(
            key(9, 10, 11, 12),
            Err(TunerError::Alloc(AllocError::PoolExhausted {
                pool: PoolKind::Hbm,
                requested: 1 << 34,
                available: 1 << 33,
            })),
        );
        cache.insert(key(13, 14, 15, 16), Err(TunerError::EmptyWorkload));
        cache
    }

    fn assert_same_entries(a: &MeasurementCache, b: &MeasurementCache) {
        let mut ea = a.entries();
        let mut eb = b.entries();
        ea.sort_by_key(|(k, _)| *k);
        eb.sort_by_key(|(k, _)| *k);
        assert_eq!(ea.len(), eb.len());
        for ((ka, va), (kb, vb)) in ea.iter().zip(&eb) {
            assert_eq!(ka, kb);
            match (va, vb) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
                    assert_eq!(x.hbm_fraction.to_bits(), y.hbm_fraction.to_bits());
                }
                (Err(x), Err(y)) => assert_eq!(format!("{x}"), format!("{y}")),
                _ => panic!("Ok/Err mismatch at {ka:?}"),
            }
        }
    }

    #[test]
    fn compact_bounds_a_snapshot_in_place() {
        let path = std::env::temp_dir().join(format!("hmpt-compact-{}.bin", std::process::id()));
        let cache = MeasurementCache::new();
        for i in 0..20 {
            cache.insert(key(i, 1, 2, 3), Ok(CellOutcome { time_s: i as f64, hbm_fraction: 0.1 }));
        }
        save(&cache, &path).unwrap();
        let r = compact(&path, 8).unwrap();
        assert_eq!((r.loaded, r.unreadable, r.evicted, r.kept), (20, 0, 12, 8));
        let (compacted, load) = load(&path).unwrap();
        assert_eq!(load.loaded, 8);
        // Load order is file order is key order, so the highest keys
        // carry the newest stamps and survive — deterministically.
        for i in 12..20 {
            assert!(compacted.get(&key(i, 1, 2, 3)).is_some(), "key {i} must survive");
        }
        // Under the bound, a re-compact rewrites without evicting.
        let r2 = compact(&path, 8).unwrap();
        assert_eq!((r2.evicted, r2.kept), (0, 8));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fold_absorbs_a_cache_bit_for_bit_with_last_write_wins() {
        let shared = MeasurementCache::new();
        shared.insert(key(1, 2, 3, 4), Ok(CellOutcome { time_s: 9.0, hbm_fraction: 0.9 }));
        let job = sample_cache();
        let report = fold(&shared, &job);
        assert_eq!(report, LoadReport { loaded: 4, skipped: 0, truncated: false });
        // The job's value for the colliding key wins, like merge_into.
        assert_same_entries(&shared, &job);
        // Folding is idempotent and never fakes cache traffic.
        fold(&shared, &job);
        assert_same_entries(&shared, &job);
        assert_eq!(shared.stats().hits + shared.stats().misses, 0);
    }

    #[test]
    fn round_trip_preserves_every_entry_bit_for_bit() {
        let cache = sample_cache();
        let (bytes, saved) = to_bytes(&cache);
        assert_eq!(saved, SaveReport { saved: 4, skipped: 0 });
        assert_eq!(bytes.len(), HEADER_LEN + 4 * RECORD_LEN);

        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes, &restored).unwrap();
        assert_eq!(report, LoadReport { loaded: 4, skipped: 0, truncated: false });
        assert_same_entries(&cache, &restored);
        // Preloading never fakes cache traffic.
        assert_eq!(restored.stats().hits + restored.stats().misses, 0);
    }

    #[test]
    fn snapshot_bytes_are_deterministic_and_sorted() {
        // Same content inserted in different orders → identical bytes.
        let a = sample_cache();
        let b = MeasurementCache::new();
        let mut entries = a.entries();
        entries.reverse();
        for (k, v) in entries {
            b.insert(k, v);
        }
        assert_eq!(to_bytes(&a).0, to_bytes(&b).0);

        // Records really are key-sorted in the byte stream.
        let (bytes, _) = to_bytes(&a);
        let firsts: Vec<u64> =
            bytes[HEADER_LEN..].chunks(RECORD_LEN).map(|r| read_u64(r, 0)).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(firsts, sorted);
    }

    #[test]
    fn empty_cache_round_trips() {
        let (bytes, saved) = to_bytes(&MeasurementCache::new());
        assert_eq!(saved.saved, 0);
        assert_eq!(bytes.len(), HEADER_LEN);
        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes, &restored).unwrap();
        assert_eq!(report, LoadReport::default());
        assert!(restored.is_empty());
    }

    #[test]
    fn unencodable_entries_are_skipped_and_counted() {
        let cache = sample_cache();
        cache.insert(
            key(90, 91, 92, 93),
            Err(TunerError::InvalidMachine { name: "m".into(), reason: "r".into() }),
        );
        let (bytes, saved) = to_bytes(&cache);
        assert_eq!(saved, SaveReport { saved: 4, skipped: 1 });
        let restored = MeasurementCache::new();
        assert_eq!(from_bytes(&bytes, &restored).unwrap().loaded, 4);
    }

    #[test]
    fn flipped_record_byte_skips_only_that_record() {
        let cache = sample_cache();
        let (mut bytes, _) = to_bytes(&cache);
        // Damage one byte inside the second record's payload.
        bytes[HEADER_LEN + RECORD_LEN + 40] ^= 0x40;
        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes, &restored).unwrap();
        assert_eq!(report, LoadReport { loaded: 3, skipped: 1, truncated: false });
        assert_eq!(restored.len(), 3);
    }

    #[test]
    fn truncated_snapshot_loads_the_good_prefix() {
        let cache = sample_cache();
        let (bytes, _) = to_bytes(&cache);
        // Cut mid-way through the third record.
        let cut = HEADER_LEN + 2 * RECORD_LEN + 17;
        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes[..cut], &restored).unwrap();
        assert_eq!(report.loaded, 2);
        assert!(report.truncated);
        // Cut exactly on a record boundary: no partial record, but the
        // declared count exposes the loss.
        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes[..HEADER_LEN + RECORD_LEN], &restored).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(report.truncated);
    }

    #[test]
    fn header_level_damage_discards_the_snapshot() {
        let (bytes, _) = to_bytes(&sample_cache());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            from_bytes(&bad_magic, &MeasurementCache::new()),
            Err(StoreError::NotASnapshot)
        ));

        // Version flips are caught by the header checksum first…
        let mut bad_version = bytes.clone();
        bad_version[8] ^= 0x02;
        assert!(matches!(
            from_bytes(&bad_version, &MeasurementCache::new()),
            Err(StoreError::CorruptHeader)
        ));

        // …while a *consistent* foreign version (checksum recomputed, as
        // a future writer would) is named precisely.
        let reversion = |format: u32, semantics: u32| {
            let mut b = bytes.clone();
            b[8..12].copy_from_slice(&format.to_le_bytes());
            b[12..16].copy_from_slice(&semantics.to_le_bytes());
            let sum = checksum(&b[..HEADER_LEN - 8]);
            b[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
            b
        };
        assert!(matches!(
            from_bytes(&reversion(FORMAT_VERSION + 1, SEMANTICS_VERSION), &MeasurementCache::new()),
            Err(StoreError::UnsupportedFormat { found }) if found == FORMAT_VERSION + 1
        ));
        assert!(matches!(
            from_bytes(&reversion(FORMAT_VERSION, SEMANTICS_VERSION + 1), &MeasurementCache::new()),
            Err(StoreError::SemanticsMismatch { found }) if found == SEMANTICS_VERSION + 1
        ));

        assert!(matches!(
            from_bytes(&bytes[..HEADER_LEN - 3], &MeasurementCache::new()),
            Err(StoreError::CorruptHeader)
        ));
        assert!(matches!(from_bytes(b"", &MeasurementCache::new()), Err(StoreError::NotASnapshot)));
    }

    #[test]
    fn merge_is_last_write_wins_on_identical_keys() {
        // Two snapshots sharing key(1,2,3,4) — by the cache-key
        // contract their payloads are identical, so LWW changes nothing.
        let a = sample_cache();
        let b = MeasurementCache::new();
        b.insert(key(1, 2, 3, 4), Ok(CellOutcome { time_s: 1.25, hbm_fraction: 0.5 }));
        b.insert(key(21, 22, 23, 24), Ok(CellOutcome { time_s: 9.0, hbm_fraction: 0.0 }));
        let (ba, _) = to_bytes(&a);
        let (bb, _) = to_bytes(&b);

        let merged = MeasurementCache::new();
        let report = merge_bytes(&merged, &[&ba[..], &bb[..]]).unwrap();
        assert_eq!(report.loaded, 6, "4 + 2 records loaded, one key twice");
        assert_eq!(merged.len(), 5);
        assert_eq!(merged.get(&key(1, 2, 3, 4)).unwrap().unwrap().time_s, 1.25);
        assert_eq!(merged.get(&key(21, 22, 23, 24)).unwrap().unwrap().time_s, 9.0);
    }

    #[test]
    fn file_round_trip_via_temp_path() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hmpt-store-test-{}.bin", std::process::id()));
        let cache = sample_cache();
        let saved = save(&cache, &path).unwrap();
        assert_eq!(saved.saved, 4);
        let (restored, report) = load(&path).unwrap();
        assert_eq!(report.loaded, 4);
        assert_same_entries(&cache, &restored);
        // load_into on a warm cache merges (LWW).
        let report = load_into(&restored, &path).unwrap();
        assert_eq!(report.loaded, 4);
        assert_eq!(restored.len(), 4);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(load_into(&restored, &path), Err(StoreError::Io(_))));
    }
}
