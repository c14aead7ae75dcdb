//! simstore — the persistent content-addressed run store.
//!
//! The in-memory memo cache ([`crate::runner::RunContext`]) dies with the
//! process, so every `repro` invocation re-simulates the full suite even
//! though the simulator is deterministic and [`RunRequest`] already has a
//! normalized cache key. This module turns that key into an on-disk
//! address: `sha256(key ‖ format epoch)` names a self-checksummed entry
//! file holding the run's [`SingleRun`] — process filter, metrics snapshot
//! (full-fidelity binary registry) and trace (compact SETL v3) — so a warm
//! store replays a sweep with zero simulations and byte-identical
//! artifacts.
//!
//! ## Integrity model
//!
//! A store entry is trusted only after four independent checks pass on
//! load:
//!
//! 1. the trailing 64-bit file checksum over the whole entry, trace
//!    included ([`setl3::checksum`], the codec's own word-at-a-time hash:
//!    it catches truncation and any single-byte corruption, since each of
//!    its steps is injective). The trace then checks its own block
//!    hashes, `meta_hash` and file trailer as it decodes;
//! 2. the format **epoch** embedded in the entry matches
//!    [`FORMAT_EPOCH`] (bump it whenever codec or key semantics change:
//!    stale generations become clean misses, never misreads);
//! 3. the entry's stored key string equals the requested key (defends
//!    against hash collisions and hand-copied files);
//! 4. the decoded trace re-passes the full verifier + happens-before
//!    analysis with exactly the findings count recorded in the entry's own
//!    metrics snapshot.
//!
//! Any failure **quarantines** the entry (it is renamed into
//! `quarantine/` for post-mortem) and reports a miss: the caller
//! re-simulates and overwrites. Nothing in this path panics on malformed
//! input, and no diagnostic reaches rendered artifacts — corruption costs
//! one simulation, not a wrong table.
//!
//! ## Write discipline
//!
//! All writes funnel through [`atomic_write`]: payload to a per-call temp
//! sibling, then `rename(2)` into place. Readers therefore never observe a
//! half-written entry, concurrent writers of the same key are idempotent
//! (identical content, last rename wins), and a crash leaves at most a
//! stray temp file. The workspace determinism lint enforces this funnel:
//! direct `std::fs` writes outside sanctioned modules are rejected.

use crate::experiment::{RunMetrics, SingleRun};
use crate::runner::RunKey;
use cryptomine::Sha256;
use etwtrace::{setl3, verify, PidSet};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable overriding the store location (the default is
/// `target/simstore/` under the current directory).
pub const STORE_ENV: &str = "PARASTAT_STORE";

/// Store format epoch. Part of every entry's address *and* embedded in the
/// entry itself; bump it whenever the entry container, the SETL v3 codec,
/// the registry snapshot format or the [`RunKey`] normalization changes
/// meaning. Entries from other epochs are quarantined as stale on contact.
///
/// Epoch 3: SETL v3 revision 3 (word-at-a-time checksums, no per-record
/// check byte) and the same checksum over the entry. The trace reader
/// decodes revision 3 only, so epoch-2 entries (which hold revision-2
/// traces under an FNV-1a entry checksum) are never addressed.
pub const FORMAT_EPOCH: u32 = 3;

const ENTRY_MAGIC: &[u8; 4] = b"SRUN";
const ENTRY_VERSION: u8 = 1;
/// Entry file suffix (content-addressed payloads).
const ENTRY_EXT: &str = "run";

/// Outcome of a [`SimStore::load`]: the second memo tier either has the
/// run, has nothing, or had something untrustworthy (now quarantined).
#[derive(Debug)]
pub enum LoadOutcome {
    /// The entry decoded and passed every integrity check.
    Hit(Box<SingleRun>),
    /// No entry for this key (the common cold-store case).
    Miss,
    /// An entry existed but failed an integrity check; it has been moved
    /// to the quarantine directory and the caller should re-simulate.
    Quarantined {
        /// Which check failed, for `--store-stats` style reporting.
        reason: String,
    },
}

/// A persistent content-addressed store of simulation results.
///
/// Cheap to construct — directories are created lazily on first write, so
/// opening a store never touches the filesystem.
#[derive(Clone, Debug)]
pub struct SimStore {
    root: PathBuf,
    epoch: u32,
}

impl SimStore {
    /// A store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> SimStore {
        SimStore {
            root: root.into(),
            epoch: FORMAT_EPOCH,
        }
    }

    /// A store at the environment-configured location: `PARASTAT_STORE` if
    /// set, else `target/simstore`.
    pub fn open_default() -> SimStore {
        SimStore::open(env_root().unwrap_or_else(|| PathBuf::from("target/simstore")))
    }

    /// Test-only: a store that stamps (and expects) a different format
    /// epoch, for exercising stale-generation quarantine.
    #[cfg(test)]
    fn with_epoch(mut self, epoch: u32) -> SimStore {
        self.epoch = epoch;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory quarantined entries are moved into.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// The entry file a key is stored at: content-addressed by
    /// `sha256(key ‖ epoch)`, sharded on the first digest byte to keep
    /// directory fan-out sane for multi-thousand-entry sweeps.
    pub fn entry_path(&self, key: &RunKey) -> PathBuf {
        let mut h = Sha256::new();
        h.update(key.as_str().as_bytes());
        h.update(&self.epoch.to_le_bytes());
        let digest = h.finalize();
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        self.root
            .join(format!("v{}", self.epoch))
            .join(&hex[..2])
            .join(format!("{hex}.{ENTRY_EXT}"))
    }

    /// Looks a key up in the store, running the full integrity pipeline.
    /// Never panics and never returns a partially-decoded run.
    pub fn load(&self, key: &RunKey) -> LoadOutcome {
        let mut sp = simobs::span::span("store", "load");
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::Miss,
            Err(e) => {
                // Unreadable is indistinguishable from corrupt; get the
                // entry out of the address space if at all possible.
                return self.reject(&path, &format!("unreadable entry: {e}"));
            }
        };
        sp.add_bytes(bytes.len() as u64);
        match self.decode(key, &bytes) {
            Ok(run) => LoadOutcome::Hit(Box::new(run)),
            Err(reason) => self.reject(&path, &reason),
        }
    }

    /// Persists one run under `key`. Content-addressed entries are
    /// immutable, so an existing entry is left untouched. Best-effort by
    /// contract: callers treat an `Err` as "store unavailable", never as a
    /// run failure.
    ///
    /// # Errors
    /// Propagates I/O errors from the temp-file write or the rename.
    pub fn save(&self, key: &RunKey, run: &SingleRun) -> io::Result<()> {
        let mut sp = simobs::span::span("store", "save");
        let path = self.entry_path(key);
        if path.exists() {
            return Ok(());
        }
        let bytes = self.encode(key, run);
        sp.add_bytes(bytes.len() as u64);
        atomic_write(&path, &bytes)
    }

    /// Moves a bad entry into the quarantine directory (best-effort: a
    /// failed rename falls back to deletion so the poisoned address is
    /// freed either way) and reports the miss.
    fn reject(&self, path: &Path, reason: &str) -> LoadOutcome {
        let qdir = self.quarantine_dir();
        let target = qdir.join(
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "entry".to_string()),
        );
        let moved = std::fs::create_dir_all(&qdir)
            .and_then(|()| std::fs::rename(path, &target))
            .is_ok();
        if !moved {
            let _ = std::fs::remove_file(path);
        }
        LoadOutcome::Quarantined {
            reason: reason.to_string(),
        }
    }

    fn encode(&self, key: &RunKey, run: &SingleRun) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(ENTRY_MAGIC);
        out.push(ENTRY_VERSION);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        put_uv(&mut out, key.as_str().len() as u64);
        out.extend_from_slice(key.as_str().as_bytes());
        put_uv(&mut out, run.filter.len() as u64);
        for pid in run.filter.iter() {
            put_uv(&mut out, pid);
        }
        let registry = run.metrics.registry.to_bytes();
        put_uv(&mut out, registry.len() as u64);
        out.extend_from_slice(&registry);
        setl3::write_setl3(&run.trace, &mut out).expect("Vec write cannot fail");
        let hash = setl3::checksum(setl3::CHECKSUM_SEED, &out);
        out.extend_from_slice(&hash.to_le_bytes());
        out
    }

    fn decode(&self, key: &RunKey, bytes: &[u8]) -> Result<SingleRun, String> {
        // Whole-file checksum first: everything after this parses trusted
        // bytes, so decoder error paths are about format evolution, not
        // bit rot.
        if bytes.len() < ENTRY_MAGIC.len() + 8 {
            return Err("entry truncated".into());
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let expect = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if setl3::checksum(setl3::CHECKSUM_SEED, payload) != expect {
            return Err("file checksum mismatch".into());
        }
        let mut r: &[u8] = payload;
        let mut magic = [0u8; 4];
        read(&mut r, &mut magic)?;
        if &magic != ENTRY_MAGIC {
            return Err("not a simstore entry".into());
        }
        let mut version = [0u8; 1];
        read(&mut r, &mut version)?;
        if version[0] != ENTRY_VERSION {
            return Err("unsupported entry revision".into());
        }
        let mut epoch = [0u8; 4];
        read(&mut r, &mut epoch)?;
        let epoch = u32::from_le_bytes(epoch);
        if epoch != self.epoch {
            return Err(format!("stale format epoch {epoch} (want {})", self.epoch));
        }
        let key_len = get_uv(&mut r)? as usize;
        if key_len > r.len() {
            return Err("entry truncated".into());
        }
        let (stored_key, rest) = r.split_at(key_len);
        r = rest;
        if stored_key != key.as_str().as_bytes() {
            return Err("key mismatch (hash collision or misplaced entry)".into());
        }
        let n_pids = get_uv(&mut r)?;
        if n_pids > 1 << 20 {
            return Err("process filter too large".into());
        }
        let mut filter = PidSet::new();
        for _ in 0..n_pids {
            filter.insert(get_uv(&mut r)?);
        }
        let reg_len = get_uv(&mut r)? as usize;
        if reg_len > r.len() {
            return Err("entry truncated".into());
        }
        let (reg_bytes, rest) = r.split_at(reg_len);
        r = rest;
        let registry = simobs::Registry::from_bytes(reg_bytes)?;
        // The trace runs to the end of the payload; its index is anchored
        // there, so trailing bytes fail the decode.
        let trace = setl3::read_setl3(r).map_err(|e| format!("trace: {e}"))?;
        let run = SingleRun {
            trace,
            filter,
            metrics: RunMetrics { registry },
        };
        // Re-verification: the decoded trace must reproduce exactly the
        // findings tally its own snapshot recorded at simulation time
        // (zero, on a healthy simulator). A decodable-but-wrong trace is
        // treated like any other corruption.
        let recorded = run
            .metrics
            .registry
            .counter_value("parastat_verify_findings_total", &[])
            .ok_or("entry predates the verification counter")?;
        let (verified, causal) = verify::check(&run.trace);
        let found = (verified.diagnostics.len() + causal.findings.len()) as u64;
        if found != recorded {
            return Err(format!(
                "verify pass found {found} finding(s), entry recorded {recorded}"
            ));
        }
        Ok(run)
    }
}

/// The `PARASTAT_STORE` override, if set to a non-empty path.
pub fn env_root() -> Option<PathBuf> {
    // lint:allow(env-read): PARASTAT_STORE only relocates the on-disk
    // cache; entries are content-addressed and integrity-checked, so the
    // location cannot change any rendered artifact.
    std::env::var_os(STORE_ENV)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// The sanctioned write path for store entries: write `bytes` to a temp
/// sibling, then atomically rename over `path`. Readers never observe a
/// partial entry; a crash strands at most a temp file. Every call writes
/// its own temp sibling (`.tmp<pid>-<n>`, `n` from a process-wide
/// counter), so threads saving one key at once never share a temp file.
///
/// # Errors
/// Propagates I/O errors from directory creation, the write or the rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "entry path has no parent"))?;
    std::fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    // lint:allow(fs-write): this IS the atomic rename helper every other
    // store write is required to go through.
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn read(r: &mut &[u8], buf: &mut [u8]) -> Result<(), String> {
    r.read_exact(buf).map_err(|_| "entry truncated".to_string())
}

fn get_uv(r: &mut &[u8]) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        read(r, &mut byte)?;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err("varint overflows u64".into());
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err("varint too long".into());
        }
    }
}

fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Budget, Experiment};
    use crate::runner::RunRequest;
    use simcore::SimDuration;
    use workloads::AppId;

    fn tmp_store(name: &str) -> SimStore {
        let mut root = std::env::temp_dir();
        root.push(format!("simstore-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        SimStore::open(root)
    }

    fn tiny_run() -> (RunKey, SingleRun) {
        let exp = Experiment::new(AppId::VlcMediaPlayer).budget(Budget {
            duration: SimDuration::from_secs(2),
            iterations: 1,
        });
        let req = RunRequest::new(&exp, 1);
        (req.cache_key(), req.execute())
    }

    fn entry_count(store: &SimStore) -> usize {
        fn walk(dir: &Path, out: &mut usize) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else if p.extension().is_some_and(|x| x == "run") {
                    *out += 1;
                }
            }
        }
        let mut n = 0;
        walk(store.root(), &mut n);
        n
    }

    #[test]
    fn save_load_roundtrips_the_whole_run() {
        let store = tmp_store("roundtrip");
        let (key, run) = tiny_run();
        assert!(matches!(store.load(&key), LoadOutcome::Miss));
        store.save(&key, &run).unwrap();
        // Idempotent: a second save leaves the immutable entry in place.
        store.save(&key, &run).unwrap();
        assert_eq!(entry_count(&store), 1);
        let LoadOutcome::Hit(back) = store.load(&key) else {
            panic!("expected a hit");
        };
        assert_eq!(back.trace, run.trace);
        assert_eq!(back.filter, run.filter);
        assert_eq!(back.metrics, run.metrics);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_saves_of_one_key_leave_one_whole_entry() {
        let store = tmp_store("race");
        let (key, run) = tiny_run();
        let path = store.entry_path(&key);
        for _ in 0..8 {
            let _ = std::fs::remove_file(&path);
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        store.save(&key, &run).unwrap();
                    });
                }
            });
            assert!(matches!(store.load(&key), LoadOutcome::Hit(_)));
        }
        let left: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(left, [path.file_name().unwrap()], "no temp file may remain");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn flipped_byte_quarantines_and_reports_miss() {
        let store = tmp_store("flip");
        let (key, run) = tiny_run();
        store.save(&key, &run).unwrap();
        let path = store.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        atomic_write(&path, &bytes).unwrap();
        let LoadOutcome::Quarantined { reason } = store.load(&key) else {
            panic!("corrupt entry must be quarantined");
        };
        assert!(reason.contains("checksum"), "{reason}");
        assert!(!path.exists(), "poisoned entry must leave its address");
        assert_eq!(
            std::fs::read_dir(store.quarantine_dir()).unwrap().count(),
            1
        );
        // The address is clean again: a re-simulated run stores fine.
        assert!(matches!(store.load(&key), LoadOutcome::Miss));
        store.save(&key, &run).unwrap();
        assert!(matches!(store.load(&key), LoadOutcome::Hit(_)));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_entry_quarantines() {
        let store = tmp_store("trunc");
        let (key, run) = tiny_run();
        store.save(&key, &run).unwrap();
        let path = store.entry_path(&key);
        let bytes = std::fs::read(&path).unwrap();
        atomic_write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(store.load(&key), LoadOutcome::Quarantined { .. }));
        assert!(matches!(store.load(&key), LoadOutcome::Miss));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn stale_epoch_is_a_clean_miss_plus_quarantine() {
        let root = tmp_store("epoch").root().to_path_buf();
        let (key, run) = tiny_run();
        // An older generation wrote this entry…
        let old = SimStore::open(&root).with_epoch(0);
        old.save(&key, &run).unwrap();
        // …and a current-epoch store finds it at ITS address for the key.
        // Simulate that collision by copying the old entry onto the new
        // address (epochs shard into separate directories by design, so
        // normally stale entries are simply never addressed).
        let current = SimStore::open(&root);
        let stale_bytes = std::fs::read(old.entry_path(&key)).unwrap();
        atomic_write(&current.entry_path(&key), &stale_bytes).unwrap();
        let LoadOutcome::Quarantined { reason } = current.load(&key) else {
            panic!("stale-epoch entry must be quarantined");
        };
        assert!(reason.contains("stale format epoch"), "{reason}");
        assert!(matches!(current.load(&key), LoadOutcome::Miss));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_key_in_entry_is_rejected() {
        let store = tmp_store("keyswap");
        let (key, run) = tiny_run();
        let exp2 = Experiment::new(AppId::VlcMediaPlayer).budget(Budget {
            duration: SimDuration::from_secs(2),
            iterations: 1,
        });
        let other = RunRequest::new(&exp2, 2).cache_key();
        store.save(&key, &run).unwrap();
        // Copy the entry onto the other key's address: content no longer
        // matches the address it is filed under.
        let bytes = std::fs::read(store.entry_path(&key)).unwrap();
        atomic_write(&store.entry_path(&other), &bytes).unwrap();
        let LoadOutcome::Quarantined { reason } = store.load(&other) else {
            panic!("mis-filed entry must be quarantined");
        };
        assert!(reason.contains("key mismatch"), "{reason}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn entry_paths_shard_by_digest_and_epoch() {
        let store = tmp_store("paths");
        let (key, _) = tiny_run();
        let path = store.entry_path(&key);
        assert!(path.starts_with(store.root().join(format!("v{FORMAT_EPOCH}"))));
        assert!(path.extension().is_some_and(|e| e == "run"));
        let shard = path.parent().unwrap().file_name().unwrap();
        assert_eq!(shard.len(), 2);
        // Same key, different epoch ⇒ different address.
        let other = SimStore::open(store.root()).with_epoch(FORMAT_EPOCH + 1);
        assert_ne!(path, other.entry_path(&key));
    }

    #[test]
    fn a_crafted_trace_header_quarantines_the_entry() {
        let store = tmp_store("crafted");
        let (key, run) = tiny_run();
        // A well-formed entry whose trace is a 22-byte v3 stream declaring
        // 2^40 logical CPUs, under a valid whole-file checksum.
        let mut trace = setl3::MAGIC.to_vec();
        trace.push(setl3::VERSION);
        put_uv(&mut trace, 1 << 40);
        trace.resize(22, 0);
        let good = store.encode(&key, &run);
        let trace_at = good.len() - 8 - setl3::encode(&run.trace).len();
        let mut bytes = good[..trace_at].to_vec();
        bytes.extend_from_slice(&trace);
        let hash = setl3::checksum(setl3::CHECKSUM_SEED, &bytes);
        bytes.extend_from_slice(&hash.to_le_bytes());
        atomic_write(&store.entry_path(&key), &bytes).unwrap();
        let LoadOutcome::Quarantined { reason } = store.load(&key) else {
            panic!("crafted trace header must be quarantined");
        };
        assert!(reason.contains("CPU count"), "{reason}");
        assert!(matches!(store.load(&key), LoadOutcome::Miss));
        let _ = std::fs::remove_dir_all(store.root());
    }
}
