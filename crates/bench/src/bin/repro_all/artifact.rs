//! Crash-safe artifact I/O: atomic writes and content-hash manifests.
//!
//! A killed process must never leave a half-written `BENCH_*.json` behind,
//! and a resumed suite must be able to tell *finished* artifacts from
//! torn ones. Two pieces provide that:
//!
//! * [`atomic_write`] — how every file `repro_all` writes lands: write
//!   to `<path>.tmp`, fsync, then `rename` into place. On every
//!   platform the suite targets, the rename is atomic within a
//!   filesystem, so readers observe either the old bytes or the complete
//!   new bytes, never a prefix.
//! * [`Manifest`] — a tiny text-format completion ledger (`cmap-manifest/v1`)
//!   mapping artifact file names to [`fnv1a64`] content hashes. `repro_all`
//!   rewrites it (atomically) after each figure completes; `--resume`
//!   trusts an artifact only if it is present *and* hashes to its
//!   manifest entry, so torn or stale files are simply re-run.
//!
//! The manifest is deliberately line-oriented text, not JSON: the
//! workspace has no JSON parser (writers are hand-rolled), and a
//! one-entry-per-line format stays trivially greppable in CI logs.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use cmap_obs::fnv1a64;

/// Manifest format identifier (first line of every manifest file).
const MANIFEST_SCHEMA: &str = "cmap-manifest/v1";

/// Write `bytes` to `path` atomically: temp file, fsync, rename.
///
/// The temp file lives next to the target (`<path>.tmp`) so the rename
/// never crosses a filesystem boundary.
pub(crate) fn atomic_write<P: AsRef<Path>>(path: P, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// A completion ledger for a directory of artifacts.
///
/// Text format, one record per line:
///
/// ```text
/// cmap-manifest/v1
/// meta <free-form run identity line>
/// <16-hex-digit fnv1a64> <file name>
/// ```
///
/// Entries serialize sorted by file name, so the manifest itself is
/// deterministic for a given completion set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Run-identity line (seed/effort/configs); a resumed run refuses a
    /// manifest whose meta does not match its own parameters.
    pub(crate) meta: String,
    entries: BTreeMap<String, u64>,
}

impl Manifest {
    /// An empty manifest carrying `meta` as its run-identity line.
    pub(crate) fn new(meta: &str) -> Manifest {
        assert!(!meta.contains('\n'), "manifest meta must be a single line");
        Manifest {
            meta: meta.to_string(),
            entries: BTreeMap::new(),
        }
    }

    /// Record (or overwrite) `name` as complete with the hash of `bytes`.
    pub(crate) fn record(&mut self, name: &str, bytes: &[u8]) {
        assert!(
            !name.is_empty() && !name.contains(' ') && !name.contains('\n'),
            "manifest entry names must be single non-empty tokens: {name:?}"
        );
        self.entries.insert(name.to_string(), fnv1a64(bytes));
    }

    /// Whether `bytes` matches the recorded hash for `name`.
    pub(crate) fn verify(&self, name: &str, bytes: &[u8]) -> bool {
        self.entries.get(name) == Some(&fnv1a64(bytes))
    }

    /// Number of completion records.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Serialize to the line-oriented text format.
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_SCHEMA);
        out.push('\n');
        out.push_str("meta ");
        out.push_str(&self.meta);
        out.push('\n');
        for (name, hash) in &self.entries {
            out.push_str(&format!("{hash:016x} {name}\n"));
        }
        out
    }

    /// Parse the text format back. Any malformed line is an error — a
    /// torn manifest must invalidate the whole resume state, not part
    /// of it.
    pub(crate) fn parse(text: &str) -> Result<Manifest, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_SCHEMA) => {}
            other => return Err(format!("bad manifest header: {other:?}")),
        }
        let meta = match lines.next() {
            Some(line) => line
                .strip_prefix("meta ")
                .ok_or_else(|| format!("bad manifest meta line: {line:?}"))?
                .to_string(),
            None => return Err("manifest missing meta line".to_string()),
        };
        let mut entries = BTreeMap::new();
        for line in lines {
            let (hash_hex, name) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad manifest entry: {line:?}"))?;
            if hash_hex.len() != 16 || name.is_empty() || name.contains(' ') {
                return Err(format!("bad manifest entry: {line:?}"));
            }
            let hash = u64::from_str_radix(hash_hex, 16)
                .map_err(|e| format!("bad manifest hash in {line:?}: {e}"))?;
            entries.insert(name.to_string(), hash);
        }
        Ok(Manifest { meta, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cmap-repro-all-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(name)
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let path = scratch_path("atomic.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer than before").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer than before");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
    }

    #[test]
    fn manifest_round_trips_and_sorts() {
        let mut m = Manifest::new("seed=42 effort=quick");
        m.record("fig_b.json", b"bbb");
        m.record("fig_a.json", b"aaa");
        let text = m.to_text();
        // Sorted entries, schema header first.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], MANIFEST_SCHEMA);
        assert_eq!(lines[1], "meta seed=42 effort=quick");
        assert!(lines[2].ends_with(" fig_a.json"));
        assert!(lines[3].ends_with(" fig_b.json"));
        let back = Manifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert!(back.verify("fig_a.json", b"aaa"));
        assert!(!back.verify("fig_a.json", b"tampered"));
        assert!(!back.verify("fig_missing.json", b"aaa"));
    }

    #[test]
    fn manifest_rejects_torn_text() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("not-a-manifest\nmeta x\n").is_err());
        assert!(Manifest::parse("cmap-manifest/v1\n").is_err());
        assert!(Manifest::parse("cmap-manifest/v1\nmeta x\nbadline\n").is_err());
        // Truncated hash (torn final line).
        assert!(Manifest::parse("cmap-manifest/v1\nmeta x\n1234 f.json\n").is_err());
    }
}
