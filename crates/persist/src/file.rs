//! File-level helpers: save/load the synopsis and store-map containers with an atomic write-then-rename, so a crash mid-save leaves
//! the previous snapshot intact instead of a torn file (a torn file would be
//! *detected* by the CRC trailer, but detection is worse than never
//! corrupting the file).
//! The temp file is synced before the rename and its directory after it,
//! so this holds across power loss too, not only across process crashes.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use hist_core::Synopsis;

use crate::codec::{
    decode_store_map, decode_synopsis, encode_store_map, encode_synopsis, StoreMapEntry,
    StoreMapSnapshot,
};
use crate::error::PersistResult;

/// The sibling temp path used by the atomic save: a uniquely named
/// `<file>.<pid>.<seq>.tmp` next to the destination, so the final rename
/// never crosses a filesystem boundary and concurrent savers (threads or
/// processes) never interleave on a shared temp file — each writes its own
/// complete file and the last rename wins whole.
fn temp_sibling(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".{}.{}.tmp", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    path.with_file_name(name)
}

/// Writes `bytes` to `path` atomically and durably: write and sync a
/// uniquely named temp sibling, rename it over the destination, then sync
/// the directory so the rename itself survives power loss.
fn write_atomic(path: &Path, bytes: &[u8]) -> PersistResult<()> {
    let tmp = temp_sibling(path);
    if let Err(e) = write_synced(&tmp, bytes).and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    sync_parent(path)?;
    Ok(())
}

/// Creates `path` holding exactly `bytes`, flushed to the device.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Syncs the directory entry of `path`, which is what makes a rename into
/// that directory durable.
#[cfg(unix)]
fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    fs::File::open(parent)?.sync_all()
}

/// Directories cannot be opened as files off Unix; the rename is as durable
/// as the platform makes it.
#[cfg(not(unix))]
fn sync_parent(_: &Path) -> io::Result<()> {
    Ok(())
}

/// Saves a synopsis to `path` as an `AHISTSYN` container (atomic replace).
pub fn save_synopsis(path: impl AsRef<Path>, synopsis: &Synopsis) -> PersistResult<()> {
    write_atomic(path.as_ref(), &encode_synopsis(synopsis))
}

/// Loads the synopsis previously saved to `path` with [`save_synopsis`].
pub fn load_synopsis(path: impl AsRef<Path>) -> PersistResult<Synopsis> {
    Ok(decode_synopsis(&fs::read(path)?)?)
}

/// Saves a keyed store map to `path` as an `AHISTMAP` container (atomic
/// replace). Entries land in canonical ascending-key order whatever the
/// input order.
pub fn save_store_map(path: impl AsRef<Path>, entries: &[StoreMapEntry]) -> PersistResult<()> {
    write_atomic(path.as_ref(), &encode_store_map(entries)?)
}

/// Loads the keyed store map previously saved with [`save_store_map`].
pub fn load_store_map(path: impl AsRef<Path>) -> PersistResult<StoreMapSnapshot> {
    Ok(decode_store_map(&fs::read(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PersistError;
    use hist_core::{FittedModel, Histogram};

    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hist-persist-tests").join(test);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn synopsis() -> Synopsis {
        let h = Histogram::from_breakpoints(30, &[10, 20], vec![1.0, 4.0, 2.0]).unwrap();
        Synopsis::new("merging", 3, FittedModel::Histogram(h))
    }

    #[test]
    fn synopsis_file_round_trip() {
        let dir = scratch_dir("synopsis");
        let path = dir.join("fit.synopsis");
        save_synopsis(&path, &synopsis()).unwrap();
        let loaded = load_synopsis(&path).unwrap();
        assert_eq!(loaded, synopsis());
        let leftover_tmp = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.path().extension().is_some_and(|ext| ext == "tmp"));
        assert!(!leftover_tmp, "temp siblings must be renamed away");
    }

    #[test]
    fn concurrent_saves_to_one_path_always_leave_a_whole_file() {
        let dir = scratch_dir("concurrent");
        let path = dir.join("contended.synopsis");
        let target = synopsis();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        save_synopsis(&path, &target).unwrap();
                    }
                });
            }
        });
        // Whichever save renamed last, the file is a complete container —
        // unique temp siblings mean writers can never interleave on it.
        assert_eq!(load_synopsis(&path).unwrap(), target);
    }

    #[test]
    fn save_replaces_previous_contents_atomically() {
        let path = scratch_dir("replace").join("fit.synopsis");
        save_synopsis(&path, &synopsis()).unwrap();
        let h = Histogram::constant(5, 9.0).unwrap();
        let next = Synopsis::new("merged", 1, FittedModel::Histogram(h));
        save_synopsis(&path, &next).unwrap();
        assert_eq!(load_synopsis(&path).unwrap(), next);
    }

    #[cfg(unix)]
    #[test]
    fn a_bare_file_name_syncs_the_current_directory() {
        sync_parent(Path::new("fit.synopsis")).unwrap();
        let err = sync_parent(&scratch_dir("sync").join("absent").join("fit.synopsis"));
        assert!(err.is_err(), "a missing directory cannot be synced");
    }

    #[test]
    fn missing_files_surface_io_errors() {
        let path = scratch_dir("missing").join("nope.synopsis");
        assert!(matches!(load_synopsis(&path), Err(PersistError::Io(_))));
        assert!(matches!(load_store_map(&path), Err(PersistError::Io(_))));
    }

    #[test]
    fn corrupted_files_surface_codec_errors() {
        let path = scratch_dir("corrupt").join("fit.synopsis");
        save_synopsis(&path, &synopsis()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_synopsis(&path), Err(PersistError::Codec(_))));
    }
}
