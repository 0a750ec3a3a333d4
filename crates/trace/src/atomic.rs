//! Crash-safe file replacement, shared by every persisted document of
//! the workspace: sweep checkpoints and records, run manifests and the
//! bench suite's JSON.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The temp file [`write_atomic`] fills before renaming it over `path`:
/// `path` with `.tmp` appended.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Replace `path` with `bytes` atomically: write [`tmp_path`], **fsync
/// it**, rename it over the target, then fsync the parent directory. The
/// first fsync matters — without it a host crash can replay the rename
/// before the data blocks hit disk, leaving a truncated file at the
/// *final* path. Errors name the file that failed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp).map_err(naming(&tmp))?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(naming(&tmp))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(naming(path))?;
    // The rename is durable only once the directory entry is.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(naming(dir))
}

fn naming(file: &Path) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", file.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_the_target_and_names_failures() {
        let dir = std::env::temp_dir().join(format!("uvf-trace-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!tmp_path(&path).exists(), "temp file renamed away");
        let missing = dir.join("no_such_dir").join("doc.json");
        let err = write_atomic(&missing, b"x").unwrap_err();
        assert!(err.to_string().contains("no_such_dir"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
