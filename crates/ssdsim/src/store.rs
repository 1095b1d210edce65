//! Byte stores backing the simulated drives.

use std::fs::{File, OpenOptions};
use std::path::Path;

use fg_types::sync::RwLock;
use fg_types::{FgError, Result};

/// Where a simulated drive's bytes actually live.
///
/// Implementations must support concurrent `read_at` from many
/// threads; the simulator never issues overlapping concurrent writes
/// to the same range (the graph image is written once, then read).
pub trait PageStore: Send + Sync {
    /// Capacity in bytes.
    fn capacity(&self) -> u64;

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] when the range exceeds
    /// capacity, or [`FgError::Io`] for OS failures.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `data` starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] when the range exceeds
    /// capacity, or [`FgError::Io`] for OS failures.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;
}

/// Validates `[offset, offset + len)` against a device of `capacity`
/// bytes and returns its end.
///
/// # Errors
///
/// Returns [`FgError::InvalidRequest`] when the range overflows or
/// exceeds the capacity.
pub fn check_range(capacity: u64, offset: u64, len: u64) -> Result<u64> {
    let end = offset
        .checked_add(len)
        .ok_or_else(|| FgError::InvalidRequest("offset + len overflows".into()))?;
    if end > capacity {
        return Err(FgError::InvalidRequest(format!(
            "range [{offset}, {end}) exceeds capacity {capacity}"
        )));
    }
    Ok(end)
}

/// An in-RAM store. The default for experiments: the simulator's
/// virtual-time ledger supplies the "device speed", so the backing
/// bytes may as well be fast.
#[derive(Debug)]
pub struct MemStore {
    bytes: RwLock<Box<[u8]>>,
}

impl MemStore {
    /// Allocates a zeroed store of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemStore {
            bytes: RwLock::new(vec![0u8; capacity as usize].into_boxed_slice()),
        }
    }
}

impl PageStore for MemStore {
    fn capacity(&self) -> u64 {
        self.bytes.read().len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let bytes = self.bytes.read();
        check_range(bytes.len() as u64, offset, buf.len() as u64)?;
        let start = offset as usize;
        buf.copy_from_slice(&bytes[start..start + buf.len()]);
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut bytes = self.bytes.write();
        check_range(bytes.len() as u64, offset, data.len() as u64)?;
        let start = offset as usize;
        bytes[start..start + data.len()].copy_from_slice(data);
        Ok(())
    }
}

/// A store backed by a real file, for integration tests that want the
/// graph image to cross a true filesystem boundary.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    capacity: u64,
}

impl FileStore {
    /// Creates (truncating) a file of `capacity` bytes at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::Io`] when the file cannot be created or
    /// sized.
    pub fn create<P: AsRef<Path>>(path: P, capacity: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(capacity)?;
        Ok(FileStore { file, capacity })
    }

    /// Opens an existing file read-write without truncation.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::Io`] when the file cannot be opened.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let capacity = file.metadata()?.len();
        Ok(FileStore { file, capacity })
    }
}

impl PageStore for FileStore {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    #[cfg(unix)]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        check_range(self.capacity, offset, buf.len() as u64)?;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    #[cfg(unix)]
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        check_range(self.capacity, offset, data.len() as u64)?;
        self.file.write_all_at(data, offset)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_at(&self, _offset: u64, _buf: &mut [u8]) -> Result<()> {
        Err(FgError::Unsupported("FileStore requires unix".into()))
    }

    #[cfg(not(unix))]
    fn write_at(&self, _offset: u64, _data: &[u8]) -> Result<()> {
        Err(FgError::Unsupported("FileStore requires unix".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_round_trip() {
        let s = MemStore::new(1024);
        s.write_at(100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        s.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn mem_store_rejects_out_of_range() {
        let s = MemStore::new(10);
        let mut buf = [0u8; 4];
        assert!(s.read_at(8, &mut buf).is_err());
        assert!(s.write_at(u64::MAX, b"x").is_err());
    }

    #[test]
    fn mem_store_concurrent_reads() {
        let s = std::sync::Arc::new(MemStore::new(4096));
        s.write_at(0, &[42u8; 4096]).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut buf = [0u8; 512];
                for i in 0..8 {
                    s.read_at(i * 512, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == 42));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("fgstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        let s = FileStore::create(&path, 8192).unwrap();
        s.write_at(4096, b"flash").unwrap();
        let mut buf = [0u8; 5];
        s.read_at(4096, &mut buf).unwrap();
        assert_eq!(&buf, b"flash");
        drop(s);
        let s2 = FileStore::open(&path).unwrap();
        assert_eq!(s2.capacity(), 8192);
        let mut buf2 = [0u8; 5];
        s2.read_at(4096, &mut buf2).unwrap();
        assert_eq!(&buf2, b"flash");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_rejects_out_of_range() {
        let dir = std::env::temp_dir().join(format!("fgstore2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        let s = FileStore::create(&path, 100).unwrap();
        let mut buf = [0u8; 8];
        assert!(s.read_at(96, &mut buf).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
