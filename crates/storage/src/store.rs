//! Page stores: where pages live when they are not in the buffer pool.

use crate::page::{new_page, Page, PageId, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// A flat array of pages.
pub trait PageStore {
    /// Reads page `id` into `buf`.
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> io::Result<()>;
    /// Writes page `id` from `buf`, extending the store if necessary.
    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> io::Result<()>;
    /// Number of pages.
    fn page_count(&self) -> PageId;
}

/// In-memory page store.
#[derive(Debug, Default)]
pub struct MemStore {
    pages: Vec<Page>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl PageStore for MemStore {
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        let p = self
            .pages
            .get(id as usize)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "page out of range"))?;
        buf.copy_from_slice(&p[..]);
        Ok(())
    }

    #[expect(clippy::indexing_slicing, reason = "the loop above grows pages past id")]
    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> io::Result<()> {
        while self.pages.len() <= id as usize {
            self.pages.push(new_page());
        }
        self.pages[id as usize].copy_from_slice(buf);
        Ok(())
    }

    fn page_count(&self) -> PageId {
        self.pages.len() as PageId
    }
}

/// Heap attribution for the in-memory store: the page pointer vector plus
/// one boxed page per entry.
impl xseq_telemetry::HeapSize for MemStore {
    fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Page>() + self.pages.len() * PAGE_SIZE
    }
}

/// File-backed page store (a plain page file).
#[derive(Debug)]
pub struct FileStore {
    file: File,
    pages: PageId,
}

impl FileStore {
    /// Creates (truncating) a page file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore { file, pages: 0 })
    }

    /// Opens an existing page file.
    #[expect(clippy::integer_division_remainder_used, reason = "PAGE_SIZE is a nonzero constant")]
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file length is not a multiple of the page size",
            ));
        }
        Ok(FileStore {
            file,
            pages: (len / PAGE_SIZE as u64) as PageId,
        })
    }
}

impl PageStore for FileStore {
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        if id >= self.pages {
            return Err(io::Error::new(io::ErrorKind::NotFound, "page out of range"));
        }
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        self.file.read_exact(&mut buf[..])
    }

    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> io::Result<()> {
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        self.file.write_all(&buf[..])?;
        self.pages = self.pages.max(id + 1);
        Ok(())
    }

    fn page_count(&self) -> PageId {
        self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{get_u32, put_u32};

    fn roundtrip(store: &mut dyn PageStore) {
        let mut p = new_page();
        put_u32(&mut p, 0, 11);
        store.write_page(0, &p).unwrap();
        put_u32(&mut p, 0, 22);
        store.write_page(3, &p).unwrap();
        assert_eq!(store.page_count(), 4);

        let mut buf = new_page();
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(get_u32(&buf, 0), 11);
        store.read_page(3, &mut buf).unwrap();
        assert_eq!(get_u32(&buf, 0), 22);
        // the gap pages exist and are zeroed (mem) / readable (file)
        store.read_page(1, &mut buf).unwrap();
        assert_eq!(get_u32(&buf, 0), 0);
        assert!(store.read_page(99, &mut buf).is_err());
    }

    #[test]
    fn mem_store_roundtrip() {
        roundtrip(&mut MemStore::new());
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("xseq-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pages");
        {
            let mut fs = FileStore::create(&path).unwrap();
            // file gaps: must write the gap pages explicitly for read_exact
            let z = new_page();
            fs.write_page(0, &z).unwrap();
            fs.write_page(1, &z).unwrap();
            fs.write_page(2, &z).unwrap();
            fs.write_page(3, &z).unwrap();
            roundtrip(&mut fs);
        }
        // reopen and read back
        let mut fs = FileStore::open(&path).unwrap();
        assert_eq!(fs.page_count(), 4);
        let mut buf = new_page();
        fs.read_page(3, &mut buf).unwrap();
        assert_eq!(get_u32(&buf, 0), 22);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_ragged_file() {
        let dir = std::env::temp_dir().join(format!("xseq-store-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pages");
        std::fs::write(&path, b"not a page").unwrap();
        assert!(FileStore::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
