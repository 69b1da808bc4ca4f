//! The spill manager: a memory budget plus one self-cleaning, append-only
//! spill file of sorted runs.
//!
//! One [`SpillManager`] serves one job execution.  It owns
//!
//! * the job's **memory budget** in bytes, divided evenly among the
//!   concurrent worker threads ([`SpillManager::task_budget`]) so the hot
//!   per-record budget check is a plain integer comparison with no shared
//!   state, and the spill schedule is deterministic for a fixed thread
//!   count;
//! * one **spill file**, created lazily on the first spill and deleted
//!   when the manager drops — a job that never spills touches the file
//!   system not at all, and no temp file outlives the job either way.
//!   Every run the job spills is a segment of this file, found by its
//!   offset (as a Hadoop map task's spills are): [`SpillManager::write_run`]
//!   encodes the complete run into a reusable per-thread buffer, reserves
//!   its byte range with one atomic add and writes it with one positioned
//!   write — no lock and no file creation per run;
//! * the job's spill **accounting** ([`SpillManager::spilled_bytes`],
//!   [`SpillManager::disk_runs`]), which the engine surfaces as the
//!   `spill_bytes` / `disk_runs` metrics.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::codec::Codec;
use crate::run::{encode_run, CompletedRun, StorageError};

/// Process-wide counter making concurrent managers' spill files unique.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A thread keeps its run-encoding buffer for the next spill only while
/// the buffer is at most this large, so one outsized run cannot pin its
/// memory for the thread's lifetime.
const RETAINED_BUFFER_BYTES: usize = 1 << 20;

thread_local! {
    /// The calling thread's reusable run-encoding buffer.
    static RUN_BUFFER: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// The job's spill file: its path plus the open handle every run is
/// written through.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    file: File,
}

/// Owns a job's memory budget and its one file of spilled runs.
#[derive(Debug)]
pub struct SpillManager {
    base: PathBuf,
    /// Created by the first spill.  A failed creation is kept (as its
    /// message) and fails every later spill the same way.
    file: OnceLock<Result<SpillFile, String>>,
    task_budget: u64,
    /// End of the reserved byte ranges: the next run's offset.
    end: AtomicU64,
    spilled_bytes: AtomicU64,
    disk_runs: AtomicU64,
}

impl SpillManager {
    /// Creates a manager for a job with `budget_bytes` of buffer memory
    /// shared by `workers` concurrent worker threads.  Runs spill into a
    /// fresh file in `base` (the system temp directory when `None`).
    pub fn new(budget_bytes: u64, workers: usize, base: Option<PathBuf>) -> Self {
        let workers = workers.max(1) as u64;
        SpillManager {
            base: base.unwrap_or_else(std::env::temp_dir),
            file: OnceLock::new(),
            task_budget: (budget_bytes / workers).max(1),
            end: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            disk_runs: AtomicU64::new(0),
        }
    }

    /// The per-worker share of the budget, in bytes: a task buffer holding
    /// more than this many (estimated) bytes must spill.
    pub fn task_budget(&self) -> u64 {
        self.task_budget
    }

    /// Appends one sorted run to the job's spill file and returns the
    /// segment holding it.  Safe to call from many threads at once: each
    /// run's byte range is reserved atomically, so concurrent runs never
    /// overlap.  An I/O error names the spill file and the run's offset.
    pub fn write_run<R: Codec>(&self, records: &[R]) -> Result<CompletedRun, StorageError> {
        let spill = self.file()?;
        let mut buffer = RUN_BUFFER.take();
        buffer.clear();
        let bytes = encode_run(records, &mut buffer)?;
        let len = buffer.len() as u64;
        // Relaxed suffices: the add only has to hand every run a distinct
        // range, which any ordering guarantees; the runs' bytes reach
        // their readers through the merge's join of the map threads.
        let offset = self.end.fetch_add(len, Ordering::Relaxed);
        write_all_at(&spill.file, &buffer, offset).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "writing {len} bytes at offset {offset} of {}: {e}",
                    spill.path.display()
                ),
            )
        })?;
        if buffer.capacity() <= RETAINED_BUFFER_BYTES {
            RUN_BUFFER.set(buffer);
        }
        self.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.disk_runs.fetch_add(1, Ordering::Relaxed);
        Ok(CompletedRun {
            path: spill.path.clone(),
            offset,
            len,
            records: records.len() as u64,
            bytes,
        })
    }

    /// Encoded bytes spilled so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// Runs spilled so far.
    pub fn disk_runs(&self) -> u64 {
        self.disk_runs.load(Ordering::Relaxed)
    }

    /// The spill file, if a run has been written yet.
    pub fn path(&self) -> Option<&Path> {
        match self.file.get() {
            Some(Ok(spill)) => Some(&spill.path),
            _ => None,
        }
    }

    fn file(&self) -> Result<&SpillFile, StorageError> {
        let created = self.file.get_or_init(|| {
            let path = self.base.join(format!(
                "smr-spill-{}-{}.smr",
                std::process::id(),
                SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&self.base)
                .and_then(|()| OpenOptions::new().write(true).create_new(true).open(&path))
                .map(|file| SpillFile {
                    path: path.clone(),
                    file,
                })
                .map_err(|e| format!("cannot create spill file {}: {e}", path.display()))
        });
        created
            .as_ref()
            .map_err(|message| StorageError::Io(io::Error::other(message.clone())))
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        if let Some(Ok(spill)) = self.file.take() {
            drop(spill.file);
            // Best effort: a failed cleanup must not panic a drop.
            let _ = std::fs::remove_file(&spill.path);
        }
    }
}

/// Writes all of `buf` at `offset` of `file` without moving a shared file
/// cursor, so concurrent writers to disjoint ranges never race.
#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Writes all of `buf` at `offset` of `file` without moving a shared file
/// cursor, so concurrent writers to disjoint ranges never race.
#[cfg(windows)]
fn write_all_at(file: &File, mut buf: &[u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_write(buf, offset) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                buf = &buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{RunReader, RunWriter};

    /// A fresh, empty base directory unique to `name`.
    fn base_dir(name: &str) -> PathBuf {
        let base = std::env::temp_dir().join(format!("smr-spill-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        base
    }

    fn entries(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect()
    }

    #[test]
    fn budget_is_divided_among_workers() {
        let m = SpillManager::new(8192, 8, None);
        assert_eq!(m.task_budget(), 1024);
        // Degenerate budgets still yield a positive threshold.
        assert_eq!(SpillManager::new(0, 4, None).task_budget(), 1);
        assert_eq!(SpillManager::new(10, 0, None).task_budget(), 10);
    }

    #[test]
    fn runs_round_trip_and_the_file_vanishes_on_drop() {
        let manager = SpillManager::new(1024, 1, None);
        assert!(manager.path().is_none(), "no file before the first spill");
        let records: Vec<(u64, u64)> = (0..50).map(|i| (i, i * 2)).collect();
        let run = manager.write_run(&records).unwrap();
        let path = manager
            .path()
            .expect("file created on first spill")
            .to_path_buf();
        assert!(path.is_file());
        assert_eq!(run.path, path);
        assert_eq!((run.offset, run.records), (0, 50));
        assert_eq!(manager.disk_runs(), 1);
        assert_eq!(manager.spilled_bytes(), run.bytes);
        assert!(run.bytes > 0);

        let reader: RunReader<(u64, u64)> = RunReader::open_run(&run).unwrap();
        reader.check_type().unwrap();
        assert_eq!(reader.read_to_end().unwrap(), records);

        drop(manager);
        assert!(!path.exists(), "spill file must be removed on drop");
    }

    #[test]
    fn concurrent_managers_use_distinct_files() {
        let a = SpillManager::new(64, 1, None);
        let b = SpillManager::new(64, 1, None);
        a.write_run(&[1u64]).unwrap();
        b.write_run(&[2u64]).unwrap();
        assert!(a.path().is_some());
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn explicit_base_directory_is_honoured() {
        let base = base_dir("base");
        let manager = SpillManager::new(64, 1, Some(base.clone()));
        manager.write_run(&[9u8]).unwrap();
        let path = manager.path().unwrap();
        assert_eq!(path.parent(), Some(base.as_path()));
        drop(manager);
        assert_eq!(
            std::fs::read_dir(&base).unwrap().count(),
            0,
            "base must be empty after drop"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn runs_are_back_to_back_segments_of_one_file() {
        let manager = SpillManager::new(64, 1, None);
        let first = manager.write_run(&[1u64, 2, 3]).unwrap();
        let second = manager.write_run(&[4u64, 5]).unwrap();
        assert_eq!(first.path, second.path);
        assert_eq!(second.offset, first.offset + first.len);
        let file_len = std::fs::metadata(&first.path).unwrap().len();
        assert_eq!(file_len, second.offset + second.len);
        let read = |run: &CompletedRun| {
            RunReader::<u64>::open_run(run)
                .unwrap()
                .read_to_end()
                .unwrap()
        };
        assert_eq!(read(&first), vec![1, 2, 3]);
        assert_eq!(read(&second), vec![4, 5]);
    }

    #[test]
    fn spilled_segments_are_byte_identical_to_run_writer_files() {
        // One run-file format: a spilled segment is exactly the file a
        // RunWriter leaves, so a shipped segment is a valid run file.
        let records: Vec<(u64, String)> = (0..3000).map(|i| (i, format!("value-{i}"))).collect();
        let manager = SpillManager::new(64, 1, None);
        manager.write_run(&[0u8]).unwrap();
        let run = manager.write_run(&records).unwrap();
        assert!(run.offset > 0);

        let path = base_dir("writer").join("reference.run");
        let mut writer: RunWriter<(u64, String)> = RunWriter::create(&path).unwrap();
        for record in &records {
            writer.push(record).unwrap();
        }
        let reference = writer.finish().unwrap();
        let file = std::fs::read(&path).unwrap();
        let spilled = std::fs::read(&run.path).unwrap();
        let segment = &spilled[run.offset as usize..(run.offset + run.len) as usize];
        assert_eq!(segment, &file[..], "segment bytes differ from the file");
        assert_eq!((run.len, run.bytes), (reference.len, reference.bytes));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn concurrent_writers_share_one_file_and_read_back_their_own_runs() {
        const THREADS: u64 = 4;
        const RUNS: u64 = 60;
        let base = base_dir("threads");
        let manager = SpillManager::new(1024, THREADS as usize, Some(base.clone()));
        // Each thread's runs: the records it spilled and where they went.
        type Spilled = Vec<(Vec<(u64, String)>, CompletedRun)>;
        // All threads start spilling together, so their runs interleave.
        let start = std::sync::Barrier::new(THREADS as usize);
        let runs: Vec<Spilled> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (manager, start) = (&manager, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..RUNS)
                            .map(|r| {
                                // Sizes vary per run so segments interleave
                                // at uneven offsets.
                                let records: Vec<(u64, String)> = (0..(r * 7 + t) % 90 + 1)
                                    .map(|i| (t << 32 | r << 16 | i, "x".repeat((i % 17) as usize)))
                                    .collect();
                                let run = manager.write_run(&records).unwrap();
                                (records, run)
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(manager.disk_runs(), THREADS * RUNS);
        assert_eq!(
            entries(&base),
            vec![manager.path().unwrap().to_path_buf()],
            "a live manager holds exactly one file"
        );

        let mut segments: Vec<(u64, u64)> = Vec::new();
        for (records, run) in runs.iter().flatten() {
            let reader: RunReader<(u64, String)> = RunReader::open_run(run).unwrap();
            assert_eq!(&reader.read_to_end().unwrap(), records);
            segments.push((run.offset, run.len));
        }
        // The reserved ranges tile the file without gaps or overlaps.
        segments.sort_unstable();
        let mut end = 0;
        for (offset, len) in segments {
            assert_eq!(offset, end, "segments must not overlap or leave holes");
            end = offset + len;
        }
        assert_eq!(
            end,
            std::fs::metadata(manager.path().unwrap()).unwrap().len()
        );

        drop(manager);
        assert!(entries(&base).is_empty(), "no file may outlive the manager");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn an_unusable_base_fails_every_spill_without_a_file() {
        let base = base_dir("unusable");
        let not_a_dir = base.join("plain-file");
        std::fs::write(&not_a_dir, b"x").unwrap();
        let manager = SpillManager::new(64, 1, Some(not_a_dir.clone()));
        for _ in 0..2 {
            let err = manager.write_run(&[1u64]).unwrap_err();
            assert!(
                err.to_string().contains("cannot create spill file"),
                "{err}"
            );
        }
        assert!(manager.path().is_none());
        assert_eq!(manager.disk_runs(), 0);
        drop(manager);
        std::fs::remove_dir_all(&base).unwrap();
    }
}
