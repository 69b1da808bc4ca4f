//! Property tests locking the block-framed run format (version 2) to its
//! contract:
//!
//! - runs read back byte-identically through the reader;
//! - files of any *other* version — the retired unframed version 1
//!   included — are rejected with a clean [`StorageError::VersionMismatch`]
//!   carrying the version found, never misparsed as blocks or surfaced as
//!   a decode panic;
//! - appends read back as the exact concatenation and keep the file at
//!   the current version.

use proptest::prelude::*;
use smr_storage::{RunReader, RunWriter, StorageError, FORMAT_VERSION};
use std::path::PathBuf;

fn temp_path(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smr-run-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{case}.run"))
}

fn records_from(lens: &[u16]) -> Vec<(u64, String)> {
    lens.iter()
        .enumerate()
        .map(|(i, len)| (i as u64, "x".repeat(*len as usize % 512)))
        .collect()
}

fn write(path: &PathBuf, records: &[(u64, String)]) -> Result<(), StorageError> {
    let mut writer: RunWriter<(u64, String)> = RunWriter::create(path)?;
    for record in records {
        writer.push(record)?;
    }
    writer.finish()?;
    Ok(())
}

/// The version field stored in the header of the file at `path`.
fn stored_version(path: &PathBuf) -> u16 {
    let bytes = std::fs::read(path).unwrap();
    u16::from_le_bytes([bytes[4], bytes[5]])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn runs_round_trip_identically(
        case in 0u64..u64::MAX,
        lens in proptest::collection::vec(0u16..1024, 0..120),
    ) {
        let records = records_from(&lens);
        let path = temp_path("round-trip", case);
        write(&path, &records).unwrap();
        prop_assert_eq!(stored_version(&path), FORMAT_VERSION);
        let reader: RunReader<(u64, String)> = RunReader::open(&path).unwrap();
        prop_assert_eq!(reader.records(), records.len() as u64);
        let read = reader.read_to_end().unwrap();
        prop_assert!(read == records, "round trip diverged");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_versions_are_rejected_cleanly(
        case in 0u64..u64::MAX,
        bogus in 0u16..u16::MAX,
        lens in proptest::collection::vec(0u16..64, 1..10),
    ) {
        // Readers must reject any version they do not speak with a typed
        // VersionMismatch naming what they found; version 1 is checked in
        // every case.
        let bogus = if bogus == FORMAT_VERSION { 0xbeef } else { bogus };
        let path = temp_path("version", case);
        write(&path, &records_from(&lens)).unwrap();
        for version in [1, bogus] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            match RunReader::<(u64, String)>::open(&path) {
                Err(StorageError::VersionMismatch { found, expected }) => {
                    prop_assert_eq!(found, version);
                    prop_assert_eq!(expected, FORMAT_VERSION);
                }
                other => {
                    std::fs::remove_file(&path).unwrap();
                    return Err(TestCaseError::fail(format!(
                        "expected VersionMismatch, got {other:?}"
                    )));
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_read_back_as_the_concatenation(
        case in 0u64..u64::MAX,
        first in proptest::collection::vec(0u16..256, 0..40),
        second in proptest::collection::vec(0u16..256, 1..40),
    ) {
        let head = records_from(&first);
        let tail = records_from(&second);
        let path = temp_path("append", case);
        write(&path, &head).unwrap();
        let mut appender: RunWriter<(u64, String)> = RunWriter::append_to(&path).unwrap();
        for record in &tail {
            appender.push(record).unwrap();
        }
        appender.finish().unwrap();
        prop_assert_eq!(stored_version(&path), FORMAT_VERSION);
        let reader: RunReader<(u64, String)> = RunReader::open(&path).unwrap();
        let mut expected = head.clone();
        expected.extend(tail.iter().cloned());
        prop_assert_eq!(reader.read_to_end().unwrap(), expected);
        std::fs::remove_file(&path).unwrap();
    }
}
