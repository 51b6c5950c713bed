//! `io::Error` injection under the CSV scanner.
//!
//! [`FaultRead`] wraps any `BufRead` and fails it once the reader
//! crosses a byte offset; [`FaultDir`] is a [`TableSource`] that hands
//! out faulted readers on a per-table schedule. A *transient* fault
//! clears after a configured number of opens (the store's bounded retry
//! must recover); a *permanent* one never does (the store must
//! quarantine or fail).

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bgq_logs::store::TableSource;

/// One table's fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Byte offset at which reads start failing (`0` fails the first
    /// read; the open itself always succeeds).
    pub fail_at: u64,
    /// How many opens observe the fault before it clears.
    /// `u32::MAX` means permanent.
    pub failures: u32,
    /// The error kind injected.
    pub kind: io::ErrorKind,
}

impl FaultSpec {
    /// A transient fault: fails the first `failures` opens at `fail_at`,
    /// then disappears.
    ///
    /// Deliberately NOT `ErrorKind::Interrupted` — std's `read_to_end`
    /// and `read_until` auto-retry `Interrupted` in place, which would
    /// spin forever on a fault that only clears on *reopen*.
    #[must_use]
    pub fn transient(fail_at: u64, failures: u32) -> Self {
        FaultSpec {
            fail_at,
            failures,
            kind: io::ErrorKind::TimedOut,
        }
    }

    /// A permanent fault at `fail_at`.
    #[must_use]
    pub fn permanent(fail_at: u64) -> Self {
        FaultSpec {
            fail_at,
            failures: u32::MAX,
            kind: io::ErrorKind::Other,
        }
    }
}

/// A `BufRead` that delivers bytes faithfully up to `fail_at`, then
/// returns the injected error on every further read.
#[derive(Debug)]
pub struct FaultRead<R> {
    inner: R,
    pos: u64,
    fail_at: u64,
    kind: io::ErrorKind,
}

impl<R: BufRead> FaultRead<R> {
    /// Wraps `inner`, failing once `fail_at` bytes have been consumed.
    #[must_use]
    pub fn new(inner: R, fail_at: u64, kind: io::ErrorKind) -> Self {
        FaultRead {
            inner,
            pos: 0,
            fail_at,
            kind,
        }
    }
}

impl<R: BufRead> Read for FaultRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for FaultRead<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.fail_at {
            return Err(io::Error::new(self.kind, "injected read fault"));
        }
        let remaining = usize::try_from(self.fail_at - self.pos).unwrap_or(usize::MAX);
        let buf = self.inner.fill_buf()?;
        let n = buf.len().min(remaining);
        Ok(&buf[..n])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt as u64;
        self.inner.consume(amt);
    }
}

/// A [`TableSource`] over a dataset directory with per-table fault
/// schedules. Tables without a schedule read normally.
#[derive(Debug)]
pub struct FaultDir {
    dir: PathBuf,
    faults: Mutex<HashMap<&'static str, FaultSpec>>,
    opens: Mutex<HashMap<&'static str, u32>>,
}

impl FaultDir {
    /// A fault-free source over `dir`; add schedules with
    /// [`FaultDir::with_fault`].
    #[must_use]
    pub fn new(dir: &Path) -> Self {
        FaultDir {
            dir: dir.to_path_buf(),
            faults: Mutex::new(HashMap::new()),
            opens: Mutex::new(HashMap::new()),
        }
    }

    /// Schedules `spec` for `table` (replacing any earlier schedule).
    #[must_use]
    pub fn with_fault(self, table: &'static str, spec: FaultSpec) -> Self {
        self.faults.lock().unwrap().insert(table, spec);
        self
    }

    /// How many times `table` has been opened so far (retry = reopen).
    #[must_use]
    pub fn opens(&self, table: &str) -> u32 {
        *self.opens.lock().unwrap().get(table).unwrap_or(&0)
    }
}

impl TableSource for FaultDir {
    fn open_table(&self, table: &'static str) -> io::Result<Box<dyn BufRead + '_>> {
        let open_count = {
            let mut opens = self.opens.lock().unwrap();
            let n = opens.entry(table).or_insert(0);
            *n += 1;
            *n
        };
        let file = File::open(self.dir.join(format!("{table}.csv")))?;
        let reader = BufReader::new(file);
        let fault = self.faults.lock().unwrap().get(table).copied();
        match fault {
            Some(spec) if open_count <= spec.failures => {
                Ok(Box::new(FaultRead::new(reader, spec.fail_at, spec.kind)))
            }
            _ => Ok(Box::new(reader)),
        }
    }

    fn describe(&self, table: &'static str) -> String {
        format!(
            "fault-injected:{}",
            self.dir.join(format!("{table}.csv")).display()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fault_read_delivers_bytes_up_to_the_offset() {
        let mut r = FaultRead::new(
            Cursor::new(b"hello world".to_vec()),
            5,
            io::ErrorKind::Other,
        );
        let mut buf = [0u8; 16];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn fault_at_zero_fails_immediately() {
        let mut r = FaultRead::new(Cursor::new(b"abc".to_vec()), 0, io::ErrorKind::Interrupted);
        let mut buf = [0u8; 4];
        assert!(r.read(&mut buf).is_err());
    }

    #[test]
    fn fault_beyond_eof_never_fires() {
        let mut r = FaultRead::new(Cursor::new(b"abc".to_vec()), 1000, io::ErrorKind::Other);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"abc");
    }

    #[test]
    fn transient_fault_clears_after_scheduled_opens() {
        let dir = std::env::temp_dir().join(format!("bgq-chaos-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("jobs.csv"), "header\n1,2\n").unwrap();
        let src = FaultDir::new(&dir).with_fault("jobs", FaultSpec::transient(0, 2));
        for attempt in 1..=2 {
            let mut r = src.open_table("jobs").unwrap();
            let mut out = Vec::new();
            assert!(r.read_to_end(&mut out).is_err(), "open {attempt} must fail");
        }
        let mut r = src.open_table("jobs").unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"header\n1,2\n");
        assert_eq!(src.opens("jobs"), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
