//! File output (§3.2 `file`, §5 "Runtime Library").
//!
//! The paper's runtime serializes file writes from concurrent virtual
//! threads through a single manager; we achieve the same serialization with
//! an internal lock per file. [`LogFile`] additionally supports an in-memory
//! sink, which the evaluation harness uses to capture `http.log`-style
//! output for diffing without touching the filesystem.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::error::{RtError, RtResult};
use crate::unpoison;

enum Sink {
    Memory(Vec<String>),
    Disk(fs::File),
}

/// A line-oriented output file, safe to share across threads. One
/// pointer: cloning a handle (every `file.open` of an already-open log, every
/// script `log_write`) copies neither the name nor the sink.
#[derive(Clone)]
pub struct LogFile(Arc<Shared>);

struct Shared {
    name: String,
    sink: Mutex<Sink>,
}

impl std::fmt::Debug for LogFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogFile({})", self.0.name)
    }
}

impl LogFile {
    /// A purely in-memory log (the default for tests and the repro harness).
    pub fn in_memory(name: impl Into<String>) -> Self {
        LogFile(Arc::new(Shared {
            name: name.into(),
            sink: Mutex::new(Sink::Memory(Vec::new())),
        }))
    }

    /// A log backed by a file on disk (truncates any existing file).
    pub fn on_disk(name: impl Into<String>, path: &Path) -> RtResult<Self> {
        let file = fs::File::create(path)
            .map_err(|e| RtError::io(format!("create {}: {e}", path.display())))?;
        Ok(LogFile(Arc::new(Shared {
            name: name.into(),
            sink: Mutex::new(Sink::Disk(file)),
        })))
    }

    /// The logical log name (`http.log`, `dns.log`, ...).
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Appends one line (newline added automatically).
    pub fn write_line(&self, line: &str) -> RtResult<()> {
        let mut sink = unpoison(self.0.sink.lock());
        match &mut *sink {
            Sink::Memory(lines) => {
                lines.push(line.to_owned());
                Ok(())
            }
            Sink::Disk(f) => writeln!(f, "{line}")
                .map_err(|e| RtError::io(format!("write {}: {e}", self.0.name))),
        }
    }

    /// Lines captured so far (empty for disk-backed logs).
    pub fn lines(&self) -> Vec<String> {
        match &*unpoison(self.0.sink.lock()) {
            Sink::Memory(lines) => lines.clone(),
            Sink::Disk(_) => Vec::new(),
        }
    }

    /// Lines from index `start` on (in-memory sinks only). Incremental
    /// readers pair this with [`LogFile::len`] to avoid copying the whole
    /// log on every poll.
    pub fn lines_from(&self, start: usize) -> Vec<String> {
        match &*unpoison(self.0.sink.lock()) {
            Sink::Memory(lines) => lines[start.min(lines.len())..].to_vec(),
            Sink::Disk(_) => Vec::new(),
        }
    }

    /// Number of lines written (in-memory sinks only).
    pub fn len(&self) -> usize {
        match &*unpoison(self.0.sink.lock()) {
            Sink::Memory(lines) => lines.len(),
            Sink::Disk(_) => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears captured lines (in-memory sinks only).
    pub fn clear(&self) {
        if let Sink::Memory(lines) = &mut *unpoison(self.0.sink.lock()) {
            lines.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn memory_log_captures_lines() {
        let log = LogFile::in_memory("test.log");
        log.write_line("a\tb").unwrap();
        log.write_line("c\td").unwrap();
        assert_eq!(log.lines(), vec!["a\tb", "c\td"]);
        assert_eq!(log.len(), 2);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let log = LogFile::in_memory("x");
        let log2 = log.clone();
        log2.write_line("hello").unwrap();
        assert_eq!(log.lines(), vec!["hello"]);
    }

    #[test]
    fn concurrent_writers_do_not_interleave_lines() {
        let log = LogFile::in_memory("conc");
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let l = log.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        l.write_line(&format!("{t}:{i}")).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let lines = log.lines();
        assert_eq!(lines.len(), 400);
        // Every line is intact (no torn writes).
        for line in lines {
            let (t, i) = line.split_once(':').unwrap();
            assert!(t.parse::<u32>().unwrap() < 4);
            assert!(i.parse::<u32>().unwrap() < 100);
        }
    }

    #[test]
    fn disk_log_writes_file() {
        let dir = std::env::temp_dir().join("hilti_rt_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.log");
        let log = LogFile::on_disk("out.log", &path).unwrap();
        log.write_line("line1").unwrap();
        log.write_line("line2").unwrap();
        drop(log);
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "line1\nline2\n");
        std::fs::remove_file(&path).ok();
    }
}
