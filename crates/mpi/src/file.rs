//! Shared files with positioned writes, blocking and non-blocking.
//!
//! Models the MPI I/O file interface TAPIOCA relies on: every rank can
//! write at an explicit offset of a shared file. An aggregator writes
//! its rounds itself, on its own thread, through
//! [`SharedFile::write_retrying`]: bounded retry with exponential
//! backoff under an [`IoPolicy`], with a [`FaultHint`] injecting
//! failures and latency deterministically for fault-injection runs.
//! Exhausted retries surface as [`IoError`] instead of aborting the
//! rank.
//!
//! [`SharedFile::iwrite_at`] is the non-blocking variant: the file's
//! `tapioca-io` worker thread, spawned by its first `iwrite_at`, applies
//! such writes in submission order (MPI orders the operations of one
//! process on a file handle; a single worker orders them globally,
//! which is stricter and therefore safe).
//!
//! Every positioned write holds the file's write lock while its bytes
//! move: two aggregators writing one file at once otherwise contend on
//! the kernel's inode lock, which costs more CPU than queueing here.
//!
//! Reads that grow a `Vec` ([`SharedFile::read_append`]) go through a
//! small pool of read-only handles opened from the file's path, each its
//! own open file description and so its own offset: std's
//! `read_to_end` reads into a `Vec`'s spare capacity without zeroing it
//! first, but only through a seek, which a handle shared by every rank
//! cannot take.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::comm::{Comm, RegistryKind};
use crate::fault::{backoff, FaultHint, IoError, IoPolicy};
use crate::lock_ok;
use crate::perturb::Perturber;

/// Completion notification for a non-blocking write. Carries the
/// written buffer back so drain loops can recycle it, and the error
/// (if any) so callers can recover instead of aborting.
///
/// It has at most one waiter, because every blocking wait consumes the
/// [`IoHandle`]. `signal` follows the runtime's wake rule: it decides
/// under the lock whether that waiter is asleep, and wakes it after
/// the unlock, so the waiter does not wake into a held lock.
#[derive(Debug, Default)]
struct Notify {
    state: Mutex<NotifyState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct NotifyState {
    done: bool,
    /// The waiter is asleep on `cv` (or about to be).
    sleeping: bool,
    /// The job's buffer, returned by the worker for reuse.
    reclaimed: Option<Vec<u8>>,
    /// Why the operation failed, when it did.
    error: Option<IoError>,
}

impl Notify {
    fn signal(&self, reclaimed: Option<Vec<u8>>, error: Option<IoError>) {
        let mut st = lock_ok(&self.state);
        st.done = true;
        st.reclaimed = reclaimed;
        st.error = error;
        let sleeping = std::mem::replace(&mut st.sleeping, false);
        drop(st);
        if sleeping {
            self.cv.notify_one();
        }
    }

    fn wait_take(&self) -> (Option<Vec<u8>>, Option<IoError>) {
        let mut st = lock_ok(&self.state);
        while !st.done {
            st.sleeping = true;
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        (st.reclaimed.take(), st.error.clone())
    }
}

/// Handle to an in-flight non-blocking write.
#[derive(Debug)]
pub struct IoHandle {
    notify: Arc<Notify>,
}

impl IoHandle {
    /// Block until the write has been applied, reclaiming its buffer for
    /// reuse (`None` for zero-byte writes). The buffer is dropped on
    /// error.
    pub fn wait_reclaim(self) -> Result<Option<Vec<u8>>, IoError> {
        match self.notify.wait_take() {
            (buf, None) => Ok(buf),
            (_, Some(e)) => Err(e),
        }
    }

    /// An already-completed handle (for zero-byte writes).
    fn ready() -> Self {
        let notify = Arc::new(Notify::default());
        notify.signal(None, None);
        IoHandle { notify }
    }
}

struct Job {
    offset: u64,
    data: Vec<u8>,
    notify: Arc<Notify>,
}

/// What every writer of the file shares, the worker included.
#[derive(Debug)]
struct FileCore {
    file: File,
    /// What `file` was created or opened from; the pooled readers open
    /// it again.
    path: PathBuf,
    /// Read-only handles for [`SharedFile::read_append`], opened on
    /// first use and returned after each read: at most one per
    /// concurrent reader.
    readers: Mutex<Vec<File>>,
    /// Held while a positioned write moves its bytes (see the module
    /// doc).
    write_lock: Mutex<()>,
    /// The world's perturber: one point before each retried write.
    perturb: Option<Arc<Perturber>>,
}

/// A source of bytes for [`SharedFile::write_retrying`]: it hands each
/// contiguous part, in file order, to the writer it is given, stopping
/// at the writer's first error. Called once per attempt.
type WriteParts<'a> =
    dyn FnMut(&mut dyn FnMut(&[u8]) -> std::io::Result<()>) -> std::io::Result<()> + 'a;

impl FileCore {
    fn write_locked(&self, offset: u64, parts: &mut WriteParts<'_>) -> std::io::Result<()> {
        let _held = lock_ok(&self.write_lock);
        let mut at = offset;
        parts(&mut |part| {
            self.file.write_all_at(part, at)?;
            at += part.len() as u64;
            Ok(())
        })
    }

    fn write_retrying(
        &self,
        offset: u64,
        policy: IoPolicy,
        hint: Option<FaultHint>,
        parts: &mut WriteParts<'_>,
    ) -> Result<(), IoError> {
        if let Some(p) = &self.perturb {
            p.point();
        }
        let mut attempt: u32 = 0;
        loop {
            if let Some(h) = &hint {
                if !h.delay.is_zero() {
                    std::thread::sleep(h.delay);
                }
            }
            let res = if hint.is_some_and(|h| attempt < h.fail_attempts) {
                Err(std::io::Error::new(ErrorKind::Interrupted, "injected transient flush failure"))
            } else {
                self.write_locked(offset, parts)
            };
            let Err(e) = res else { return Ok(()) };
            if attempt >= policy.max_retries {
                return Err(IoError::Exhausted {
                    op: "write_at",
                    attempts: attempt + 1,
                    kind: e.kind(),
                    msg: e.to_string(),
                });
            }
            let pause = backoff(&policy, attempt);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            attempt += 1;
        }
    }
}

/// The file's `tapioca-io` thread and the queue that feeds it.
#[derive(Debug)]
struct Worker {
    tx: Sender<Job>,
    thread: JoinHandle<()>,
}

impl Worker {
    fn spawn(core: Arc<FileCore>) -> std::io::Result<Worker> {
        let (tx, rx) = channel::<Job>();
        let thread = std::thread::Builder::new().name("tapioca-io".into()).spawn(move || {
            for Job { offset, data, notify } in rx {
                let res =
                    core.write_retrying(offset, IoPolicy::default(), None, &mut |w| w(&data));
                notify.signal(Some(data), res.err());
            }
        })?;
        Ok(Worker { tx, thread })
    }
}

#[derive(Debug)]
struct FileInner {
    core: Arc<FileCore>,
    /// Spawned by the first [`SharedFile::iwrite_at`].
    worker: Mutex<Option<Worker>>,
}

impl Drop for FileInner {
    fn drop(&mut self) {
        // Closing the channel stops the worker after it drains the queue.
        if let Some(Worker { tx, thread }) = lock_ok(&self.worker).take() {
            drop(tx);
            let _ = thread.join();
        }
    }
}

/// A file shared by all ranks of the process, with positioned I/O.
#[derive(Clone, Debug)]
pub struct SharedFile {
    inner: Arc<FileInner>,
}

impl SharedFile {
    /// Create (truncate) a file for read/write access.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<SharedFile> {
        Self::create_perturbed(path, None)
    }

    /// `create`, with a perturbation point before each
    /// [`SharedFile::write_retrying`] and each worker write.
    pub fn create_perturbed(
        path: impl AsRef<Path>,
        perturb: Option<Arc<Perturber>>,
    ) -> std::io::Result<SharedFile> {
        let path = path.as_ref();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::from_file(file, path, perturb))
    }

    /// Open an existing file for read/write access.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<SharedFile> {
        let path = path.as_ref();
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Self::from_file(file, path, None))
    }

    fn from_file(file: File, path: &Path, perturb: Option<Arc<Perturber>>) -> SharedFile {
        let core = Arc::new(FileCore {
            file,
            path: path.to_path_buf(),
            readers: Mutex::new(Vec::new()),
            write_lock: Mutex::new(()),
            perturb,
        });
        SharedFile { inner: Arc::new(FileInner { core, worker: Mutex::new(None) }) }
    }

    /// Collectively open one shared file per communicator: every member
    /// passes the same `path`; exactly one OS file is created. Its
    /// writes inherit the world's perturber, if any.
    ///
    /// # Panics
    /// Panics when the file cannot be created: the open is collective
    /// (every member must receive the same handle), so there is no
    /// per-rank error to return without desynchronizing the group.
    pub fn open_shared(comm: &Comm, path: impl AsRef<Path>) -> SharedFile {
        let seq = comm.next_file_seq();
        let key = (comm.uid(), RegistryKind::File, seq, 0);
        let path = path.as_ref().to_path_buf();
        let perturb = comm.perturber();
        let shared = comm.world().get_or_create(key, comm.size(), move || {
            SharedFile::create_perturbed(&path, perturb).expect("create shared file")
        });
        comm.barrier(); // nobody writes before the file exists
        (*shared).clone()
    }

    /// Blocking positioned write, one attempt.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> std::io::Result<()> {
        self.inner.core.write_locked(offset, &mut |w| w(data))
    }

    /// Blocking positioned write of `parts`, back to back from
    /// `offset`, on the calling thread, with bounded retry: up to
    /// `policy.max_retries` retries, `backoff(policy, a)` apart. `hint`
    /// fails its leading attempts and delays every attempt, as a
    /// [`crate::FaultPlan`] prescribes. `parts` runs once per attempt,
    /// so it must yield the same bytes each time; an aggregator lends
    /// its window slot in place with [`crate::Window::drain_local`].
    ///
    /// # Errors
    /// [`IoError::Exhausted`] once every attempt failed; what the
    /// failed attempts wrote is not durable.
    pub fn write_retrying(
        &self,
        offset: u64,
        policy: IoPolicy,
        hint: Option<FaultHint>,
        mut parts: impl FnMut(&mut dyn FnMut(&[u8]) -> std::io::Result<()>) -> std::io::Result<()>,
    ) -> Result<(), IoError> {
        self.inner.core.write_retrying(offset, policy, hint, &mut parts)
    }

    /// Non-blocking positioned write: returns at once; the file's I/O
    /// worker (spawned by the first call) applies writes in submission
    /// order, under the default [`IoPolicy`], and hands the buffer back
    /// through [`IoHandle::wait_reclaim`].
    pub fn iwrite_at(&self, offset: u64, data: Vec<u8>) -> IoHandle {
        if data.is_empty() {
            return IoHandle::ready();
        }
        let notify = Arc::new(Notify::default());
        let handle = IoHandle { notify: Arc::clone(&notify) };
        let mut worker = lock_ok(&self.inner.worker);
        if worker.is_none() {
            *worker = Worker::spawn(Arc::clone(&self.inner.core)).ok();
        }
        let sent = worker.as_ref().is_some_and(|w| w.tx.send(Job { offset, data, notify }).is_ok());
        drop(worker);
        // A worker that could not start reports through the handle
        // instead of aborting the submitting rank.
        if !sent {
            handle.notify.signal(None, Some(IoError::Disconnected { op: "iwrite_at" }));
        }
        handle
    }

    /// Blocking positioned read of exactly `len` bytes, into a buffer
    /// allocated at exactly that capacity ([`SharedFile::read_append`]).
    pub fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(len);
        self.read_append(offset, len, &mut buf)?;
        Ok(buf)
    }

    /// Blocking read of the `len` bytes at `offset`, appended to `out`
    /// straight into its spare capacity: no byte of `out` is written
    /// before the file's byte lands in it, and `out` reallocates only
    /// when its spare capacity is below `len`. The read runs on a pooled
    /// read-only handle of its own (see the module doc), so reads of
    /// several threads run at once and see every write issued before
    /// them through this file.
    ///
    /// # Errors
    /// `UnexpectedEof` when the file ends before `offset + len`, or the
    /// error of the open, seek or read that failed. `out` then holds
    /// what was appended before the failure, possibly nothing.
    pub fn read_append(&self, offset: u64, len: usize, out: &mut Vec<u8>) -> std::io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let core = &self.inner.core;
        let pooled = lock_ok(&core.readers).pop();
        let mut reader = match pooled {
            Some(r) => r,
            None => File::open(&core.path)?,
        };
        let res = reader.seek(SeekFrom::Start(offset)).and_then(|_| {
            let got = (&mut reader).take(len as u64).read_to_end(out)?;
            if got < len {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!("file ends {got} bytes into a {len}-byte read at {offset}"),
                ));
            }
            Ok(())
        });
        lock_ok(&core.readers).push(reader);
        res
    }

    /// Blocking positioned read filling all of `out` — the
    /// allocation-free variant: the read pipeline points it at a window
    /// slot ([`crate::Window::fill_local`]). Fails with `UnexpectedEof`
    /// when the file ends before `offset + out.len()`.
    pub fn read_at_into(&self, offset: u64, out: &mut [u8]) -> std::io::Result<()> {
        self.inner.core.file.read_exact_at(out, offset)
    }

    /// Current file length in bytes.
    pub fn len(&self) -> std::io::Result<u64> {
        Ok(self.inner.core.file.metadata()?.len())
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> std::io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tapioca-mpi-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn fast(max_retries: u32) -> IoPolicy {
        IoPolicy { max_retries, base_backoff: Duration::from_micros(10) }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let f = SharedFile::create(tmp("rt")).unwrap();
        f.write_at(10, b"hello").unwrap();
        assert_eq!(f.read_at(10, 5).unwrap(), b"hello");
        assert_eq!(f.len().unwrap(), 15);
        assert!(!f.is_empty().unwrap());
    }

    #[test]
    fn iwrite_completes_and_is_ordered() {
        let f = SharedFile::create(tmp("iw")).unwrap();
        // Overlapping writes in submission order: the later one wins.
        let h1 = f.iwrite_at(0, vec![1u8; 8]);
        let h2 = f.iwrite_at(4, vec![2u8; 8]);
        h1.wait_reclaim().unwrap();
        h2.wait_reclaim().unwrap();
        assert_eq!(f.read_at(0, 12).unwrap(), [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn empty_iwrite_is_immediately_ready() {
        let f = SharedFile::create(tmp("empty")).unwrap();
        f.write_at(0, &[1]).unwrap();
        let h = f.iwrite_at(0, Vec::new());
        assert_eq!(h.wait_reclaim().unwrap(), None);
        // Neither write started the worker: only a non-empty iwrite does.
        assert!(lock_ok(&f.inner.worker).is_none(), "worker spawned without an iwrite");
        f.iwrite_at(0, vec![2]).wait_reclaim().unwrap();
        assert!(lock_ok(&f.inner.worker).is_some());
    }

    #[test]
    fn wait_reclaim_returns_the_buffer() {
        let f = SharedFile::create(tmp("reclaim")).unwrap();
        let h = f.iwrite_at(3, vec![9u8; 16]);
        let buf = h.wait_reclaim().unwrap().expect("non-empty write returns its buffer");
        assert_eq!(buf, vec![9u8; 16]);
        assert_eq!(f.read_at(3, 16).unwrap(), vec![9u8; 16]);
        // zero-byte writes have no buffer to give back
        assert_eq!(f.iwrite_at(0, Vec::<u8>::new()).wait_reclaim().unwrap(), None);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let f = SharedFile::create(tmp("conc")).unwrap();
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let f = f.clone();
                s.spawn(move || {
                    f.write_at(t as u64 * 100, &[t; 100]).unwrap();
                });
            }
        });
        for t in 0..8u8 {
            assert_eq!(f.read_at(t as u64 * 100, 100).unwrap(), vec![t; 100]);
        }
    }

    #[test]
    fn many_inflight_writes_drain_on_drop() {
        let path = tmp("drain");
        {
            let f = SharedFile::create(&path).unwrap();
            for i in 0..100u64 {
                f.iwrite_at(i * 4, (i as u32).to_le_bytes().to_vec());
            }
            // handles dropped without wait; Drop joins the worker
        }
        let f = SharedFile::open(&path).unwrap();
        for i in 0..100u64 {
            assert_eq!(f.read_at(i * 4, 4).unwrap(), (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn transient_fault_within_budget_still_lands() {
        let f = SharedFile::create(tmp("transient")).unwrap();
        let hint = FaultHint { fail_attempts: 2, delay: Duration::ZERO };
        let mut attempts = 0;
        let res = f.write_retrying(8, fast(3), Some(hint), |w| {
            attempts += 1;
            w(&[5u8; 32])
        });
        assert_eq!(res, Ok(()));
        assert_eq!(attempts, 1, "injected failures never reach the payload");
        assert_eq!(f.read_at(8, 32).unwrap(), vec![5u8; 32]);
    }

    #[test]
    fn exhausted_budget_reports_and_returns_buffer() {
        let f = SharedFile::create(tmp("exhaust")).unwrap();
        let data = vec![7u8; 16];
        let hint = FaultHint { fail_attempts: u32::MAX, delay: Duration::ZERO };
        match f.write_retrying(0, fast(1), Some(hint), |w| w(&data)) {
            Err(IoError::Exhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected Exhausted, got {other:?}"),
        }
        // the bytes stay the caller's, and nothing is durable
        assert_eq!(data, vec![7u8; 16]);
        assert_eq!(f.len().unwrap(), 0);
    }

    /// Eight threads read disjoint ranges at once, many times over: a
    /// handle whose offset another thread moved would return the wrong
    /// range.
    #[test]
    fn concurrent_read_appends_get_their_own_ranges() {
        const LEN: usize = 64 << 10;
        let f = SharedFile::create(tmp("rconc")).unwrap();
        for t in 0..8u8 {
            let range: Vec<u8> = (0..LEN).map(|i| t.wrapping_mul(31) ^ (i % 251) as u8).collect();
            f.write_at(t as u64 * LEN as u64, &range).unwrap();
        }
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let (f, start) = (f.clone(), &start);
                s.spawn(move || {
                    let want: Vec<u8> =
                        (0..LEN).map(|i| t.wrapping_mul(31) ^ (i % 251) as u8).collect();
                    start.wait();
                    for _ in 0..20 {
                        let mut got = Vec::with_capacity(LEN);
                        f.read_append(t as u64 * LEN as u64, LEN, &mut got).unwrap();
                        assert!(got == want, "thread {t} read another range");
                    }
                });
            }
        });
        assert!(lock_ok(&f.inner.core.readers).len() <= 8, "one handle per concurrent reader");
    }

    #[test]
    fn read_append_past_eof_is_unexpected_eof() {
        let f = SharedFile::create(tmp("reof")).unwrap();
        f.write_at(0, &[3u8; 100]).unwrap();
        let mut out = Vec::new();
        let e = f.read_append(60, 50, &mut out).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
        assert_eq!(out, [3u8; 40], "what the file had is appended before the error");
        let e = f.read_append(200, 1, &mut out).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
        assert_eq!(f.read_at(100, 1).unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }

    /// Chunks appended into a buffer with exactly their total capacity
    /// fill it without a reallocation, short chunks included.
    #[test]
    fn read_append_into_exact_capacity_never_reallocates() {
        let f = SharedFile::create(tmp("rcap")).unwrap();
        let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 253) as u8).collect();
        f.write_at(0, &payload).unwrap();
        let lens = [5usize, 31, 32, 33, 4096, 8192, 100_000, 187_611];
        let total: usize = lens.iter().sum();
        assert_eq!(total, payload.len());
        let mut out = Vec::with_capacity(total);
        let base = out.as_ptr();
        let mut at = 0;
        for len in lens {
            f.read_append(at as u64, len, &mut out).unwrap();
            at += len;
            assert_eq!(out.len(), at);
            assert_eq!((out.as_ptr(), out.capacity()), (base, total), "reallocated at {at}");
        }
        assert!(out == payload);
        assert_eq!(f.read_at(7, 1000).unwrap().capacity(), 1000);
    }

    #[test]
    fn pooled_reader_sees_later_writes() {
        let f = SharedFile::create(tmp("rfresh")).unwrap();
        f.write_at(0, &[1u8; 16]).unwrap();
        assert_eq!(f.read_at(0, 16).unwrap(), [1u8; 16]);
        assert_eq!(lock_ok(&f.inner.core.readers).len(), 1, "the read pooled its handle");
        f.write_at(8, &[2u8; 16]).unwrap();
        f.iwrite_at(20, vec![3u8; 4]).wait_reclaim().unwrap();
        let mut out = Vec::new();
        f.read_append(0, 24, &mut out).unwrap();
        assert_eq!(out, [[1u8; 8].as_slice(), &[2u8; 12], &[3u8; 4]].concat());
        assert_eq!(lock_ok(&f.inner.core.readers).len(), 1, "the same handle read again");
    }

    #[test]
    fn write_parts_drain_window_in_place() {
        use crate::comm::make_world;
        use crate::rma::Window;
        let f = SharedFile::create(tmp("parts")).unwrap();
        let c = make_world(1).into_iter().next().unwrap();
        // two-pane window: the range [8..32) spans the pane boundary
        let win = Window::allocate_paned(&c, 32, 16);
        let payload: Vec<u8> = (0..32u8).collect();
        win.put(0, 0, &payload);
        let mut parts = 0;
        let res = f.write_retrying(100, IoPolicy::default(), None, |w| {
            win.drain_local(8, 24, |part| {
                parts += 1;
                w(part)
            })
        });
        assert_eq!(res, Ok(()));
        assert_eq!(parts, 2, "one part per pane");
        assert_eq!(f.read_at(100, 24).unwrap(), payload[8..32]);
    }
}
