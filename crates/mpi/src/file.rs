//! Shared files with positioned and non-blocking writes.
//!
//! Models the MPI I/O file interface TAPIOCA relies on: every rank can
//! write at an explicit offset of a shared file, and aggregators use the
//! *non-blocking* variant ([`SharedFile::iwrite_at`]) so the flush of one
//! buffer overlaps with the aggregation of the next — the paper's
//! double-buffer pipeline.
//!
//! Non-blocking writes are served by one dedicated I/O thread per file,
//! in submission order (MPI guarantees ordering of operations on a file
//! handle from one process; a single worker preserves it globally here,
//! which is stricter and therefore safe).
//!
//! The worker retries failed writes under an [`IoPolicy`] (bounded
//! attempts with exponential backoff); a [`FaultHint`] deterministically
//! injects failures and latency for fault-injection runs. Exhausted
//! retries and timed-out waits surface as [`IoError`] through the
//! [`IoHandle`] instead of aborting the rank.

use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::comm::{Comm, RegistryKind};
use crate::fault::{backoff, FaultHint, IoError, IoPolicy};
use crate::lock_ok;
use crate::perturb::Perturber;
use crate::rma::WinSegment;
#[cfg(feature = "trace")]
use tapioca_trace::TraceStamp;

/// Payload of a non-blocking write.
///
/// `Owned` is the classic staged path: the submitter hands the buffer
/// over and gets it back through [`IoHandle::wait_reclaim`]. `Segments`
/// is the zero-copy path: refcounted [`WinSegment`] views into RMA
/// window panes, drained in place by the worker — no payload copy is
/// made anywhere between the window and the file descriptor. Segment
/// submissions have no buffer to reclaim (`wait_reclaim` yields
/// `None`); on failure the submitter re-reads the window region for the
/// direct-write fallback, which holds the same bytes until the slot is
/// reused two rounds later.
#[derive(Debug)]
pub enum JobData {
    /// An owned buffer, returned to the submitter on completion.
    Owned(Vec<u8>),
    /// In-place window views, written back-to-back at the file offset.
    Segments(Vec<WinSegment>),
}

impl JobData {
    /// Total payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            JobData::Owned(d) => d.len(),
            JobData::Segments(s) => s.iter().map(WinSegment::len).sum(),
        }
    }

    /// Whether the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u8>> for JobData {
    fn from(d: Vec<u8>) -> JobData {
        JobData::Owned(d)
    }
}

impl From<WinSegment> for JobData {
    fn from(s: WinSegment) -> JobData {
        JobData::Segments(vec![s])
    }
}

impl From<Vec<WinSegment>> for JobData {
    fn from(s: Vec<WinSegment>) -> JobData {
        JobData::Segments(s)
    }
}

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

    /// Like `wait_take` with a deadline; `Err(())` on timeout (the
    /// operation stays in flight — the worker still owns the buffer).
    fn wait_take_timeout(&self, limit: Duration) -> Result<(Option<Vec<u8>>, Option<IoError>), ()> {
        let deadline = std::time::Instant::now() + limit;
        let mut st = lock_ok(&self.state);
        while !st.done {
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(());
            }
            st.sleeping = true;
            let (guard, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
        Ok((st.reclaimed.take(), st.error.clone()))
    }
}

/// Handle to an in-flight non-blocking write.
#[derive(Debug)]
pub struct IoHandle {
    notify: Arc<Notify>,
}

impl IoHandle {
    /// Block until the write has been applied, reclaiming its buffer for
    /// reuse (`None` for zero-byte flushes). The double-buffer drain
    /// loop uses this to refill windows without per-round allocation.
    /// The buffer is dropped on error; use
    /// [`IoHandle::wait_parts_timeout`] to keep it for a direct-write
    /// fallback.
    pub fn wait_reclaim(self) -> Result<Option<Vec<u8>>, IoError> {
        match self.notify.wait_take() {
            (buf, None) => Ok(buf),
            (_, Some(e)) => Err(e),
        }
    }

    /// Block until completion, returning both the reclaimed buffer and
    /// the error, if any. A failed write still hands its buffer back so
    /// the caller can fall back to a direct write of the same bytes.
    /// After `limit` the wait reports [`IoError::Timeout`] instead of
    /// blocking forever on a stalled device (`None` disables the
    /// deadline). On timeout the operation stays in flight and the
    /// worker keeps the buffer.
    pub fn wait_parts_timeout(self, limit: Option<Duration>) -> (Option<Vec<u8>>, Option<IoError>) {
        match limit {
            None => self.notify.wait_take(),
            Some(l) => match self.notify.wait_take_timeout(l) {
                Ok(parts) => parts,
                Err(()) => (None, Some(IoError::Timeout { op: "iwrite_at", waited: l })),
            },
        }
    }

    /// An already-completed handle (for zero-byte flushes).
    pub fn ready() -> Self {
        let notify = Arc::new(Notify::default());
        notify.signal(None, None);
        IoHandle { notify }
    }
}

struct Job {
    offset: u64,
    data: JobData,
    notify: Arc<Notify>,
    /// Retry budget and backoff for this operation.
    policy: IoPolicy,
    /// Deterministic fault injection: leading attempts that must fail
    /// and per-attempt latency.
    hint: Option<FaultHint>,
    /// When set, a flush-completion event is recorded after the write
    /// lands — from the worker thread, so the timestamp reflects the
    /// true end of the I/O, not its submission.
    #[cfg(feature = "trace")]
    stamp: Option<TraceStamp>,
}

#[derive(Debug)]
struct FileInner {
    file: File,
    tx: Mutex<Option<Sender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for FileInner {
    fn drop(&mut self) {
        // Closing the channel stops the worker after it drains the queue.
        lock_ok(&self.tx).take();
        if let Some(h) = lock_ok(&self.worker).take() {
            let _ = h.join();
        }
    }
}

/// Apply one payload at `offset`. Segment payloads are written part by
/// part at advancing offsets, each part read in place under its pane
/// lock. Safe to repeat on retry: the viewed window bytes are stable
/// until the submitter reuses the slot, which happens only after the
/// handle settles.
fn write_payload(worker_file: &File, data: &JobData, offset: u64) -> std::io::Result<()> {
    match data {
        JobData::Owned(d) => worker_file.write_all_at(d, offset),
        JobData::Segments(segs) => {
            let mut off = offset;
            for s in segs {
                s.for_each_part(|part| -> std::io::Result<()> {
                    worker_file.write_all_at(part, off)?;
                    off += part.len() as u64;
                    Ok(())
                })?;
            }
            Ok(())
        }
    }
}

/// Run one job's write with bounded retry; `None` on success.
fn run_job(worker_file: &File, job: &Job) -> Option<IoError> {
    let mut attempt: u32 = 0;
    loop {
        if let Some(h) = &job.hint {
            if !h.delay.is_zero() {
                std::thread::sleep(h.delay);
            }
        }
        let injected = job.hint.is_some_and(|h| attempt < h.fail_attempts);
        let res = if injected {
            Err(std::io::Error::new(ErrorKind::Interrupted, "injected transient flush failure"))
        } else {
            write_payload(worker_file, &job.data, job.offset)
        };
        match res {
            Ok(()) => return None,
            Err(e) => {
                if attempt >= job.policy.max_retries {
                    return Some(IoError::Exhausted {
                        op: "iwrite_at",
                        attempts: attempt + 1,
                        kind: e.kind(),
                        msg: e.to_string(),
                    });
                }
                let pause = backoff(&job.policy, attempt);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                attempt += 1;
            }
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

    /// `create`, with the I/O worker hitting a perturbation point
    /// before each write.
    pub fn create_perturbed(
        path: impl AsRef<Path>,
        perturb: Option<Arc<Perturber>>,
    ) -> std::io::Result<SharedFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Self::from_file(file, perturb)
    }

    /// Open an existing file for read/write access.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<SharedFile> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Self::from_file(file, None)
    }

    fn from_file(file: File, perturb: Option<Arc<Perturber>>) -> std::io::Result<SharedFile> {
        let worker_file = file.try_clone()?;
        let (tx, rx) = channel::<Job>();
        let worker = std::thread::Builder::new()
            .name("tapioca-io".into())
            .spawn(move || {
                for job in rx {
                    if let Some(p) = &perturb {
                        p.point();
                    }
                    let error = run_job(&worker_file, &job);
                    // Record completion *before* signalling the handle:
                    // the flush event must land in the aggregator's trace
                    // lane ahead of anything ordered after the handle's wait (in
                    // particular the release fence), or lane order stops
                    // being a happens-before witness for the checker.
                    // Failed writes are not durable and record nothing.
                    #[cfg(feature = "trace")]
                    if error.is_none() {
                        if let Some(stamp) = &job.stamp {
                            stamp.flush_done(job.offset, job.data.len() as u64);
                        }
                    }
                    let Job { data, notify, .. } = job;
                    // Only owned buffers come back; segment views simply
                    // drop their window refcounts.
                    let reclaimed = match data {
                        JobData::Owned(d) => Some(d),
                        JobData::Segments(_) => None,
                    };
                    notify.signal(reclaimed, error);
                }
            })?;
        Ok(SharedFile {
            inner: Arc::new(FileInner {
                file,
                tx: Mutex::new(Some(tx)),
                worker: Mutex::new(Some(worker)),
            }),
        })
    }

    /// Collectively open one shared file per communicator: every member
    /// passes the same `path`; exactly one OS file/worker is created.
    /// The worker inherits the world's perturber, if any.
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

    /// Blocking positioned write.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> std::io::Result<()> {
        self.inner.file.write_all_at(data, offset)
    }

    /// Non-blocking positioned write: returns immediately; the I/O
    /// worker applies writes in submission order. Accepts an owned
    /// buffer (staged path) or [`WinSegment`] views (zero-copy path) —
    /// anything `Into<JobData>`. A `Vec<WinSegment>` is a vectored
    /// write: the worker drains the segments in place, back to back
    /// starting at `offset`, without copying the payload out of the
    /// window.
    pub fn iwrite_at(&self, offset: u64, data: impl Into<JobData>) -> IoHandle {
        #[cfg(feature = "trace")]
        return self.iwrite_at_policy(offset, data, IoPolicy::default(), None, None);
        #[cfg(not(feature = "trace"))]
        self.iwrite_at_policy(offset, data, IoPolicy::default(), None)
    }

    /// Non-blocking positioned write under an explicit retry policy,
    /// optionally with an injected fault. With the `trace` feature, a
    /// set `stamp` records a flush-completion trace event carrying the
    /// worker-side completion timestamp.
    pub fn iwrite_at_policy(
        &self,
        offset: u64,
        data: impl Into<JobData>,
        policy: IoPolicy,
        hint: Option<FaultHint>,
        #[cfg(feature = "trace")] stamp: Option<TraceStamp>,
    ) -> IoHandle {
        let data = data.into();
        if data.is_empty() {
            return IoHandle::ready();
        }
        let notify = Arc::new(Notify::default());
        let handle = IoHandle { notify: Arc::clone(&notify) };
        let tx = lock_ok(&self.inner.tx);
        let sent = tx.as_ref().is_some_and(|t| {
            t.send(Job {
                offset,
                data,
                notify: Arc::clone(&notify),
                policy,
                hint,
                #[cfg(feature = "trace")]
                stamp,
            })
            .is_ok()
        });
        // A closed file or dead worker reports through the handle
        // instead of aborting the submitting rank.
        if !sent {
            handle.notify.signal(None, Some(IoError::Disconnected { op: "iwrite_at" }));
        }
        handle
    }

    /// Blocking positioned read of exactly `len` bytes.
    pub fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_at_into(offset, &mut buf)?;
        Ok(buf)
    }

    /// Blocking positioned read filling all of `out` — the
    /// allocation-free variant: the read pipeline points it at a window
    /// slot ([`crate::Window::fill_local`]). Fails with `UnexpectedEof`
    /// when the file ends before `offset + out.len()`.
    pub fn read_at_into(&self, offset: u64, out: &mut [u8]) -> std::io::Result<()> {
        self.inner.file.read_exact_at(out, offset)
    }

    /// Current file length in bytes.
    pub fn len(&self) -> std::io::Result<u64> {
        Ok(self.inner.file.metadata()?.len())
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> std::io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tapioca-mpi-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// `iwrite_at_policy` shim hiding the cfg-dependent stamp arg.
    fn iwrite_policy(
        f: &SharedFile,
        offset: u64,
        data: impl Into<JobData>,
        policy: IoPolicy,
        hint: Option<FaultHint>,
    ) -> IoHandle {
        #[cfg(feature = "trace")]
        return f.iwrite_at_policy(offset, data, policy, hint, None);
        #[cfg(not(feature = "trace"))]
        f.iwrite_at_policy(offset, data, policy, hint)
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
        let h = f.iwrite_at(0, Vec::<u8>::new());
        // a zero deadline does not time out: the handle is already done
        let (buf, err) = h.wait_parts_timeout(Some(Duration::ZERO));
        assert!(buf.is_none() && err.is_none(), "got {err:?}");
    }

    #[test]
    fn wait_reclaim_returns_the_buffer() {
        let f = SharedFile::create(tmp("reclaim")).unwrap();
        let h = f.iwrite_at(3, vec![9u8; 16]);
        let buf = h.wait_reclaim().unwrap().expect("non-empty write returns its buffer");
        assert_eq!(buf, vec![9u8; 16]);
        assert_eq!(f.read_at(3, 16).unwrap(), vec![9u8; 16]);
        // zero-byte flushes have no buffer to give back
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
        let policy = IoPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(10),
            op_timeout: Duration::from_secs(5),
        };
        let hint = FaultHint { fail_attempts: 2, delay: Duration::ZERO };
        let h = iwrite_policy(&f, 8, vec![5u8; 32], policy, Some(hint));
        assert_eq!(h.wait_reclaim().unwrap(), Some(vec![5u8; 32]));
        assert_eq!(f.read_at(8, 32).unwrap(), vec![5u8; 32]);
    }

    #[test]
    fn exhausted_budget_reports_and_returns_buffer() {
        let f = SharedFile::create(tmp("exhaust")).unwrap();
        let policy = IoPolicy {
            max_retries: 1,
            base_backoff: Duration::from_micros(10),
            op_timeout: Duration::from_secs(5),
        };
        let hint = FaultHint { fail_attempts: u32::MAX, delay: Duration::ZERO };
        let h = iwrite_policy(&f, 0, vec![7u8; 16], policy, Some(hint));
        let (buf, err) = h.wait_parts_timeout(None);
        // the buffer comes back for a direct-write fallback
        assert_eq!(buf, Some(vec![7u8; 16]));
        match err {
            Some(IoError::Exhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected Exhausted, got {other:?}"),
        }
        // nothing durable
        assert_eq!(f.len().unwrap(), 0);
    }

    #[test]
    fn stalled_wait_times_out() {
        let f = SharedFile::create(tmp("stall")).unwrap();
        let policy = IoPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            op_timeout: Duration::from_millis(5),
        };
        let hint = FaultHint { fail_attempts: 0, delay: Duration::from_millis(200) };
        let h = iwrite_policy(&f, 0, vec![1u8; 4], policy, Some(hint));
        let (buf, err) = h.wait_parts_timeout(Some(policy.op_timeout));
        assert_eq!(buf, None, "worker still owns the buffer");
        assert!(matches!(err, Some(IoError::Timeout { .. })), "got {err:?}");
        // the slow write still lands eventually (drop joins the worker)
        drop(f);
        let f = SharedFile::open(tmp("stall")).unwrap();
        assert_eq!(f.read_at(0, 4).unwrap(), vec![1u8; 4]);
    }

    #[test]
    fn vectored_iwrite_drains_window_in_place() {
        use crate::comm::make_world;
        use crate::rma::Window;
        let f = SharedFile::create(tmp("vectored")).unwrap();
        let c = make_world(1).into_iter().next().unwrap();
        // two-pane window: segments may span pane boundaries
        let win = Window::allocate_paned(&c, 32, 16);
        let payload: Vec<u8> = (0..32u8).collect();
        win.put(0, 0, &payload);
        // two views submitted as one vectored write: [8..24) then [24..32)
        let h = f.iwrite_at(100, vec![win.segment(0, 8, 16), win.segment(0, 24, 8)]);
        let reclaimed = h.wait_reclaim().unwrap();
        assert_eq!(reclaimed, None, "segment submissions have no buffer to give back");
        assert_eq!(f.read_at(100, 24).unwrap(), payload[8..32]);
    }

    #[test]
    fn failed_vectored_write_leaves_window_readable_for_fallback() {
        use crate::comm::make_world;
        use crate::rma::Window;
        let f = SharedFile::create(tmp("vecfail")).unwrap();
        let c = make_world(1).into_iter().next().unwrap();
        let win = Window::allocate(&c, 16);
        win.put(0, 0, &[6u8; 16]);
        let policy = IoPolicy {
            max_retries: 1,
            base_backoff: Duration::from_micros(10),
            op_timeout: Duration::from_secs(5),
        };
        let hint = FaultHint { fail_attempts: u32::MAX, delay: Duration::ZERO };
        let h = iwrite_policy(&f, 0, win.segment(0, 0, 16), policy, Some(hint));
        let (buf, err) = h.wait_parts_timeout(None);
        assert_eq!(buf, None);
        assert!(matches!(err, Some(IoError::Exhausted { .. })), "got {err:?}");
        // the submitter's fallback re-reads the same bytes from the window
        let mut d = [0u8; 16];
        win.read_local_into(0, 0, &mut d);
        assert_eq!(d, [6u8; 16]);
        assert_eq!(f.len().unwrap(), 0, "nothing durable");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_iwrite_records_completion() {
        use tapioca_trace::{TraceOp, TraceScope, Tracer};
        let tracer = Tracer::new(1);
        let scope = TraceScope::new(std::sync::Arc::clone(&tracer), 0, 2, vec![0]);
        scope.set_round(3);
        let f = SharedFile::create(tmp("traced")).unwrap();
        let h =
            f.iwrite_at_policy(96, vec![7u8; 64], IoPolicy::default(), None, Some(scope.stamp()));
        h.wait_reclaim().unwrap();
        // the worker records the flush *before* signalling, so the event
        // is visible as soon as the wait returns
        let t = tracer.drain();
        let flush = t.events().iter().find(|e| e.op == TraceOp::Flush).expect("flush recorded");
        assert_eq!((flush.partition, flush.round, flush.bytes), (2, 3, 64));
        assert_eq!(flush.offset, 96);
    }
}
