//! Window panes outlive their world through the process-wide pane
//! pool, and come back zeroed.
//!
//! A binary of its own: the pool is shared by every window of the
//! process, and the in-flight test relies on no other test dropping a
//! window of its pane length while its flush is stalled.

use std::time::Duration;

use tapioca_mpi::{FaultHint, IoHandle, IoPolicy, Runtime, SharedFile, WinSegment, Window};

const MIB: usize = 1 << 20;

/// A window dropped by one world leaves no bytes for the next: world
/// 2's window of the same shape reads all zero, pooled memory or not.
#[test]
fn a_later_world_sees_a_zeroed_window() {
    Runtime::run(2, |comm| {
        let win = Window::allocate_paned(&comm, MIB, MIB / 2);
        win.put(comm.rank(), 0, &vec![0xAB; MIB]);
        win.fence(&comm);
        let mut back = vec![0u8; MIB];
        win.read_local_into(comm.rank(), 0, &mut back);
        assert!(back.iter().all(|&b| b == 0xAB));
        win.fence(&comm);
    });
    Runtime::run(2, |comm| {
        let win = Window::allocate_paned(&comm, MIB, MIB / 2);
        let mut seen = vec![0xFFu8; MIB];
        win.read_local_into(comm.rank(), 0, &mut seen);
        win.fence(&comm);
        assert!(seen.iter().all(|&b| b == 0), "rank {} saw a previous world's bytes", comm.rank());
    });
}

/// `iwrite_at_policy` without the cfg-dependent trace stamp.
fn stalled_flush(file: &SharedFile, seg: WinSegment, delay: Duration) -> IoHandle {
    let hint = Some(FaultHint { fail_attempts: 0, delay });
    #[cfg(feature = "trace")]
    return file.iwrite_at_policy(0, seg, IoPolicy::default(), hint, None);
    #[cfg(not(feature = "trace"))]
    file.iwrite_at_policy(0, seg, IoPolicy::default(), hint)
}

/// A flush still in flight keeps its window's panes: the window is
/// dropped and a window of the same shape filled with other bytes
/// before the stalled write runs, and the file still gets the original
/// bytes. (A length no other test here uses, so only this test's
/// windows can meet in the pool.)
#[test]
fn an_in_flight_flush_keeps_its_panes() {
    const LEN: usize = 3 * 4096;
    let dir = std::env::temp_dir().join(format!("tapioca-pane-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    let path = dir.join("inflight");
    let file = SharedFile::create(&path).expect("create file");
    Runtime::run(1, |comm| {
        let win = Window::allocate_paned(&comm, LEN, LEN / 3);
        win.put(0, 0, &[0x5A; LEN]);
        let flush = stalled_flush(&file, win.segment(0, 0, LEN), Duration::from_millis(200));
        drop(win);
        let next = Window::allocate_paned(&comm, LEN, LEN / 3);
        next.put(0, 0, &[0xCD; LEN]);
        flush.wait_reclaim().expect("flush");
    });
    let bytes = file.read_at(0, LEN).expect("read back");
    assert!(bytes.iter().all(|&b| b == 0x5A), "the flush wrote bytes of a later window");
    drop(file);
    std::fs::remove_dir_all(&dir).expect("remove test dir");
}
