//! Window panes outlive their world through the process-wide pane
//! pool, and come back zeroed.
//!
//! A binary of its own: the pool is shared by every window of the
//! process.

use tapioca_mpi::{Runtime, Window};

const MIB: usize = 1 << 20;

/// This member's whole region, copied out.
fn local_bytes(win: &Window) -> Vec<u8> {
    let mut out = Vec::with_capacity(MIB);
    let Ok(()) = win.drain_local(0, MIB, |part| {
        out.extend_from_slice(part);
        Ok::<(), std::convert::Infallible>(())
    });
    out
}

/// A window dropped by one world leaves no bytes for the next: world
/// 2's window of the same shape reads all zero, pooled memory or not.
#[test]
fn a_later_world_sees_a_zeroed_window() {
    Runtime::run(2, |comm| {
        let win = Window::allocate_paned(&comm, MIB, MIB / 2);
        win.put(comm.rank(), 0, &vec![0xAB; MIB]);
        win.fence(&comm);
        assert!(local_bytes(&win).iter().all(|&b| b == 0xAB));
        win.fence(&comm);
    });
    Runtime::run(2, |comm| {
        let win = Window::allocate_paned(&comm, MIB, MIB / 2);
        let seen = local_bytes(&win);
        win.fence(&comm);
        assert!(seen.iter().all(|&b| b == 0), "rank {} saw a previous world's bytes", comm.rank());
    });
}
