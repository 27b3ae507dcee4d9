//! Collectively created objects live only as long as their handles.
//!
//! A binary of its own: it counts the process's `tapioca-io` file
//! worker threads, so no other test may open files while it runs.

use tapioca_mpi::{Runtime, SharedFile};

/// Threads of this process named like the shared-file I/O worker.
fn io_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "tapioca-io")
        .count()
}

#[test]
fn dropped_shared_files_stop_their_workers() {
    let dir = std::env::temp_dir().join(format!("tapioca-registry-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    let before = io_workers();
    let inside = Runtime::run(2, |comm| {
        for i in 0..50 {
            let file = SharedFile::open_shared(&comm, dir.join(format!("f{i}")));
            if comm.rank() == 0 {
                file.write_at(0, &[i as u8]).expect("write");
            }
            drop(file);
            comm.barrier();
        }
        // Both ranks have dropped every handle of every file, and the
        // run is still going: nothing but the registry could hold one.
        io_workers()
    });
    assert_eq!(inside, [before, before], "an I/O worker outlived its file");
    assert_eq!(io_workers(), before);
    std::fs::remove_dir_all(&dir).expect("remove test dir");
}
