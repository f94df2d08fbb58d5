//! The process-wide recorder, tested in its own binary.
//!
//! [`smg_obs::set_global`] flips the process-wide enabled flag, so while
//! it is installed every thread of the process sees the seam as on. The
//! unit tests in `src/lib.rs` assert the seam is *off* outside their own
//! scoped recorders and run concurrently on the test harness's threads;
//! an integration test is a separate process, so installing a global
//! recorder here cannot leak into them.

use smg_obs::{clear_global, counter_add, set_global, Capture};
use std::sync::Arc;

#[test]
fn global_recorder_receives_other_threads() {
    // The only test in this binary, so nothing else observes the global
    // install while it is in place.
    let cap = Arc::new(Capture::new());
    set_global(cap.clone());
    std::thread::spawn(|| counter_add("smg_thread_total", None, 7))
        .join()
        .unwrap();
    let got = clear_global();
    assert!(got.is_some());
    assert_eq!(cap.counter("smg_thread_total"), 7);
    assert!(clear_global().is_none());
}
