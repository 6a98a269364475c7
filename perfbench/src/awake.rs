//! Keep-awake threads for latency measurements on virtual machines.
//!
//! At 200 requests per second the service is idle most of the time, so
//! every request wakes a sleeping thread on an idle CPU. On a virtual
//! machine an idle virtual CPU is halted, and waking it takes the host a
//! time that depends on the host's load, not on the program. One spinning
//! thread per CPU at `SCHED_IDLE` keeps the CPUs running; the kernel
//! preempts such a thread as soon as any ordinary thread becomes runnable,
//! so the program's threads do not wait for it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// Spinning idle-priority threads; stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one thread per available CPU. A thread that cannot lower
    /// itself to `SCHED_IDLE` ends at once rather than compete with the
    /// program.
    pub fn start() -> KeepAwake {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: pid 0 names the calling thread, and the
                    // parameter outlives the call.
                    let set =
                        unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
                    if set != 0 {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_stop_when_dropped() {
        let awake = KeepAwake::start();
        assert!(!awake.threads.is_empty());
        drop(awake);
    }
}
