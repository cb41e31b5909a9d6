//! Moving the benchmark's one thread between the CPUs it may use.
//!
//! On a shared host each CPU is slowed, for seconds at a time, by whatever
//! else runs beside it, and the slow periods of different CPUs do not
//! coincide. The untraced pass runs its cycles on the allowed CPUs in turn,
//! so every simulation gets replays on each of them and its fastest replay
//! comes from whichever CPU was quiet.

/// `cpu_set_t` of glibc: 1024 bits.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on when the benchmark starts.
pub struct Cpus {
    allowed: Vec<usize>,
}

impl Cpus {
    /// Reads the thread's affinity mask. If it cannot be read, the list is
    /// empty and [`Cpus::pin`] and [`Cpus::release`] do nothing.
    pub fn allowed() -> Cpus {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let allowed = if rc == 0 {
            (0..WORDS * 64)
                .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { allowed }
    }

    /// Moves this thread to the allowed CPU `turn` picks, in rotation.
    pub fn pin(&self, turn: usize) {
        if !self.allowed.is_empty() {
            set(&[self.allowed[turn % self.allowed.len()]]);
        }
    }

    /// Lets this thread run on every allowed CPU again.
    pub fn release(&self) {
        if !self.allowed.is_empty() {
            set(&self.allowed);
        }
    }
}

/// Sets this thread's affinity to `cpus`. A refusal leaves the mask as it
/// was, which only makes the rotation less effective, so it is ignored.
fn set(cpus: &[usize]) {
    let mut mask = [0u64; WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
