//! Worker placement: read the CPUs this process may run on, and pin the
//! calling thread to one of them (DESIGN.md §13 "Worker placement").
//!
//! The scheduler pins worker `i` to the `i`-th allowed CPU when its pool
//! takes the whole mask, so the `r` members of a team run on `r` distinct
//! CPUs instead of wherever the kernel's wake placement puts them.  There is no
//! `libc` in the tree: both calls are raw `sched_getaffinity` /
//! `sched_setaffinity` system calls on x86-64 Linux.  Everywhere else, and
//! under `--cfg teamsteal_model`, [`allowed_cpus`] returns an empty list and
//! [`pin_current_thread`] does nothing, so nothing is ever pinned.

/// Words of the mask buffer: 16 × 64 = 1024 CPUs, glibc's `CPU_SETSIZE`.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(teamsteal_model)))]
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, in ascending order — the
/// process's mask as `taskset` or a cpuset set it, since threads inherit it.
/// Empty if the mask cannot be read or placement is not supported here.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(teamsteal_model)))]
    {
        let mut mask = [0u64; MASK_WORDS];
        let ret: isize;
        // SAFETY: sched_getaffinity(0, len, buf) writes at most `len` bytes
        // into `buf`, which points at `mask` and is exactly `len` bytes
        // long; the syscall instruction clobbers only rax, rcx and r11.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 204isize => ret,
                in("rdi") 0usize,
                in("rsi") core::mem::size_of_val(&mask),
                in("rdx") mask.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if ret <= 0 {
            return Vec::new();
        }
        cpus_in_mask(&mask)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(teamsteal_model))))]
    Vec::new()
}

/// Restricts the calling thread to `cpu`.  A failed call (a CPU outside the
/// mask, a seccomp filter) is ignored: the thread stays where it was.
pub fn pin_current_thread(cpu: usize) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(teamsteal_model)))]
    {
        let mut mask = [0u64; MASK_WORDS];
        let Some(word) = mask.get_mut(cpu / 64) else {
            return;
        };
        *word = 1 << (cpu % 64);
        // SAFETY: sched_setaffinity(0, len, buf) only reads `len` bytes from
        // `buf`, which points at `mask` and is exactly `len` bytes long; the
        // syscall instruction clobbers only rax, rcx and r11.  The result is
        // deliberately ignored.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => _,
                in("rdi") 0usize,
                in("rsi") core::mem::size_of_val(&mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, readonly),
            );
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(teamsteal_model))))]
    let _ = cpu;
}

/// Decodes a kernel CPU mask (bit `c % 64` of word `c / 64` set for CPU `c`)
/// into its CPU numbers, in ascending order.
#[cfg(any(
    test,
    all(target_os = "linux", target_arch = "x86_64", not(teamsteal_model))
))]
fn cpus_in_mask(mask: &[u64]) -> Vec<usize> {
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpus_in_mask_lists_set_bits_in_ascending_order() {
        assert_eq!(cpus_in_mask(&[]), Vec::<usize>::new());
        assert_eq!(cpus_in_mask(&[0, 0]), Vec::<usize>::new());
        assert_eq!(cpus_in_mask(&[0b1011]), vec![0, 1, 3]);
        assert_eq!(cpus_in_mask(&[1 << 63, 1]), vec![63, 64]);
        assert_eq!(cpus_in_mask(&[0, 0b110]), vec![65, 66]);
    }

    #[test]
    fn allowed_cpus_is_ascending_and_distinct() {
        let cpus = allowed_cpus();
        assert!(cpus.windows(2).all(|w| w[0] < w[1]));
        if cfg!(all(
            target_os = "linux",
            target_arch = "x86_64",
            not(teamsteal_model)
        )) {
            // A running thread is allowed on at least one CPU.
            assert!(!cpus.is_empty());
        }
    }
}
