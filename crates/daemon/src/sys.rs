//! `poll(2)` and, on Linux, `prctl(PR_SET_TIMERSLACK)`, declared by
//! hand: the workspace takes no dependencies, so there is no `libc`
//! crate, and `std` exposes neither call. This module holds the only
//! `unsafe` blocks of the library crates; everything outside it sees
//! safe functions.

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// There is data to read (or a peer hung up: the next read says which).
pub const POLLIN: c_short = 0x001;
/// Writing now would not block.
pub const POLLOUT: c_short = 0x004;

/// One entry of the set handed to [`poll`]; layout is `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events` (a mask of [`POLLIN`] / [`POLLOUT`]).
    pub fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] reported anything for this entry — a
    /// requested event, or an error/hang-up, which the kernel reports
    /// unasked and the owner discovers on its next read or write.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely). Returns how many entries are ready; zero means
/// the timeout passed or a signal interrupted the wait.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout = match timeout {
        None => -1,
        // Round up, so a short wait cannot turn into a busy loop.
        Some(t) => c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX),
    };
    // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
    // `PollFd`s, which are `#[repr(C)]` with exactly the fields of
    // `struct pollfd`; the kernel reads `fd`/`events` and writes only
    // `revents`, within that length, and keeps no pointer after the call
    // returns. A descriptor that is closed or invalid is reported in
    // `revents` (POLLNVAL), not undefined behaviour.
    let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(target_os = "linux")]
const PR_SET_TIMERSLACK: c_int = 29;

#[cfg(target_os = "linux")]
extern "C" {
    #[link_name = "prctl"]
    fn sys_prctl(option: c_int, ...) -> c_int;
}

/// Let the calling thread's timed waits end within 1 ns of their
/// deadline instead of the kernel's default 50 µs timer slack. Acts on
/// this thread alone; a no-op where the call does not exist.
pub fn tighten_timer_slack() -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `PR_SET_TIMERSLACK` takes one `unsigned long` argument
        // by value and touches no memory of the caller; it changes only
        // the calling thread's timer slack.
        let rc = unsafe { sys_prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[cfg(target_os = "linux")]
    #[test]
    fn the_timer_slack_is_tightened_on_the_calling_thread_only() {
        // `timerslack_ns` sits only in a `/proc/<id>` directory, and a
        // thread may read its own: `/proc/thread-self` links to
        // `<pid>/task/<tid>`.
        let slack = || {
            let link = std::fs::read_link("/proc/thread-self").unwrap();
            let tid = link.file_name().unwrap().to_str().unwrap().to_string();
            std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns")).unwrap()
        };
        let before = slack();
        std::thread::spawn(move || {
            tighten_timer_slack().unwrap();
            assert_eq!(slack().trim(), "1");
        })
        .join()
        .unwrap();
        assert_eq!(slack(), before, "the caller's own slack is untouched");
    }

    #[test]
    fn readable_after_a_write_and_not_before() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&b, POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert!(!fds[0].ready());
        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready());
    }

    #[test]
    fn writable_until_the_send_buffer_fills() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut fds = [PollFd::new(&a, POLLOUT)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        let chunk = [0u8; 4096];
        while (&a).write(&chunk).is_ok() {}
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn times_out_with_nothing_ready_and_reports_only_the_ready_entry() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let (_c, d) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&b, POLLIN), PollFd::new(&d, POLLIN)];
        let started = std::time::Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_millis(20));
        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(fds[0].ready() && !fds[1].ready());
        // A hang-up is reported even though only POLLIN was asked for.
        drop(a);
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
    }
}
