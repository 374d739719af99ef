//! Socket-buffer sizing: the one place in this crate that calls libc
//! directly.
//!
//! std's `UdpSocket` exposes no `SO_RCVBUF`, so `setsockopt` and
//! `getsockopt` are declared by hand (std already links libc). On Linux
//! the kernel clamps a request to `net.core.rmem_max` and doubles it to
//! cover its own bookkeeping; [`size_rcvbuf`] returns what the kernel
//! reports back, which is the limit it actually compares each socket's
//! queued datagram footprint against.

#![allow(unsafe_code)]

use std::io;
use std::net::UdpSocket;

/// Receive buffer the kernel gives a UDP socket that asks for nothing
/// (Linux's stock `net.core.rmem_default`). Assumed on platforms where
/// the buffer is not sized here.
#[cfg(not(target_os = "linux"))]
const DEFAULT_RCVBUF: usize = 212_992;

#[cfg(target_os = "linux")]
mod ffi {
    extern "C" {
        pub fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            val: *const core::ffi::c_void,
            len: u32,
        ) -> i32;
        pub fn getsockopt(
            fd: i32,
            level: i32,
            name: i32,
            val: *mut core::ffi::c_void,
            len: *mut u32,
        ) -> i32;
    }
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_RCVBUF: i32 = 8;
}

/// Asks the kernel for `request` bytes of receive buffer on `sock` and
/// returns the size it granted.
///
/// # Errors
///
/// Propagates a failing `setsockopt`/`getsockopt`.
#[cfg(target_os = "linux")]
pub(crate) fn size_rcvbuf(sock: &UdpSocket, request: usize) -> io::Result<usize> {
    use std::os::fd::AsRawFd;
    let fd = sock.as_raw_fd();
    let want = i32::try_from(request).unwrap_or(i32::MAX);
    let int_len = std::mem::size_of::<i32>() as u32;
    // SAFETY: `fd` is open for the life of `sock`, and the option value
    // points at a live `i32` whose size is passed.
    let rc = unsafe {
        ffi::setsockopt(fd, ffi::SOL_SOCKET, ffi::SO_RCVBUF, (&want as *const i32).cast(), int_len)
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let mut granted: i32 = 0;
    let mut len = int_len;
    // SAFETY: `fd` is open; `granted` and `len` are live, writable, and
    // `len` holds the size of `granted`, which the kernel writes at most.
    let rc = unsafe {
        ffi::getsockopt(
            fd,
            ffi::SOL_SOCKET,
            ffi::SO_RCVBUF,
            (&mut granted as *mut i32).cast(),
            &mut len,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(usize::try_from(granted).unwrap_or(0))
}

/// Non-Linux fallback: the socket keeps its default buffer, assumed to
/// be [`DEFAULT_RCVBUF`].
///
/// # Errors
///
/// Never.
#[cfg(not(target_os = "linux"))]
pub(crate) fn size_rcvbuf(_sock: &UdpSocket, _request: usize) -> io::Result<usize> {
    Ok(DEFAULT_RCVBUF)
}
