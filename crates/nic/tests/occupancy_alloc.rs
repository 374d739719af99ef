//! `Occupancy::record` runs on every firmware charge of every NIC, about
//! ten times per packet, so it must not touch the heap. A counting global
//! allocator makes that checkable; it lives in its own test binary so no
//! other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qpip_nic::{Occupancy, PacketClass, Stage};
use qpip_sim::time::SimDuration;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, so `System`'s
// guarantees are the allocator's; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn record_allocates_nothing() {
    const STAGES: [Stage; 4] = [Stage::GetWr, Stage::BuildTcpHdr, Stage::TcpParse, Stage::UpdateRx];
    const CLASSES: [PacketClass; 3] =
        [PacketClass::DataSend, PacketClass::AckRecv, PacketClass::Control];
    let mut o = Occupancy::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..100_000u64 {
        let stage = STAGES[(i % 4) as usize];
        let class = CLASSES[(i % 3) as usize];
        o.record(stage, class, SimDuration::from_nanos(100 + i % 900));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "100k records allocated {allocs} times");
    assert_eq!(o.cells().len(), 12);
}
