//! Pins the allocation profile of the frame codec.
//!
//! A counting global allocator records the allocations made by the
//! calling thread only (the test harness runs other tests on other
//! threads). Sealing a parameter frame must allocate the frame once —
//! plus at most a reference-count header — and never copy it into a
//! second frame-sized buffer; opening one must allocate only the
//! decoded `Vec<f32>`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hadfl::wire::{open, seal, CausalStamp, Message, STAMP_LEN};

/// The `mlp` model's parameter count: a 206 KB frame.
const PARAMS: usize = 51_626;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static BIG: Cell<usize> = const { Cell::new(0) };
}

/// Allocations at least this large count as frame-sized.
const BIG_BYTES: usize = 4 * PARAMS;

fn record(size: usize) {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            COUNT.with(|c| c.set(c.get() + 1));
            BYTES.with(|b| b.set(b.get() + size));
            if size >= BIG_BYTES {
                BIG.with(|b| b.set(b.get() + 1));
            }
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialised thread-locals of `Cell<usize>`/`Cell<bool>`, which
// never allocate, so recording cannot recurse into the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one closure allocated on this thread.
#[derive(Debug)]
struct Allocs {
    count: usize,
    bytes: usize,
    big: usize,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    COUNT.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    BIG.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    let allocs = Allocs {
        count: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        big: BIG.with(Cell::get),
    };
    (out, allocs)
}

fn param_messages() -> Vec<Message> {
    let params: Vec<f32> = (0..PARAMS).map(|i| i as f32 * 0.25 - 7.0).collect();
    vec![
        Message::ParamAccum {
            round: 3,
            hops: 2,
            params: params.clone(),
        },
        Message::ParamSync {
            round: 3,
            params: params.clone(),
        },
        Message::MergedParams {
            round: 3,
            ttl: 1,
            params,
        },
    ]
}

const STAMP: CausalStamp = CausalStamp {
    origin: 1,
    lamport: 42,
};

#[test]
fn sealing_a_param_frame_allocates_it_once() {
    for msg in param_messages() {
        // Warm-up: first use of any lazily initialised thread state.
        drop(seal(STAMP, &msg));
        let (frame, allocs) = measure(|| seal(STAMP, &msg));
        let len = STAMP_LEN + msg.encoded_len();
        assert_eq!(frame.len(), len);
        assert_eq!(allocs.big, 1, "one frame-sized allocation: {allocs:?}");
        assert!(
            allocs.bytes < len + 64,
            "{} bytes allocated for a {len}-byte frame: {allocs:?}",
            allocs.bytes
        );
    }
}

#[test]
fn opening_a_param_frame_allocates_only_the_params() {
    for msg in param_messages() {
        let frame = seal(STAMP, &msg);
        drop(open(&frame).unwrap());
        let (opened, allocs) = measure(|| open(&frame).unwrap());
        assert_eq!(opened, (STAMP, msg));
        assert_eq!(allocs.count, 1, "only the Vec<f32>: {allocs:?}");
        assert_eq!(allocs.bytes, 4 * PARAMS, "{allocs:?}");
    }
}
