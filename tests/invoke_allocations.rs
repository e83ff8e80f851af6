//! Heap allocations per call on the local invoke path, counted by a
//! global allocator. After warm-up, with the span and trace rings full:
//!
//! * opening and closing a span allocates nothing;
//! * a software `invoke` of `Echo` allocates only its reply;
//! * a `MemoryScribe` call on each MMU backend allocates only its reply:
//!   the page walk is iterated, and the bus appends into that one buffer;
//! * `Assembly::call_channel` allocates no more than the invoke under it.
//!
//! The count is kept per thread, so tests running in parallel do not add
//! to each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use lateral::core::composer::compose;
use lateral::core::manifest::{AppManifest, ComponentManifest};
use lateral::substrate::cap::{Badge, ChannelCap};
use lateral::substrate::component::Component;
use lateral::substrate::fabric::DEFAULT_TRACE_CAPACITY;
use lateral::substrate::software::SoftwareSubstrate;
use lateral::substrate::substrate::{DomainSpec, Substrate};
use lateral::substrate::testkit::{Echo, MemoryScribe};
use lateral::substrate::DomainId;
use lateral::telemetry::{outcome, Telemetry, DEFAULT_SPAN_CAPACITY};
use lateral_bench::e2_conformance::all_substrates;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting every allocation and reallocation
/// on the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; counting touches only a
// thread-local `Cell<u64>`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Calls counted in each measurement.
const CALLS: u64 = 1_000;
/// Calls before counting: enough to fill both the span ring and the
/// fabric's trace ring, so eviction is on the counted path.
const WARM_UP: usize = 3 * DEFAULT_SPAN_CAPACITY;
/// A request that takes a heap reply (an empty one would not).
const PAYLOAD: &[u8] = &[0x5a; 200];

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of [`CALLS`] invokes of `cap` after warm-up; the replies
/// are checked during warm-up and dropped while counting.
fn invoke_allocations(sub: &mut dyn Substrate, caller: DomainId, cap: &ChannelCap) -> u64 {
    let name = sub.profile().name.clone();
    for _ in 0..WARM_UP {
        assert_eq!(
            sub.invoke(caller, cap, PAYLOAD).unwrap(),
            PAYLOAD,
            "[{name}]"
        );
    }
    assert_eq!(
        sub.telemetry().span_count(),
        DEFAULT_SPAN_CAPACITY,
        "[{name}]"
    );
    assert_eq!(sub.fabric().trace_len(), DEFAULT_TRACE_CAPACITY, "[{name}]");
    allocations(|| {
        for _ in 0..CALLS {
            black_box(sub.invoke(caller, cap, black_box(PAYLOAD)).unwrap());
        }
    })
}

/// A client holding a capability to a fresh `service` domain.
fn wire(sub: &mut dyn Substrate, service: Box<dyn Component>) -> (DomainId, ChannelCap) {
    let client = sub
        .spawn(DomainSpec::named("client"), Box::new(Echo))
        .unwrap();
    let target = sub.spawn(DomainSpec::named("service"), service).unwrap();
    let cap = sub.grant_channel(client, target, Badge(1)).unwrap();
    (client, cap)
}

#[test]
fn a_span_allocates_nothing() {
    let mut tel = Telemetry::new();
    let label = tel.intern("invoke probe");
    tel.intern("serve probe");
    let root = tel.begin_span("root", "probe", 0);
    let by_label = |tel: &mut Telemetry| {
        let at = tel.tick();
        let id = tel.begin_span_label(label, "probe", at);
        tel.end_span(id, at, outcome::OK);
    };
    for _ in 0..WARM_UP {
        by_label(&mut tel);
    }
    assert_eq!(tel.span_count(), DEFAULT_SPAN_CAPACITY);
    let spans = allocations(|| {
        for _ in 0..CALLS {
            by_label(&mut tel);
        }
    });
    assert_eq!(spans, 0, "begin_span_label + end_span");
    // A name interned before opens without allocating too.
    let spans = allocations(|| {
        for _ in 0..CALLS {
            let at = tel.tick();
            let id = tel.begin_span("serve probe", "probe", at);
            tel.end_span(id, at, outcome::OK);
        }
    });
    assert_eq!(spans, 0, "begin_span of an interned name + end_span");
    let at = tel.tick();
    tel.end_span(root, at, outcome::OK);
}

#[test]
fn a_software_echo_invoke_allocates_only_its_reply() {
    let mut sub = SoftwareSubstrate::new("alloc");
    let (client, cap) = wire(&mut sub, Box::new(Echo));
    assert_eq!(invoke_allocations(&mut sub, client, &cap), CALLS);
}

#[test]
fn a_memory_scribe_call_allocates_only_its_reply_on_every_mmu_backend() {
    let mut checked = Vec::new();
    for mut sub in all_substrates() {
        let name = sub.profile().name.clone();
        if matches!(name.as_str(), "software" | "flicker") {
            continue;
        }
        let (client, cap) = wire(sub.as_mut(), Box::new(MemoryScribe));
        assert_eq!(
            invoke_allocations(sub.as_mut(), client, &cap),
            CALLS,
            "[{name}] one allocation per call: the reply"
        );
        checked.push(name);
    }
    assert_eq!(checked, ["microkernel", "trustzone", "sgx", "sep"]);
}

#[test]
fn a_channel_call_allocates_no_more_than_its_invoke() {
    let app = AppManifest::new(
        "alloc",
        vec![
            ComponentManifest::new("ui").channel("ask", "svc", 1),
            ComponentManifest::new("svc"),
        ],
    );
    let mut factory = |_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>);
    let pool: Vec<Box<dyn Substrate>> = vec![Box::new(SoftwareSubstrate::new("alloc"))];
    let mut asm = compose(&app, pool, &mut factory).unwrap();
    for _ in 0..WARM_UP {
        assert_eq!(asm.call_channel("ui", "ask", PAYLOAD).unwrap(), PAYLOAD);
    }
    let calls = allocations(|| {
        for _ in 0..CALLS {
            black_box(asm.call_channel("ui", "ask", black_box(PAYLOAD)).unwrap());
        }
    });
    assert_eq!(calls, CALLS, "one allocation per call: the invoke's reply");
}
