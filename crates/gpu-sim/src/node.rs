//! A node launch: one grid spread over the memories of several devices.
//!
//! A node's round that answers keys runs a kernel on every GPU and then
//! a scatter on every GPU that the answers return to. As launches of
//! their own, each pays its launch overhead and a global barrier between
//! them; [`launch_node`] runs both as **one** grid, whose ordered
//! sections each run on one member's memory with their own group size:
//! `[kernel of every GPU | scatter of every GPU]`. A group reads and
//! writes its own member's memory, counts into its section's counters,
//! and may store into a peer's memory ([`GroupCtx::store_peer`], counted
//! on its edge) and publish a flag there ([`GroupCtx::publish_peer`]).
//!
//! **Progress.** Groups are numbered globally, section after section, so
//! a group that polls only flags of lower ids — the rule of
//! [`GroupCtx::poll`] — finishes under every schedule for the reasons a
//! launch on one device does: `Sequential` and a pool launch of one chunk
//! run the ids in order on one thread; a larger pool launch hands each
//! thread an ascending range of chunks; a stepwise schedule admits groups
//! in id order and parks a waiter until something is published. Which
//! memory a group's flag lies in plays no part.
//!
//! **Billing.** Each device pays one launch overhead, each of its
//! members' sections' modeled time net of that overhead
//! ([`crate::DeviceSpec::net_of_launches`]), and the chain latency of its
//! deepest wait; its lifetime counts one launch. Members that share a
//! device — the partitions of §VI's sharded table — share its launch. A
//! device whose sections hold no group launches nothing and pays nothing.
//!
//! **Sanitizers.** The members' devices share one race state, each
//! device's words keyed apart, so racecheck orders a publish into a
//! peer's memory before the poll there as it orders one flag on one
//! device; initcheck marks what a peer store writes as written.
//!
//! The launch allocates nothing on the host unless a sanitizer is armed:
//! its members, counters and bills live in fixed arrays on its stack.

use crate::counters::{CounterSnapshot, KernelCounters, LocalCounters};
use crate::device::{run_grid, Device, KernelStats, LaunchOptions};
use crate::mem::DeviceMemory;
use crate::sanitizer::racecheck::RaceState;
use crate::sanitizer::LaunchSanitizer;
use crate::simt::{GroupCtx, GroupSize};
use crate::timing::TimeBreakdown;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most members a node launch spans.
pub const MAX_MEMBERS: usize = 32;

/// Most sections a node launch's grid has: two a member.
pub const MAX_SECTIONS: usize = 2 * MAX_MEMBERS;

/// Words of a member's memory apart in the race state its node shares.
const RACE_SPAN: usize = 1 << 40;

/// One section of a node launch's grid.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// The member whose memory and counters its groups use.
    pub member: usize,
    /// Groups in the section.
    pub groups: usize,
    /// Lanes of each.
    pub size: GroupSize,
    /// Bytes of its hot working set at modeled scale, as
    /// [`LaunchOptions::modeled_working_set`]; 0 if unknown.
    pub working_set: u64,
}

/// The members of a node launch, as its groups see them.
pub(crate) struct Node<'a> {
    devices: &'a [&'a Device],
    /// Per member, the first member on its device: the one that holds
    /// the device's sanitizer context and its bill.
    san_of: [usize; MAX_MEMBERS],
    sans: [Option<LaunchSanitizer<'a>>; MAX_MEMBERS],
    /// Bytes stored from member `i` into member `j`.
    edges: [[AtomicU64; MAX_MEMBERS]; MAX_MEMBERS],
}

impl<'a> Node<'a> {
    fn new(devices: &'a [&'a Device], name: &'a str, opts: LaunchOptions) -> Self {
        let mut san_of = [0; MAX_MEMBERS];
        let mut sans: [Option<LaunchSanitizer<'a>>; MAX_MEMBERS] = std::array::from_fn(|_| None);
        let mut race: Option<Arc<RaceState>> = None;
        for (j, dev) in devices.iter().enumerate() {
            // members on one device share its context
            let first = devices.iter().position(|d| std::ptr::eq(*d, *dev));
            san_of[j] = first.unwrap_or(j);
            if san_of[j] == j {
                sans[j] = dev.launch_sanitizer(name, opts).map(|san| {
                    let shared = race.get_or_insert_with(|| Arc::new(RaceState::new()));
                    san.sharing(shared, j * RACE_SPAN)
                });
            }
        }
        Self {
            devices,
            san_of,
            sans,
            edges: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Member `j`'s memory.
    pub(crate) fn mem(&self, j: usize) -> &'a DeviceMemory {
        self.devices[j].mem()
    }

    /// Member `j`'s sanitizer context, if one is armed.
    pub(crate) fn san(&self, j: usize) -> Option<&LaunchSanitizer<'a>> {
        self.sans[self.san_of[j]].as_ref()
    }

    /// Counts `bytes` stored from member `from` into member `to`.
    pub(crate) fn count_edge(&self, from: usize, to: usize, bytes: u64) {
        self.edges[from][to].fetch_add(bytes, Ordering::Relaxed);
    }
}

/// What a node launch counted and billed.
#[derive(Debug, Clone)]
pub struct NodeStats {
    sections: [KernelStats; MAX_SECTIONS],
    /// Per member: whether it ran a group, and its device's bill and chain
    /// latency.
    members: [(bool, f64, f64); MAX_MEMBERS],
    /// Devices that launched.
    launches: usize,
    edges: [[u64; MAX_MEMBERS]; MAX_MEMBERS],
}

impl NodeStats {
    /// Section `k`'s counters and modeled time as a launch of its own
    /// would bill them: with one launch overhead and without the member's
    /// chain of waits. A section without groups bills nothing.
    #[must_use]
    pub fn section(&self, k: usize) -> &KernelStats {
        &self.sections[k]
    }

    /// Whether member `j` ran a group.
    #[must_use]
    pub fn launched(&self, j: usize) -> bool {
        self.members[j].0
    }

    /// Devices the launch ran a group on: the launches their lifetimes
    /// count.
    #[must_use]
    pub fn launches(&self) -> usize {
        self.launches
    }

    /// Modeled seconds of member `j`'s device: one launch overhead, the
    /// sections of its members net of theirs, and the chain latency of
    /// its deepest wait.
    #[must_use]
    pub fn time(&self, j: usize) -> f64 {
        self.members[j].1
    }

    /// Seconds of the deepest chain of waits on member `j`'s device.
    #[must_use]
    pub fn chain_latency(&self, j: usize) -> f64 {
        self.members[j].2
    }

    /// Bytes the launch's groups stored from member `from` into member
    /// `to` ([`GroupCtx::store_peer`]).
    #[must_use]
    pub fn edge_bytes(&self, from: usize, to: usize) -> u64 {
        self.edges[from][to]
    }
}

/// Launches one grid over the memories of `devices`, its groups the
/// `sections` one after another: `kernel(k, id, ctx)` runs group `id` of
/// section `k`, `ctx.group_id()` its id in the whole grid. The schedule,
/// dispatch and sanitizers are `opts`'; the working set is each
/// section's. See the [module docs](self) for progress and billing.
///
/// # Panics
/// Panics beyond [`MAX_MEMBERS`] members or [`MAX_SECTIONS`] sections, on
/// a section of no member, and as [`Device::launch`] does.
pub fn launch_node<F>(
    devices: &[&Device],
    name: &'static str,
    sections: &[Section],
    opts: LaunchOptions,
    kernel: F,
) -> NodeStats
where
    F: Fn(usize, usize, &GroupCtx) + Sync,
{
    assert!(devices.len() <= MAX_MEMBERS, "a node launch spans at most {MAX_MEMBERS} members");
    assert!(sections.len() <= MAX_SECTIONS, "a node launch has at most {MAX_SECTIONS} sections");
    assert!(sections.iter().all(|s| s.member < devices.len()), "a section of no member");
    // the first group id of each section, and behind them the grid's end
    let mut starts = [0; MAX_SECTIONS + 1];
    for (k, section) in sections.iter().enumerate() {
        starts[k + 1] = starts[k] + section.groups;
    }
    let starts = &starts[..=sections.len()];
    let total = starts[sections.len()];
    let node = Node::new(devices, name, opts);
    let node = &node;
    let sinks: [KernelCounters; MAX_SECTIONS] = std::array::from_fn(|_| Default::default());
    // the section group `gid` falls into
    let section_of = |gid: usize| starts.partition_point(|&start| start <= gid) - 1;
    run_grid(
        opts,
        total,
        |lo, hi, concurrent| {
            let mut gid = lo;
            while gid < hi {
                let k = section_of(gid);
                let (section, end) = (sections[k], starts[k + 1].min(hi));
                let (mem, san) = (node.mem(section.member), node.san(section.member));
                let local = LocalCounters::new();
                for id in gid..end {
                    let ctx = GroupCtx::new(mem, &local, id, section.size, san, concurrent)
                        .in_node(node, section.member);
                    kernel(k, id - starts[k], &ctx);
                }
                local.flush_into(&sinks[k], (end - gid) as u64);
                gid = end;
            }
        },
        |gid, step, lease| {
            let k = section_of(gid);
            let section = sections[k];
            let (mem, san) = (node.mem(section.member), node.san(section.member));
            let local = LocalCounters::new();
            let ctx = GroupCtx::new_stepped(mem, &local, gid, section.size, step, lease, san)
                .in_node(node, section.member);
            kernel(k, gid - starts[k], &ctx);
            let unused = ctx.retire();
            drop(ctx);
            local.flush_into(&sinks[k], 1);
            unused
        },
    );
    for san in node.sans.iter().flatten() {
        san.finish();
    }
    bill(devices, name, sections, &sinks, node)
}

/// The stats and per-member bills of a finished node launch; books each
/// member that launched into its device's lifetime totals.
fn bill(
    devices: &[&Device],
    name: &'static str,
    sections: &[Section],
    sinks: &[KernelCounters; MAX_SECTIONS],
    node: &Node,
) -> NodeStats {
    let idle = |size| KernelStats {
        name,
        counters: CounterSnapshot::default(),
        breakdown: TimeBreakdown::default(),
        sim_time: 0.0,
        group_size: size,
        num_groups: 0,
    };
    let mut stats = NodeStats {
        sections: [idle(GroupSize::WARP); MAX_SECTIONS],
        members: [(false, 0.0, 0.0); MAX_MEMBERS],
        launches: 0,
        edges: std::array::from_fn(|i| {
            std::array::from_fn(|j| node.edges[i][j].load(Ordering::Relaxed))
        }),
    };
    // per device, at its first member: what its sections counted, their
    // net time, deepest chain
    let mut sums = [(CounterSnapshot::default(), 0.0, 0); MAX_MEMBERS];
    let mut launched = [false; MAX_MEMBERS];
    for (k, section) in sections.iter().enumerate() {
        stats.sections[k] = idle(section.size);
        if section.groups == 0 {
            continue;
        }
        let (counters, chain) = sinks[k].snapshot();
        let timing = devices[section.member].timing();
        let breakdown =
            timing.kernel_time(counters, section.size, section.groups as u64, section.working_set);
        stats.sections[k] = KernelStats {
            counters,
            breakdown,
            sim_time: breakdown.total(),
            num_groups: section.groups as u64,
            ..stats.sections[k]
        };
        let device = node.san_of[section.member];
        let sum = &mut sums[device];
        sum.0 = sum.0.merged(counters);
        sum.1 += timing.spec().net_of_launches(breakdown.total(), 1);
        sum.2 = sum.2.max(chain);
        launched[device] = true;
        stats.members[section.member].0 = true;
    }
    // per device, at its first member: its time and chain latency
    let mut bills = [(0.0, 0.0); MAX_MEMBERS];
    for (j, dev) in devices.iter().enumerate().filter(|&(j, _)| launched[j]) {
        let (counters, net, chain) = sums[j];
        let chain = dev.timing().chain_latency(chain);
        let time = dev.spec().launch_overhead + net + chain;
        bills[j] = (time, chain);
        stats.launches += 1;
        dev.retire_launch(counters, time);
    }
    for (j, member) in stats.members.iter_mut().enumerate().take(devices.len()) {
        (member.1, member.2) = bills[node.san_of[j]];
    }
    stats
}
