//! Flow-table lookup scaling in the OVS model: classifier cost against
//! table occupancy (an ablation for the simulator substrate's
//! fidelity/performance trade-off).
//!
//! Two sweeps:
//!
//! * `lookup_miss` — a packet matching nothing. Under the old linear
//!   scan this cost grew with occupancy; the two-tier classifier
//!   resolves it with one hash probe plus the (empty) wildcard tier.
//! * `lookup_hit_exact` — a packet hitting an installed exact-match
//!   entry, the table-occupancy sweep (64 → 10k) that demonstrates the
//!   exact tier's O(1) behaviour.
//!
//! `cargo bench` writes `BENCH_flow_table.json` at the workspace root.

use attain_bench::BenchReport;
use attain_netsim::{FlowTable, SimTime};
use attain_openflow::{packet, Action, FlowKey, FlowMod, MacAddr, Match, PortNo};
use std::hint::black_box;

const MISS_SIZES: [usize; 4] = [16, 128, 1024, 10_240];
const HIT_SIZES: [usize; 4] = [64, 1024, 4096, 10_240];

fn nth_key(i: usize) -> FlowKey {
    FlowKey {
        in_port: PortNo((i % 48 + 1) as u16),
        dl_src: MacAddr::from_low(i as u64),
        dl_dst: MacAddr::from_low((i * 7) as u64),
        dl_type: 0x0800,
        nw_proto: 6,
        nw_src: i as u32,
        nw_dst: (i * 13) as u32,
        tp_src: (i % 65_535) as u16,
        tp_dst: 80,
        ..FlowKey::default()
    }
}

fn filled_table(entries: usize) -> FlowTable {
    let mut t = FlowTable::new(entries.max(1024));
    for i in 0..entries {
        let fm = FlowMod::add(
            Match::from_flow_key(&nth_key(i)),
            vec![Action::Output {
                port: PortNo(2),
                max_len: 0,
            }],
        );
        t.apply(&fm, SimTime::ZERO).expect("table has room");
    }
    t
}

fn miss_key() -> FlowKey {
    // A flow no installed entry admits: the worst case every packet of a
    // new flow pays.
    let miss_frame = packet::tcp_segment(
        MacAddr::from_low(0xdead),
        MacAddr::from_low(0xbeef),
        "192.168.9.9".parse().unwrap(),
        "192.168.9.10".parse().unwrap(),
        9999,
        443,
        1,
        1,
        packet::TcpFlags::SYN,
        vec![],
    )
    .encode();
    packet::flow_key(&miss_frame, PortNo(47))
}

fn main() {
    let mut report = BenchReport::new("flow_table");
    let miss = miss_key();
    for &n in &MISS_SIZES {
        let mut t = filled_table(n);
        report.time(format!("lookup_miss/{n}"), || {
            black_box(t.lookup(black_box(&miss), 64, SimTime::ZERO));
        });
    }
    for &n in &HIT_SIZES {
        let mut t = filled_table(n);
        let key = nth_key(n / 2);
        report.time(format!("lookup_hit_exact/{n}"), || {
            black_box(t.lookup(black_box(&key), 64, SimTime::ZERO));
        });
    }
    report.finish();
}
