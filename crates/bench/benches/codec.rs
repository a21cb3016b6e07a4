//! OpenFlow 1.0 codec throughput: the encode/decode work on the
//! injector's hot path (the paper's protocol message encoder/decoder,
//! §VI-B2), plus the switch's per-packet `flow_key` extraction on a
//! full frame and on the truncated prefix a buffered `PACKET_IN`
//! carries. `cargo bench` writes `BENCH_codec.json` at the workspace
//! root.

use attain_bench::BenchReport;
use attain_openflow::packet::{self, TcpFlags};
use attain_openflow::{
    Action, FlowMod, MacAddr, Match, OfMessage, PacketIn, PacketInReason, PortNo,
};
use std::hint::black_box;

fn flow_mod() -> OfMessage {
    OfMessage::FlowMod(FlowMod {
        idle_timeout: 5,
        ..FlowMod::add(
            Match::exact_in_port(PortNo(1)),
            vec![Action::Output {
                port: PortNo(2),
                max_len: 0,
            }],
        )
    })
}

fn packet_in() -> OfMessage {
    let frame = packet::tcp_segment(
        MacAddr::from_low(1),
        MacAddr::from_low(2),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.6".parse().unwrap(),
        30000,
        5001,
        1,
        1,
        TcpFlags::ACK,
        vec![0x49; 64],
    );
    OfMessage::PacketIn(PacketIn {
        buffer_id: Some(7),
        total_len: frame.wire_len() as u16,
        in_port: PortNo(3),
        reason: PacketInReason::NoMatch,
        data: frame.encode(),
    })
}

fn main() {
    let mut report = BenchReport::new("codec");
    for (name, msg) in [("flow_mod", flow_mod()), ("packet_in", packet_in())] {
        let bytes = msg.encode(1);
        report.time(format!("encode/{name}"), || {
            black_box(black_box(&msg).encode(1));
        });
        report.time(format!("decode/{name}"), || {
            black_box(OfMessage::decode(black_box(&bytes)).unwrap());
        });
    }
    let frame = packet::tcp_segment(
        MacAddr::from_low(1),
        MacAddr::from_low(2),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.6".parse().unwrap(),
        30000,
        5001,
        1,
        1,
        TcpFlags::ACK,
        vec![0x49; 1460],
    )
    .encode();
    report.time("flow_key/full_frame", || {
        black_box(packet::flow_key(black_box(&frame), PortNo(1)));
    });
    report.time("flow_key/truncated_128", || {
        black_box(packet::flow_key(black_box(&frame[..128]), PortNo(1)));
    });
    report.finish();
}
