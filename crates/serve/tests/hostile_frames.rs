//! A malformed frame must cost the sender its connection, never the
//! server: after a deeply nested payload (well under `MAX_FRAME_BYTES`,
//! deep enough to overflow a connection thread's stack if the JSON parser
//! recursed without a bound), the same server still answers a normal
//! request on a fresh connection and finishes its campaign.

use std::io::{Read, Write};
use uvf_characterize::prelude::*;
use uvf_fpga::{Millivolts, PlatformKind, Rail};
use uvf_serve::{run_worker, CampaignServer, Endpoint, Message, ServerConfig, WorkerOptions};

#[test]
fn deeply_nested_frame_closes_only_its_connection() {
    let kind = PlatformKind::Zc702;
    let platform = kind.descriptor();
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(1)
        .start(Millivolts(platform.vccbram.vmin.0 + 10))
        .build();
    let sock = std::env::temp_dir().join(format!("uvf-hostile-{}.sock", std::process::id()));
    let config = ServerConfig::new(
        vec![CampaignJob::new(kind, cfg)],
        RecoveryPolicy::default(),
        Endpoint::Unix(sock.clone()),
    );
    let handle = CampaignServer::start(config).unwrap();

    // 100 KB of '[' in one well-formed length-prefixed frame.
    let payload = vec![b'['; 100_000];
    let mut hostile = handle.endpoint().connect().unwrap();
    let len = u32::try_from(payload.len()).unwrap();
    hostile.writer.write_all(&len.to_le_bytes()).unwrap();
    hostile.writer.write_all(&payload).unwrap();
    hostile.writer.flush().unwrap();
    // The server rejects the frame and hangs up without replying.
    let mut reply = Vec::new();
    hostile.reader.read_to_end(&mut reply).unwrap();
    assert!(reply.is_empty(), "no reply to a malformed frame");

    let mut client = handle.endpoint().connect().unwrap();
    Message::GetFvm {
        platform: kind.to_string(),
        chip_seed: platform.default_chip_seed,
        temp_mc: 25_000,
        v_ref_mv: platform.vccbram.vcrash.0,
    }
    .write_to(&mut client.writer)
    .unwrap();
    match Message::read_from(&mut client.reader).unwrap() {
        Some(Message::Fvm { record }) => assert!(!record.is_empty()),
        other => panic!("expected an Fvm reply, got {other:?}"),
    }
    drop(client);

    let mut worker = WorkerOptions::new(handle.endpoint().clone());
    worker.worker_id = 1;
    run_worker(&worker).unwrap();
    let result = handle.join().unwrap();
    assert_eq!(result.entries.len(), 1);
    std::fs::remove_file(&sock).ok();
}
