//! Per-thread buffer recycling on the dense path (see
//! `aetr_sim::spare`): generate → interface → MCU receive.
//!
//! Every per-run buffer on the path retires into a thread-local slot
//! when dropped and is taken back by the next run on the thread. These
//! tests pin that the storage really is reused (same address), and that
//! reuse is invisible: a run on recycled storage equals the same run on
//! a fresh thread. Each case runs on a thread of its own, so the slots
//! start empty.

use std::thread;

use aetr::interface::{AerToI2sInterface, InterfaceConfig, InterfaceReport};
use aetr::mcu::{FidelityReport, McuReceiver};
use aetr_aer::generator::{LfsrGenerator, SpikeSource};
use aetr_aer::spike::SpikeTrain;
use aetr_sim::time::SimTime;

/// The prototype interface and a receiver that knows its `T_min` and
/// saturation value.
fn rig() -> (AerToI2sInterface, McuReceiver) {
    let config = InterfaceConfig::prototype();
    let clock = &config.clock;
    let saturation = u64::from(clock.theta_div) * ((1u64 << (clock.n_div + 1)) - 1);
    let mcu = McuReceiver::new(clock.base_sampling_period()).with_saturation(saturation);
    (AerToI2sInterface::new(config).expect("prototype validates"), mcu)
}

/// One dense run: the stimulus and the interface report.
fn run(rate_hz: f64, seed: u32, horizon_ms: u64) -> (SpikeTrain, InterfaceReport) {
    let horizon = SimTime::from_ms(horizon_ms);
    let train = LfsrGenerator::new(rate_hz, seed).generate(horizon);
    let report = rig().0.run(&train, horizon);
    (train, report)
}

/// Storage addresses of the stimulus, events, handshakes and frames.
fn storage(train: &SpikeTrain, report: &InterfaceReport) -> [*const (); 4] {
    [
        train.as_slice().as_ptr().cast(),
        report.events.as_ptr().cast(),
        report.handshake.transactions().as_ptr().cast(),
        report.i2s.frames().as_ptr().cast(),
    ]
}

#[test]
fn a_second_run_on_the_thread_reuses_every_buffer() {
    thread::spawn(|| {
        let (train, report) = run(400_000.0, 9001, 5);
        assert!(report.events.len() > 1_000, "a dense run");
        let first = storage(&train, &report);
        drop((train, report));
        let (train, report) = run(400_000.0, 9001, 5);
        assert_eq!(storage(&train, &report), first);

        // The MCU's rebuilt train is taken back the same way. It shares
        // the spike slot with the stimulus, so the stimulus stays alive.
        let mcu = rig().1;
        let rebuilt = mcu.receive_anchored(&report.i2s);
        let storage = rebuilt.as_slice().as_ptr();
        drop(rebuilt);
        let again = mcu.receive_anchored(&report.i2s);
        assert_eq!(again.as_slice().as_ptr(), storage);
        assert_eq!(again.len(), report.i2s.event_count());
        assert_eq!(train.len(), again.len(), "fault-free: nothing lost");
    })
    .join()
    .expect("recycling thread");
}

#[test]
fn recycled_storage_leaks_no_stale_contents() {
    let short = || {
        let (train, report) = run(150_000.0, 77, 1);
        let rebuilt = rig().1.receive_anchored(&report.i2s);
        let fidelity = FidelityReport::compare(&train, &rebuilt);
        (train, report, rebuilt, fidelity)
    };
    let after_long = thread::spawn(move || {
        // A long, denser run first fills every slot with more than the
        // short run needs.
        let (train, report) = run(400_000.0, 9001, 10);
        drop(rig().1.receive_anchored(&report.i2s));
        drop((train, report));
        short()
    })
    .join()
    .expect("recycled thread");
    let fresh = thread::spawn(short).join().expect("fresh thread");
    assert!(!fresh.1.events.is_empty());
    assert_eq!(after_long, fresh);
}
