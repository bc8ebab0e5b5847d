//! A multi-sensor IoT node — the paper's opening scenario ("complex
//! 'smart' applications based on multi-sensor data streams"): one
//! cochlea and one DVS camera, each behind its own AETR interface, one
//! MCU consuming both batched streams and fusing a simple
//! look-where-you-hear trigger.
//!
//! ```sh
//! cargo run --release -p aetr --example multi_sensor_node
//! ```

use aetr::interface::{AerToI2sInterface, InterfaceConfig};
use aetr::mcu::McuReceiver;
use aetr_cochlea::audio::AudioBuffer;
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_dvs::scene::{FlickerPatch, MovingBar, Scene};
use aetr_dvs::sensor::{DvsConfig, DvsSensor};
use aetr_power::model::PowerModel;
use aetr_sim::time::{SimDuration, SimTime};

/// Static background until `at`, then a bar sweeps.
struct LateMotion {
    at: f64,
}

impl Scene for LateMotion {
    fn brightness(&self, x: f64, y: f64, t: f64) -> f64 {
        if t >= self.at {
            MovingBar::demo().brightness(x, y, t - self.at)
        } else {
            0.2
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = SimTime::from_ms(500);

    // Audio channel: silence, then a tone burst at 150 ms.
    let mut audio = AudioBuffer::silence(16_000, 0.15);
    audio.append(&AudioBuffer::tone(16_000, 900.0, 0.8, 0.1).faded(0.01));
    audio.append(&AudioBuffer::silence(16_000, 0.25));
    let cochlea = Cochlea::new(CochleaConfig::das1())?;
    let audio_spikes = cochlea.process(&audio);

    // Vision channel: a flickering status LED all along, motion at 300 ms.
    let dvs = DvsSensor::new(DvsConfig::aer10bit())?;
    let led = FlickerPatch { cx: 0.9, cy: 0.1, radius: 0.05, freq_hz: 120.0, low: 0.2, high: 0.5 };
    let motion = LateMotion { at: 0.3 };
    struct Both<'a>(&'a FlickerPatch, &'a LateMotion);
    impl Scene for Both<'_> {
        fn brightness(&self, x: f64, y: f64, t: f64) -> f64 {
            self.0.brightness(x, y, t).max(self.1.brightness(x, y, t))
        }
    }
    let vision_spikes = dvs.observe(&Both(&led, &motion), horizon);

    println!(
        "sensors: {} audio spikes, {} vision events over 500 ms",
        audio_spikes.len(),
        vision_spikes.len()
    );

    // Each sensor gets its own interface (as the paper's Fig. 3 pairs
    // one interface per sensor). A shallow FIFO watermark keeps batch
    // arrival times meaningful for fusion.
    let config = InterfaceConfig {
        fifo: aetr::fifo::FifoConfig { watermark: 64, ..aetr::fifo::FifoConfig::prototype() },
        ..InterfaceConfig::prototype()
    };
    let interface = AerToI2sInterface::new(config)?;
    let audio_report = interface.run(&audio_spikes, horizon);
    let vision_report = interface.run(&vision_spikes, horizon);
    let node_power = PowerModel::igloo_nano().evaluate(&audio_report.activity).total
        + PowerModel::igloo_nano().evaluate(&vision_report.activity).total;
    println!("\nnode interface power (two interfaces): {node_power}");

    // MCU: rebuild both timelines with arrival anchoring (fine
    // structure from AETR deltas, wall-clock placement from the MCU's
    // own clock at each batch) and fuse with 100 ms windows.
    let mcu =
        McuReceiver::new(interface.config().clock.base_sampling_period()).with_saturation(960); // θ=64, N=3
    let audio_rebuilt = mcu.receive_anchored(&audio_report.i2s);
    let vision_rebuilt = mcu.receive_anchored(&vision_report.i2s);
    let window = SimDuration::from_ms(100);
    println!("\nfusion scan (per 100 ms of reconstructed time):");
    let end = audio_rebuilt
        .last_time()
        .unwrap_or(SimTime::ZERO)
        .max(vision_rebuilt.last_time().unwrap_or(SimTime::ZERO));
    let mut t = SimTime::ZERO;
    while t < end {
        let hear = audio_rebuilt.window(t, t + window).len();
        let see = vision_rebuilt.window(t, t + window).len();
        let verdict = match (hear > 50, see > 200) {
            (true, true) => "ALERT: audible + visible activity",
            (true, false) => "audible activity",
            (false, true) => "visible activity",
            (false, false) => "quiet",
        };
        println!("  [{t} +100ms]  audio {hear:>5}  vision {see:>5}  -> {verdict}");
        t += window;
    }
    println!(
        "\nreading: both modalities arrive as latency-insensitive AETR batches the\n\
         MCU can fuse offline; the interfaces sleep through the silent stretches."
    );
    Ok(())
}
