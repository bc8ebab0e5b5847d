//! The paper's motivating scenario end to end: a silicon cochlea hears
//! a word, the interface timestamps the spikes, batches them over I2S,
//! and an MCU reconstructs the spike timeline offline.
//!
//! ```sh
//! cargo run -p aetr --example cochlea_keyword
//! ```

use aetr::interface::{AerToI2sInterface, InterfaceConfig};
use aetr::mcu::{FidelityReport, McuReceiver};
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::word::fig7_word;
use aetr_sim::time::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The sensor: a DAS1-like cochlea listening to a synthetic word.
    let audio = fig7_word(16_000, 7);
    let cochlea = Cochlea::new(CochleaConfig::das1())?;
    let spikes = cochlea.process(&audio);
    println!(
        "cochlea: {} of audio -> {} spikes (peak channel activity during syllables)",
        audio.duration(),
        spikes.len()
    );

    // 2. The interface: full discrete-event simulation of the Fig. 3
    //    architecture.
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype())?;
    let horizon = SimTime::ZERO + audio.duration();
    let report = interface.run(&spikes, horizon);
    report.handshake.verify_protocol()?;

    println!("\ninterface:");
    println!("  events captured: {}", report.events.len());
    println!("  oscillator wakes: {}", report.wake_count);
    println!("  FIFO: {}", report.fifo_stats);
    println!("  I2S frames: {} carrying {} events", report.i2s.len(), report.i2s.event_count());
    println!("  power: {}", report.power.total);

    // 3. The MCU: decode the I2S stream and rebuild the spike timeline.
    let mcu = McuReceiver::new(interface.config().clock.base_sampling_period());
    let rebuilt = mcu.receive(&report.i2s);
    let fidelity = FidelityReport::compare(&spikes, &rebuilt);
    println!("\nmcu reconstruction:");
    println!("  {} sent, {} received", fidelity.sent, fidelity.received);
    println!(
        "  timing accuracy {:.2}% (mean ISI error {:.2}%, worst {:.2}%)",
        fidelity.accuracy() * 100.0,
        fidelity.mean_isi_error * 100.0,
        fidelity.max_isi_error * 100.0
    );
    Ok(())
}
