//! Binaural sound localization through the interface — the DAS1's
//! native task, and the harshest test of timestamp fidelity: the
//! signal is a few hundred *microseconds* of interaural delay.
//!
//! A sound source at a known azimuth delays the far ear; the binaural
//! cochlea spikes; the interface timestamps the merged stream; the MCU
//! reconstructs it and estimates the direction by spike
//! cross-correlation.
//!
//! ```sh
//! cargo run --release -p aetr --example sound_localization
//! ```

use aetr::quantizer::{quantize_train, reconstruct_train};
use aetr_apps::localization::{estimate_itd, itd_to_azimuth_degrees, shift_train, ItdConfig};
use aetr_clockgen::config::ClockGenConfig;
use aetr_cochlea::audio::AudioBuffer;
use aetr_cochlea::model::{Cochlea, CochleaConfig, Ear};
use aetr_sim::time::{SimDuration, SimTime};

const HEAD_RADIUS_M: f64 = 0.0875;
const SPEED_OF_SOUND: f64 = 343.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = ClockGenConfig::prototype();
    let itd_cfg = ItdConfig::default_window();
    let cochlea = Cochlea::new(CochleaConfig::das1())?;

    println!("source -> true ITD -> estimated ITD -> azimuth (through the AETR interface)\n");
    for &true_azimuth_deg in &[-60.0f64, -20.0, 0.0, 30.0, 75.0] {
        // Woodworth: ITD = r (θ + sin θ) / c ; right ear lags for
        // positive azimuth.
        let theta = true_azimuth_deg.to_radians();
        let itd_secs = HEAD_RADIUS_M * (theta + theta.sin()) / SPEED_OF_SOUND;
        let itd = SimDuration::from_secs_f64(itd_secs.abs());

        // A 1 kHz tone burst heard by both ears. Convention: positive
        // lag means the right ear lags, so a positive azimuth delays
        // the right ear's copy; each ear's copy carries its own
        // addresses so the MCU can split the merged stream.
        let audio = AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.2).faded(0.01);
        let base = cochlea.process(&audio); // left-ear addresses
        let readdress = |train: &aetr_aer::spike::SpikeTrain, ear: Ear| {
            train
                .iter()
                .map(|s| {
                    let (_, ch, n) = cochlea.decode_address(s.addr).expect("own address");
                    aetr_aer::spike::Spike::new(s.time, cochlea.address_of(ear, ch, n))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .collect::<aetr_aer::spike::SpikeTrain>()
        };
        let (left, right) = if true_azimuth_deg >= 0.0 {
            (readdress(&base, Ear::Left), shift_train(&readdress(&base, Ear::Right), itd))
        } else {
            (shift_train(&readdress(&base, Ear::Left), itd), readdress(&base, Ear::Right))
        };

        // Through the interface: merge, quantize, reconstruct, split
        // by ear address.
        let merged = left.merge(&right);
        let horizon = merged.last_time().unwrap() + SimDuration::from_ms(1);
        let out = quantize_train(&clock, &merged, horizon);
        let rebuilt = reconstruct_train(&out.events(), out.base_period, SimTime::ZERO);
        let (mut l2, mut r2) = (Vec::new(), Vec::new());
        for s in &rebuilt {
            match cochlea.decode_address(s.addr) {
                Some((Ear::Left, _, _)) => l2.push(*s),
                Some((Ear::Right, _, _)) => r2.push(*s),
                None => {}
            }
        }
        let est = estimate_itd(&l2.into_iter().collect(), &r2.into_iter().collect(), &itd_cfg)
            .expect("tone burst produces spikes");
        let est_azimuth = itd_to_azimuth_degrees(est.lag_ps, HEAD_RADIUS_M);
        assert_eq!(
            est.lag_ps.signum(),
            (true_azimuth_deg as i64).signum(),
            "estimated lag must point to the correct side"
        );
        println!(
            "  {true_azimuth_deg:>5.0}°  ITD {:>8.0} us -> est {:>8.0} us -> azimuth {est_azimuth:>5.1}°",
            itd_secs * 1e6,
            est.lag_ps as f64 / 1e6,
        );
    }
    println!(
        "\nreading: microsecond-scale interaural structure survives the\n\
         energy-proportional interface — timestamps, not just event counts,\n\
         carry through (note front-back ambiguity and tone-period aliasing\n\
         limit single-tone azimuth precision, as in real binaural hearing)."
    );
    Ok(())
}
