//! `dense_stream`: one long LFSR run at 400 kevt/s, single-threaded.
//!
//! Just below I2S saturation (at 550 kevt/s the FIFO overflows), so the
//! per-event hot path — event queue, FIFO, I2S, MCU decode — does nearly
//! all the work and the idle fast-forward does none. The workload for
//! batch kernels on the per-event path.

use std::time::Instant;

use aetr_sim::time::SimTime;

use super::{derive, since, tracer_for, Counts, LfsrJob, Rig, Round, Workload};
use crate::checks::{check_engines_agree, Checks, OutputDigest};
use crate::Options;

/// Nominal sensor event rate, events/s.
pub const RATE_HZ: f64 = 400_000.0;

/// The workload: the same long job every round.
#[derive(Debug, Clone)]
pub struct DenseStream {
    rig: Rig,
    job: LfsrJob,
}

impl Workload for DenseStream {
    // The quiet windows of a 25 s run hold some 300 jobs.
    const TAIL_PCT: f64 = 90.0;

    fn plan(opts: &Options) -> DenseStream {
        let horizon_ms = if opts.quick { 5 } else { 100 };
        DenseStream {
            rig: Rig::prototype(),
            job: LfsrJob {
                rate_hz: RATE_HZ,
                seed: derive(opts.seed, 0) as u32,
                horizon: SimTime::from_ms(horizon_ms),
            },
        }
    }

    fn round(&self, trace: Option<(Instant, u64)>) -> Round {
        let t0 = Instant::now();
        let run = self.job.run(&self.rig, t0, tracer_for(trace, 0));
        let wall_s = since(t0);
        Round::from_jobs(wall_s, 1, vec![run.settle(&self.rig.mcu)])
    }

    fn verify(&self, first: &Round, checks: &mut Checks) -> OutputDigest {
        let (default, reference) = self.job.both_engines(&self.rig);
        check_engines_agree(&default, &reference, checks);
        first.digest
    }

    fn probe(&self) -> Counts {
        self.job.probe(&self.rig)
    }
}
