//! The four fleet workloads. Each is a `FleetConfig` generated from the
//! run's seed; the program under test only ever sees that config.
//!
//! Load model: a closed loop over the fleet's virtual clock. Up to
//! [`RESIDENT`] walkers are served each 0.5 s tick and the next tick starts
//! only when the previous one has finished, on [`JOBS`] worker threads of
//! one process.

use uniloc_bench::fleet::FleetConfig;

/// Worker threads. Fixed so every machine serves the same schedule; the
/// run warns when the machine has fewer cores.
pub const JOBS: usize = 2;

/// Resident walkers served per round.
pub const RESIDENT: usize = 64;

/// How big a run is: `Full` for measurements, `Smoke` for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LongWalks,
    ShortWalks,
    ChaosMix,
    CrashResume,
}

/// Where `crash-resume` cuts checkpoints and when it crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    pub checkpoint_every: u64,
    pub crash_after_rounds: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LongWalks,
        Workload::ShortWalks,
        Workload::ChaosMix,
        Workload::CrashResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LongWalks => "long-walks",
            Workload::ShortWalks => "short-walks",
            Workload::ChaosMix => "chaos-mix",
            Workload::CrashResume => "crash-resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fleet this workload serves under `seed`.
    pub fn fleet(self, seed: u64, scale: Scale) -> FleetConfig {
        let smoke = scale == Scale::Smoke;
        let (sessions, scenarios, max_epochs, chaos_every): (usize, &[&str], usize, usize) =
            match self {
                // Serving dominates: one wave of resident walkers, 160 epochs
                // each. Every walk in these venues is longer than that, so
                // the seed does not change the schedule's shape. Clean walks
                // here never trip quarantine, so the program's solo
                // spot-check replays (seed-dependent work on the campus
                // paths) stay off the clock.
                Workload::LongWalks => (
                    if smoke { 4 } else { RESIDENT },
                    &["mall", "office"],
                    if smoke { 60 } else { 160 },
                    0,
                ),
                // Building dominates: four epochs per walker, 7 waves.
                Workload::ShortWalks => (
                    if smoke { 40 } else { 7 * RESIDENT },
                    &["mall", "path1", "path2"],
                    4,
                    0,
                ),
                // Cheap fixes with faults on every second lane.
                Workload::ChaosMix | Workload::CrashResume => (
                    if smoke { 40 } else { 400 },
                    &["office", "open-space"],
                    40,
                    2,
                ),
            };
        FleetConfig {
            seed,
            sessions,
            scenario_names: scenarios.iter().map(|s| (*s).to_owned()).collect(),
            jobs: JOBS,
            resident: RESIDENT,
            max_epochs,
            chaos_every,
            obs_stub: false,
            shards: 0,
            top_k: 0,
            panic_lane: None,
            panic_epoch: 0,
        }
    }

    /// The simulated crash, for `crash-resume` only. The cut sits about
    /// half way through the fleet's ~290 rounds: the resumed run replays
    /// the resident walkers and still serves enough rounds for
    /// `round_p90_ms`, which only the resumed run can report.
    pub fn crash(self, scale: Scale) -> Option<CrashPlan> {
        (self == Workload::CrashResume).then_some(match scale {
            Scale::Full => CrashPlan {
                checkpoint_every: 10,
                crash_after_rounds: 130,
            },
            Scale::Smoke => CrashPlan {
                checkpoint_every: 5,
                crash_after_rounds: 40,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("mixed"), None);
    }

    #[test]
    fn crash_resume_is_the_chaos_mix_fleet() {
        let a = Workload::ChaosMix.fleet(5, Scale::Full);
        let b = Workload::CrashResume.fleet(5, Scale::Full);
        assert_eq!(
            (a.sessions, a.max_epochs, a.chaos_every),
            (b.sessions, b.max_epochs, b.chaos_every)
        );
        assert!(Workload::CrashResume.crash(Scale::Full).is_some());
        assert!(Workload::ChaosMix.crash(Scale::Full).is_none());
    }
}
