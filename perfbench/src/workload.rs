//! The three workloads, generated from a seed, and the virtual-time
//! fingerprint every correctness check compares.

use ipm_apps::{
    run_amber, run_hpl, run_paratec, AmberConfig, AmberResult, BlasBackend, ClusterConfig,
    ClusterRun, HplConfig, HplResult, ParatecConfig, ParatecResult, RankCtx,
};
use ipm_core::RankProfile;
use ipm_sim_core::NoiseModel;
use std::time::Duration;

/// The seed whose virtual-time outputs are pinned in [`pins`].
pub const DEFAULT_SEED: u64 = 1;

pub const NAMES: [&str; 3] = ["hpl16", "md16", "paratec32"];

/// md16 steps: enough for every rank to overflow its 65,536-record trace
/// ring (about 59 records per step), so the drop path runs too.
const MD_STEPS: usize = 1_500;
/// paratec32 SCF iterations.
const PARATEC_ITERATIONS: usize = 1;
/// md16's live observer sweeps the cluster at this fixed period.
const OBSERVER_PERIOD: Duration = Duration::from_millis(10);

/// The application one workload runs on every rank.
#[derive(Clone, Copy, Debug)]
pub enum App {
    Hpl(HplConfig),
    Md(AmberConfig),
    Paratec(ParatecConfig),
}

/// One rank's application result.
#[derive(Clone, Debug)]
pub enum AppOut {
    Hpl(HplResult),
    Md(AmberResult),
    Paratec(ParatecResult),
}

impl App {
    pub fn run(&self, ctx: &mut RankCtx) -> Result<AppOut, String> {
        let err = |e| format!("{e:?}");
        Ok(match *self {
            App::Hpl(c) => AppOut::Hpl(run_hpl(ctx, c).map_err(err)?),
            App::Md(c) => AppOut::Md(run_amber(ctx, c).map_err(err)?),
            App::Paratec(c) => AppOut::Paratec(run_paratec(ctx, c).map_err(err)?),
        })
    }

    /// The same application at its test size (`tiny()`).
    pub fn tiny(&self) -> App {
        match self {
            App::Hpl(_) => App::Hpl(HplConfig::tiny()),
            App::Md(_) => App::Md(AmberConfig::tiny()),
            App::Paratec(c) => App::Paratec(ParatecConfig::tiny(c.backend)),
        }
    }
}

impl AppOut {
    /// The part of the result monitoring must not change: HPL's GPU flops,
    /// MD's and PARATEC's energies. (The `seconds` fields are virtual time,
    /// which IPM's modeled per-call wrapper overhead dilates.)
    pub fn invariant(&self) -> f64 {
        match self {
            AppOut::Hpl(r) => r.gpu_flops,
            AppOut::Md(r) => r.energy,
            AppOut::Paratec(r) => r.energy,
        }
    }

    /// Every field, virtual seconds included.
    pub fn fields(&self) -> [f64; 2] {
        match self {
            AppOut::Hpl(r) => [r.gpu_flops, r.seconds],
            AppOut::Md(r) => [r.energy, r.seconds],
            AppOut::Paratec(r) => [r.energy, r.seconds],
        }
    }
}

/// A workload: the cluster the job runs on and what each rank runs.
#[derive(Clone, Debug)]
pub struct Workload {
    pub cluster: ClusterConfig,
    pub app: App,
    pub observer_period: Option<Duration>,
    /// Virtual-time outputs of the (monitored, bare) jobs, for the default
    /// seed at full size.
    pub pins: Option<(Virtual, Virtual)>,
}

impl Workload {
    /// The named workload, generated from `seed`: the seed drives the
    /// cluster's run-level noise (the Fig. 8 model), so each seed gives
    /// other per-rank wallclocks from the same work.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let (name, nranks, app, observer_period) = match name {
            "hpl16" => ("hpl16", 16, App::Hpl(HplConfig::dirac16()), None),
            "md16" => (
                "md16",
                16,
                App::Md(AmberConfig {
                    steps: MD_STEPS,
                    ..AmberConfig::jac_dhfr()
                }),
                Some(OBSERVER_PERIOD),
            ),
            "paratec32" => (
                "paratec32",
                32,
                App::Paratec(ParatecConfig {
                    iterations: PARATEC_ITERATIONS,
                    ..ParatecConfig::nersc6_medium(BlasBackend::CublasThunking)
                }),
                None,
            ),
            _ => return None,
        };
        Some(Workload {
            cluster: cluster(name, nranks, seed),
            app,
            observer_period,
            pins: (seed == DEFAULT_SEED).then(|| pins(name)),
        })
    }

    /// The set-up warm-up: the same cluster and observer with the
    /// application at its test size.
    pub fn warmup(&self) -> Workload {
        Workload {
            app: self.app.tiny(),
            pins: None,
            ..self.clone()
        }
    }
}

/// `nranks` ranks on as many nodes, one GPU each, monitored with the
/// default `IpmConfig`, run-level noise drawn from `seed`.
pub fn cluster(name: &str, nranks: usize, seed: u64) -> ClusterConfig {
    ClusterConfig::dirac(nranks, nranks)
        .with_command(name)
        .with_noise(NoiseModel::DIRAC, seed)
}

/// Virtual-time fingerprint of one job. Wall time never enters it, so it
/// is identical on every run of the same workload and seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Virtual {
    /// `ClusterRun::runtime()`, virtual seconds.
    pub runtime: f64,
    /// FNV-1a of every rank's wallclock bits, in rank order.
    pub wallclocks: u64,
    /// FNV-1a of every profile entry (name, detail, bytes, region, count
    /// and the bits of total/min/max), entries sorted per rank.
    pub profiles: u64,
    /// Σ of all profile entry counts.
    pub events: u64,
    /// FNV-1a of every rank's application result fields.
    pub outputs: u64,
}

impl Virtual {
    pub fn of<T>(run: &ClusterRun<T>, outputs: &[[f64; 2]]) -> Virtual {
        let mut w = Fnv::default();
        run.wallclocks.iter().for_each(|x| w.f64(*x));
        let mut o = Fnv::default();
        outputs.iter().flatten().for_each(|x| o.f64(*x));
        Virtual {
            runtime: run.runtime(),
            wallclocks: w.0,
            profiles: profile_digest(&run.profiles),
            events: events(&run.profiles),
            outputs: o.0,
        }
    }
}

/// Σ of all profile entry counts over ranks.
pub fn events(profiles: &[RankProfile]) -> u64 {
    profiles
        .iter()
        .flat_map(|p| &p.entries)
        .map(|e| e.stats.count)
        .sum()
}

fn profile_digest(profiles: &[RankProfile]) -> u64 {
    let mut h = Fnv::default();
    for p in profiles {
        h.u64(p.rank as u64);
        let mut entries: Vec<_> = p.entries.iter().collect();
        entries.sort_by(|a, b| {
            (&a.name, &a.detail, a.bytes, a.region).cmp(&(&b.name, &b.detail, b.bytes, b.region))
        });
        for e in entries {
            h.bytes(e.name.as_bytes());
            h.bytes(e.detail.as_deref().unwrap_or("").as_bytes());
            h.u64(e.bytes);
            h.u64(u64::from(e.region));
            h.u64(e.stats.count);
            h.f64(e.stats.total);
            h.f64(e.stats.min);
            h.f64(e.stats.max);
        }
    }
    h.0
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
        // terminator, so ("ab","c") and ("a","bc") differ
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// Pinned (monitored, bare) virtual-time outputs at [`DEFAULT_SEED`].
/// A change to the program that moves any of them changes what the
/// workload simulates, and no speed-up measured on it counts.
fn pins(name: &str) -> (Virtual, Virtual) {
    const NO_PROFILES: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a of nothing
    let v = |runtime, wallclocks, profiles, events, outputs| Virtual {
        runtime,
        wallclocks,
        profiles,
        events,
        outputs,
    };
    match name {
        "hpl16" => (
            v(
                126.35069479443851,
                3951203060206624444,
                13842005853092647585,
                61408,
                594228324181572261,
            ),
            v(
                126.34047923569423,
                8378257251830819045,
                NO_PROFILES,
                0,
                9958808024191480965,
            ),
        ),
        "md16" => (
            v(
                8.398771292018232,
                651703247415169834,
                15476132325064535711,
                1438801,
                14401006126486559397,
            ),
            v(
                8.021543792538852,
                764841874466981607,
                NO_PROFILES,
                0,
                14260855050047169925,
            ),
        ),
        "paratec32" => (
            v(
                50.42338287411699,
                9643849455479909539,
                4127607478682368229,
                11200,
                4173591822602615397,
            ),
            v(
                50.42312279369514,
                7203338275278946427,
                NO_PROFILES,
                0,
                4504003316884998373,
            ),
        ),
        _ => unreachable!("pins exist for every workload name"),
    }
}
