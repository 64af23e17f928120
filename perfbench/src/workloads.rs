//! The benchmark's workloads and the set-up that produces the audited
//! trace and advice.

use apps::App;
use karousos::{encode_advice, run_instrumented_server, CollectorMode};
use kem::{Program, ServerConfig, Trace, Value};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

/// One workload: an application, a request mix, a trace length and the
/// server's concurrency window. Why each exists is in `NOTES.md`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub app: App,
    pub mix: Mix,
    pub requests: usize,
    pub concurrency: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wiki-2500",
        app: App::Wiki,
        mix: Mix::Wiki,
        requests: 2500,
        concurrency: 8,
    },
    Workload {
        name: "motd-writes",
        app: App::Motd,
        mix: Mix::WriteHeavy,
        requests: 600,
        concurrency: 1,
    },
    Workload {
        name: "stacks-reads",
        app: App::Stacks,
        mix: Mix::ReadHeavy,
        requests: 2500,
        concurrency: 8,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    fn experiment(&self, seed: u64) -> Experiment {
        Experiment {
            app: self.app,
            mix: self.mix,
            requests: self.requests,
            warmup: 0,
            concurrency: self.concurrency,
            isolation: IsolationLevel::Serializable,
            seed,
        }
    }
}

/// Everything the timed calls need: the program, its generated inputs
/// and server configuration, and the honest trace and encoded advice of
/// one instrumented serve.
pub struct Setup {
    pub program: Program,
    pub inputs: Vec<Value>,
    pub cfg: ServerConfig,
    pub isolation: IsolationLevel,
    pub trace: Trace,
    pub advice: Vec<u8>,
}

/// Builds the program, generates the inputs from `seed` and serves them
/// once through the collector.
pub fn set_up(w: &Workload, seed: u64) -> Result<Setup, String> {
    let exp = w.experiment(seed);
    let program = exp.app.program();
    let inputs = exp.inputs();
    let cfg = exp.server_config();
    let (out, advice) = run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos)
        .map_err(|e| format!("set-up serve failed: {e}"))?;
    let advice = encode_advice(&advice);
    Ok(Setup {
        program,
        inputs,
        cfg,
        isolation: exp.isolation,
        trace: out.trace,
        advice,
    })
}
