//! Workload identity: a digest of every generated input and a fingerprint
//! of the host, recorded with each result so that runs over different
//! inputs or machines are never compared.

use noc_model::prelude::*;
use noc_serve::Query;

/// FNV-1a (64-bit) over a canonical encoding built from public accessors
/// only, so the digest does not depend on any `Debug` formatting.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Digest {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    pub fn flow(&mut self, f: &Flow) -> &mut Digest {
        self.u64(u64::from(f.source().raw()))
            .u64(u64::from(f.dest().raw()))
            .u64(u64::from(f.priority().level()))
            .u64(f.period().as_u64())
            .u64(f.deadline().as_u64())
            .u64(f.jitter().as_u64())
            .u64(u64::from(f.burst()))
            .u64(u64::from(f.length_flits()))
    }

    pub fn system(&mut self, system: &System) -> &mut Digest {
        let topology = system.topology();
        self.u64(topology.router_count() as u64)
            .u64(topology.link_count() as u64);
        for r in 0..topology.router_count() {
            self.u64(u64::from(system.buffer_depth_at(RouterId::new(r as u32))));
        }
        let config = system.config();
        self.u64(config.link_latency().as_u64())
            .u64(config.routing_latency().as_u64());
        self.u64(system.flows().len() as u64);
        for (id, flow) in system.flows().iter() {
            self.flow(flow);
            for link in system.route(id).links() {
                self.u64(u64::from(link.raw()));
            }
        }
        self
    }

    pub fn query(&mut self, query: &Query) -> &mut Digest {
        match query {
            Query::Admission { flow } => self.u64(1).flow(flow),
            Query::Removal { id } => self.u64(2).u64(u64::from(id.raw())),
            Query::BufferWhatIf { depth } => self.u64(3).u64(u64::from(*depth)),
            Query::RouterBufferWhatIf { router, depth } => self
                .u64(4)
                .u64(u64::from(router.raw()))
                .u64(u64::from(*depth)),
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The machine a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
}

impl Host {
    pub fn current() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host { nproc, cpu }
    }
}

/// Everything that identifies what a run measured.
#[derive(Debug, Clone)]
pub struct Identity {
    pub workload: &'static str,
    pub seed: u64,
    /// Period-scale factor(s) of the generated system(s).
    pub period_scale: String,
    pub digest: String,
    pub host: Host,
}

impl Identity {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"identity\": {{\"workload\": \"{}\", \"seed\": {}, \"period_scale\": \"{}\", \"digest\": \"{}\", \"host\": {{\"nproc\": {}, \"cpu\": \"{}\"}}}}}}",
            self.workload,
            self.seed,
            self.period_scale,
            self.digest,
            self.host.nproc,
            self.host.cpu.replace(['"', '\\'], "")
        )
    }
}
