//! The production front door, wired the way `gae-ctl serve` wires it,
//! plus the hooks the traced run reads from outside.

use gae::aio::ReactorRpcServer;
use gae::core::estimator::service::EstimatorRpc;
use gae::core::grid::ServiceStack;
use gae::core::jobmon::JobMonitoringRpc;
use gae::core::steering::SteeringRpc;
use gae::core::{
    HistoryRpc, MonAlisaRpc, ReplicaCatalog, ReplicaRpc, SchedulerRpc, StatsRpc, TraceRpc,
};
use gae::gate::{Gate, GateConfig, WallClock};
use gae::obs::{ObsHub, WallObsClock};
use gae::rpc::{Credentials, ServiceHost};
use std::sync::{Arc, Mutex};

/// Worker threads behind the door (`gae-ctl serve` uses 16).
pub const WORKERS: usize = 16;

/// Gate dispositions recorded by the traced run: (disposition, µs).
pub type Dispositions = Arc<Mutex<Vec<(String, u64)>>>;

/// A running door over one service stack.
pub struct Door {
    pub host: Arc<ServiceHost>,
    pub server: ReactorRpcServer,
    pub gate: Arc<Gate>,
    /// The hub the host times dispatch into: `stack.obs()` untraced,
    /// a wall-clock hub when traced.
    pub hub: Arc<ObsHub>,
    /// Gate dispositions with their waits (traced run only).
    pub dispositions: Dispositions,
}

/// Registers every service `gae-ctl serve` registers and starts the
/// reactor behind a wall-clock gate. `users` are registered with the
/// session manager as `(name, password)`.
pub fn start(
    stack: &Arc<ServiceStack>,
    gate_config: GateConfig,
    users: &[(String, String)],
    traced: bool,
) -> Door {
    let host = ServiceHost::open();
    for (name, pass) in users {
        host.sessions()
            .register(&Credentials::new(name.as_str(), pass.as_str()))
            .expect("fresh session manager");
    }
    // Traced: a wall-clock hub, so each server-side `rpc.<method>`
    // span is real time and joins the client's trace id. Untraced:
    // the stack's own hub on the grid clock, as in production.
    let hub = if traced {
        ObsHub::new(Arc::new(WallObsClock::new()))
    } else {
        stack.obs()
    };
    host.register(Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())));
    host.register(Arc::new(SteeringRpc::new(stack.steering.clone())));
    host.register(Arc::new(MonAlisaRpc::new(stack.grid.monitor().clone())));
    host.register(Arc::new(EstimatorRpc::new(stack.estimators.clone())));
    host.register(Arc::new(SchedulerRpc::new(stack)));
    host.attach_obs(hub.clone());
    host.register(Arc::new(TraceRpc::new(hub.clone())));
    host.register(Arc::new(StatsRpc::new(hub.clone())));
    host.register(Arc::new(HistoryRpc::new(stack.hist.clone(), hub.clone())));
    host.register(Arc::new(ReplicaRpc::new(ReplicaCatalog::new(
        stack.grid.clone(),
    ))));
    host.register_web(stack.steering.web_handler());

    let gate = Gate::new(gate_config, Arc::new(WallClock::new()));
    let dispositions: Dispositions = Arc::default();
    if traced {
        let sink = dispositions.clone();
        gate.set_disposition_observer(move |disposition, waited| {
            sink.lock()
                .expect("disposition log poisoned")
                .push((disposition.to_string(), waited.as_micros()));
        });
    } else {
        let hub = hub.clone();
        gate.set_disposition_observer(move |disposition, waited| {
            hub.record_gate(disposition, waited)
        });
    }
    let server = ReactorRpcServer::start_gated(host.clone(), WORKERS, gate.clone())
        .expect("bind a loopback port");
    Door {
        host,
        server,
        gate,
        hub,
        dispositions,
    }
}
