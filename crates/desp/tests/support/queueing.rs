//! Kernel validation against queueing theory.
//!
//! The paper validated DESP-C++ "by comparing the results of several
//! simulation experiments conducted with DESP-C++ and QNAP2" (§3.2.1). We
//! validate against something even less forgiving: the closed-form results
//! for M/M/1 and M/M/c queues. If the kernel's event ordering, resource
//! queueing or exponential sampler were wrong, these comparisons would
//! fail.
//!
//! The simulation models here also serve as the canonical usage examples of
//! [`Engine`]/[`Resource`], and pin the event queues against each other:
//! an M/M/1 or M/M/c run gives bit-identical results, event count
//! included, on every [`QueueKind`].
//!
//! The oracle is test support, compiled only into the crate's unit tests
//! (`lib.rs` includes this file under `#[cfg(test)]`).

use crate::engine::{Context, Engine, Model};
use crate::probe::NoProbe;
use crate::random::{splitmix64, RandomStream};
use crate::resource::Resource;
use crate::sched::{CalendarKind, QueueKind};
use crate::stats::{TimeWeighted, Welford};
use crate::time::SimTime;

/// Analytic results for the M/M/1 queue.
#[derive(Clone, Copy, Debug)]
pub struct Mm1 {
    /// Arrival rate λ (customers per ms).
    pub lambda: f64,
    /// Service rate μ (customers per ms).
    pub mu: f64,
}

impl Mm1 {
    /// Creates the model; requires stability (λ < μ).
    pub fn new(lambda: f64, mu: f64) -> Self {
        assert!(lambda > 0.0 && mu > 0.0, "rates must be positive");
        assert!(lambda < mu, "M/M/1 requires lambda < mu for stability");
        Mm1 { lambda, mu }
    }

    /// Server utilisation ρ = λ/μ.
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Mean number in system L = ρ/(1−ρ).
    pub fn mean_in_system(&self) -> f64 {
        let rho = self.utilization();
        rho / (1.0 - rho)
    }

    /// Mean response time W = 1/(μ−λ), in ms.
    pub fn mean_response(&self) -> f64 {
        1.0 / (self.mu - self.lambda)
    }

    /// Mean queue length Lq = ρ²/(1−ρ).
    pub fn mean_queue(&self) -> f64 {
        let rho = self.utilization();
        rho * rho / (1.0 - rho)
    }

    /// Mean waiting time Wq = ρ/(μ−λ), in ms.
    pub fn mean_wait(&self) -> f64 {
        self.utilization() / (self.mu - self.lambda)
    }
}

/// Analytic results for the M/M/c queue (Erlang-C).
#[derive(Clone, Copy, Debug)]
pub struct Mmc {
    /// Arrival rate λ (customers per ms).
    pub lambda: f64,
    /// Per-server service rate μ (customers per ms).
    pub mu: f64,
    /// Number of servers.
    pub servers: usize,
}

impl Mmc {
    /// Creates the model; requires stability (λ < cμ).
    pub fn new(lambda: f64, mu: f64, servers: usize) -> Self {
        assert!(lambda > 0.0 && mu > 0.0, "rates must be positive");
        assert!(servers > 0, "need at least one server");
        assert!(
            lambda < mu * servers as f64,
            "M/M/c requires lambda < c*mu for stability"
        );
        Mmc {
            lambda,
            mu,
            servers,
        }
    }

    /// Offered load a = λ/μ (in Erlangs).
    pub fn offered_load(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Per-server utilisation ρ = λ/(cμ).
    pub fn utilization(&self) -> f64 {
        self.lambda / (self.mu * self.servers as f64)
    }

    /// Erlang-C probability that an arrival must wait.
    pub fn erlang_c(&self) -> f64 {
        let c = self.servers;
        let a = self.offered_load();
        let rho = self.utilization();
        // Sum_{k=0}^{c-1} a^k/k!  computed incrementally.
        let mut term = 1.0; // a^0/0!
        let mut sum = 1.0;
        for k in 1..c {
            term *= a / k as f64;
            sum += term;
        }
        let ac_cfact = term * a / c as f64; // a^c/c!
        let top = ac_cfact / (1.0 - rho);
        top / (sum + top)
    }

    /// Mean waiting time Wq = C(c, a) / (cμ − λ), in ms.
    pub fn mean_wait(&self) -> f64 {
        self.erlang_c() / (self.servers as f64 * self.mu - self.lambda)
    }

    /// Mean response time W = Wq + 1/μ, in ms.
    pub fn mean_response(&self) -> f64 {
        self.mean_wait() + 1.0 / self.mu
    }
}

/// Events of the queueing simulation. Each customer's arrival instant
/// rides inside its events, so the model keeps no per-customer side
/// table on the hot path.
#[derive(Clone, Copy, Debug)]
enum QueueEvent {
    /// A new customer arrives.
    Arrival,
    /// A customer that arrived at `arrived` was granted a server.
    StartService { arrived: f64 },
    /// A customer that arrived at `arrived` finishes service.
    Departure { arrived: f64 },
}

/// An M/M/c simulation (c = 1 gives M/M/1) built on [`Engine`] and
/// [`Resource`].
struct QueueSim {
    servers: Resource<QueueEvent>,
    arrivals: RandomStream,
    services: RandomStream,
    mean_interarrival: f64,
    mean_service: f64,
    response: Welford,
    /// Customers counted in `response`.
    served: u64,
    in_system: TimeWeighted,
    population: usize,
    horizon: SimTime,
    /// Customers served after the warm-up cut.
    warmup: SimTime,
}

impl<Q: QueueKind> Model<NoProbe, Q> for QueueSim {
    type Event = QueueEvent;

    fn init(&mut self, ctx: &mut Context<'_, QueueEvent, NoProbe, Q>) {
        let delay = self.arrivals.expo(self.mean_interarrival);
        ctx.schedule(delay, QueueEvent::Arrival);
        self.in_system.update(0.0, 0.0);
    }

    fn handle(&mut self, event: QueueEvent, ctx: &mut Context<'_, QueueEvent, NoProbe, Q>) {
        match event {
            QueueEvent::Arrival => {
                let arrived = ctx.now().as_ms();
                self.population += 1;
                self.in_system.update(arrived, self.population as f64);
                self.servers
                    .request(QueueEvent::StartService { arrived }, ctx);
                // Next arrival, unless past the horizon (events beyond the
                // horizon would be cut by run_until anyway; stop generating
                // to drain cleanly).
                if ctx.now() < self.horizon {
                    let delay = self.arrivals.expo(self.mean_interarrival);
                    ctx.schedule(delay, QueueEvent::Arrival);
                }
            }
            QueueEvent::StartService { arrived } => {
                let service = self.services.expo(self.mean_service);
                ctx.schedule(service, QueueEvent::Departure { arrived });
            }
            QueueEvent::Departure { arrived } => {
                if SimTime::from_ms(arrived) >= self.warmup {
                    self.response.add(ctx.now().as_ms() - arrived);
                    self.served += 1;
                }
                self.population -= 1;
                self.in_system
                    .update(ctx.now().as_ms(), self.population as f64);
                self.servers.release(ctx);
            }
        }
    }
}

/// Results of one queueing-simulation run.
#[derive(Clone, Copy, Debug)]
pub struct QueueSimResult {
    /// Mean response time (ms) of customers arriving after warm-up.
    pub mean_response: f64,
    /// Time-weighted mean number of customers in system.
    pub mean_in_system: f64,
    /// Server utilisation.
    pub utilization: f64,
    /// Customers counted in the response-time statistic.
    pub served: u64,
    /// Events dispatched.
    pub events: u64,
}

/// Derives an unbounded family of independent [`RandomStream`]s from one
/// experiment seed.
///
/// Stream identifiers are stable: `(seed, id)` always yields the same
/// stream, so a run is reproducible from its seed alone.
#[derive(Clone, Debug)]
pub struct StreamFamily {
    seed: u64,
}

impl StreamFamily {
    /// Creates the family rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        StreamFamily { seed }
    }

    /// Returns stream number `id`.
    pub fn stream(&self, id: u64) -> RandomStream {
        // Decorrelate (seed, id) pairs through two SplitMix64 rounds.
        let mut s = self.seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(id.wrapping_add(1));
        let a = splitmix64(&mut s);
        let _ = splitmix64(&mut s);
        RandomStream::new(a ^ s)
    }
}

/// [`simulate_mmc`] on a statically chosen scheduler kind — the
/// differential surface across event queues: the result, `events`
/// included, is the same bits on every [`QueueKind`].
pub fn simulate_mmc_on<Q: QueueKind>(
    lambda: f64,
    mu: f64,
    servers: usize,
    horizon_ms: f64,
    warmup_ms: f64,
    seed: u64,
) -> QueueSimResult {
    assert!(warmup_ms < horizon_ms, "warm-up must precede the horizon");
    let family = StreamFamily::new(seed);
    let model = QueueSim {
        servers: Resource::new("servers", servers),
        arrivals: family.stream(0),
        services: family.stream(1),
        mean_interarrival: 1.0 / lambda,
        mean_service: 1.0 / mu,
        response: Welford::default(),
        served: 0,
        in_system: TimeWeighted::default(),
        population: 0,
        horizon: SimTime::from_ms(horizon_ms),
        warmup: SimTime::from_ms(warmup_ms),
    };
    let mut engine = Engine::<_, NoProbe, Q>::with_probe_on(model, NoProbe);
    engine.run_to_completion();
    let now = engine.now();
    let events = engine.events_dispatched();
    let model = engine.into_parts().0;
    QueueSimResult {
        mean_response: model.response.mean(),
        mean_in_system: model.in_system.mean(now.as_ms()),
        utilization: model.servers.utilization(now),
        served: model.served,
        events,
    }
}

/// Simulates an M/M/c queue (c = 1 → M/M/1) for `horizon_ms` of simulated
/// time, discarding customers that arrive before `warmup_ms`.
pub fn simulate_mmc(
    lambda: f64,
    mu: f64,
    servers: usize,
    horizon_ms: f64,
    warmup_ms: f64,
    seed: u64,
) -> QueueSimResult {
    simulate_mmc_on::<CalendarKind>(lambda, mu, servers, horizon_ms, warmup_ms, seed)
}

/// Convenience wrapper: M/M/1.
pub fn simulate_mm1(
    lambda: f64,
    mu: f64,
    horizon_ms: f64,
    warmup_ms: f64,
    seed: u64,
) -> QueueSimResult {
    simulate_mmc(lambda, mu, 1, horizon_ms, warmup_ms, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_analytics_textbook_case() {
        // λ=0.5/ms, μ=1/ms → ρ=0.5, L=1, W=2ms, Lq=0.5, Wq=1ms.
        let q = Mm1::new(0.5, 1.0);
        assert!((q.utilization() - 0.5).abs() < 1e-12);
        assert!((q.mean_in_system() - 1.0).abs() < 1e-12);
        assert!((q.mean_response() - 2.0).abs() < 1e-12);
        assert!((q.mean_queue() - 0.5).abs() < 1e-12);
        assert!((q.mean_wait() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mmc_reduces_to_mm1_when_c_is_1() {
        let c1 = Mmc::new(0.6, 1.0, 1);
        let m1 = Mm1::new(0.6, 1.0);
        assert!((c1.mean_response() - m1.mean_response()).abs() < 1e-12);
        assert!((c1.mean_wait() - m1.mean_wait()).abs() < 1e-12);
        // Erlang-C with one server is exactly ρ.
        assert!((c1.erlang_c() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn mmc_erlang_c_reference_value() {
        // Classic reference: c=2, a=1 (ρ=0.5) → C = 1/3.
        let q = Mmc::new(1.0, 1.0, 2);
        assert!((q.erlang_c() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn simulated_mm1_matches_theory() {
        let (lambda, mu) = (0.5, 1.0);
        let theory = Mm1::new(lambda, mu);
        let r = simulate_mm1(lambda, mu, 400_000.0, 40_000.0, 12345);
        assert!(r.served > 100_000);
        let rel_w = (r.mean_response - theory.mean_response()).abs() / theory.mean_response();
        assert!(
            rel_w < 0.05,
            "W sim {} vs theory {}",
            r.mean_response,
            theory.mean_response()
        );
        let rel_l = (r.mean_in_system - theory.mean_in_system()).abs() / theory.mean_in_system();
        assert!(
            rel_l < 0.05,
            "L sim {} vs theory {}",
            r.mean_in_system,
            theory.mean_in_system()
        );
        assert!((r.utilization - theory.utilization()).abs() < 0.02);
    }

    #[test]
    fn simulated_mmc_matches_theory() {
        let (lambda, mu, c) = (1.5, 1.0, 2);
        let theory = Mmc::new(lambda, mu, c);
        let r = simulate_mmc(lambda, mu, c, 400_000.0, 40_000.0, 999);
        let rel_w = (r.mean_response - theory.mean_response()).abs() / theory.mean_response();
        assert!(
            rel_w < 0.05,
            "W sim {} vs theory {}",
            r.mean_response,
            theory.mean_response()
        );
        assert!((r.utilization - theory.utilization()).abs() < 0.02);
    }

    #[test]
    fn heavier_load_means_longer_responses() {
        let light = simulate_mm1(0.3, 1.0, 200_000.0, 20_000.0, 5);
        let heavy = simulate_mm1(0.8, 1.0, 200_000.0, 20_000.0, 5);
        assert!(heavy.mean_response > light.mean_response * 2.0);
    }

    /// Every field of a result as bits, so two runs compare exactly.
    fn bits(r: &QueueSimResult) -> [u64; 5] {
        [
            r.mean_response.to_bits(),
            r.mean_in_system.to_bits(),
            r.utilization.to_bits(),
            r.served,
            r.events,
        ]
    }

    #[test]
    fn results_are_bit_identical_on_every_queue() {
        use crate::sched::HeapKind;
        // (servers, lambda): M/M/1 and M/M/3, both at utilisation 0.8.
        for (servers, lambda) in [(1, 0.8), (3, 2.4)] {
            for seed in [7, 42, 999] {
                let run = |f: fn(f64, f64, usize, f64, f64, u64) -> QueueSimResult| {
                    bits(&f(lambda, 1.0, servers, 50_000.0, 5_000.0, seed))
                };
                let calendar = run(simulate_mmc_on::<CalendarKind>);
                assert!(calendar[4] > 10_000, "a non-trivial run");
                let case = format!("M/M/{servers}, seed {seed}");
                assert_eq!(calendar, run(simulate_mmc_on::<HeapKind>), "heap, {case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "stability")]
    fn unstable_mm1_rejected() {
        let _ = Mm1::new(2.0, 1.0);
    }
}
