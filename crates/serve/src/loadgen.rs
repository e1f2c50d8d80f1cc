//! Deterministic load generation.
//!
//! Two families of request streams, both driven by one seeded
//! [`SplitMix64`] (the workspace's shared software PRNG — the same
//! implementation the trainers, benchmarks and differential checks use):
//!
//! * **open-loop** — arrivals are independent of the system's behaviour:
//!   Poisson-like (i.i.d. geometric/exponential inter-arrival gaps, the
//!   classic open-system model) or uniform (a fixed gap, the `D/D/m`
//!   stream the closed-form oracle tests use);
//! * **closed-loop** — a fixed population of clients, each with at most
//!   one outstanding request: a client re-issues `think_cycles` after its
//!   previous request completes, so offered load self-throttles to the
//!   system's capacity.
//!
//! All randomness flows through one generator in a deterministic call
//! order, so the same seed and configuration produce bit-identical
//! request streams on every platform and with any worker count. Open-loop
//! arrivals are drawn lazily, one at a time
//! ([`LoadGen::next_arrival`]), so a consumer holds one arrival ahead
//! instead of the whole stream.

use crate::request::{Priority, Request};
use usystolic_unary::rng::SplitMix64;

/// The arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop, Poisson-like: inter-arrival gaps drawn from an
    /// exponential with the given mean (in cycles), rounded up to ≥ 1.
    OpenPoisson {
        /// Mean inter-arrival gap in cycles.
        mean_interarrival_cycles: f64,
    },
    /// Open-loop, deterministic: one arrival every `interval_cycles`,
    /// starting at cycle 0.
    OpenUniform {
        /// Fixed inter-arrival gap in cycles (≥ 1).
        interval_cycles: u64,
    },
    /// Closed-loop: `clients` clients, each re-issuing `think_cycles`
    /// after its previous completion.
    ClosedLoop {
        /// Client population.
        clients: usize,
        /// Think time between completion and the next issue.
        think_cycles: u64,
    },
}

/// Everything the generator needs to mint requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGenConfig {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// PRNG seed.
    pub seed: u64,
    /// Number of workload classes to draw from (uniformly).
    pub classes: usize,
    /// Fraction of requests issued at [`Priority::High`].
    pub high_priority_fraction: f64,
    /// Relative deadline applied to every request, in cycles.
    pub deadline_cycles: Option<u64>,
}

/// The deterministic request stream generator.
#[derive(Debug)]
pub struct LoadGen {
    config: LoadGenConfig,
    rng: SplitMix64,
    next_id: u64,
    /// Open-loop cursor: the cycle of the next uniform arrival, or the
    /// last Poisson arrival the next gap starts from. `None` once the
    /// stream has passed its horizon.
    cursor: Option<u64>,
}

impl LoadGen {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero, if an open-uniform interval is zero,
    /// if a Poisson mean is not positive, or if a closed loop has no
    /// clients.
    #[must_use]
    pub fn new(config: LoadGenConfig) -> Self {
        assert!(config.classes > 0, "need at least one workload class");
        match config.process {
            ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles,
            } => {
                assert!(
                    mean_interarrival_cycles > 0.0,
                    "Poisson mean inter-arrival must be positive"
                );
            }
            ArrivalProcess::OpenUniform { interval_cycles } => {
                assert!(interval_cycles > 0, "uniform interval must be positive");
            }
            ArrivalProcess::ClosedLoop { clients, .. } => {
                assert!(clients > 0, "closed loop needs clients");
            }
        }
        Self {
            rng: SplitMix64::new(config.seed),
            cursor: Some(0),
            config,
            next_id: 0,
        }
    }

    /// Whether completions feed back into the arrival stream.
    #[must_use]
    pub fn is_closed_loop(&self) -> bool {
        matches!(self.config.process, ArrivalProcess::ClosedLoop { .. })
    }

    fn mint(&mut self, arrival: u64, client: Option<usize>) -> Request {
        let class = if self.config.classes > 1 {
            self.rng.below(self.config.classes as u64) as usize
        } else {
            0
        };
        let priority = if self.config.high_priority_fraction > 0.0
            && self.rng.next_f64() < self.config.high_priority_fraction
        {
            Priority::High
        } else {
            Priority::Normal
        };
        let id = self.next_id;
        self.next_id += 1;
        Request {
            id,
            class,
            arrival,
            priority,
            deadline: self
                .config
                .deadline_cycles
                .map(|d| arrival.saturating_add(d)),
            client,
        }
    }

    /// The next open-loop arrival strictly before `horizon_cycles`, or
    /// `None` for a closed loop and once the stream has passed the
    /// horizon (then on every later call too). Arrivals are drawn one at
    /// a time in strictly increasing cycle order, from the same PRNG
    /// draws in the same order as the whole stream drawn up front.
    pub fn next_arrival(&mut self, horizon_cycles: u64) -> Option<Request> {
        let t = self.cursor?;
        let (arrival, cursor) = match self.config.process {
            ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles,
            } => {
                let u = self.rng.next_f64();
                // Inverse-CDF exponential gap, quantised to ≥ 1 cycle.
                let gap = (-(1.0 - u).ln() * mean_interarrival_cycles).ceil();
                let gap = if gap < 1.0 { 1 } else { gap as u64 };
                let at = t.saturating_add(gap);
                (at, at)
            }
            ArrivalProcess::OpenUniform { interval_cycles } => {
                (t, t.saturating_add(interval_cycles))
            }
            ArrivalProcess::ClosedLoop { .. } => return None,
        };
        // Past the horizon the stream ends for good: a saturated cursor
        // (`u64::MAX`) is never below a horizon, and clearing it stops
        // further draws.
        if arrival >= horizon_cycles {
            self.cursor = None;
            return None;
        }
        self.cursor = Some(cursor);
        Some(self.mint(arrival, None))
    }

    /// The arrivals known before the simulation starts: the full stream
    /// for open-loop processes (every arrival strictly before
    /// `horizon_cycles`, as [`next_arrival`](Self::next_arrival) draws
    /// it), or one initial request per client (staggered by one cycle)
    /// for closed loops.
    pub fn initial_arrivals(&mut self, horizon_cycles: u64) -> Vec<Request> {
        match self.config.process {
            ArrivalProcess::ClosedLoop { clients, .. } => (0..clients)
                .filter(|&c| (c as u64) < horizon_cycles)
                .map(|c| self.mint(c as u64, Some(c)))
                .collect(),
            _ => std::iter::from_fn(|| self.next_arrival(horizon_cycles)).collect(),
        }
    }

    /// Closed-loop feedback: the client's next request after a completion
    /// at `completion_cycle`, or `None` for open-loop processes or when
    /// the next issue would fall at/after the horizon.
    pub fn after_completion(
        &mut self,
        client: usize,
        completion_cycle: u64,
        horizon_cycles: u64,
    ) -> Option<Request> {
        let ArrivalProcess::ClosedLoop { think_cycles, .. } = self.config.process else {
            return None;
        };
        let arrival = completion_cycle.saturating_add(think_cycles);
        if arrival >= horizon_cycles {
            return None;
        }
        Some(self.mint(arrival, Some(client)))
    }

    /// Requests minted so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(process: ArrivalProcess) -> LoadGenConfig {
        LoadGenConfig {
            process,
            seed: 42,
            classes: 1,
            high_priority_fraction: 0.0,
            deadline_cycles: None,
        }
    }

    /// The whole open-loop stream drawn up front in one batch loop: the
    /// reference the lazy [`LoadGen::next_arrival`] must reproduce.
    fn batch_stream(config: LoadGenConfig, horizon: u64) -> Vec<Request> {
        let mut g = LoadGen::new(config);
        let mut out = Vec::new();
        let mut t = 0u64;
        match config.process {
            ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles,
            } => loop {
                let u = g.rng.next_f64();
                let gap = (-(1.0 - u).ln() * mean_interarrival_cycles).ceil();
                let gap = if gap < 1.0 { 1 } else { gap as u64 };
                t = t.saturating_add(gap);
                if t >= horizon {
                    return out;
                }
                out.push(g.mint(t, None));
            },
            ArrivalProcess::OpenUniform { interval_cycles } => {
                while t < horizon {
                    out.push(g.mint(t, None));
                    t = t.saturating_add(interval_cycles);
                }
                out
            }
            ArrivalProcess::ClosedLoop { .. } => unreachable!("open loops only"),
        }
    }

    #[test]
    fn lazy_stream_matches_the_batch_loop() {
        let processes = [
            ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: 37.5,
            },
            ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: 0.25,
            },
            ArrivalProcess::OpenUniform { interval_cycles: 7 },
            ArrivalProcess::OpenUniform { interval_cycles: 1 },
        ];
        for process in processes {
            for seed in [1, 42, 7919] {
                for horizon in [0, 1, 100, 25_000] {
                    let config = LoadGenConfig {
                        process,
                        seed,
                        classes: 3,
                        high_priority_fraction: 0.3,
                        deadline_cycles: Some(500),
                    };
                    let mut lazy = LoadGen::new(config);
                    let drawn: Vec<Request> =
                        std::iter::from_fn(|| lazy.next_arrival(horizon)).collect();
                    let reference = batch_stream(config, horizon);
                    let fields = |r: &Request| (r.arrival, r.id, r.class, r.priority, r.deadline);
                    assert_eq!(
                        drawn.iter().map(fields).collect::<Vec<_>>(),
                        reference.iter().map(fields).collect::<Vec<_>>(),
                        "{process:?} seed {seed} horizon {horizon}"
                    );
                    assert_eq!(lazy.issued(), reference.len() as u64);
                    assert_eq!(LoadGen::new(config).initial_arrivals(horizon), reference);
                }
            }
        }
    }

    #[test]
    fn saturated_uniform_cursor_ends_the_stream() {
        let mut g = LoadGen::new(cfg(ArrivalProcess::OpenUniform {
            interval_cycles: u64::MAX / 2,
        }));
        let times: Vec<u64> = std::iter::from_fn(|| g.next_arrival(u64::MAX))
            .map(|r| r.arrival)
            .collect();
        assert_eq!(times, [0, u64::MAX / 2, u64::MAX - 1]);
        for _ in 0..3 {
            assert_eq!(g.next_arrival(u64::MAX), None);
        }
        assert_eq!(g.issued(), 3);
    }

    #[test]
    fn closed_loop_draws_no_open_arrivals() {
        let mut g = LoadGen::new(cfg(ArrivalProcess::ClosedLoop {
            clients: 2,
            think_cycles: 10,
        }));
        assert_eq!(g.next_arrival(1_000), None);
        assert_eq!(g.issued(), 0);
    }

    #[test]
    fn uniform_arrivals_are_a_grid() {
        let mut g = LoadGen::new(cfg(ArrivalProcess::OpenUniform {
            interval_cycles: 10,
        }));
        let arr = g.initial_arrivals(35);
        let times: Vec<u64> = arr.iter().map(|r| r.arrival).collect();
        assert_eq!(times, [0, 10, 20, 30]);
        assert_eq!(g.issued(), 4);
        // Ids are dense and ordered.
        let ids: Vec<u64> = arr.iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
    }

    #[test]
    fn poisson_stream_is_seed_deterministic_and_rate_plausible() {
        let make = || {
            let mut g = LoadGen::new(cfg(ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: 100.0,
            }));
            g.initial_arrivals(1_000_000)
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
        // ~10k arrivals expected; allow wide slack.
        assert!(a.len() > 8_000 && a.len() < 12_000, "{}", a.len());
        // Strictly increasing arrival times.
        assert!(a.windows(2).all(|w| w[0].arrival < w[1].arrival));
    }

    #[test]
    fn different_seeds_differ() {
        let mut g1 = LoadGen::new(cfg(ArrivalProcess::OpenPoisson {
            mean_interarrival_cycles: 50.0,
        }));
        let mut g2 = LoadGen::new(LoadGenConfig {
            seed: 43,
            ..cfg(ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: 50.0,
            })
        });
        assert_ne!(g1.initial_arrivals(100_000), g2.initial_arrivals(100_000));
    }

    #[test]
    fn deadlines_and_priorities_are_applied() {
        let mut config = cfg(ArrivalProcess::OpenUniform { interval_cycles: 5 });
        config.deadline_cycles = Some(1000);
        config.high_priority_fraction = 0.5;
        config.classes = 3;
        let mut g = LoadGen::new(config);
        let arr = g.initial_arrivals(10_000);
        assert!(arr.iter().all(|r| r.deadline == Some(r.arrival + 1000)));
        let high = arr.iter().filter(|r| r.priority == Priority::High).count();
        // Half ± slack.
        assert!(high > arr.len() / 3 && high < 2 * arr.len() / 3);
        assert!(arr.iter().any(|r| r.class == 0));
        assert!(arr.iter().any(|r| r.class == 2));
    }

    #[test]
    fn far_future_deadline_saturates_instead_of_wrapping() {
        let mut config = cfg(ArrivalProcess::OpenUniform { interval_cycles: 5 });
        config.deadline_cycles = Some(u64::MAX);
        let arr = LoadGen::new(config).initial_arrivals(100);
        assert!(arr.iter().any(|r| r.arrival > 0));
        assert!(arr.iter().all(|r| r.deadline == Some(u64::MAX)));
    }

    #[test]
    fn closed_loop_seeds_one_request_per_client() {
        let mut g = LoadGen::new(cfg(ArrivalProcess::ClosedLoop {
            clients: 3,
            think_cycles: 100,
        }));
        assert!(g.is_closed_loop());
        let arr = g.initial_arrivals(1_000);
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].client, Some(1));
        // Feedback honours think time and the horizon.
        let next = g.after_completion(1, 500, 1_000).expect("inside horizon");
        assert_eq!(next.arrival, 600);
        assert_eq!(next.client, Some(1));
        assert!(g.after_completion(1, 950, 1_000).is_none());
    }

    #[test]
    fn open_loop_has_no_feedback() {
        let mut g = LoadGen::new(cfg(ArrivalProcess::OpenUniform { interval_cycles: 5 }));
        assert!(g.after_completion(0, 10, 1_000).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one workload class")]
    fn zero_classes_rejected() {
        let mut c = cfg(ArrivalProcess::OpenUniform { interval_cycles: 5 });
        c.classes = 0;
        let _ = LoadGen::new(c);
    }
}
