//! A diurnal day/night cycle — the elastic-membership target workload.
//!
//! Metadata load on real clusters follows the working day: a large
//! population is active during office hours and a skeleton crew at
//! night. A fixed-size cluster must be provisioned for the daytime peak
//! and wastes MDS-hours all night; an elastic cluster with a `howmany`
//! hook grows for the day and drains back down after dark. This
//! workload distills that shape:
//!
//! * **day clients** are active only inside the day window of each
//!   period, where they burst through a per-day op budget and then park
//!   until the next morning ([`mantle_mds::Workload::next_ready_at`]);
//! * **night clients** issue the same per-period budget but uniformly
//!   paced around the clock — the baseline that keeps the cluster from
//!   ever being idle.
//!
//! Every client issues `ops_per_day × days` ops total, so the run spans
//! `days` full periods and the load swings between `night_clients` and
//! `clients` active streams. Deterministic given the seed; the pacing is
//! a pure function of `(client, now)`.

use mantle_mds::{ClientOp, Workload};
use mantle_namespace::{Namespace, NodeId, OpKind};
use mantle_sim::{SimRng, SimTime};

/// Day/night op generator: bursty daytime clients over grouped private
/// directories, plus a uniformly-paced nighttime baseline.
#[derive(Debug, Clone)]
pub struct Diurnal {
    clients: usize,
    night_clients: usize,
    days: u64,
    ops_per_day: u64,
    period: SimTime,
    day_us: u64,
    night_interval_us: u64,
    write_fraction: f64,
    issued: Vec<u64>,
    private: Vec<NodeId>,
    rngs: Vec<SimRng>,
}

impl Diurnal {
    /// New cycle: `clients` total, of which the first `night_clients`
    /// run around the clock. Each client issues `ops_per_day` ops per
    /// `period`, for `days` periods; the day window is `day_fraction` of
    /// the period; `write_fraction` of ops mutate.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        clients: usize,
        night_clients: usize,
        days: u64,
        ops_per_day: u64,
        period: SimTime,
        day_fraction: f64,
        write_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(clients > 0 && night_clients <= clients);
        assert!(days > 0 && ops_per_day > 0);
        assert!(period > SimTime::ZERO);
        assert!((0.0..=1.0).contains(&day_fraction));
        assert!((0.0..=1.0).contains(&write_fraction));
        let p = period.as_micros();
        let master = SimRng::new(seed);
        Diurnal {
            clients,
            night_clients,
            days,
            ops_per_day,
            period,
            day_us: (p as f64 * day_fraction) as u64,
            night_interval_us: (p / ops_per_day).max(1),
            write_fraction,
            issued: vec![0; clients],
            private: Vec::new(),
            rngs: (0..clients)
                .map(|c| master.stream_n("diurnal-client", c))
                .collect(),
        }
    }

    /// The canonical shape: a 40%-of-period day window and a 20% write
    /// mix.
    pub fn cycle(
        clients: usize,
        night_clients: usize,
        days: u64,
        ops_per_day: u64,
        period: SimTime,
        seed: u64,
    ) -> Self {
        Diurnal::new(
            clients,
            night_clients,
            days,
            ops_per_day,
            period,
            0.4,
            0.2,
            seed,
        )
    }

    /// Total ops each client will issue over the whole run.
    pub fn ops_per_client(&self) -> u64 {
        self.ops_per_day * self.days
    }
}

impl Workload for Diurnal {
    fn num_clients(&self) -> usize {
        self.clients
    }

    fn setup(&mut self, ns: &mut Namespace) {
        // One private dir per client, grouped 16 to a parent so subtree
        // partitioning (and join re-homing) has units to move.
        self.private = (0..self.clients)
            .map(|c| ns.mkdir_p(&format!("/diurnal/g{}/c{}", c / 16, c % 16)))
            .collect();
    }

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        if self.issued[client] >= self.ops_per_client() {
            return None;
        }
        self.issued[client] += 1;
        let r = self.rngs[client].f64();
        let kind = if r < self.write_fraction {
            OpKind::Create
        } else if r < self.write_fraction + 0.2 {
            OpKind::Readdir
        } else {
            OpKind::Stat
        };
        Some(ClientOp {
            dir: self.private[client],
            kind,
        })
    }

    fn next_ready_at(&mut self, client: usize, now: SimTime) -> Option<SimTime> {
        if self.issued[client] >= self.ops_per_client() {
            return None; // finished: the cluster retires it via next()
        }
        let p = self.period.as_micros();
        let now_us = now.as_micros();
        if client < self.night_clients {
            // Uniform pacing: op i is due at i × interval.
            let due = self.issued[client] * self.night_interval_us;
            return (due > now_us).then(|| SimTime::from_micros(due));
        }
        let k = now_us / p;
        let in_day = now_us - k * p < self.day_us;
        if in_day && self.issued[client] < (k + 1) * self.ops_per_day {
            None // inside the day window with budget left: ready now
        } else {
            // Night, or today's budget burnt: park until next morning.
            Some(SimTime::from_micros((k + 1) * p))
        }
    }

    fn name(&self) -> &str {
        "diurnal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Diurnal {
        // 6 clients (2 nocturnal), 3 days of 1 s, 100 ops/day, day = 40%.
        Diurnal::cycle(6, 2, 3, 100, SimTime::from_secs(1), 9)
    }

    #[test]
    fn builds_grouped_private_dirs() {
        let mut w = Diurnal::cycle(20, 2, 2, 10, SimTime::from_secs(1), 1);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        assert_eq!(w.private.len(), 20);
    }

    #[test]
    fn day_client_parks_at_night_and_wakes_next_morning() {
        let mut w = mk();
        // 500 ms is past the 400 ms day window of period 0.
        let night = SimTime::from_millis(500);
        assert_eq!(
            w.next_ready_at(5, night),
            Some(SimTime::from_secs(1)),
            "day client sleeps until the next period"
        );
        // 100 ms is inside the day window with budget left.
        assert_eq!(w.next_ready_at(5, SimTime::from_millis(100)), None);
    }

    #[test]
    fn day_client_parks_when_daily_budget_is_burnt() {
        let mut w = mk();
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        for _ in 0..100 {
            w.next(5, &ns, SimTime::ZERO).expect("budget left");
        }
        // Budget for day 0 gone: even mid-morning it parks.
        assert_eq!(
            w.next_ready_at(5, SimTime::from_millis(100)),
            Some(SimTime::from_secs(1))
        );
        // …and day 1's budget admits it again.
        assert_eq!(w.next_ready_at(5, SimTime::from_millis(1_100)), None);
    }

    #[test]
    fn night_client_is_uniformly_paced() {
        let mut w = mk();
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        // interval = 1 s / 100 ops = 10 ms: op 0 due at 0, op 1 at 10 ms.
        assert_eq!(w.next_ready_at(0, SimTime::ZERO), None);
        w.next(0, &ns, SimTime::ZERO).unwrap();
        assert_eq!(
            w.next_ready_at(0, SimTime::ZERO),
            Some(SimTime::from_millis(10))
        );
        assert_eq!(w.next_ready_at(0, SimTime::from_millis(10)), None);
    }

    #[test]
    fn every_client_issues_exactly_its_quota() {
        let mut w = mk();
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        for c in 0..6 {
            let mut n = 0;
            while w.next(c, &ns, SimTime::ZERO).is_some() {
                n += 1;
            }
            assert_eq!(n, 300, "client {c}: 100 ops × 3 days");
            assert_eq!(w.next_ready_at(c, SimTime::ZERO), None, "finished clients");
        }
    }

    #[test]
    fn deterministic_across_forks() {
        let mut a = mk();
        let mut ns = Namespace::default();
        a.setup(&mut ns);
        let mut b = a.clone();
        for c in 0..6 {
            loop {
                let x = a.next(c, &ns, SimTime::ZERO);
                let y = b.next(c, &ns, SimTime::ZERO);
                match (x, y) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.dir, x.kind), (y.dir, y.kind));
                    }
                    (None, None) => break,
                    _ => panic!("fork diverged for client {c}"),
                }
            }
        }
    }
}
