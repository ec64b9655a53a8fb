//! Seeded arrival schedules and the open-loop scheduler.
//!
//! An open loop sends on a schedule whether or not earlier requests
//! have completed, and times each request from the instant it was
//! *due*, so a stall is charged to every request it delays instead of
//! silently thinning the load (no coordinated omission). The scheduler
//! is generic over a clock so its arithmetic is unit-tested against a
//! fake one.

use std::time::Instant;

/// SplitMix64: the benchmark's own small seeded generator, so that
/// schedules and query selection depend on `--seed` and nothing else.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// Poisson arrival instants (seconds from 0) at `rate`/s over
/// `duration` seconds.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
    let mut t = rng.exp_gap(rate);
    while t < duration {
        out.push(t);
        t += rng.exp_gap(rate);
    }
    out
}

/// Evenly spaced arrival instants at `rate`/s over `duration` seconds,
/// the first at a seeded offset within one interval.
pub fn even_schedule(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let phase = rng.unit() / rate;
    (0..)
        .map(|i| phase + i as f64 / rate)
        .take_while(|&t| t < duration)
        .collect()
}

/// Seconds since the run started, and a way to wait for an instant.
pub trait Clock {
    fn now(&self) -> f64;
    fn wait_until(&self, t: f64);
}

/// Wall clock that waits without sleeping: a sleeping thread lets its
/// (virtual) core halt, and waking a halted core on a shared host costs
/// up to milliseconds — measured here as a generator running 1–3.5 ms
/// late at p99 — which would be charged to the system as latency. Far
/// from the deadline the wait yields, so other runnable threads get the
/// core; the last stretch spins.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn wait_until(&self, t: f64) {
        loop {
            let left = t - self.now();
            if left <= 0.0 {
                return;
            }
            if left > 200e-6 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// A clock that only moves when told to: `wait_until` jumps forward,
/// `advance` models service time.
#[cfg(test)]
#[derive(Default)]
pub struct FakeClock(std::cell::Cell<f64>);

#[cfg(test)]
impl FakeClock {
    pub fn advance(&self, dt: f64) {
        self.0.set(self.0.get() + dt);
    }
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now(&self) -> f64 {
        self.0.get()
    }

    fn wait_until(&self, t: f64) {
        if t > self.0.get() {
            self.0.set(t);
        }
    }
}

/// One executed arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the request was due.
    pub due: f64,
    /// When the generator actually started it (`started − due` is how
    /// late the generator ran).
    pub started: f64,
    /// When it completed (`done − due` is the latency reported).
    pub done: f64,
    /// Whether the operation succeeded.
    pub ok: bool,
}

impl Sample {
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    pub fn lag(&self) -> f64 {
        self.started - self.due
    }
}

/// Runs `arrivals` (ascending due times on `clock`) one after the other
/// on the calling thread: wait until each is due, run
/// it, record when it finished. A request that finds the thread still
/// busy starts late and is charged the wait. Stops early once `stop`
/// answers true (checked before each arrival).
pub fn run_open_loop<C: Clock, A: Copy>(
    clock: &C,
    arrivals: &[(f64, A)],
    mut exec: impl FnMut(A) -> bool,
    mut stop: impl FnMut() -> bool,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(arrivals.len());
    for &(due, a) in arrivals {
        if stop() {
            break;
        }
        clock.wait_until(due);
        let started = clock.now();
        let ok = exec(a);
        out.push(Sample {
            due,
            started,
            done: clock.now(),
            ok,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_poisson_shaped() {
        let a = poisson_schedule(&mut Rng::new(11), 500.0, 20.0);
        let b = poisson_schedule(&mut Rng::new(11), 500.0, 20.0);
        let c = poisson_schedule(&mut Rng::new(12), 500.0, 20.0);
        assert_eq!(a, b, "equal seeds give equal schedules");
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && *a.last().unwrap() < 20.0);
        // 10 000 expected arrivals, σ = 100.
        assert!((a.len() as f64 - 10_000.0).abs() < 500.0, "{}", a.len());
        // Exponential gaps: about e⁻¹ of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 1.0 / 500.0).count();
        let share = long as f64 / (a.len() - 1) as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.03, "{share}");
    }

    #[test]
    fn even_schedule_is_seeded_only_in_its_phase() {
        let a = even_schedule(&mut Rng::new(5), 500.0, 2.0);
        let b = even_schedule(&mut Rng::new(6), 500.0, 2.0);
        assert_eq!(a.len(), 1000);
        assert!(a[0] > 0.0 && a[0] <= 0.002 && a[0] != b[0]);
        assert!(a.windows(2).all(|w| (w[1] - w[0] - 0.002).abs() < 1e-9));
        assert!(*a.last().unwrap() < 2.0);
    }

    #[test]
    fn latency_counts_from_the_due_instant_not_the_start() {
        // Arrivals every 1 s; the second request stalls for 2.5 s, so
        // the third and fourth start late and must be charged the wait.
        let clock = FakeClock::default();
        let service = [0.1, 2.5, 0.1, 0.1, 0.1];
        let arrivals: Vec<(f64, usize)> = (0..5).map(|i| (i as f64, i)).collect();
        let samples = run_open_loop(
            &clock,
            &arrivals,
            |i| {
                clock.advance(service[i]);
                true
            },
            || false,
        );
        let lat: Vec<f64> = samples
            .iter()
            .map(|s| (s.latency() * 10.0).round() / 10.0)
            .collect();
        // A closed loop would have reported 0.1 for requests 2 and 3.
        assert_eq!(lat, vec![0.1, 2.5, 1.6, 0.7, 0.1]);
        let lag: Vec<f64> = samples
            .iter()
            .map(|s| (s.lag() * 10.0).round() / 10.0)
            .collect();
        assert_eq!(lag, vec![0.0, 0.0, 1.5, 0.6, 0.0]);
        assert!(samples.iter().all(|s| s.ok));
    }

    #[test]
    fn stops_before_the_next_arrival_once_told_to() {
        let clock = FakeClock::default();
        let arrivals = [(0.5, ()), (1.0, ()), (1.5, ())];
        let served = std::cell::Cell::new(0);
        let samples = run_open_loop(
            &clock,
            &arrivals,
            |()| {
                served.set(served.get() + 1);
                clock.advance(0.01);
                served.get() < 2
            },
            || served.get() >= 2,
        );
        assert_eq!(samples.len(), 2);
        assert_eq!((samples[0].due, samples[0].started), (0.5, 0.5));
        assert!(samples[0].ok && !samples[1].ok);
    }
}
