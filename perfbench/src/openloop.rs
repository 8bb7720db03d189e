//! The open-loop generator: submissions follow a fixed schedule that does
//! not slow down when the system under test does, and every operation is
//! timed from when it was due, so a stall is charged to every operation
//! queued behind it.

use std::time::{Duration, Instant};

/// A fixed-rate schedule: operation `i` is due `i / rate` seconds after
/// the step starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Offered rate, operations per second.
    pub rate: f64,
    /// Operations in the step.
    pub count: usize,
}

impl Schedule {
    /// Due time of operation `i`, relative to the step's start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// The step's length: when the operation after the last would be due.
    pub fn length(&self) -> Duration {
        self.due(self.count)
    }
}

/// Time as the generator sees it, relative to the step's start.
pub trait Clock {
    /// Time since the step started.
    fn now(&self) -> Duration;
    /// Blocks until `at` (returns at once if it has passed).
    fn sleep_until(&self, at: Duration);
}

/// The wall clock, started at a fixed instant.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        let now = self.now();
        if at > now {
            std::thread::sleep(at - now);
        }
    }
}

/// Runs the schedule: waits for each operation's due time, then calls
/// `submit(i)`, which may block and returns whether to go on. Returns how
/// late each submission started, in ms. A late submission never shifts
/// later due times.
pub fn generate(
    schedule: &Schedule,
    clock: &impl Clock,
    mut submit: impl FnMut(usize) -> bool,
) -> Vec<f64> {
    let mut lateness = Vec::with_capacity(schedule.count);
    for i in 0..schedule.count {
        let due = schedule.due(i);
        clock.sleep_until(due);
        lateness.push(clock.now().saturating_sub(due).as_secs_f64() * 1e3);
        if !submit(i) {
            break;
        }
    }
    lateness
}

/// Due-time latency of each operation in ms: completion minus due time,
/// infinite for an operation that never completed.
pub fn due_latencies_ms(schedule: &Schedule, done: &[Option<Duration>]) -> Vec<f64> {
    done.iter()
        .enumerate()
        .map(|(i, d)| match d {
            Some(d) => d.saturating_sub(schedule.due(i)).as_secs_f64() * 1e3,
            None => f64::INFINITY,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Virtual time: sleeping jumps the clock forward; a submit can stall
    /// it by advancing it directly.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, at: Duration) {
            if at > self.0.get() {
                self.0.set(at);
            }
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let s = Schedule {
            rate: 20.0,
            count: 4,
        };
        assert_eq!(s.due(0), ms(0));
        assert_eq!(s.due(3), ms(150));
        assert_eq!(s.length(), ms(200));
    }

    #[test]
    fn the_generator_stops_when_told() {
        let s = Schedule {
            rate: 100.0,
            count: 8,
        };
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let lateness = generate(&s, &clock, |i| i < 2);
        assert_eq!(lateness.len(), 3);
        assert_eq!(clock.now(), ms(20));
    }

    #[test]
    fn a_stalled_step_does_not_slow_the_schedule() {
        // 100/s: due every 10 ms. Submitting operation 2 stalls for 35 ms.
        let s = Schedule {
            rate: 100.0,
            count: 8,
        };
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let mut started = Vec::new();
        let lateness = generate(&s, &clock, |i| {
            started.push(clock.now());
            if i == 2 {
                clock.0.set(clock.now() + ms(35));
            }
            true
        });
        // Operations 3..5 fall due during the stall and go out back to
        // back at 55 ms; operation 6 is on time again.
        assert_eq!(
            started,
            vec![
                ms(0),
                ms(10),
                ms(20),
                ms(55),
                ms(55),
                ms(55),
                ms(60),
                ms(70)
            ]
        );
        let rounded: Vec<u64> = lateness.iter().map(|l| l.round() as u64).collect();
        assert_eq!(rounded, vec![0, 0, 0, 25, 15, 5, 0, 0]);

        // Each completes 4 ms after its submission, except operation 7,
        // which is lost. Latency runs from the due time, so the stall is
        // charged to the operations that waited behind it.
        let mut done: Vec<Option<Duration>> = started.iter().map(|t| Some(*t + ms(4))).collect();
        done[7] = None;
        let lat: Vec<f64> = due_latencies_ms(&s, &done);
        let rounded: Vec<u64> = lat[..7].iter().map(|l| l.round() as u64).collect();
        assert_eq!(rounded, vec![4, 4, 4, 29, 19, 9, 4]);
        assert!(lat[7].is_infinite());
    }
}
