//! A doubling sleep for polling loops that wait on something they
//! cannot block on (a child process with a kill deadline, a
//! nonblocking listener with side checks between polls).

use std::time::Duration;

/// The first sleep of a fresh [`Backoff`].
const FIRST: Duration = Duration::from_micros(50);

/// Sleeps 50 µs, then twice as long each time, up to a ceiling. A wait
/// that ends soon is noticed within about twice its length instead of
/// a whole fixed quantum; a long one costs no more wake-ups than
/// polling at the ceiling.
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    ceiling: Duration,
}

impl Backoff {
    /// A backoff whose sleeps grow to at most `ceiling`.
    pub fn new(ceiling: Duration) -> Self {
        Self {
            next: FIRST.min(ceiling),
            ceiling,
        }
    }

    /// Sleeps for the current step and doubles the next one.
    pub fn sleep(&mut self) {
        std::thread::sleep(self.step());
    }

    /// The current step; doubles the next one.
    fn step(&mut self) -> Duration {
        let now = self.next;
        self.next = (now * 2).min(self.ceiling);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_double_up_to_the_ceiling() {
        let mut b = Backoff::new(Duration::from_micros(300));
        let steps: Vec<u128> = (0..5).map(|_| b.step().as_micros()).collect();
        assert_eq!(steps, [50, 100, 200, 300, 300]);
    }
}
