//! The paired CPU-overhead harness: what an instrument costs, as the
//! extra process CPU of the same work run with it attached.
//!
//! The harness compares CPU time, not wall clock: identical runs on a
//! shared host vary several-fold in wall time with background load,
//! while CPU time measures the work an instrument adds. A cell's bare
//! and instrumented samples are taken in interleaved pairs, in
//! alternating order, so both halves of a pair see the same ambient
//! load and neither side is always first; the reading is the median
//! paired delta over the bare median, which cancels drift between
//! pairs and discards the pairs a load burst still splits.
//!
//! The CPU clock ticks at 10 ms, so a sample repeats its cell's unit
//! of work until the bare median is at least [`MIN_BARE_TICKS`] and
//! one tick is at most 1 %. The repeat count is measured, never fixed:
//! a bare median under the floor is not reported but recalibrated, so
//! a faster engine or host raises the count instead of blurring the
//! reading.

use crate::Recorder;

/// Interleaved (bare, instrumented) pairs per cell and attempt.
pub const PAIRS: usize = 7;
/// Measurements a gated row gets; it fails only when all are over
/// budget (a long burst of background load can spoil one).
pub const ATTEMPTS: usize = 3;
/// The extra CPU a gated row may cost, in percent of the bare run.
pub const BUDGET_PCT: f64 = 5.0;
/// The least bare median, in CPU ticks, a reading may rest on.
pub const MIN_BARE_TICKS: i64 = 100;
/// What calibration sizes a bare sample to: far enough above the
/// floor that run-to-run spread seldom forces a recalibration.
const TARGET_TICKS: u64 = 125;

/// User+system CPU time this process has consumed so far, in clock
/// ticks, from `/proc/self/stat`. Includes reaped threads, so a delta
/// around a run captures every thread the run started.
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The comm field may contain spaces; fields resume after ')'.
    // utime and stime are overall fields 14 and 15 (1-based), i.e.
    // 11 and 12 after the parenthesized comm.
    let rest = stat.rsplit(')').next().expect("stat format");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

/// The upper median of `v` (the middle element after sorting).
fn median(mut v: Vec<i64>) -> i64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// One cell's reading, in CPU ticks: the bare median and the median
/// paired delta of the instrumented side over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paired {
    /// Median CPU ticks of a bare sample.
    pub bare: i64,
    /// Median of the per-pair instrumented-minus-bare ticks.
    pub delta: i64,
}

impl Paired {
    /// Reads one attempt's `(bare, instrumented)` samples. `None` when
    /// the bare median is under [`MIN_BARE_TICKS`]: one tick would be
    /// over 1 % of it, too coarse to report.
    pub fn of(samples: &[(u64, u64)]) -> Option<Paired> {
        let bare = median(samples.iter().map(|&(b, _)| b as i64).collect());
        let delta = median(samples.iter().map(|&(b, i)| i as i64 - b as i64).collect());
        (bare >= MIN_BARE_TICKS).then_some(Paired { bare, delta })
    }

    /// The extra CPU, in percent of the bare median.
    pub fn pct(&self) -> f64 {
        aggregate(&[*self])
    }
}

/// The overhead of several cells together: their summed deltas over
/// their summed bare medians, in percent.
pub fn aggregate(cells: &[Paired]) -> f64 {
    let bare: i64 = cells.iter().map(|c| c.bare).sum();
    let delta: i64 = cells.iter().map(|c| c.delta).sum();
    100.0 * delta as f64 / bare as f64
}

/// A gated row's verdict over its attempts' overheads: it passes when
/// any attempt came in under [`BUDGET_PCT`].
pub fn passes(attempts: &[f64]) -> bool {
    attempts.iter().any(|&p| p < BUDGET_PCT)
}

/// One measured comparison: a unit of work run bare and instrumented.
pub struct Cell<'a> {
    label: String,
    gated: bool,
    /// Units of work per sample; 0 until calibrated.
    units: u32,
    /// Draws one sample: runs a side's unit of work `units` times
    /// (`true` for the instrumented side), returning the ticks spent.
    sample: Box<dyn FnMut(bool, u32) -> u64 + 'a>,
}

impl<'a> Cell<'a> {
    /// A cell over any sampler. `gated` cells count toward their row's
    /// verdict; the others are measured and reported for context.
    pub fn new(
        label: impl Into<String>,
        gated: bool,
        sample: impl FnMut(bool, u32) -> u64 + 'a,
    ) -> Cell<'a> {
        Cell {
            label: label.into(),
            gated,
            units: 0,
            sample: Box::new(sample),
        }
    }

    /// A cell on the process CPU clock: a sample runs `unit` `units`
    /// times, then `check` sees the last output, outside the timed
    /// span.
    pub fn timed<T>(
        label: impl Into<String>,
        gated: bool,
        mut unit: impl FnMut(bool) -> T + 'a,
        mut check: impl FnMut(bool, &T) + 'a,
    ) -> Cell<'a> {
        Cell::new(label, gated, move |instrumented, units| {
            let before = cpu_ticks();
            let mut out = unit(instrumented);
            for _ in 1..units {
                out = unit(instrumented);
            }
            let spent = cpu_ticks() - before;
            check(instrumented, &out);
            spent
        })
    }

    /// One attempt: [`PAIRS`] interleaved pairs in alternating order.
    /// A bare median under the floor rescales the units and measures
    /// again; it is never returned.
    fn measure(&mut self) -> Paired {
        if self.units == 0 {
            // One unit of each side warms up; the bare one's cost is
            // the first estimate, which a short median corrects.
            (self.sample)(true, 1);
            self.units = scaled(1, (self.sample)(false, 1));
        }
        loop {
            let samples: Vec<(u64, u64)> = (0..PAIRS)
                .map(|pair| {
                    // Odd pairs run the instrumented side first.
                    let flip = pair % 2 == 1;
                    let a = (self.sample)(flip, self.units);
                    let b = (self.sample)(!flip, self.units);
                    if flip {
                        (b, a)
                    } else {
                        (a, b)
                    }
                })
                .collect();
            if let Some(reading) = Paired::of(&samples) {
                return reading;
            }
            let bare = median(samples.iter().map(|&(b, _)| b as i64).collect());
            let units = scaled(self.units, bare as u64);
            println!(
                "  {}: bare median {bare} ticks < {MIN_BARE_TICKS}, {} -> {units} units",
                self.label, self.units
            );
            self.units = units;
        }
    }
}

/// The units that make a sample of [`TARGET_TICKS`], given that
/// `units` took `ticks`.
fn scaled(units: u32, ticks: u64) -> u32 {
    let units = (u64::from(units) * TARGET_TICKS).div_ceil(ticks.max(1));
    u32::try_from(units.max(1)).expect("units fit a u32")
}

/// What a row measured.
pub struct Outcome {
    /// The row's name.
    pub name: &'static str,
    /// Whether the row is judged against [`BUDGET_PCT`].
    pub gated: bool,
    /// Each attempt's reading per cell.
    pub readings: Vec<Vec<Paired>>,
    /// Each attempt's overhead: the aggregate of the gated cells, or
    /// of every cell in an ungated row.
    pub pct: Vec<f64>,
}

impl Outcome {
    /// `pass` or `FAIL` by [`passes`], or `not gated`.
    pub fn verdict(&self) -> &'static str {
        match (self.gated, passes(&self.pct)) {
            (false, _) => "not gated",
            (true, true) => "pass",
            (true, false) => "FAIL",
        }
    }
}

/// Measures one row of the overhead table: `cells` measured together
/// and, when any is gated, judged on the aggregate of the gated ones.
/// A gated row gets up to [`ATTEMPTS`] attempts, stopping at the first
/// under budget; an ungated one gets one. Prints every cell's reading
/// and records it as `overhead_pct` and `bare_ticks` under `row`,
/// `cell` and `attempt` labels, and the row's aggregate as
/// `overhead_pct` without `cell`.
pub fn run_row(name: &'static str, mut cells: Vec<Cell<'_>>, rec: &Recorder) -> Outcome {
    let gated = cells.iter().any(|c| c.gated);
    let mut out = Outcome {
        name,
        gated,
        readings: Vec::new(),
        pct: Vec::new(),
    };
    for attempt in 1..=if gated { ATTEMPTS } else { 1 } {
        let att = attempt.to_string();
        let mut scored = Vec::new();
        let mut readings = Vec::new();
        for cell in &mut cells {
            let r = cell.measure();
            let labels = [
                ("row", name),
                ("cell", cell.label.as_str()),
                ("attempt", att.as_str()),
            ];
            rec.record("overhead_pct", &labels, r.pct(), None);
            rec.record("bare_ticks", &labels, r.bare as f64, None);
            let note = if gated && !cell.gated {
                " (not gated)"
            } else {
                ""
            };
            println!(
                "  #{attempt} {:<26} bare {:>4} ticks ({:>3} units), delta {:>+4} ticks: {:>+6.1}%{note}",
                cell.label, r.bare, cell.units, r.delta, r.pct()
            );
            if cell.gated || !gated {
                scored.push(r);
            }
            readings.push(r);
        }
        let pct = aggregate(&scored);
        let labels = [("row", name), ("attempt", att.as_str())];
        rec.record("overhead_pct", &labels, pct, None);
        out.readings.push(readings);
        out.pct.push(pct);
        if pct < BUDGET_PCT {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic CPU clock: a unit costs `bare` ticks bare and
    /// `instrumented` ticks instrumented.
    fn linear(bare: u64, instrumented: u64) -> impl FnMut(bool, u32) -> u64 {
        move |on, units| u64::from(units) * if on { instrumented } else { bare }
    }

    fn run(cells: Vec<Cell<'_>>) -> Outcome {
        run_row("unit", cells, &Recorder::new("unit"))
    }

    fn assert_resolved(out: &Outcome) {
        for r in out.readings.iter().flatten() {
            assert!(
                r.bare >= MIN_BARE_TICKS,
                "reported a {}-tick bare median",
                r.bare
            );
        }
    }

    #[test]
    fn a_tenth_dearer_fails_every_attempt() {
        let out = run(vec![Cell::new("dear", true, linear(10, 11))]);
        assert_eq!(out.pct.len(), ATTEMPTS);
        assert!(out.pct.iter().all(|&p| p >= BUDGET_PCT), "{:?}", out.pct);
        assert_eq!(out.verdict(), "FAIL");
        assert_resolved(&out);
        // The same on exact samples: 10 % over a 100-tick median.
        let dear = Paired::of(&[(100, 110); PAIRS]).expect("resolved");
        assert_eq!(dear.pct(), 10.0);
        assert!(!passes(&[dear.pct(); ATTEMPTS]));
    }

    #[test]
    fn a_free_instrument_passes_on_the_first_attempt() {
        let out = run(vec![Cell::new("free", true, linear(7, 7))]);
        assert_eq!(out.pct, vec![0.0]);
        assert_eq!(out.verdict(), "pass");
        assert_resolved(&out);
    }

    #[test]
    fn only_gated_cells_count_and_an_ungated_row_measures_once() {
        let out = run(vec![
            Cell::new("gated", true, linear(10, 10)),
            Cell::new("context", false, linear(10, 20)),
        ]);
        assert_eq!(out.pct, vec![0.0]);
        assert!((out.readings[0][1].pct() - 100.0).abs() < 1e-9);
        let out = run(vec![Cell::new("all", false, linear(10, 20))]);
        assert_eq!(out.readings.len(), 1);
        assert_eq!(out.verdict(), "not gated");
    }

    #[test]
    fn a_coarse_bare_median_is_recalibrated_not_reported() {
        // 99 ticks is one tick short of the floor.
        assert_eq!(Paired::of(&[(99, 99); PAIRS]), None);
        assert!(Paired::of(&[(100, 100); PAIRS]).is_some());
        // A 1-tick unit: the first estimate alone must reach the floor.
        let out = run(vec![Cell::new("tiny", true, linear(1, 1))]);
        assert_resolved(&out);
        // The host turns 4x faster mid-attempt: the attempt's bare
        // median falls under the floor, and the harness rescales and
        // measures again instead of reporting it.
        let mut calls = 0u32;
        let faster = move |_on: bool, units: u32| {
            calls += 1;
            u64::from(units) * if calls <= 6 { 4 } else { 1 }
        };
        let out = run(vec![Cell::new("faster", true, faster)]);
        assert_eq!(out.readings.len(), 1);
        assert_eq!(out.readings[0][0].bare, TARGET_TICKS as i64);
        assert_resolved(&out);
    }
}
