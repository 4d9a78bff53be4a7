//! Property-based tests for the numeric kernels.

use rcs_numeric::ode::{rk4_step, Rk4Scratch};
use rcs_testkit::check;

/// RK4 integrates linear decay to the analytic solution.
#[test]
fn rk4_matches_exponential_decay() {
    check("rk4_matches_exponential_decay", |g| {
        let lambda = g.draw(0.05..5.0f64);
        let y0 = g.draw(-50.0..50.0f64);
        let t1 = g.draw(0.1..5.0f64);
        let steps = (t1 / 1e-3).ceil();
        let dt = t1 / steps;
        let mut y = vec![y0];
        let mut scratch = Rk4Scratch::new(1);
        let mut decay = |_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = -lambda * y[0];
        let mut t = 0.0;
        for _ in 0..steps as usize {
            rk4_step(&mut y, t, dt, &mut decay, &mut scratch);
            t += dt;
        }
        let analytic = y0 * (-lambda * t1).exp();
        assert!((y[0] - analytic).abs() < 1e-6 * y0.abs().max(1.0));
    });
}
