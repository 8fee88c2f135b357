//! The deadline model of Equations 3–5.
//!
//! ```text
//! t_collision = D_obj / velocity                         (Eq. 3)
//! t_collision ≥ t_sensor + t_process + t_actuation       (Eq. 4)
//! t_process  ≤ t_collision − t_sensor − t_actuation      (Eq. 5)
//! ```
//!
//! Unless the UAV can alter its trajectory before the deadline expires, a
//! collision occurs; the bound on compute time lets RoSÉ users tune their
//! configurations, and drives the dynamic runtime's model selection
//! (Section 5.3).

/// Fixed latencies outside the compute stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineModel {
    /// Sensor capture + transfer latency (s).
    pub t_sensor: f64,
    /// Actuation latency: command transfer + control response (s).
    pub t_actuation: f64,
}

impl Default for DeadlineModel {
    /// Representative values: ~17 ms sensor (one 60 Hz frame), ~50 ms
    /// actuation (flight-controller response).
    fn default() -> DeadlineModel {
        DeadlineModel {
            t_sensor: 0.017,
            t_actuation: 0.05,
        }
    }
}

impl DeadlineModel {
    /// Equation 3: time until collision at the current speed.
    ///
    /// Returns `f64::INFINITY` when not moving toward the obstacle. Depth
    /// is clamped at zero: the model is fed *decoded* depth readings, and a
    /// negative value (sensor noise near a surface, or a corrupted
    /// message) means the obstacle plane is already reached — a negative
    /// collision time would flip [`meets_deadline`](Self::meets_deadline)
    /// into approving arbitrarily slow pipelines at the exact moment the
    /// situation is most urgent.
    pub fn t_collision(&self, depth_m: f64, velocity: f64) -> f64 {
        if velocity <= 0.0 {
            f64::INFINITY
        } else {
            depth_m.max(0.0) / velocity
        }
    }

    /// Equation 5: the upper bound on compute time, in seconds (may be
    /// negative — the deadline is already blown).
    pub fn t_process(&self, depth_m: f64, velocity: f64) -> f64 {
        self.t_collision(depth_m, velocity) - self.t_sensor - self.t_actuation
    }

    /// Equation 4 check: can a pipeline with `compute_s` of processing
    /// react before impact?
    pub fn meets_deadline(&self, depth_m: f64, velocity: f64, compute_s: f64) -> bool {
        compute_s <= self.t_process(depth_m, velocity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq3_collision_time() {
        let m = DeadlineModel::default();
        assert_eq!(m.t_collision(12.0, 3.0), 4.0);
        assert_eq!(m.t_collision(12.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn eq5_process_bound() {
        let m = DeadlineModel {
            t_sensor: 0.1,
            t_actuation: 0.4,
        };
        // 10 m at 2 m/s -> 5 s to impact; 4.5 s left for compute.
        assert!((m.t_process(10.0, 2.0) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn eq4_deadline_check() {
        let m = DeadlineModel::default();
        // 0.9 m ahead at 9 m/s: 100 ms to impact; 85 ms inference plus
        // sensor+actuation latency violates the deadline (Section 5.2's
        // 12 m/s collision scenario).
        assert!(!m.meets_deadline(0.9, 9.0, 0.085));
        // Far from obstacles the same inference is safe.
        assert!(m.meets_deadline(30.0, 9.0, 0.085));
    }

    /// The satellite bugfix: a negative decoded depth must read as "impact
    /// now", never as a *negative* collision time — `t_process` would go
    /// below every threshold's negation and `meets_deadline` would approve
    /// any pipeline while the UAV is inside the obstacle.
    #[test]
    fn negative_depth_clamps_to_immediate_collision() {
        let m = DeadlineModel::default();
        assert_eq!(m.t_collision(-3.0, 2.0), 0.0);
        // t_process is the (negative) -t_sensor - t_actuation bound...
        assert!((m.t_process(-3.0, 2.0) + m.t_sensor + m.t_actuation).abs() < 1e-12);
        // ...so no nonnegative compute budget can meet the deadline.
        assert!(!m.meets_deadline(-3.0, 2.0, 0.0));
        assert!(!m.meets_deadline(-3.0, 2.0, 0.085));
    }

    #[test]
    fn zero_depth_is_an_expired_deadline() {
        let m = DeadlineModel::default();
        assert_eq!(m.t_collision(0.0, 5.0), 0.0);
        assert!(!m.meets_deadline(0.0, 5.0, 0.0));
    }

    /// Moving away from (or parallel to) the obstacle never deadlines,
    /// regardless of the depth sign.
    #[test]
    fn nonpositive_velocity_never_deadlines() {
        let m = DeadlineModel::default();
        assert_eq!(m.t_collision(10.0, 0.0), f64::INFINITY);
        assert_eq!(m.t_collision(10.0, -4.0), f64::INFINITY);
        assert_eq!(m.t_collision(-10.0, -4.0), f64::INFINITY);
        assert!(m.meets_deadline(10.0, -4.0, 1e9));
    }

    #[test]
    fn faster_flight_tightens_deadline() {
        let m = DeadlineModel::default();
        let slow = m.t_process(10.0, 3.0);
        let fast = m.t_process(10.0, 12.0);
        assert!(fast < slow);
    }
}
